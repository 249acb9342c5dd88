#include "isomorphism/sequential_dp.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <numeric>
#include <span>

#include "isomorphism/dp_scratch.hpp"
#include "support/fault.hpp"
#include "support/parallel.hpp"

namespace ppsi::iso {

namespace {

using detail::ChildLink;
using detail::DpScratch;

/// Gathers per-node child links and solved-children pointers.
struct NodeEnv {
  ChildLink left, right;
  const SolvedNode* left_node = nullptr;
  const SolvedNode* right_node = nullptr;
};

NodeEnv make_env(const treedecomp::TreeDecomposition& td,
                 const std::vector<BagContext>& ctxs,
                 const std::vector<SolvedNode>& nodes,
                 treedecomp::NodeId x) {
  NodeEnv env;
  const auto& kids = td.children[x];
  support::require(kids.size() <= 2, "solve: binary decomposition required");
  if (!kids.empty()) {
    env.left = {true, shared_position_mask(ctxs[x], ctxs[kids[0]])};
    env.left_node = &nodes[kids[0]];
  }
  if (kids.size() == 2) {
    env.right = {true, shared_position_mask(ctxs[x], ctxs[kids[1]])};
    env.right_node = &nodes[kids[1]];
  }
  return env;
}

}  // namespace

namespace detail {

void solve_node_exact(const Graph&, const treedecomp::TreeDecomposition& td,
                      const Pattern& pattern,
                      const std::vector<BagContext>& ctxs,
                      treedecomp::NodeId x, bool separating,
                      DpSolution& solution, std::uint64_t* work) {
  SolvedNode& node = solution.nodes[x];
  node.ctx = ctxs[x];
  const StateCodec& codec = solution.codec;
  const NodeEnv env = make_env(td, ctxs, solution.nodes, x);
  // Survivors stage through the thread's scratch; the node's storage is
  // then sized exactly, so a solved node never carries growth slack and
  // the scratch arena absorbs all churn.
  DpScratch& scratch = DpScratch::local();
  std::vector<StateKey>& survivors = scratch.exact_states;
  const std::size_t bytes_before = support::ScratchArena::bytes_of(survivors);
  survivors.clear();
  // A state survives when some combo's child signatures are all present;
  // work ticks once per probed combo, up to and including the first
  // supported one.
  const SigIndex* left_sigs =
      env.left_node != nullptr ? &env.left_node->sig_groups : nullptr;
  const SigIndex* right_sigs =
      env.right_node != nullptr ? &env.right_node->sig_groups : nullptr;
  enumerate_local_states(
      pattern, node.ctx, codec, separating, [&](StateKey key) {
        if (work != nullptr) ++*work;
        const bool supported = for_each_support_combo(
            codec, node.ctx, key, env.left, env.right, separating,
            [&](const StateKey* sl, const StateKey* sr) {
              if (work != nullptr) ++*work;
              return (left_sigs == nullptr || left_sigs->contains(*sl)) &&
                     (right_sigs == nullptr || right_sigs->contains(*sr));
            });
        if (supported) survivors.push_back(key);
      });
  scratch.arena.settle(bytes_before,
                       support::ScratchArena::bytes_of(survivors));
  node.states.assign(survivors.begin(), survivors.end());
}

void build_sig_groups(const treedecomp::TreeDecomposition& td,
                      const Pattern& pattern,
                      const std::vector<BagContext>& ctxs,
                      treedecomp::NodeId x, DpSolution& solution) {
  SolvedNode& node = solution.nodes[x];
  if (td.parent[x] == treedecomp::kNoNode) return;
  const BagContext& parent_ctx = ctxs[td.parent[x]];
  node.shared_with_parent = shared_position_mask(parent_ctx, node.ctx);
  DpScratch& scratch = DpScratch::local();
  auto& pairs = scratch.sig_pairs;
  const std::size_t n = node.states.size();
  scratch.arena.acquire(pairs, n);
  // One merge builds the child->parent position table; each projection
  // then re-addresses via table loads instead of per-vertex binary search.
  const PositionMap pos_map = make_position_map(node.ctx, parent_ctx);
  const auto project = [&](std::size_t i) {
    return project_to_parent(node.states[i], solution.codec, pattern,
                             node.ctx, pos_map);
  };
  // From kDefaultGrain states on (width > 1), the projections land in
  // state order in parallel, a state with none is marked, and the marked
  // ones are packed out in index order; below that the loop stays serial,
  // which is measurably cheaper than the extra passes.
  if (support::parallel_width(n, support::kDefaultGrain) == 1) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto sig = project(i);
      if (sig.has_value()) pairs.emplace_back(*sig, i);
    }
  } else {
    constexpr std::uint32_t kNoProjection = ~0u;
    pairs.resize(n);
    support::parallel_for(0, n, [&](std::size_t i) {
      const auto sig = project(i);
      pairs[i] = {sig.value_or(StateKey{}),
                  sig.has_value() ? static_cast<std::uint32_t>(i)
                                  : kNoProjection};
    });
    std::size_t kept = 0;
    for (const auto& pair : pairs)
      if (pair.second != kNoProjection) pairs[kept++] = pair;
    pairs.resize(kept);
  }
  const auto sort_bytes = [&] {
    return support::ScratchArena::bytes_of(pairs) +
           support::ScratchArena::bytes_of(scratch.sig_sort_buffer);
  };
  const std::size_t before = sort_bytes();
  node.sig_groups.build(pairs, scratch.sig_sort_buffer);
  scratch.arena.settle(before, sort_bytes());
}

}  // namespace detail

DpSolution solve_sequential(const Graph& g,
                            const treedecomp::TreeDecomposition& td,
                            const Pattern& pattern, const DpOptions& options) {
  const bool separating = options.spec.enabled;
  DpSolution sol;
  sol.separating = separating;
  std::size_t max_bag = 1;
  for (const auto& bag : td.bags) max_bag = std::max(max_bag, bag.size());
  sol.codec = StateCodec::make(pattern.size(),
                               static_cast<std::uint32_t>(max_bag));
  const StateCodec& codec = sol.codec;

  // Precompute all bag contexts (children need the parent's coordinates).
  std::vector<BagContext> ctxs(td.num_nodes());
  for (treedecomp::NodeId x = 0; x < td.num_nodes(); ++x)
    ctxs[x] = make_bag_context(g, td.bags[x], options.spec);

  sol.nodes.resize(td.num_nodes());
  std::uint64_t work = 0;
  detail::DpScratch& scratch = detail::DpScratch::local();
  const std::uint64_t allocs_before = scratch.arena.alloc_events();
  bool preempted = false;
  for (treedecomp::NodeId x : bottom_up_order(td)) {
    // Deadline/token preemption point: one check per node keeps the poll
    // cost negligible against a node's solve work while bounding the
    // overshoot to a single node. The partial solution is discarded by
    // the caller (its own scope check sees the same monotone sources).
    if (options.cancel.cancelled()) {
      preempted = true;
      break;
    }
    PPSI_FAULT_POINT("dp.node");
    detail::solve_node_exact(g, td, pattern, ctxs, x, separating, sol, &work);
    detail::build_sig_groups(td, pattern, ctxs, x, sol);
    sol.metrics.add_rounds(1);
    if (options.release_interior) {
      // x consumed its children's signature groups; nothing reads them (or
      // the children's states) again in a decision-only run.
      for (const treedecomp::NodeId kid : td.children[x])
        sol.nodes[kid].release_interior();
    }
  }
  sol.metrics.add_work(work);
  sol.metrics.add_allocs(scratch.arena.alloc_events() - allocs_before);
  sol.metrics.note_scratch_peak(scratch.arena.peak_bytes());
  if (preempted) return sol;  // partial; accepted stays false

  const SolvedNode& root = sol.nodes[td.root];
  for (std::uint32_t i = 0; i < root.states.size(); ++i) {
    if (detail::accepting_state(codec, separating, root.states[i]))
      sol.accepting.push_back(i);
  }
  sol.accepted = !sol.accepting.empty();
  return sol;
}

namespace {

/// Deduping, capped, k-strided assignment accumulator: candidates insert
/// through a small open-addressing set (ordinal+1 slots over the flat item
/// array), so membership is "first `limit` distinct in enumeration order"
/// — exactly the std::set-based semantics it replaces — while the cap
/// bounds the expansion work as results accumulate.
struct AssignmentAccum {
  std::uint32_t k = 0;
  std::vector<Vertex> items;         ///< count * k, insertion order
  std::vector<std::uint32_t> table;  ///< open addressing; 0 = empty
  std::uint32_t count = 0;

  void reset(std::uint32_t width) {
    k = width;
    items.clear();
    count = 0;
    if (table.size() < 64) table.resize(64);
    std::fill(table.begin(), table.end(), 0);
  }

  static std::uint64_t hash_span(const Vertex* a, std::uint32_t k) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < k; ++i) h = support::hash_combine(h, a[i]);
    return h;
  }

  /// Inserts unless present; returns true when new.
  bool insert(const Vertex* a) {
    if ((static_cast<std::size_t>(count) + 1) * 2 >= table.size()) grow();
    const std::size_t mask = table.size() - 1;
    std::size_t i = hash_span(a, k) & mask;
    while (true) {
      const std::uint32_t slot = table[i];
      if (slot == 0) {
        table[i] = count + 1;
        items.insert(items.end(), a, a + k);
        ++count;
        return true;
      }
      if (std::equal(a, a + k, items.data() + (slot - 1) * std::size_t{k}))
        return false;
      i = (i + 1) & mask;
    }
  }

  const Vertex* at(std::uint32_t ordinal) const {
    return items.data() + std::size_t{ordinal} * k;
  }

  /// Ordinals sorted by lexicographic assignment order (the std::set
  /// iteration order of the map-based recoverer).
  void sorted_ordinals(std::vector<std::uint32_t>& out) const {
    out.resize(count);
    std::iota(out.begin(), out.end(), 0u);
    std::sort(out.begin(), out.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return std::lexicographical_compare(at(a), at(a) + k, at(b),
                                                    at(b) + k);
              });
  }

 private:
  void grow() {
    std::vector<std::uint32_t> old = std::move(table);
    table.assign(old.size() * 2, 0);
    const std::size_t mask = table.size() - 1;
    for (std::uint32_t ordinal = 0; ordinal < count; ++ordinal) {
      std::size_t i = hash_span(at(ordinal), k) & mask;
      while (table[i] != 0) i = (i + 1) & mask;
      table[i] = ordinal + 1;
    }
  }
};

/// Top-down expansion of one valid state into the assignments realized in
/// its subtree (paper §4.2.1). Memoized per (node, state) as a (begin,
/// count) group in one flat k-strided pool; per-state accumulation dedups
/// and caps through AssignmentAccum (one per recursion depth), and each
/// finished group is sorted lexicographically before entering the pool, so
/// outputs are byte-identical to the std::set<Assignment> recoverer this
/// replaces.
class Recoverer {
 public:
  Recoverer(const DpSolution& sol, const treedecomp::TreeDecomposition& td,
            std::size_t limit)
      : sol_(sol), td_(td), limit_(limit), k_(sol.codec.k),
        memo_(td.num_nodes()) {
    for (treedecomp::NodeId x = 0; x < td.num_nodes(); ++x)
      memo_[x].assign(sol_.nodes[x].states.size(), Group{});
  }

  struct Group {
    std::uint32_t begin = kUnset;  ///< first assignment (k-strided) in pool
    std::uint32_t count = 0;
  };
  static constexpr std::uint32_t kUnset = 0xffffffffu;

  Group expand(treedecomp::NodeId x, std::uint32_t state_idx) {
    Group& slot = memo_[x][state_idx];
    if (slot.begin != kUnset) return slot;
    const SolvedNode& node = sol_.nodes[x];
    const StateKey state = node.states[state_idx];
    std::array<Vertex, kMaxPatternSize> base;
    base.fill(kNoVertex);
    for (std::uint32_t v = 0; v < k_; ++v) {
      const std::uint64_t val = sol_.codec.get(state.code, v);
      if (val >= kStateMapped)
        base[v] = node.ctx.vertices[val - kStateMapped];
    }
    AssignmentAccum& acc = accum_at(depth_);
    acc.reset(k_);
    ++depth_;
    const auto& kids = td_.children[x];
    if (kids.empty()) {
      ++work_;
      acc.insert(base.data());
    } else {
      // Re-derive the support combos and expand through every valid pair.
      ChildLink left{true, shared_position_mask(node.ctx,
                                                sol_.nodes[kids[0]].ctx)};
      ChildLink right;
      const SolvedNode* lnode = &sol_.nodes[kids[0]];
      const SolvedNode* rnode = nullptr;
      if (kids.size() == 2) {
        right = {true,
                 shared_position_mask(node.ctx, sol_.nodes[kids[1]].ctx)};
        rnode = &sol_.nodes[kids[1]];
      }
      detail::for_each_support_combo(
          sol_.codec, node.ctx, state, left, right, sol_.separating,
          [&](const StateKey* sl, const StateKey* sr) {
            std::span<const std::uint32_t> lgroup, rgroup;
            if (sl != nullptr) {
              lgroup = lnode->sig_groups.group(*sl);
              if (lgroup.empty()) return false;
            }
            if (sr != nullptr) {
              rgroup = rnode->sig_groups.group(*sr);
              if (rgroup.empty()) return false;
            }
            combine(kids, base.data(), sl != nullptr ? &lgroup : nullptr,
                    sr != nullptr ? &rgroup : nullptr, acc);
            return acc.count >= limit_;
          });
    }
    --depth_;
    // Materialize: sorted (set order), contiguous in the pool.
    acc.sorted_ordinals(order_);
    slot.begin = static_cast<std::uint32_t>(pool_.size() / k_);
    slot.count = acc.count;
    // No per-group exact reserve: libstdc++ reserve allocates exactly the
    // request, which would reallocate-and-copy the whole pool per group
    // (quadratic); insert's geometric growth amortizes instead.
    for (const std::uint32_t ordinal : order_)
      pool_.insert(pool_.end(), acc.at(ordinal), acc.at(ordinal) + k_);
    return slot;
  }

  const Vertex* assignment(Group g, std::uint32_t i) const {
    return pool_.data() + (std::size_t{g.begin} + i) * k_;
  }
  std::uint64_t work() const { return work_; }

 private:
  AssignmentAccum& accum_at(std::size_t depth) {
    while (accums_.size() <= depth)
      accums_.push_back(std::make_unique<AssignmentAccum>());
    return *accums_[depth];
  }

  void combine(const std::vector<treedecomp::NodeId>& kids,
               const Vertex* base,
               const std::span<const std::uint32_t>* lgroup,
               const std::span<const std::uint32_t>* rgroup,
               AssignmentAccum& acc) {
    static constexpr std::uint32_t kNone[1] = {0xffffffffu};
    const std::span<const std::uint32_t> lids =
        lgroup != nullptr ? *lgroup : std::span<const std::uint32_t>(kNone);
    const std::span<const std::uint32_t> rids =
        rgroup != nullptr ? *rgroup : std::span<const std::uint32_t>(kNone);
    for (const std::uint32_t li : lids) {
      Group lg{};
      if (lgroup != nullptr) lg = expand(kids[0], li);
      for (const std::uint32_t ri : rids) {
        Group rg{};
        if (rgroup != nullptr) rg = expand(kids[1], ri);
        merge_products(base, lgroup != nullptr ? &lg : nullptr,
                       rgroup != nullptr ? &rg : nullptr, acc);
        if (acc.count >= limit_) return;
      }
      if (acc.count >= limit_) return;
    }
  }

  void merge_products(const Vertex* base, const Group* lg, const Group* rg,
                      AssignmentAccum& acc) {
    const std::uint32_t lcount = lg != nullptr ? lg->count : 1;
    const std::uint32_t rcount = rg != nullptr ? rg->count : 1;
    std::array<Vertex, kMaxPatternSize> merged;
    for (std::uint32_t la = 0; la < lcount; ++la) {
      for (std::uint32_t ra = 0; ra < rcount; ++ra) {
        ++work_;
        std::copy(base, base + k_, merged.begin());
        bool ok = true;
        const auto fold = [&](const Vertex* contribution) {
          for (std::uint32_t v = 0; v < k_; ++v) {
            if (contribution[v] == kNoVertex) continue;
            if (merged[v] != kNoVertex && merged[v] != contribution[v]) {
              ok = false;
              return;
            }
            merged[v] = contribution[v];
          }
        };
        if (lg != nullptr) fold(assignment(*lg, la));
        if (ok && rg != nullptr) fold(assignment(*rg, ra));
        if (ok) acc.insert(merged.data());
        if (acc.count >= limit_) return;
      }
    }
  }

  const DpSolution& sol_;
  const treedecomp::TreeDecomposition& td_;
  std::size_t limit_;
  std::uint32_t k_;
  std::vector<std::vector<Group>> memo_;       ///< per node, per state
  std::vector<Vertex> pool_;                   ///< finished groups, sorted
  std::vector<std::unique_ptr<AssignmentAccum>> accums_;  ///< per depth
  std::vector<std::uint32_t> order_;
  std::size_t depth_ = 0;
  std::uint64_t work_ = 0;
};

}  // namespace

std::vector<Assignment> recover_assignments(
    const DpSolution& solution, const treedecomp::TreeDecomposition& td,
    std::size_t limit, std::uint64_t* work) {
  std::vector<Assignment> out;
  if (limit == 0) return out;
  Recoverer recoverer(solution, td, limit);
  // Cross-state dedup replicates the legacy std::set<Assignment> exactly:
  // first `limit` distinct assignments over the per-state (sorted) groups
  // in accepting order, returned in sorted order.
  AssignmentAccum all;
  all.reset(solution.codec.k);
  for (const std::uint32_t idx : solution.accepting) {
    const Recoverer::Group group = recoverer.expand(td.root, idx);
    for (std::uint32_t i = 0; i < group.count; ++i) {
      all.insert(recoverer.assignment(group, i));
      if (all.count >= limit) break;
    }
    if (all.count >= limit) break;
  }
  std::vector<std::uint32_t> order;
  all.sorted_ordinals(order);
  out.reserve(order.size());
  for (const std::uint32_t ordinal : order)
    out.emplace_back(all.at(ordinal), all.at(ordinal) + all.k);
  if (work != nullptr) *work = recoverer.work();
  return out;
}

}  // namespace ppsi::iso
