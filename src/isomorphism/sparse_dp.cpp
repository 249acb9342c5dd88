#include "isomorphism/sparse_dp.hpp"

#include <algorithm>
#include <bit>

#include "isomorphism/dp_scratch.hpp"
#include "support/fault.hpp"
#include "support/parallel.hpp"

namespace ppsi::iso {
namespace {

/// Per-vertex merge of two child signatures (both in the parent's
/// coordinate space). Returns false on conflict; otherwise fills the base
/// code and its decoded view, whose U fields are the new-match candidates.
bool merge_signatures(const StateCodec& codec, std::uint64_t shared_l,
                      std::uint64_t shared_r, StateKey sig_l, StateKey sig_r,
                      std::uint64_t* base_code, StateView* base_view) {
  // Bit-parallel walk: a field that is U (0) in both children contributes
  // nothing to the merged code and is exactly a new-match candidate, so
  // only fields with a set bit in either code are visited (ascending, like
  // the k-loop this replaces — first-conflict behavior is unchanged).
  std::uint64_t code = 0;
  StateView view;
  for (std::uint64_t rest = sig_l.code | sig_r.code; rest != 0;) {
    const auto v =
        static_cast<std::uint32_t>(std::countr_zero(rest)) / codec.bits;
    rest &= ~(codec.field_mask << (v * codec.bits));
    const std::uint64_t a = codec.get(sig_l.code, v);
    const std::uint64_t b = codec.get(sig_r.code, v);
    std::uint64_t out;
    if ((a == kStateC && b == kStateU) || (a == kStateU && b == kStateC)) {
      out = kStateC;
      view.c_mask |= 1u << v;
    } else if (a == kStateC || b == kStateC) {
      return false;  // matched in both children, or C vs mapped
    } else if (a >= kStateMapped && b >= kStateMapped) {
      if (a != b) return false;
      out = a;
    } else {
      // Exactly one side mapped; the other is U. Legal only when the bag
      // vertex is invisible to the U side (otherwise that child would have
      // had to map it).
      const std::uint64_t val = a >= kStateMapped ? a : b;
      const std::uint64_t p = val - kStateMapped;
      const std::uint64_t other_shared = a >= kStateMapped ? shared_r : shared_l;
      if ((other_shared >> p) & 1ULL) return false;
      out = val;
    }
    if (out >= kStateMapped) {
      view.mapped_mask |= 1u << v;
      view.image_mask |= 1ULL << (out - kStateMapped);
    }
    code = codec.set(code, v, out);
  }
  const std::uint32_t all = codec.k >= 32 ? ~0u : ((1u << codec.k) - 1);
  view.u_mask = all & ~view.mapped_mask & ~view.c_mask;
  *base_code = code;
  *base_view = view;
  return true;
}

/// All per-node generation state shared across the enumeration lambdas.
/// States are staged in the thread's scratch (emission order) and deduped
/// through its table; the caller copies them into the node once.
struct NodeGen {
  const StateCodec& codec;
  const Pattern& pattern;
  const BagContext& ctx;
  bool separating;
  std::vector<StateKey>& states;
  detail::StateIndexMap& index;

  void emit(StateKey key) {
    if (index.emplace(key, static_cast<std::uint32_t>(states.size())))
      states.push_back(key);
  }

  /// Expands one base state (`code`, decoded as `view`): enumerates
  /// new-match extensions over `free_mask` (U fields of the base), then
  /// labels/bits, emitting every resulting state. Each new match updates
  /// the view in place of a re-decode. `known_labels`/`known_mask` carry
  /// the child-determined inside bits over bag positions (parent
  /// coordinates); `child_bits` is the OR of the children's (iy, oy)
  /// contributions packed as kSepIx/kSepOx.
  void expand(std::uint64_t code, const StateView& view,
              std::uint32_t free_mask, std::uint64_t blocked,
              std::uint64_t known_labels, std::uint64_t known_mask,
              std::uint64_t child_bits) {
    if (free_mask == 0) {
      finish(code, view, known_labels, known_mask, child_bits);
      return;
    }
    const auto v = static_cast<std::uint32_t>(std::countr_zero(free_mask));
    const std::uint32_t rest = free_mask & (free_mask - 1);
    // Option 1: v stays unmatched.
    expand(code, view, rest, blocked, known_labels, known_mask, child_bits);
    // Option 2: map v to a fresh allowed position invisible to both
    // children, adjacent to all mapped pattern neighbors of v.
    if ((pattern.adj_mask(v) & view.c_mask) != 0) return;  // C-U rule later
    std::uint64_t positions =
        ctx.allowed_mask & ~view.image_mask & ~blocked;
    for (std::uint32_t nb = pattern.adj_mask(v) & view.mapped_mask; nb != 0;
         nb &= nb - 1) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(nb));
      positions &= ctx.gadj[codec.get(code, w) - kStateMapped];
    }
    StateView next = view;
    next.mapped_mask |= 1u << v;
    next.u_mask &= ~(1u << v);
    while (positions != 0) {
      const int p = std::countr_zero(positions);
      positions &= positions - 1;
      next.image_mask = view.image_mask | (1ULL << p);
      expand(codec.set(code, v, kStateMapped + static_cast<std::uint64_t>(p)),
             next, rest, blocked, known_labels, known_mask, child_bits);
    }
  }

 private:
  void finish(std::uint64_t code, const StateView& view,
              std::uint64_t known_labels, std::uint64_t known_mask,
              std::uint64_t child_bits) {
    // Enforce the C-U rule (a C vertex whose pattern neighbor stayed U).
    for (std::uint32_t cm = view.c_mask; cm != 0; cm &= cm - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(cm));
      if ((pattern.adj_mask(v) & view.u_mask) != 0) return;
    }
    // Realization check for freshly co-resident mapped pairs (pairs coming
    // from different children were never co-checked).
    for (std::uint32_t mm = view.mapped_mask; mm != 0; mm &= mm - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(mm));
      const std::uint64_t pv = codec.get(code, v) - kStateMapped;
      for (std::uint32_t nb =
               pattern.adj_mask(v) & view.mapped_mask & ((1u << v) - 1);
           nb != 0; nb &= nb - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(nb));
        const std::uint64_t pw = codec.get(code, w) - kStateMapped;
        if (((ctx.gadj[pv] >> pw) & 1ULL) == 0) return;
      }
    }
    if (!separating) {
      emit({code, 0});
      return;
    }
    // Labels: components of the bag minus the image; a component touching a
    // child-labelled position inherits (and must be consistent); the rest
    // are free (compacted to the front of the scan, in scan order).
    const std::uint64_t unmapped = ctx.all_mask & ~view.image_mask;
    const std::uint64_t eff_known = known_mask & unmapped;
    std::uint64_t fixed_inside = 0;
    ComponentScan scan = unmapped_components(ctx, unmapped);
    std::uint32_t free_count = 0;
    for (std::uint32_t i = 0; i < scan.count; ++i) {
      const std::uint64_t comp = scan.comps[i];
      const std::uint64_t known_here = comp & eff_known;
      if (known_here == 0) {
        scan.comps[free_count++] = comp;
      } else {
        const std::uint64_t inside_here = known_here & known_labels;
        if (inside_here != 0 && inside_here != known_here) return;  // mixed
        if (inside_here != 0) fixed_inside |= comp;
      }
    }
    support::require(free_count <= 24,
                     "sparse separating: too many free components");
    const std::uint32_t combos = 1u << free_count;
    for (std::uint32_t lab = 0; lab < combos; ++lab) {
      std::uint64_t inside = fixed_inside;
      for (std::uint32_t i = 0; i < free_count; ++i)
        if ((lab >> i) & 1u) inside |= scan.comps[i];
      // Exact subtree bits: local contribution OR the children's.
      const bool li = (inside & ctx.s_mask) != 0;
      const bool lo = ((unmapped & ~inside) & ctx.s_mask) != 0;
      std::uint64_t sep = inside | child_bits;
      if (li) sep |= kSepIx;
      if (lo) sep |= kSepOx;
      emit({code, sep});
    }
  }
};

/// Scope of one node's staging in the thread's scratch. Starts from an
/// empty staging vector (solve_node_exact shares it) and, when the scope
/// ends — normally or by exception — empties the dedup table in O(staged
/// states), so a throw between emit and the reset cannot leave stale
/// entries that would silently drop states from the next solve on this
/// thread. Never held across a fork()/run() wait (dp_scratch.hpp).
struct StagingScope {
  detail::DpScratch& scratch;
  explicit StagingScope(detail::DpScratch& s) : scratch(s) {
    scratch.exact_states.clear();
  }
  StagingScope(const StagingScope&) = delete;
  StagingScope& operator=(const StagingScope&) = delete;
  ~StagingScope() {
    std::vector<StateKey>& staged = scratch.exact_states;
    scratch.sparse_index.erase_keys(staged.data(), staged.size());
    // Entries the staging list missed (a throw inside emit) are swept.
    if (!scratch.sparse_index.empty()) scratch.sparse_index.clear();
    staged.clear();
  }

  /// Tracked bytes of the staging buffers (settle() bookkeeping).
  std::size_t bytes() const {
    return support::ScratchArena::bytes_of(scratch.exact_states) +
           scratch.sparse_index.capacity_bytes();
  }
};

/// Join preparation of a two-child node. Fills scratch.join_pairs with the
/// right child's (join key, signature) pairs, sorted, and
/// scratch.join_ranges with each left signature's [lo, hi) range of equal
/// keys in it; returns the number of (left, right) pairs, which is the
/// join's accounted work. Keys hash the mapped fields on positions both
/// children share plus the labels there. Grouping is by the exact 64-bit
/// key, and the pairs are distinct and sorted by (key, signature), so each
/// key group lists its signatures in ascending order at every width — the
/// order, and the enumerated pairs, of the bucket map this replaces.
std::uint64_t prepare_join(const StateCodec& codec, const SigIndex& left,
                           const SigIndex& right, std::uint64_t shared_lr,
                           detail::DpScratch& scratch) {
  const auto join_key = [&](StateKey sig) {
    // Only mapped fields can contribute; walk them via the view's mapped
    // mask instead of scanning all k fields.
    std::uint64_t key_code = 0;
    const StateView view = view_of(codec, sig.code);
    for (std::uint32_t mm = view.mapped_mask; mm != 0; mm &= mm - 1) {
      const auto v = static_cast<std::uint32_t>(std::countr_zero(mm));
      const std::uint64_t val = codec.get(sig.code, v);
      if ((shared_lr >> (val - kStateMapped)) & 1ULL)
        key_code = codec.set(key_code, v, val);
    }
    return support::hash_combine(key_code,
                                 sig.sep & kSepLabelMask & shared_lr);
  };
  auto& pairs = scratch.join_pairs;
  const std::vector<StateKey>& right_sigs = right.sigs();
  scratch.arena.acquire(pairs, right_sigs.size());
  pairs.resize(right_sigs.size());
  support::parallel_for(0, right_sigs.size(), [&](std::size_t i) {
    pairs[i] = {join_key(right_sigs[i]), right_sigs[i]};
  });
  const auto sort_bytes = [&] {
    return support::ScratchArena::bytes_of(pairs) +
           support::ScratchArena::bytes_of(scratch.join_sort_buffer);
  };
  const std::size_t before = sort_bytes();
  support::parallel_sort(pairs, scratch.join_sort_buffer);
  scratch.arena.settle(before, sort_bytes());

  auto& ranges = scratch.join_ranges;
  const std::vector<StateKey>& left_sigs = left.sigs();
  scratch.arena.acquire(ranges, left_sigs.size());
  ranges.resize(left_sigs.size());
  support::parallel_for(0, left_sigs.size(), [&](std::size_t i) {
    const std::uint64_t key = join_key(left_sigs[i]);
    const auto lo = std::lower_bound(
        pairs.begin(), pairs.end(), key,
        [](const auto& entry, std::uint64_t k) { return entry.first < k; });
    const auto hi = std::upper_bound(
        lo, pairs.end(), key,
        [](std::uint64_t k, const auto& entry) { return k < entry.first; });
    ranges[i] = {static_cast<std::uint32_t>(lo - pairs.begin()),
                 static_cast<std::uint32_t>(hi - pairs.begin())};
  });
  std::uint64_t total = 0;
  for (const auto& [lo, hi] : ranges) total += hi - lo;
  return total;
}

/// Splits the left signatures of a prepared join into at most `max_chunks`
/// non-empty runs of roughly equal pair count: scratch.chunk_bounds holds
/// the run boundaries (left-signature indices, first 0, last the count).
void split_join(std::uint64_t total, std::size_t max_chunks,
                detail::DpScratch& scratch) {
  const auto& ranges = scratch.join_ranges;
  auto& bounds = scratch.chunk_bounds;
  scratch.arena.acquire(bounds, max_chunks + 1);
  bounds.push_back(0);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    seen += ranges[i].second - ranges[i].first;
    if (bounds.size() < max_chunks &&
        seen * max_chunks >= total * bounds.size())
      bounds.push_back(static_cast<std::uint32_t>(i + 1));
  }
  if (bounds.back() != ranges.size())
    bounds.push_back(static_cast<std::uint32_t>(ranges.size()));
}

}  // namespace

namespace detail {

std::uint64_t join_pair_count(const DpSolution& solution,
                              const treedecomp::TreeDecomposition& td,
                              treedecomp::NodeId x) {
  const auto& kids = td.children[x];
  if (kids.size() != 2) return 0;
  const SolvedNode& node = solution.nodes[x];
  const SolvedNode& left = solution.nodes[kids[0]];
  const SolvedNode& right = solution.nodes[kids[1]];
  const std::uint64_t shared_lr = shared_position_mask(node.ctx, left.ctx) &
                                  shared_position_mask(node.ctx, right.ctx);
  return prepare_join(solution.codec, left.sig_groups, right.sig_groups,
                      shared_lr, DpScratch::local());
}

}  // namespace detail

DpSolution solve_sparse(const Graph& g,
                        const treedecomp::TreeDecomposition& td,
                        const Pattern& pattern, const DpOptions& options) {
  const bool separating = options.spec.enabled;
  DpSolution sol;
  sol.separating = separating;
  std::size_t max_bag = 1;
  for (const auto& bag : td.bags) max_bag = std::max(max_bag, bag.size());
  sol.codec =
      StateCodec::make(pattern.size(), static_cast<std::uint32_t>(max_bag));
  const StateCodec& codec = sol.codec;
  std::vector<BagContext> ctxs(td.num_nodes());
  for (treedecomp::NodeId x = 0; x < td.num_nodes(); ++x)
    ctxs[x] = make_bag_context(g, td.bags[x], options.spec);
  sol.nodes.resize(td.num_nodes());
  std::uint64_t work = 0;
  detail::DpScratch& scratch = detail::DpScratch::local();
  const std::uint64_t allocs_before = scratch.arena.alloc_events();

  bool preempted = false;
  for (const treedecomp::NodeId x : bottom_up_order(td)) {
    // Deadline/token preemption point (see solve_sequential): the partial
    // solution is discarded by the caller.
    if (options.cancel.cancelled()) {
      preempted = true;
      break;
    }
    PPSI_FAULT_POINT("dp.node");
    SolvedNode& node = sol.nodes[x];
    node.ctx = ctxs[x];
    const auto& kids = td.children[x];
    support::require(kids.size() <= 2, "solve_sparse: binary tree required");

    // A join expands every (left, right) signature pair of equal join key:
    // labels must agree wherever both children see the vertex, the merged
    // base must be consistent, and its free choices are enumerated.
    const SolvedNode* left = nullptr;
    std::uint64_t shared_l = 0;
    std::uint64_t shared_r = 0;
    std::size_t chunks = 0;  // > 0: the join ran as that many chunks
    const auto expand_lefts = [&](NodeGen& gen, std::size_t begin,
                                  std::size_t end) {
      // Locals, not captures: they stay in registers across expand().
      const StateKey* left_sigs = left->sig_groups.sigs().data();
      const auto* ranges = scratch.join_ranges.data();
      const auto* pairs = scratch.join_pairs.data();
      const std::uint64_t sl = shared_l;
      const std::uint64_t sr = shared_r;
      const std::uint64_t labels = sl & sr & kSepLabelMask;
      for (std::size_t i = begin; i < end; ++i) {
        const StateKey sig_l = left_sigs[i];
        const auto [lo, hi] = ranges[i];
        for (std::uint32_t j = lo; j < hi; ++j) {
          const StateKey sig_r = pairs[j].second;
          if ((sig_l.sep & labels) != (sig_r.sep & labels)) continue;
          std::uint64_t base = 0;
          StateView view;
          if (!merge_signatures(codec, sl, sr, sig_l, sig_r, &base, &view))
            continue;
          gen.expand(base, view, view.u_mask, sl | sr,
                     (sig_l.sep | sig_r.sep) & kSepLabelMask, sl | sr,
                     (sig_l.sep | sig_r.sep) & (kSepIx | kSepOx));
        }
      }
    };
    if (kids.size() == 2) {
      left = &sol.nodes[kids[0]];
      shared_l = shared_position_mask(node.ctx, ctxs[kids[0]]);
      shared_r = shared_position_mask(node.ctx, ctxs[kids[1]]);
      const std::uint64_t pairs =
          prepare_join(codec, left->sig_groups, sol.nodes[kids[1]].sig_groups,
                       shared_l & shared_r, scratch);
      const int width = support::num_threads();
      if (width > 1 && pairs >= detail::kForkPairs) {
        // Heavy join: chunks of left signatures expand in parallel, each
        // staging and deduplicating in its own thread's scratch; the
        // merge below re-emits their outputs in chunk order.
        split_join(pairs, 4 * static_cast<std::size_t>(width), scratch);
        chunks = scratch.chunk_bounds.size() - 1;
        const std::size_t slot_bytes_before = scratch.chunk_bytes();
        if (scratch.chunk_states.size() < chunks)
          scratch.chunk_states.resize(chunks);
        auto chunk = [&](std::size_t c) {
          if (options.cancel.cancelled()) return;
          detail::DpScratch& local = detail::DpScratch::local();
          const std::uint64_t local_allocs = local.arena.alloc_events();
          {
            const StagingScope staging(local);
            const std::size_t staged_bytes = staging.bytes();
            NodeGen gen{codec, pattern, node.ctx, separating,
                        local.exact_states, local.sparse_index};
            expand_lefts(gen, scratch.chunk_bounds[c],
                         scratch.chunk_bounds[c + 1]);
            local.arena.settle(staged_bytes, staging.bytes());
            PPSI_FAULT_POINT("dp.chunk");
            scratch.chunk_states[c].assign(local.exact_states.begin(),
                                           local.exact_states.end());
          }
          if (&local != &scratch) {  // the forking thread's own is below
            sol.metrics.add_allocs(local.arena.alloc_events() -
                                   local_allocs);
            sol.metrics.note_scratch_peak(local.arena.peak_bytes());
          }
        };
        support::Scheduler::fork(chunks, support::ForkBody(chunk));
        scratch.arena.settle(slot_bytes_before, scratch.chunk_bytes());
        // A chunk that saw the (monotone) scope cancelled skipped its
        // expansion; the node is then abandoned like at the check above.
        if (options.cancel.cancelled()) {
          preempted = true;
          break;
        }
      }
      work += pairs;
    }

    {
      const StagingScope staging(scratch);
      const std::size_t staged_bytes = staging.bytes();
      NodeGen gen{codec, pattern, node.ctx, separating, scratch.exact_states,
                  scratch.sparse_index};
      if (kids.empty()) {
        // Leaf: C = empty, everything else free.
        StateView all_free;
        all_free.u_mask = pattern.size() == 32 ? 0xffffffffu
                                               : (1u << pattern.size()) - 1;
        ++work;
        gen.expand(0, all_free, all_free.u_mask, 0, 0, 0, 0);
      } else if (kids.size() == 1) {
        const SolvedNode& child = sol.nodes[kids[0]];
        const std::uint64_t shared =
            shared_position_mask(node.ctx, ctxs[kids[0]]);
        for (const StateKey& sig : child.sig_groups.sigs()) {
          ++work;
          // The signature itself is the forced base (U/C/mapped fields).
          const StateView view = view_of(codec, sig.code);
          gen.expand(sig.code, view, view.u_mask, shared,
                     sig.sep & kSepLabelMask, shared,
                     sig.sep & (kSepIx | kSepOx));
        }
      } else if (chunks > 0) {
        // First occurrence wins across chunks, as within one: the serial
        // walk's emission sequence is the chunks' concatenated in order.
        for (std::size_t c = 0; c < chunks; ++c)
          for (const StateKey& key : scratch.chunk_states[c]) gen.emit(key);
      } else {
        expand_lefts(gen, 0, left->sig_groups.size());
      }
      scratch.arena.settle(staged_bytes, staging.bytes());
      node.states.assign(scratch.exact_states.begin(),
                         scratch.exact_states.end());
    }
    work += node.states.size();
    detail::build_sig_groups(td, pattern, ctxs, x, sol);
    sol.metrics.add_rounds(1);
    if (options.release_interior) {
      for (const treedecomp::NodeId kid : kids)
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

}  // namespace ppsi::iso
