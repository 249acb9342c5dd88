// S-separating subgraph isomorphism tests (§5.2): the extended DP against a
// brute-force separating oracle, the allowed-vertex restriction, the
// sequential/parallel/sparse equivalence in separating mode, and the sparse
// engine's per-thread scratch reuse (dedup table reset across solves, also
// after a fault thrown mid-node).

#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <thread>

#include "baseline/ullmann.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "isomorphism/sequential_dp.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "support/fault.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi::iso {
namespace {

/// Oracle: does removing the images of `a` split the S vertices (outside
/// the occurrence) into at least two components?
bool separates(const Graph& g, const std::vector<std::uint8_t>& in_s,
               const Assignment& a) {
  std::vector<char> removed(g.num_vertices(), 0);
  for (Vertex image : a) removed[image] = 1;
  std::vector<int> comp(g.num_vertices(), -1);
  int count = 0;
  int with_s = 0;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (removed[s] || comp[s] >= 0) continue;
    bool has_s = false;
    std::queue<Vertex> queue;
    comp[s] = count;
    queue.push(s);
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop();
      if (in_s[u]) has_s = true;
      for (Vertex w : g.neighbors(u)) {
        if (!removed[w] && comp[w] < 0) {
          comp[w] = count;
          queue.push(w);
        }
      }
    }
    ++count;
    with_s += has_s ? 1 : 0;
  }
  return with_s >= 2;
}

bool oracle_separating_exists(const Graph& g,
                              const std::vector<std::uint8_t>& in_s,
                              const Pattern& pattern,
                              const std::vector<std::uint8_t>& allowed) {
  for (const Assignment& a :
       baseline::brute_force_list(g, pattern, 1 << 20)) {
    bool ok = true;
    for (Vertex image : a) ok = ok && allowed[image];
    if (ok && separates(g, in_s, a)) return true;
  }
  return false;
}

DpSolution solve_with_spec(const Graph& g, const Pattern& pattern,
                           const SeparatingSpec& spec, bool parallel) {
  const auto td = treedecomp::binarize(treedecomp::greedy_decomposition(g));
  if (parallel) {
    ParallelOptions options;
    options.spec = spec;
    return solve_parallel(g, td, pattern, options);
  }
  DpOptions options;
  options.spec = spec;
  return solve_sequential(g, td, pattern, options);
}

struct SepCase {
  std::string name;
  Graph g;
  Graph pattern;
};

std::vector<SepCase> sep_cases() {
  std::vector<SepCase> cases;
  cases.push_back({"path5_p1", gen::path_graph(5), gen::path_graph(1)});
  cases.push_back({"path7_p2", gen::path_graph(7), gen::path_graph(2)});
  cases.push_back({"cycle8_p2", gen::cycle_graph(8), gen::path_graph(2)});
  cases.push_back({"grid3x3_p3", gen::grid_graph(3, 3), gen::path_graph(3)});
  cases.push_back({"grid3x4_c4", gen::grid_graph(3, 4), gen::cycle_graph(4)});
  cases.push_back({"star6_p1", gen::star_graph(6), gen::path_graph(1)});
  cases.push_back({"wheel6_p2", gen::wheel(6).graph(), gen::path_graph(2)});
  cases.push_back({"tree10_p2", gen::random_tree(10, 3), gen::path_graph(2)});
  cases.push_back(
      {"apollonian9_c3", gen::apollonian(9, 4).graph(), gen::cycle_graph(3)});
  cases.push_back({"gnp10_p3", gen::gnp(10, 0.3, 8), gen::path_graph(3)});
  return cases;
}

class SeparatingOracle : public ::testing::TestWithParam<int> {};

TEST_P(SeparatingOracle, MatchesBruteForceWithAllS) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 1);
  spec.allowed.assign(c.g.num_vertices(), 1);
  const bool expect =
      oracle_separating_exists(c.g, spec.in_s, pattern, spec.allowed);
  const DpSolution sol = solve_with_spec(c.g, pattern, spec, false);
  EXPECT_EQ(sol.accepted, expect) << c.name;
}

TEST_P(SeparatingOracle, MatchesBruteForceWithSparseS) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 0);
  spec.allowed.assign(c.g.num_vertices(), 1);
  // Mark every third vertex.
  for (Vertex v = 0; v < c.g.num_vertices(); v += 3) spec.in_s[v] = 1;
  const bool expect =
      oracle_separating_exists(c.g, spec.in_s, pattern, spec.allowed);
  const DpSolution sol = solve_with_spec(c.g, pattern, spec, false);
  EXPECT_EQ(sol.accepted, expect) << c.name;
}

TEST_P(SeparatingOracle, AllowedMaskRestrictsImages) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 1);
  spec.allowed.assign(c.g.num_vertices(), 1);
  // Forbid the first half of the vertices.
  for (Vertex v = 0; v < c.g.num_vertices() / 2; ++v) spec.allowed[v] = 0;
  const bool expect =
      oracle_separating_exists(c.g, spec.in_s, pattern, spec.allowed);
  const DpSolution sol = solve_with_spec(c.g, pattern, spec, false);
  EXPECT_EQ(sol.accepted, expect) << c.name;
}

TEST_P(SeparatingOracle, ParallelMatchesSequential) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s.assign(c.g.num_vertices(), 0);
  for (Vertex v = 0; v < c.g.num_vertices(); v += 2) spec.in_s[v] = 1;
  spec.allowed.assign(c.g.num_vertices(), 1);
  const DpSolution seq = solve_with_spec(c.g, pattern, spec, false);
  const DpSolution par = solve_with_spec(c.g, pattern, spec, true);
  ASSERT_EQ(seq.accepted, par.accepted) << c.name;
  const auto td =
      treedecomp::binarize(treedecomp::greedy_decomposition(c.g));
  for (std::size_t x = 0; x < td.num_nodes(); ++x) {
    std::set<std::pair<std::uint64_t, std::uint64_t>> a, b;
    for (const StateKey s : seq.nodes[x].states) a.insert({s.code, s.sep});
    for (const StateKey s : par.nodes[x].states) b.insert({s.code, s.sep});
    EXPECT_EQ(a, b) << c.name << " node " << x;
  }
}

// The sparse engine serves every vertex_connectivity probe in separating
// mode; its generated state sets must equal the filter-side engine's.
TEST_P(SeparatingOracle, SparseMatchesSequential) {
  const SepCase c = sep_cases()[GetParam()];
  const Pattern pattern = Pattern::from_graph(c.pattern);
  const auto td =
      treedecomp::binarize(treedecomp::greedy_decomposition(c.g));
  for (const bool all_s : {true, false}) {
    DpOptions options;
    options.spec.enabled = true;
    options.spec.in_s.assign(c.g.num_vertices(), all_s ? 1 : 0);
    for (Vertex v = 0; v < c.g.num_vertices(); v += 3)
      options.spec.in_s[v] = 1;  // every third vertex (all of them if all_s)
    options.spec.allowed.assign(c.g.num_vertices(), 1);
    const DpSolution seq = solve_sequential(c.g, td, pattern, options);
    const DpSolution sparse = solve_sparse(c.g, td, pattern, options);
    ASSERT_EQ(seq.accepted, sparse.accepted) << c.name << " all_s=" << all_s;
    for (std::size_t x = 0; x < td.num_nodes(); ++x) {
      std::set<std::pair<std::uint64_t, std::uint64_t>> a, b;
      for (const StateKey s : seq.nodes[x].states) a.insert({s.code, s.sep});
      for (const StateKey s : sparse.nodes[x].states)
        b.insert({s.code, s.sep});
      EXPECT_EQ(a, b) << c.name << " all_s=" << all_s << " node " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SeparatingOracle, ::testing::Range(0, 10));

// ---- Sparse-engine scratch reuse ----
//
// solve_sparse dedups each node's states through a table in the calling
// thread's scratch, reused by every later node and solve on that thread.
// A solve must not see anything an earlier solve left there.

struct SparseInstance {
  Graph g;
  treedecomp::TreeDecomposition td;
  Pattern pattern;
  DpOptions options;
};

SparseInstance separating_instance(Graph g, const Graph& pattern) {
  SparseInstance inst{std::move(g), {}, Pattern::from_graph(pattern), {}};
  inst.td = treedecomp::binarize(treedecomp::greedy_decomposition(inst.g));
  inst.options.spec.enabled = true;
  inst.options.spec.in_s.assign(inst.g.num_vertices(), 0);
  for (Vertex v = 0; v < inst.g.num_vertices(); v += 2)
    inst.options.spec.in_s[v] = 1;
  inst.options.spec.allowed.assign(inst.g.num_vertices(), 1);
  return inst;
}

DpSolution solve_instance(const SparseInstance& inst) {
  return solve_sparse(inst.g, inst.td, inst.pattern, inst.options);
}

/// Runs `fn` on a thread of its own, so it starts from fresh scratch.
template <class Fn>
void on_fresh_thread(Fn&& fn) {
  std::thread worker(std::forward<Fn>(fn));
  worker.join();
}

/// Same states in the same order, same acceptance, same accounted work.
void expect_identical(const DpSolution& fresh, const DpSolution& reused) {
  ASSERT_EQ(fresh.nodes.size(), reused.nodes.size());
  for (std::size_t x = 0; x < fresh.nodes.size(); ++x)
    EXPECT_EQ(fresh.nodes[x].states, reused.nodes[x].states) << "node " << x;
  EXPECT_EQ(fresh.accepted, reused.accepted);
  EXPECT_EQ(fresh.accepting, reused.accepting);
  EXPECT_EQ(fresh.metrics.work(), reused.metrics.work());
}

TEST(SparseScratchReuse, SmallSolveAfterLargeMatchesFreshThread) {
  const SparseInstance large =
      separating_instance(gen::grid_graph(6, 6), gen::cycle_graph(6));
  const SparseInstance small =
      separating_instance(gen::grid_graph(3, 4), gen::cycle_graph(4));
  DpSolution fresh, reused;
  on_fresh_thread([&] { fresh = solve_instance(small); });
  on_fresh_thread([&] {
    const DpSolution big = solve_instance(large);
    EXPECT_FALSE(big.nodes.empty());
    reused = solve_instance(small);
  });
  expect_identical(fresh, reused);
}

TEST(SparseScratchReuse, SolveAfterFaultMidNodeMatchesFreshThread) {
  // "arena.grow" first fires in build_sig_groups of the first node, after
  // that node's states were emitted into the dedup table: the thrown fault
  // must still leave the table empty for the next solve on the thread.
  using support::FaultInjector;
  const SparseInstance inst =
      separating_instance(gen::grid_graph(4, 4), gen::cycle_graph(4));
  DpSolution fresh, reused;
  on_fresh_thread([&] { fresh = solve_instance(inst); });
  on_fresh_thread([&] {
    {
      support::FaultPlan plan;
      plan.seed = 1;
      plan.rate = 1;  // every visit fires
      plan.point_filter = "arena.grow";
      const support::ScopedFaultPlan scoped(plan);
      FaultInjector::instance().reset_stats();
      if (FaultInjector::compiled_in()) {
        EXPECT_THROW(solve_instance(inst), support::InjectedFault);
        EXPECT_EQ(FaultInjector::instance().stats().thrown, 1u);
      } else {
        solve_instance(inst);  // points compiled out: an ordinary solve
      }
    }
    reused = solve_instance(inst);
  });
  expect_identical(fresh, reused);
}

TEST(Separating, MiddleVertexOfPathSeparates) {
  // Removing the middle vertex of a path separates the endpoints.
  const Graph g = gen::path_graph(3);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s = {1, 0, 1};
  spec.allowed = {0, 1, 0};  // only the middle vertex may be used
  const Pattern pattern = Pattern::from_graph(gen::path_graph(1));
  EXPECT_TRUE(solve_with_spec(g, pattern, spec, false).accepted);
  // If the S vertices are on the same side, nothing separates them.
  spec.in_s = {1, 0, 0};
  EXPECT_FALSE(solve_with_spec(g, pattern, spec, false).accepted);
}

TEST(Separating, TriangleCannotBeSeparated) {
  const Graph g = gen::complete_graph(3);
  SeparatingSpec spec;
  spec.enabled = true;
  spec.in_s = {1, 1, 1};
  spec.allowed = {1, 1, 1};
  const Pattern pattern = Pattern::from_graph(gen::path_graph(1));
  EXPECT_FALSE(solve_with_spec(g, pattern, spec, false).accepted);
}

}  // namespace
}  // namespace ppsi::iso
