// Differential test: thread-count invariance of the task-parallel runtime.
//
// The determinism contract of the scheduler refactor (README "Parallel
// architecture") is that outputs *and* instrumented work/round counters are
// bit-identical for every OMP thread count and for both path schedules:
// the dependency-driven task graph and the reference layer-barrier loop.
// This suite runs solve_parallel and Solver::find/list/find_batch at
// OMP_NUM_THREADS 1, 2 and 4 inside one process (fresh Solver per thread
// count, so cover-build accounting matches) and pins everything against
// the single-thread reference.
//
// Deliberately not pinned: Metrics::allocs / scratch_peak_bytes. Scratch
// arenas are per *thread*; which arenas grow (and whose residency a query
// reports) depends on which threads the scheduler placed the tasks on.
// Work and rounds are layout- and schedule-invariant by design.

#include <gtest/gtest.h>

#include <omp.h>

#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "isomorphism/parallel_engine.hpp"
#include "planar/face_vertex_graph.hpp"
#include "support/rng.hpp"
#include "testing/random_inputs.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace ppsi {
namespace {

using cover::DecisionResult;
using cover::ListingResult;
using iso::DpSolution;
using iso::Pattern;

const std::vector<int> kThreadCounts = {1, 2, 4};

/// Runs fn() with omp_set_num_threads(t), restoring the ambient setting.
template <typename F>
auto with_threads(int t, F&& fn) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(t);
  auto result = fn();
  omp_set_num_threads(saved);
  return result;
}

std::set<std::pair<std::uint64_t, std::uint64_t>> state_set(
    const iso::SolvedNode& node) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const iso::StateKey s : node.states) out.insert({s.code, s.sep});
  return out;
}

void expect_identical_solutions(const DpSolution& want, const DpSolution& got,
                                std::size_t num_nodes,
                                const std::string& context) {
  ASSERT_EQ(want.accepted, got.accepted) << context;
  ASSERT_EQ(want.accepting, got.accepting) << context;
  for (std::size_t x = 0; x < num_nodes; ++x) {
    EXPECT_EQ(state_set(want.nodes[x]), state_set(got.nodes[x]))
        << context << " node " << x;
  }
  EXPECT_EQ(want.metrics.work(), got.metrics.work()) << context;
  EXPECT_EQ(want.metrics.rounds(), got.metrics.rounds()) << context;
}

class SolveParallelThreads : public ::testing::TestWithParam<int> {};

TEST_P(SolveParallelThreads, SolutionAndCountersAreThreadCountInvariant) {
  const std::uint64_t seed = 9000 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed);
  const auto td = treedecomp::binarize(treedecomp::greedy_decomposition(g));
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;

  const DpSolution reference = with_threads(
      1, [&] { return iso::solve_parallel(g, td, pattern, {}); });
  for (const int t : kThreadCounts) {
    for (const auto schedule : {iso::ParallelSchedule::kTaskGraph,
                                iso::ParallelSchedule::kLayerBarrier}) {
      iso::ParallelOptions options;
      options.schedule = schedule;
      const DpSolution sol = with_threads(
          t, [&] { return iso::solve_parallel(g, td, pattern, options); });
      expect_identical_solutions(
          reference, sol, td.num_nodes(),
          context + " threads=" + std::to_string(t) + " schedule=" +
              (schedule == iso::ParallelSchedule::kTaskGraph ? "taskgraph"
                                                             : "barrier"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveParallelThreads,
                         ::testing::Range(0, 30));

struct FindCapture {
  bool found = false;
  std::optional<iso::Assignment> witness;
  std::uint32_t runs = 0;
  std::uint64_t slices_solved = 0;
  std::uint64_t work = 0;
  std::uint64_t rounds = 0;
};

void expect_same_find(const FindCapture& want, const FindCapture& got,
                      const std::string& context) {
  EXPECT_EQ(want.found, got.found) << context;
  EXPECT_EQ(want.witness, got.witness) << context;
  EXPECT_EQ(want.runs, got.runs) << context;
  EXPECT_EQ(want.slices_solved, got.slices_solved) << context;
  EXPECT_EQ(want.work, got.work) << context;
  EXPECT_EQ(want.rounds, got.rounds) << context;
}

class SolverThreads : public ::testing::TestWithParam<int> {};

TEST_P(SolverThreads, FindIsThreadCountInvariant) {
  const std::uint64_t seed = 9500 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed, 2, 4);
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;

  // Every engine goes through the slice task fan-out; the parallel engine
  // additionally nests path tasks inside the slice tasks.
  for (const auto engine :
       {cover::EngineKind::kSparse, cover::EngineKind::kParallel}) {
    QueryOptions opts;
    opts.seed = seed + 31;
    opts.max_runs = 4;
    opts.engine = engine;
    const auto run_find = [&](int t) {
      return with_threads(t, [&]() -> FindCapture {
        Solver solver(g);  // fresh cache per run: cover builds accounted
        const Result<DecisionResult> r = solver.find(pattern, opts);
        EXPECT_TRUE(r.ok()) << context;
        return {r->found,         r->witness,
                r->runs,          r->slices_solved,
                r->metrics.work(), r->metrics.rounds()};
      });
    };
    const FindCapture reference = run_find(1);
    for (const int t : kThreadCounts) {
      expect_same_find(reference, run_find(t),
                       context + " engine=" +
                           std::to_string(static_cast<int>(engine)) +
                           " threads=" + std::to_string(t));
    }
  }
}

TEST_P(SolverThreads, ListIsThreadCountInvariant) {
  const std::uint64_t seed = 9700 + GetParam();
  std::string family;
  const Graph g = ppsi::testing::random_target(seed, &family);
  const Pattern pattern = ppsi::testing::random_pattern(seed, 2, 4);
  const std::string context =
      "seed " + std::to_string(seed) + " family " + family;
  QueryOptions opts;
  opts.seed = seed + 7;
  opts.engine = cover::EngineKind::kParallel;

  struct Capture {
    std::vector<iso::Assignment> occurrences;
    std::uint32_t iterations = 0;
    std::uint64_t work = 0;
    std::uint64_t rounds = 0;
  };
  const auto run_list = [&](int t) {
    return with_threads(t, [&]() -> Capture {
      Solver solver(g);
      const Result<ListingResult> r = solver.list(pattern, opts);
      EXPECT_TRUE(r.ok()) << context;
      return {r->occurrences, r->iterations, r->metrics.work(),
              r->metrics.rounds()};
    });
  };
  const Capture reference = run_list(1);
  for (const int t : kThreadCounts) {
    const Capture got = run_list(t);
    const std::string where = context + " threads=" + std::to_string(t);
    EXPECT_EQ(reference.occurrences, got.occurrences) << where;
    EXPECT_EQ(reference.iterations, got.iterations) << where;
    EXPECT_EQ(reference.work, got.work) << where;
    EXPECT_EQ(reference.rounds, got.rounds) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverThreads, ::testing::Range(0, 12));

TEST(SolverBatchThreads, DisjointBatchIsThreadCountInvariantPerSlot) {
  // Patterns of pairwise-distinct (diameter, size) classes never share a
  // cover, so every slot builds and charges its own covers: each slot's
  // outputs AND work/round counters are bit-identical across thread counts.
  const Graph g = gen::grid_graph(8, 8);
  std::vector<Pattern> patterns;
  patterns.push_back(Pattern::from_graph(gen::cycle_graph(4)));
  patterns.push_back(Pattern::from_graph(gen::path_graph(3)));
  patterns.push_back(Pattern::from_graph(gen::cycle_graph(5)));  // absent
  patterns.push_back(Pattern::from_graph(gen::cycle_graph(6)));
  patterns.push_back(Pattern::from_graph(gen::path_graph(5)));
  QueryOptions opts;
  opts.seed = 1234;
  opts.max_runs = 4;
  opts.engine = cover::EngineKind::kParallel;

  const auto run_batch = [&](int t) {
    return with_threads(t, [&]() -> std::vector<FindCapture> {
      Solver solver(g);
      const auto batch = solver.find_batch(patterns, opts);
      std::vector<FindCapture> captures;
      for (const auto& r : batch) {
        EXPECT_TRUE(r.ok()) << r.status().to_string();
        captures.push_back({r->found, r->witness, r->runs, r->slices_solved,
                            r->metrics.work(), r->metrics.rounds()});
      }
      return captures;
    });
  };
  const std::vector<FindCapture> reference = run_batch(1);
  ASSERT_EQ(reference.size(), patterns.size());
  for (const int t : kThreadCounts) {
    const std::vector<FindCapture> got = run_batch(t);
    ASSERT_EQ(got.size(), reference.size()) << "threads " << t;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_same_find(reference[i], got[i],
                       "pattern " + std::to_string(i) + " threads " +
                           std::to_string(t));
    }
  }
}

TEST(SolverBatchThreads, SharedBatchOutputsAndTotalsAreInvariant) {
  // A mixed batch with repeated pattern classes shares cover builds, and a
  // shared build's metrics are charged to whichever slot requested it
  // first — schedule-dependent attribution, exactly as in the
  // pre-scheduler OMP-for batch. The invariants are per-slot decision
  // outputs (found/witness/runs/slices_solved) and the batch-wide metric
  // totals: every needed cover is built exactly once and every slot's own
  // solve work is deterministic, so the sums are too.
  const Graph g = gen::grid_graph(8, 8);
  std::vector<Pattern> patterns;
  for (int rep = 0; rep < 3; ++rep) {
    patterns.push_back(Pattern::from_graph(gen::cycle_graph(4)));
    patterns.push_back(Pattern::from_graph(gen::path_graph(4)));
    patterns.push_back(Pattern::from_graph(gen::cycle_graph(5)));  // absent
    patterns.push_back(Pattern::from_graph(gen::star_graph(4)));
  }
  QueryOptions opts;
  opts.seed = 1234;
  opts.max_runs = 4;
  opts.engine = cover::EngineKind::kParallel;

  struct BatchCapture {
    std::vector<FindCapture> slots;
    std::uint64_t total_work = 0;
    std::uint64_t total_rounds = 0;
  };
  const auto run_batch = [&](int t) {
    return with_threads(t, [&]() -> BatchCapture {
      Solver solver(g);
      const auto batch = solver.find_batch(patterns, opts);
      BatchCapture capture;
      for (const auto& r : batch) {
        EXPECT_TRUE(r.ok()) << r.status().to_string();
        capture.slots.push_back({r->found, r->witness, r->runs,
                                 r->slices_solved, r->metrics.work(),
                                 r->metrics.rounds()});
        capture.total_work += r->metrics.work();
        capture.total_rounds += r->metrics.rounds();
      }
      return capture;
    });
  };
  const BatchCapture reference = run_batch(1);
  ASSERT_EQ(reference.slots.size(), patterns.size());
  for (const int t : kThreadCounts) {
    const BatchCapture got = run_batch(t);
    ASSERT_EQ(got.slots.size(), reference.slots.size()) << "threads " << t;
    for (std::size_t i = 0; i < reference.slots.size(); ++i) {
      const std::string where =
          "pattern " + std::to_string(i) + " threads " + std::to_string(t);
      EXPECT_EQ(reference.slots[i].found, got.slots[i].found) << where;
      EXPECT_EQ(reference.slots[i].witness, got.slots[i].witness) << where;
      EXPECT_EQ(reference.slots[i].runs, got.slots[i].runs) << where;
      EXPECT_EQ(reference.slots[i].slices_solved, got.slots[i].slices_solved)
          << where;
    }
    EXPECT_EQ(reference.total_work, got.total_work) << "threads " << t;
    EXPECT_EQ(reference.total_rounds, got.total_rounds) << "threads " << t;
  }
}

TEST(SolverThreadsSeparating, FindSeparatingIsThreadCountInvariant) {
  // The separating engine takes the slice fan-out too (no shortcuts, no
  // translation forest): pin one representative instance.
  const Graph g = ppsi::testing::random_embedded_planar(77, 8, 20).graph();
  support::Rng rng(77, /*stream=*/0xab);
  std::vector<std::uint8_t> in_s(g.num_vertices(), 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) in_s[v] = rng.next_bool();
  const Pattern cycle = Pattern::from_graph(gen::cycle_graph(4));
  QueryOptions opts;
  opts.seed = 41;
  opts.max_runs = 5;
  opts.engine = cover::EngineKind::kParallel;

  const auto run = [&](int t) {
    return with_threads(t, [&]() -> FindCapture {
      Solver solver(g);
      const auto r = solver.find_separating(in_s, cycle, opts);
      EXPECT_TRUE(r.ok());
      return {r->found,          r->witness,
              r->runs,           r->slices_solved,
              r->metrics.work(), r->metrics.rounds()};
    });
  };
  const FindCapture reference = run(1);
  for (const int t : kThreadCounts)
    expect_same_find(reference, run(t), "threads " + std::to_string(t));
}

// ---------------------------------------------------------------------------
// Cover runs in doubling waves. find / find_separating solve run 0 alone and
// then runs [1, 3), [3, 7), [7, 15), ... as one task graph each, publishing
// each run's cover to the cache only when the replay reaches it. Whatever
// the wave layout, every output, the accounted work and rounds, and every
// cache counter must equal the one-run-at-a-time sequence — at every
// thread count, and against the fold of find_once over the run seeds.

std::vector<std::uint64_t> cache_counters(const CacheStats& s) {
  return {s.cover_hits,         s.cover_misses,       s.decomposition_hits,
          s.decomposition_misses, s.cover_evictions,  s.cover_entries,
          s.versions_committed, s.versions_reclaimed, s.live_versions,
          s.slices_rebuilt,     s.slices_reused,      s.stale_covers_purged};
}

FindCapture capture_find(const Result<DecisionResult>& r) {
  return {r->found,         r->witness,        r->runs, r->slices_solved,
          r->metrics.work(), r->metrics.rounds()};
}

/// C40 with two pendants on vertex 0: vertex 0 is the only K_{1,4} center,
/// so a run finds the star only when its cover keeps that neighborhood in
/// one slice. With seed 22 the default-run find accepts in run 1, and run
/// 2 — the rest of the wave — is speculative.
Graph cross_target() {
  EdgeList edges;
  const Vertex n = 40;
  for (Vertex v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  edges.push_back({0, n});
  edges.push_back({0, n + 1});
  return Graph::from_edges(n + 2, edges);
}
constexpr std::uint64_t kCrossSeed = 22;

Pattern star_pattern() { return Pattern::from_graph(gen::star_graph(5)); }
Pattern cycle_pattern(Vertex k) {
  return Pattern::from_graph(gen::cycle_graph(k));
}

struct WaveCapture {
  FindCapture find;
  std::vector<std::uint64_t> cache;
};

void expect_same_wave(const WaveCapture& want, const WaveCapture& got,
                      const std::string& context) {
  expect_same_find(want.find, got.find, context);
  EXPECT_EQ(want.cache, got.cache) << context;
}

/// find on a fresh Solver (cache capacity `capacity`, 0 = default).
WaveCapture wave_find(const Graph& g, const Pattern& pattern,
                      std::uint64_t seed, std::size_t capacity = 0,
                      cover::EngineKind engine = cover::EngineKind::kSparse) {
  Solver solver(g);
  if (capacity > 0) solver.set_cache_capacity(capacity);
  QueryOptions opts;
  opts.seed = seed;
  opts.engine = engine;
  const Result<DecisionResult> r = solver.find(pattern, opts);
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  return {capture_find(r), cache_counters(solver.cache_stats())};
}

/// The serial oracle: find_once(pattern, hash_combine(seed, r)) for
/// r = 0, 1, ... on one fresh Solver, folded with find's stop rule (first
/// accepting run; default run count for the target's size).
WaveCapture find_once_fold(
    const Graph& g, const Pattern& pattern, std::uint64_t seed,
    std::size_t capacity = 0,
    cover::EngineKind engine = cover::EngineKind::kSparse) {
  Solver solver(g);
  if (capacity > 0) solver.set_cache_capacity(capacity);
  QueryOptions opts;
  opts.engine = engine;
  const auto runs = static_cast<std::uint32_t>(
      2.0 * std::log2(static_cast<double>(g.num_vertices()) + 2.0)) + 4;
  WaveCapture fold;
  std::uint64_t work = 0;
  std::uint64_t rounds = 0;
  for (std::uint32_t r = 0; r < runs && !fold.find.found; ++r) {
    const Result<DecisionResult> one =
        solver.find_once(pattern, support::hash_combine(seed, r), opts);
    EXPECT_TRUE(one.ok()) << one.status().to_string();
    ++fold.find.runs;
    fold.find.slices_solved += one->slices_solved;
    work += one->metrics.work();
    rounds += one->metrics.rounds();
    fold.find.found = one->found;
    fold.find.witness = one->witness;
  }
  fold.find.work = work;
  fold.find.rounds = rounds;
  fold.cache = cache_counters(solver.cache_stats());
  return fold;
}

TEST(SolverWaveThreads, NegativeFindOnGridIsThreadCountInvariant) {
  // C5 never occurs in a bipartite grid: all 20 default runs go through
  // waves {0}, {1,2}, {3..6}, {7..14}, {15..19}.
  const Graph g = gen::grid_graph(16, 16);
  const auto run = [&](int t) {
    return with_threads(t, [&] { return wave_find(g, cycle_pattern(5), 7); });
  };
  const WaveCapture reference = run(1);
  EXPECT_FALSE(reference.find.found);
  EXPECT_EQ(reference.find.runs, 20u);
  for (const int t : kThreadCounts)
    expect_same_wave(reference, run(t), "threads " + std::to_string(t));
}

TEST(SolverWaveThreads, FindAcceptingInsideAWaveIsThreadCountInvariant) {
  const Graph g = cross_target();
  const auto run = [&](int t) {
    return with_threads(
        t, [&] { return wave_find(g, star_pattern(), kCrossSeed); });
  };
  const WaveCapture reference = run(1);
  ASSERT_TRUE(reference.find.found);
  ASSERT_TRUE(reference.find.witness.has_value());
  EXPECT_EQ(reference.find.runs, 2u);  // accepts in run 1 of wave {1, 2}
  for (const int t : kThreadCounts)
    expect_same_wave(reference, run(t), "threads " + std::to_string(t));
}

TEST(SolverWaveThreads, FindSeparatingIsThreadCountInvariant) {
  // The icosahedron is 5-connected, so its face-vertex graph has no
  // S-separating C4: every default run is solved.
  const planar::FaceVertexGraph fvg =
      planar::build_face_vertex_graph(gen::icosahedron());
  std::vector<std::uint8_t> in_s(fvg.graph.num_vertices(), 0);
  for (Vertex v = 0; v < fvg.num_original; ++v) in_s[v] = 1;
  const auto run = [&](int t) {
    return with_threads(t, [&]() -> WaveCapture {
      Solver solver(fvg.graph);
      QueryOptions opts;
      opts.seed = 3;
      const auto r = solver.find_separating(in_s, cycle_pattern(4), opts);
      EXPECT_TRUE(r.ok()) << r.status().to_string();
      return {capture_find(r), cache_counters(solver.cache_stats())};
    });
  };
  const WaveCapture reference = run(1);
  EXPECT_FALSE(reference.find.found);
  EXPECT_GT(reference.find.runs, 3u);
  for (const int t : kThreadCounts)
    expect_same_wave(reference, run(t), "threads " + std::to_string(t));
}

TEST(SolverWaveThreads, VertexConnectivityIsThreadCountInvariant) {
  struct Case {
    std::string name;
    planar::EmbeddedGraph graph;
    std::uint64_t seed;
    std::uint32_t connectivity;
    std::uint32_t cycle_runs;
  };
  // Three runs per probe (waves {0}, {1, 2}) keep the test short. The
  // icosahedron's three probes are all negative. Antiprism-8's C4 and C6
  // probes are negative, and with seed 28 its C8 probe accepts in run 1,
  // leaving run 2 of the wave speculative.
  const std::vector<Case> cases = {
      {"icosahedron", gen::icosahedron(), 0, 5, 9},
      {"antiprism8", gen::antiprism(8), 28, 4, 8}};
  struct Capture {
    std::uint32_t connectivity = 0;
    std::vector<Vertex> cut;
    std::uint32_t cycle_runs = 0;
    std::uint64_t work = 0;
    std::uint64_t rounds = 0;
    std::vector<std::uint64_t> cache;
  };
  for (const Case& c : cases) {
    const auto run = [&](int t) {
      return with_threads(t, [&]() -> Capture {
        Solver solver(c.graph);
        QueryOptions opts;
        opts.seed = c.seed;
        opts.max_runs = 3;
        const auto r = solver.vertex_connectivity(opts);
        EXPECT_TRUE(r.ok()) << r.status().to_string();
        return {r->connectivity,     r->witness_cut,
                r->cycle_runs,       r->metrics.work(),
                r->metrics.rounds(), cache_counters(solver.cache_stats())};
      });
    };
    const Capture reference = run(1);
    EXPECT_EQ(reference.connectivity, c.connectivity) << c.name;
    EXPECT_EQ(reference.cycle_runs, c.cycle_runs) << c.name;
    for (const int t : {2, 4}) {
      const Capture got = run(t);
      const std::string where = c.name + " threads " + std::to_string(t);
      EXPECT_EQ(reference.connectivity, got.connectivity) << where;
      EXPECT_EQ(reference.cut, got.cut) << where;
      EXPECT_EQ(reference.cycle_runs, got.cycle_runs) << where;
      EXPECT_EQ(reference.work, got.work) << where;
      EXPECT_EQ(reference.rounds, got.rounds) << where;
      EXPECT_EQ(reference.cache, got.cache) << where;
    }
  }
}

TEST(SolverWaveOracle, FindEqualsTheFoldOfFindOnce) {
  struct Case {
    std::string name;
    Graph graph;
    Pattern pattern;
    std::uint64_t seed;
  };
  const std::vector<Case> cases = {
      {"grid10/C5", gen::grid_graph(10, 10), cycle_pattern(5), 7},
      {"cross/K1,4", cross_target(), star_pattern(), kCrossSeed}};
  // Every engine: a wave solves its slices decision-only and re-solves the
  // accepting one for the witness, which must change neither.
  for (const auto engine :
       {cover::EngineKind::kSparse, cover::EngineKind::kSequential,
        cover::EngineKind::kParallel}) {
    for (const Case& c : cases) {
      const WaveCapture oracle =
          find_once_fold(c.graph, c.pattern, c.seed, 0, engine);
      for (const int t : {1, 4}) {
        expect_same_wave(oracle, with_threads(t, [&] {
                           return wave_find(c.graph, c.pattern, c.seed, 0,
                                            engine);
                         }),
                         c.name + " engine " +
                             std::to_string(static_cast<int>(engine)) +
                             " threads " + std::to_string(t));
      }
    }
  }
}

TEST(SolverWaveCache, SpeculativeRunsNeverInsertOrEvict) {
  // At capacity 2 every insert past the second evicts, so a speculative
  // run that touched the cache would show in the evictions and in what a
  // follow-up query finds there. The follow-up (C5: same diameter and size
  // as K_{1,4}, so the same covers; absent from the bipartite target) hits
  // runs 0 and 1 and must miss run 2, the first query's speculative run.
  const Graph g = cross_target();
  const auto session = [&](int t) {
    return with_threads(t, [&]() -> std::pair<WaveCapture, WaveCapture> {
      Solver solver(g);
      solver.set_cache_capacity(2);
      QueryOptions opts;
      opts.seed = kCrossSeed;
      const auto first = solver.find(star_pattern(), opts);
      EXPECT_TRUE(first.ok());
      WaveCapture a{capture_find(first), cache_counters(solver.cache_stats())};
      const auto follow = solver.find(cycle_pattern(5), opts);
      EXPECT_TRUE(follow.ok());
      return {a, {capture_find(follow), cache_counters(solver.cache_stats())}};
    });
  };
  const auto reference = session(1);
  // The first query matches the serial oracle at the same capacity.
  expect_same_wave(find_once_fold(g, star_pattern(), kCrossSeed, 2),
                   reference.first, "oracle");
  EXPECT_EQ(reference.first.find.runs, 2u);
  EXPECT_FALSE(reference.second.find.found);
  for (const int t : kThreadCounts) {
    const auto got = session(t);
    const std::string where = "threads " + std::to_string(t);
    expect_same_wave(reference.first, got.first, "first " + where);
    expect_same_wave(reference.second, got.second, "follow-up " + where);
  }
}

TEST(SolverWaveCancel, CancelMidWaveAccountsAPrefixOfTheRuns) {
  // Per-run work and slice counts of the uncancelled sequence.
  const Graph g = gen::grid_graph(16, 16);
  const Pattern c5 = cycle_pattern(5);
  constexpr std::uint64_t kSeed = 7;
  std::vector<std::uint64_t> work_before{0};    // work of runs [0, r)
  std::vector<std::uint64_t> slices_before{0};  // slices of runs [0, r)
  {
    Solver solver(g);
    for (std::uint32_t r = 0; r < 20; ++r) {
      const auto one = solver.find_once(c5, support::hash_combine(kSeed, r));
      ASSERT_TRUE(one.ok());
      work_before.push_back(work_before.back() + one->metrics.work());
      slices_before.push_back(slices_before.back() + one->slices_solved);
    }
  }
  QueryOptions opts;
  opts.seed = kSeed;
  const auto started = std::chrono::steady_clock::now();
  with_threads(4, [&] { return Solver(g).find(c5, opts).ok(); });
  const auto full = std::chrono::steady_clock::now() - started;

  // Cancel from another thread at shrinking fractions of the full wall
  // time until the cancellation lands after run 0, i.e. inside a wave.
  bool landed_in_a_wave = false;
  for (int divisor = 2; divisor <= 64 && !landed_in_a_wave; divisor *= 2) {
    support::CancelToken token;
    QueryOptions cancellable = opts;
    cancellable.cancel = &token;
    std::thread canceller([&] {
      std::this_thread::sleep_for(full / divisor);
      token.cancel();
    });
    const auto r = with_threads(
        4, [&] { return Solver(g).find(c5, cancellable); });
    canceller.join();
    ASSERT_TRUE(r.has_value());
    if (r.ok()) continue;  // finished before the cancel: try earlier
    ASSERT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().to_string();
    const std::uint32_t runs = r->runs;
    ASSERT_GE(runs, 1u);
    ASSERT_LE(runs, 20u);
    // A prefix: every run before the last accounted run in full, the last
    // one up to some slice.
    EXPECT_GE(r->metrics.work(), work_before[runs - 1]);
    EXPECT_LE(r->metrics.work(), work_before[runs]);
    EXPECT_GE(r->slices_solved, slices_before[runs - 1]);
    EXPECT_LE(r->slices_solved, slices_before[runs]);
    landed_in_a_wave = runs >= 2;
  }
  EXPECT_TRUE(landed_in_a_wave);
}

TEST(SolverWaveCodec, UnsupportedSpeculativeRunStopsAtThatRun) {
  // K_{57,57} has no triangle, so C3's DP states hold at most one mapped
  // edge and stay tiny. Its two-level slices are K_{57,56} (bag 57, past
  // the codec's 56) unless the run's clustering split off a vertex of the
  // larger side. With seed 67, runs 0 and 1 fit and run 2 — in wave
  // {1, 2} — does not.
  EdgeList edges;
  const Vertex m = 57;
  for (Vertex x = 0; x < m; ++x) {
    for (Vertex y = 0; y < m; ++y) edges.push_back({x, m + y});
  }
  const Graph g = Graph::from_edges(2 * m, edges);
  const Pattern c3 = cycle_pattern(3);
  constexpr std::uint64_t kSeed = 67;

  // Serial oracle: find_once run by run on one Solver.
  WaveCapture oracle;
  {
    Solver solver(g);
    for (std::uint32_t r = 0; r < 3; ++r) {
      const auto one = solver.find_once(c3, support::hash_combine(kSeed, r));
      ASSERT_EQ(one.status().code(),
                r < 2 ? StatusCode::kOk : StatusCode::kUnsupported)
          << "run " << r << ": " << one.status().to_string();
      ++oracle.find.runs;
      oracle.find.slices_solved += one->slices_solved;
      oracle.find.work += one->metrics.work();
      oracle.find.rounds += one->metrics.rounds();
    }
    oracle.cache = cache_counters(solver.cache_stats());
  }
  for (const int t : kThreadCounts) {
    const std::string where = "threads " + std::to_string(t);
    with_threads(t, [&] {
      Solver solver(g);
      QueryOptions opts;
      opts.seed = kSeed;
      const auto r = solver.find(c3, opts);
      EXPECT_EQ(r.status().code(), StatusCode::kUnsupported)
          << where << ": " << r.status().to_string();
      EXPECT_TRUE(r.has_value()) << where;
      if (r.has_value()) {
        expect_same_wave(oracle,
                         {capture_find(r),
                          cache_counters(solver.cache_stats())},
                         where);
      }
      return 0;
    });
  }
}

}  // namespace
}  // namespace ppsi
