// The four perfbench workloads. Each one builds its inputs from the seed,
// times its own set-up, runs a closed loop for the part's seconds, checks
// every answer against a reference computed outside the timed region, and
// on a traced run replays a sample of its queries layer by layer
// (replay.hpp). Why each workload exists is documented in
// perfbench/README.md.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/dynamic.hpp"
#include "api/solver.hpp"
#include "api/solver_pool.hpp"
#include "baseline/ullmann.hpp"
#include "bench.hpp"
#include "connectivity/flow_connectivity.hpp"
#include "graph/generators.hpp"
#include "replay.hpp"
#include "support/rng.hpp"

namespace perfbench {

using ppsi::Graph;
using ppsi::QueryOptions;
using ppsi::Solver;
using ppsi::Vertex;
using ppsi::iso::Pattern;
using ppsi::support::hash_combine;
using ppsi::support::Rng;

namespace {

struct NamedPattern {
  const char* name;
  Pattern pattern;
};

Pattern cycle(Vertex n) { return Pattern::from_graph(ppsi::gen::cycle_graph(n)); }
Pattern path(Vertex n) { return Pattern::from_graph(ppsi::gen::path_graph(n)); }
/// Star with `leaves` leaves (S3 = K_{1,3}).
Pattern star(Vertex leaves) {
  return Pattern::from_graph(ppsi::gen::star_graph(leaves + 1));
}

/// Query seed of the i-th query of a part, decorrelated across parts.
std::uint64_t query_seed(const Args& args, std::uint64_t stream,
                         std::uint64_t i) {
  return hash_combine(hash_combine(args.seed, 0xbe9c + args.part),
                      hash_combine(stream, i));
}

/// Seed of one generated input graph; each part draws its own, so one run
/// averages over several instances.
std::uint64_t graph_seed(const Args& args, std::uint64_t which) {
  return hash_combine(hash_combine(args.seed, which), args.part);
}

/// Seeded permutation of 0..n-1.
std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

/// Checks one decision answer; a mismatch or non-ok status is a failure.
void check_find(Record& record, const std::string& what, const Graph& g,
                const Pattern& pattern,
                const ppsi::Result<ppsi::cover::DecisionResult>& result,
                bool expected) {
  ++record.attempted;
  if (!result.ok()) {
    record.fail(what + ": " + result.status().to_string());
  } else if (result->found != expected) {
    record.fail(what + ": found=" + std::to_string(result->found) +
                ", expected " + std::to_string(expected));
  } else if (expected && (!result->witness.has_value() ||
                          !valid_witness(g, pattern, *result->witness))) {
    record.fail(what + ": invalid witness");
  }
}

/// Layer counters of the replay plus the Solver timings around it.
struct TraceTotals {
  LayerCounts counts;
  double solver_nt_ms = 0.0;  ///< the Solver at the default team size
  double solver_1t_ms = 0.0;  ///< the same query at one thread
  std::uint64_t mismatches = 0;
};

/// Times `query` at the default team size and at one thread; returns the
/// default-size result (both runs must agree on the accounted work).
template <typename Query>
auto timed_twice(Record& record, TraceTotals& totals, const std::string& what,
                 Query&& query) {
  set_threads(1);
  auto t0 = Clock::now();
  auto serial = query();
  totals.solver_1t_ms += ms_since(t0);
  set_threads(default_threads());
  t0 = Clock::now();
  auto result = query();
  totals.solver_nt_ms += ms_since(t0);
  if (result.ok() != serial.ok() ||
      (result.ok() && result->metrics.work() != serial->metrics.work()))
    record.fail(what + ": accounted work differs between 1 and " +
                std::to_string(default_threads()) + " threads");
  return result;
}

/// Replays one query serially under a root "query" span.
template <typename Replay>
auto traced(Record& record, Replay&& replay) {
  set_threads(1);
  record.tracer.begin_query();
  auto out = [&] {
    const Tracer::Scope root(record.tracer, "query");
    return replay();
  }();
  set_threads(default_threads());
  return out;
}

void check_replay_work(Record& record, TraceTotals& totals,
                       const std::string& what, std::uint64_t solver_work,
                       std::uint64_t replay_work) {
  ++record.attempted;
  if (solver_work == replay_work) return;
  ++totals.mismatches;
  record.fail(what + ": replay work " + std::to_string(replay_work) +
              " != Solver work " + std::to_string(solver_work));
}

void publish(Record& record, const TraceTotals& totals) {
  const LayerCounts& c = totals.counts;
  auto& layer = record.layer;
  layer["solver_nt_ms"] = totals.solver_nt_ms;
  layer["solver_1t_ms"] = totals.solver_1t_ms;
  layer["replay_mismatches"] = static_cast<double>(totals.mismatches);
  layer["cover_builds"] = static_cast<double>(c.cover_builds);
  layer["cover_slices"] = static_cast<double>(c.cover_slices);
  layer["decompositions"] = static_cast<double>(c.decompositions);
  layer["width_max"] = static_cast<double>(c.width_max);
  layer["dp_work"] = static_cast<double>(c.dp_work);
  layer["slices_solved"] = static_cast<double>(c.slices_solved);
  layer["slices_accepting"] = static_cast<double>(c.slices_accepting);
  layer["states"] = static_cast<double>(c.states);
  layer["probes"] = static_cast<double>(c.probes);
  layer["cycle_runs"] = static_cast<double>(c.cycle_runs);
}

/// Cover-cache hits over lookups, summed over the given statistics.
struct HitRatio {
  double hits = 0.0;
  double lookups = 0.0;

  void add(const ppsi::CacheStats& now, const ppsi::CacheStats& then = {}) {
    hits += static_cast<double>(now.cover_hits - then.cover_hits);
    lookups += static_cast<double>(now.cover_hits + now.cover_misses -
                                   then.cover_hits - then.cover_misses);
  }
  double value() const { return lookups > 0 ? hits / lookups : 0.0; }
};

/// Warms the OMP team and the per-thread scratch arenas before timing; part
/// of every workload's set-up. A fresh process often runs its first cold
/// queries at a flat 30-100 ms floor for up to about a second, so this
/// repeats a small cold query until three in a row run within twice the
/// fastest one seen (at least ten queries, at most three seconds).
void warm_up() {
  const Graph grid = ppsi::gen::grid_graph(16, 16);
  const Pattern pattern = cycle(6);
  const auto start = Clock::now();
  double fastest = 1e300;
  int steady = 0;
  for (int i = 1; ms_since(start) < 3000.0; ++i) {
    Solver solver(grid);
    QueryOptions options;
    options.seed = static_cast<std::uint64_t>(i);
    const auto t0 = Clock::now();
    (void)solver.find(pattern, options);
    const double ms = ms_since(t0);
    fastest = std::min(fastest, ms);
    steady = ms <= 2.0 * fastest ? steady + 1 : 0;
    if (i >= 10 && steady >= 3) break;
  }
}

/// Seeded endless walk over 0..n-1: each pass is a fresh permutation, so
/// every index recurs at the same rate.
class Deck {
 public:
  Deck(std::size_t n, std::uint64_t seed) : n_(n), rng_(seed) {}
  std::size_t next() {
    if (pos_ == order_.size()) {
      order_ = shuffled(n_, rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::size_t n_;
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------- serve_warm

void run_serve_warm(const Args& args, Record& record) {
  // Tenants: two grids and one Apollonian triangulation. Every find is
  // positive. Counts (full listings, checked against Ullmann) all go to the
  // small grid: one homogeneous class of ~50 ms queries that is a fifth of
  // all queries, so p90 falls inside it instead of on a class boundary.
  struct Template {
    std::size_t tenant;
    NamedPattern pattern;
    QueryOptions options;  ///< its cover seed; primed in set-up
  };
  std::vector<std::pair<std::string, Graph>> tenants;
  tenants.emplace_back("grid16", ppsi::gen::grid_graph(16, 16));
  tenants.emplace_back("grid8x12", ppsi::gen::grid_graph(8, 12));
  tenants.emplace_back(
      "apollonian60",
      ppsi::gen::apollonian(60, graph_seed(args, 1)).graph());
  // Each query runs under three cover seeds, so a run's warm DP cost
  // averages over several cover draws instead of hanging on one.
  constexpr int kSeedsPerQuery = 3;
  std::vector<Template> finds, counts;
  std::uint64_t variant = 0;
  const auto add = [&](std::vector<Template>& to, std::size_t tenant,
                       NamedPattern pattern) {
    QueryOptions options;
    options.seed = query_seed(args, 0x5eed, ++variant);
    to.push_back({tenant, std::move(pattern), options});
  };
  for (int v = 0; v < kSeedsPerQuery; ++v) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      add(finds, t, {"C4", cycle(4)});
      add(finds, t, {"S3", star(3)});
      add(finds, t, {"P4", path(4)});
      add(finds, t, t < 2 ? NamedPattern{"C6", cycle(6)}
                          : NamedPattern{"C3", cycle(3)});
    }
    add(counts, 1, {"C4", cycle(4)});
  }

  // References (untimed): Ullmann assignment counts.
  std::vector<std::size_t> expected_count;
  for (const Template& q : counts)
    expected_count.push_back(
        ppsi::baseline::ullmann_list(tenants[q.tenant].second,
                                     q.pattern.pattern, 1u << 24)
            .size());

  // Set-up: OMP warm-up, pool construction, and priming every (shard,
  // pattern, seed) through the pool itself, all submitted at once, so the
  // serving threads have built their OMP teams and the timed queries are
  // all cover-cache hits.
  const auto setup_start = Clock::now();
  warm_up();
  ppsi::SolverPool pool;
  std::vector<ppsi::TargetId> ids;
  for (const auto& tenant : tenants) ids.push_back(pool.add_target(tenant.second));
  {
    std::vector<ppsi::PendingResult<ppsi::cover::DecisionResult>> primed_finds;
    std::vector<ppsi::PendingResult<ppsi::cover::CountResult>> primed_counts;
    for (const Template& q : finds)
      primed_finds.push_back(
          pool.find_async(ids[q.tenant], q.pattern.pattern, q.options));
    for (const Template& q : counts)
      primed_counts.push_back(
          pool.count_async(ids[q.tenant], q.pattern.pattern, q.options));
    for (const auto& pending : primed_finds) pending.wait();
    for (const auto& pending : primed_counts) pending.wait();
  }
  record.setup_s = ms_since(setup_start) / 1000.0;
  if (args.setup_only) return;

  std::vector<ppsi::CacheStats> primed;
  for (const ppsi::TargetId id : ids) primed.push_back(pool.solver(id).cache_stats());
  const ppsi::PoolStats stats_before = pool.stats();

  // Closed loop: client 0 is interactive (finds only); clients 1..3 are
  // bulk and send one count per three finds.
  constexpr int kClients = 4;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::vector<Record> client_records(kClients);
  double depth_sum = 0.0;
  std::uint64_t depth_samples = 0;
  const auto load_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Record& mine = client_records[c];
        Deck find_deck(finds.size(), query_seed(args, 0x5e77e, c));
        Deck count_deck(counts.size(), query_seed(args, 0xc0c0, c));
        const bool interactive = c == 0;
        ppsi::Admission admission;
        admission.priority = interactive ? ppsi::Priority::kInteractive
                                         : ppsi::Priority::kBulk;
        for (std::uint64_t op = 1; Clock::now() < deadline; ++op) {
          const bool count = !interactive && op % 4 == 0;
          const std::size_t i = count ? count_deck.next() : find_deck.next();
          const Template& q = count ? counts[i] : finds[i];
          const Graph& g = tenants[q.tenant].second;
          const std::string what = tenants[q.tenant].first +
                                   (count ? "/count " : "/find ") +
                                   q.pattern.name;
          const auto t0 = Clock::now();
          if (count) {
            const auto result =
                pool.count_async(ids[q.tenant], q.pattern.pattern, q.options,
                                 admission)
                    .take();
            mine.query_ms.push_back(ms_since(t0));
            ++mine.attempted;
            if (!result.ok()) {
              mine.fail(what + ": " + result.status().to_string());
            } else if (result->assignments != expected_count[i]) {
              mine.fail(what + ": " + std::to_string(result->assignments) +
                        " assignments, expected " +
                        std::to_string(expected_count[i]));
            }
          } else {
            const auto result =
                pool.find_async(ids[q.tenant], q.pattern.pattern, q.options,
                                admission)
                    .take();
            const double ms = ms_since(t0);
            mine.query_ms.push_back(ms);
            if (interactive) mine.interactive_ms.push_back(ms);
            check_find(mine, what, g, q.pattern.pattern, result, true);
          }
        }
      });
    }
    if (args.trace) {
      // Queue-depth sampler for the Little's-law wait (traced run only).
      while (Clock::now() < deadline) {
        depth_sum += static_cast<double>(pool.stats().queued);
        ++depth_samples;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    for (std::thread& client : clients) client.join();
  }
  record.measured_s = ms_since(load_start) / 1000.0;
  record.peak_rss_mb = peak_rss_mb();
  for (const Record& mine : client_records) {
    record.query_ms.insert(record.query_ms.end(), mine.query_ms.begin(),
                           mine.query_ms.end());
    record.interactive_ms.insert(record.interactive_ms.end(),
                                 mine.interactive_ms.begin(),
                                 mine.interactive_ms.end());
    record.attempted += mine.attempted;
    record.failed += mine.failed;
    for (const std::string& why : mine.failures) {
      if (record.failures.size() < 8) record.failures.push_back(why);
    }
  }
  if (!args.trace) return;

  const ppsi::PoolStats stats_after = pool.stats();
  HitRatio hits;
  for (std::size_t t = 0; t < ids.size(); ++t)
    hits.add(pool.solver(ids[t]).cache_stats(), primed[t]);
  record.layer["pool_depth_mean"] =
      depth_samples > 0 ? depth_sum / static_cast<double>(depth_samples) : 0.0;
  record.layer["pool_completed"] =
      static_cast<double>(stats_after.completed - stats_before.completed);
  record.layer["pool_park_events"] =
      static_cast<double>(stats_after.park_events - stats_before.park_events);
  record.layer["cover_hit_ratio"] = hits.value();

  // Replay every find template on its warm shard. The replay cache is
  // primed first, as the shards were, so the replayed queries reuse covers
  // and decompositions exactly like the warm path.
  TraceTotals totals;
  std::vector<ReplayCache> caches(tenants.size());
  Tracer priming;
  LayerCounts ignored;
  for (const Template& q : finds)
    (void)replay_find(tenants[q.tenant].second, 1, q.pattern.pattern,
                      q.options.seed, nullptr, caches[q.tenant], priming,
                      ignored);
  for (const Template& q : finds) {
    const Graph& g = tenants[q.tenant].second;
    const std::string what = tenants[q.tenant].first + "/find " + q.pattern.name;
    const auto result = timed_twice(record, totals, what, [&] {
      return pool.solver(ids[q.tenant]).find(q.pattern.pattern, q.options);
    });
    const ReplayOutcome replay = traced(record, [&] {
      return replay_find(g, 1, q.pattern.pattern, q.options.seed, nullptr,
                         caches[q.tenant], record.tracer, totals.counts);
    });
    check_find(record, what, g, q.pattern.pattern, result, true);
    check_replay_work(record, totals, what,
                      result.ok() ? result->metrics.work() : 0, replay.work);
  }
  publish(record, totals);
}

// --------------------------------------------------------------- cold_decide

void run_cold_decide(const Args& args, Record& record) {
  struct Query {
    std::string target;
    const Graph* graph;
    NamedPattern pattern;
    bool expected;
  };
  const Graph grid = ppsi::gen::grid_graph(64, 64);
  const Graph apollonian =
      ppsi::gen::apollonian(2000, graph_seed(args, 3)).graph();
  const Graph small_grid = ppsi::gen::grid_graph(16, 16);
  // Seven positives (cover build and decomposition dominate) and two full
  // negative loops (the odd cycle C5 on a bipartite grid; the DP
  // dominates). Negatives are two queries in nine, so p50 reads the
  // positives and p90 lands well inside the negatives. C6 and P5 on the
  // Apollonian graph are left out: their time swings 5x with the cover seed
  // and would make the tail unsteady.
  const std::vector<Query> queries = {
      {"grid64", &grid, {"C4", cycle(4)}, true},
      {"grid64", &grid, {"C6", cycle(6)}, true},
      {"grid64", &grid, {"P5", path(5)}, true},
      {"grid64", &grid, {"S3", star(3)}, true},
      {"apollonian2000", &apollonian, {"C4", cycle(4)}, true},
      {"apollonian2000", &apollonian, {"S3", star(3)}, true},
      {"apollonian2000", &apollonian, {"C5", cycle(5)}, true},
      {"grid16", &small_grid, {"C5", cycle(5)}, false},
      {"grid16", &small_grid, {"C5", cycle(5)}, false}};

  const auto setup_start = Clock::now();
  warm_up();
  record.setup_s = ms_since(setup_start) / 1000.0;
  if (args.setup_only) return;

  // One rotation = every query once, in a seeded order; the loop runs
  // whole rotations so every part sees the same mix.
  Rng rng(query_seed(args, 0xc01d, 0));
  std::uint64_t issued = 0;
  const auto load_start = Clock::now();
  while (ms_since(load_start) < args.seconds * 1000.0) {
    for (const std::size_t i : shuffled(queries.size(), rng)) {
      const Query& q = queries[i];
      QueryOptions options;
      options.seed = query_seed(args, 0xc01d, ++issued);
      Solver solver(*q.graph);
      const auto t0 = Clock::now();
      const auto result = solver.find(q.pattern.pattern, options);
      record.query_ms.push_back(ms_since(t0));
      check_find(record, q.target + "/find " + q.pattern.name, *q.graph,
                 q.pattern.pattern, result, q.expected);
    }
  }
  record.measured_s = ms_since(load_start) / 1000.0;
  record.peak_rss_mb = peak_rss_mb();
  if (!args.trace) return;

  // Replay one rotation, each query on a fresh Solver and a cold replay.
  TraceTotals totals;
  HitRatio hits;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const std::string what = q.target + "/find " + q.pattern.name;
    QueryOptions options;
    options.seed = query_seed(args, 0x7ace, i);
    std::unique_ptr<Solver> last;
    const auto result = timed_twice(record, totals, what, [&] {
      last = std::make_unique<Solver>(*q.graph);
      return last->find(q.pattern.pattern, options);
    });
    hits.add(last->cache_stats());
    ReplayCache cache;
    const ReplayOutcome replay = traced(record, [&] {
      return replay_find(*q.graph, 1, q.pattern.pattern, options.seed, nullptr,
                         cache, record.tracer, totals.counts);
    });
    check_find(record, what, *q.graph, q.pattern.pattern, result, q.expected);
    check_replay_work(record, totals, what,
                      result.ok() ? result->metrics.work() : 0, replay.work);
  }
  record.layer["cover_hit_ratio"] = hits.value();
  publish(record, totals);
}

// --------------------------------------------------------------- edit_stream

namespace {

/// Seeded small edit scripts: remove one or two present edges, or put back
/// edges removed earlier. Every script is valid against the version it is
/// drawn for.
class EditSource {
 public:
  EditSource(std::uint64_t seed) : rng_(seed) {}

  ppsi::EditScript next(const Graph& g) {
    ppsi::EditScript script;
    const std::size_t edits = 1 + rng_.next_below(2);
    std::vector<ppsi::Edge> picked;
    for (std::size_t e = 0; e < edits; ++e) {
      if (!removed_.empty() && rng_.next_below(2) == 0) {
        const std::size_t i = rng_.next_below(removed_.size());
        script.insert_edge(removed_[i].first, removed_[i].second);
        removed_.erase(removed_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const Vertex u = static_cast<Vertex>(rng_.next_below(g.num_vertices()));
      if (g.degree(u) == 0) continue;
      const Vertex v = g.neighbors(u)[rng_.next_below(g.degree(u))];
      const ppsi::Edge edge{std::min(u, v), std::max(u, v)};
      if (std::find(picked.begin(), picked.end(), edge) != picked.end())
        continue;
      picked.push_back(edge);
      script.remove_edge(edge.first, edge.second);
    }
    removed_.insert(removed_.end(), picked.begin(), picked.end());
    return script;
  }

 private:
  Rng rng_;
  std::vector<ppsi::Edge> removed_;
};

struct EditAnswer {
  std::size_t target = 0;
  std::size_t pattern = 0;
  std::size_t version = 0;  ///< index into the recorded version graphs
  std::uint64_t seed = 0;
  bool ok = false;
  bool found = false;
  std::uint64_t work = 0;
};

}  // namespace

void run_edit_stream(const Args& args, Record& record) {
  std::vector<std::pair<std::string, Graph>> targets;
  targets.emplace_back("grid40", ppsi::gen::grid_graph(40, 40));
  targets.emplace_back(
      "apollonian800",
      ppsi::gen::apollonian(800, graph_seed(args, 4)).graph());
  const std::vector<NamedPattern> patterns = {
      {"C4", cycle(4)}, {"S3", star(3)}, {"P4", path(4)}};

  const auto setup_start = Clock::now();
  warm_up();
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const auto& target : targets)
    solvers.push_back(std::make_unique<Solver>(target.second));
  record.setup_s = ms_since(setup_start) / 1000.0;
  if (args.setup_only) return;

  std::vector<EditSource> sources;
  for (std::size_t t = 0; t < targets.size(); ++t)
    sources.emplace_back(query_seed(args, 0xed17, t));
  std::vector<Graph> versions;
  std::vector<EditAnswer> answers;
  double apply_ms = 0.0, find_ms = 0.0;
  std::vector<ppsi::CacheStats> before;
  for (const auto& solver : solvers) before.push_back(solver->cache_stats());

  // One round = four grid commits and one Apollonian commit, each followed
  // by the pattern set pinned to the committed version. Grid queries are
  // the faster class; four fifths of the queries put p50 inside it and p90
  // at the middle of the Apollonian class, away from class boundaries and
  // from the Apollonian queries' long tail.
  // Cover seeds cycle through a few variants per (target, pattern): each
  // commit's cover still finds the same seed's cover a few versions back
  // to share decompositions with, and a run averages over several draws.
  constexpr std::size_t kRound[] = {0, 0, 0, 0, 1};
  constexpr std::uint64_t kSeedVariants = 8;
  const auto load_start = Clock::now();
  for (std::uint64_t round = 0; ms_since(load_start) < args.seconds * 1000.0;
       ++round) {
    for (const std::size_t t : kRound) {
      Solver& solver = *solvers[t];
      const ppsi::EditScript script = sources[t].next(solver.target());
      auto t0 = Clock::now();
      const auto committed = solver.apply(script);
      const double edit = ms_since(t0);
      record.edit_ms.push_back(edit);
      apply_ms += edit;
      ++record.attempted;
      if (!committed.ok()) {
        record.fail(targets[t].first + "/apply: " +
                    committed.status().to_string());
        continue;
      }
      const ppsi::TargetVersion version = *committed;
      versions.push_back(version.graph());
      for (std::size_t p = 0; p < patterns.size(); ++p) {
        QueryOptions options;
        options.seed = query_seed(
            args, 0xed17, 64 * t + 16 * (round % kSeedVariants) + p);
        options.at = &version;
        t0 = Clock::now();
        const auto result = solver.find(patterns[p].pattern, options);
        const double ms = ms_since(t0);
        record.query_ms.push_back(ms);
        find_ms += ms;
        EditAnswer answer;
        answer.target = t;
        answer.pattern = p;
        answer.version = versions.size() - 1;
        answer.seed = options.seed;
        answer.ok = result.ok();
        answer.found = result.ok() && result->found;
        answer.work = result.ok() ? result->metrics.work() : 0;
        answers.push_back(answer);
        ++record.attempted;
        if (!result.ok()) {
          record.fail(targets[t].first + "/find " + patterns[p].name + ": " +
                      result.status().to_string());
        } else if (result->found &&
                   (!result->witness.has_value() ||
                    !valid_witness(version.graph(), patterns[p].pattern,
                                   *result->witness))) {
          record.fail(targets[t].first + "/find " + patterns[p].name +
                      ": invalid witness");
        }
      }
    }
  }
  record.measured_s = ms_since(load_start) / 1000.0;
  record.peak_rss_mb = peak_rss_mb();

  // Reference (untimed): every answer against a cold Solver on the same
  // version, including equal accounted work.
  for (const EditAnswer& answer : answers) {
    if (!answer.ok) continue;
    Solver cold(versions[answer.version]);
    QueryOptions options;
    options.seed = answer.seed;
    const auto reference = cold.find(patterns[answer.pattern].pattern, options);
    if (!reference.ok() || reference->found != answer.found ||
        reference->metrics.work() != answer.work) {
      record.fail(targets[answer.target].first + "/find " +
                  patterns[answer.pattern].name + " at version " +
                  std::to_string(answer.version) +
                  ": differs from a cold Solver (work " +
                  std::to_string(answer.work) + " vs " +
                  std::to_string(reference.ok() ? reference->metrics.work() : 0) +
                  ")");
    }
  }
  if (!args.trace) return;

  HitRatio hits;
  double rebuilt = 0.0, reused = 0.0;
  for (std::size_t t = 0; t < solvers.size(); ++t) {
    const ppsi::CacheStats now = solvers[t]->cache_stats();
    hits.add(now, before[t]);
    rebuilt += static_cast<double>(now.slices_rebuilt - before[t].slices_rebuilt);
    reused += static_cast<double>(now.slices_reused - before[t].slices_reused);
  }
  record.layer["commits"] = static_cast<double>(record.edit_ms.size());
  record.layer["apply_ms"] = apply_ms;
  record.layer["find_ms"] = find_ms;
  record.layer["slices_rebuilt"] = rebuilt;
  record.layer["slices_reused"] = reused;
  record.layer["cover_hit_ratio"] = hits.value();

  // Replay a fresh stream of a few commits per target: two Solvers follow
  // it (default team size and one thread) and the replay cache follows it
  // with the same per-slice decomposition sharing.
  TraceTotals totals;
  constexpr int kTracedCommits = 4;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    Solver wide(targets[t].second);
    Solver narrow(targets[t].second);
    EditSource source(query_seed(args, 0x7ace, t));
    ReplayCache cache;
    for (int c = 0; c < kTracedCommits; ++c) {
      const ppsi::EditScript script = source.next(wide.target());
      const auto wide_version = wide.apply(script);
      const auto narrow_version = narrow.apply(script);
      if (!wide_version.ok() || !narrow_version.ok()) {
        ++record.attempted;
        record.fail(targets[t].first + "/apply (traced): failed");
        break;
      }
      for (std::size_t p = 0; p < patterns.size(); ++p) {
        const std::string what =
            targets[t].first + "/find " + patterns[p].name + " (traced)";
        QueryOptions options;
        options.seed = query_seed(args, 0x7ace, 16 * t + p);
        bool narrow_turn = true;
        const auto result = timed_twice(record, totals, what, [&] {
          QueryOptions pinned = options;
          pinned.at = narrow_turn ? &*narrow_version : &*wide_version;
          Solver& solver = narrow_turn ? narrow : wide;
          narrow_turn = false;
          return solver.find(patterns[p].pattern, pinned);
        });
        const ReplayOutcome replay = traced(record, [&] {
          return replay_find(wide_version->graph(), wide_version->id(),
                             patterns[p].pattern, options.seed, nullptr,
                             cache, record.tracer, totals.counts);
        });
        check_replay_work(record, totals, what,
                          result.ok() ? result->metrics.work() : 0,
                          replay.work);
      }
    }
  }
  publish(record, totals);
}

// -------------------------------------------------------------- connectivity

void run_connectivity(const Args& args, Record& record) {
  struct Target {
    std::string name;
    ppsi::planar::EmbeddedGraph graph;
    std::uint32_t expected = 0;
  };
  // Seven graphs, so a whole number of rotations puts the median inside
  // one class: the two bipyramids sit below the subdivided octahedron, and
  // Apollonian, antiprism and icosahedron above it.
  std::vector<Target> targets = {
      {"grid12", ppsi::gen::embedded_grid(12, 12)},
      {"apollonian200", ppsi::gen::apollonian(200, graph_seed(args, 5))},
      {"bipyramid8", ppsi::gen::bipyramid(8)},
      {"bipyramid12", ppsi::gen::bipyramid(12)},
      {"octahedron_subdivided",
       ppsi::gen::loop_subdivide(ppsi::gen::octahedron(), 1)},
      {"antiprism8", ppsi::gen::antiprism(8)},
      {"icosahedron", ppsi::gen::icosahedron()}};
  // Reference (untimed): exact flow connectivity.
  for (Target& target : targets)
    target.expected =
        ppsi::connectivity::vertex_connectivity_flow(target.graph.graph())
            .connectivity;

  const auto setup_start = Clock::now();
  warm_up();
  record.setup_s = ms_since(setup_start) / 1000.0;
  if (args.setup_only) return;

  Rng rng(query_seed(args, 0xc0ec, 0));
  std::uint64_t issued = 0;
  const auto check = [&](const Target& target, const auto& result) {
    ++record.attempted;
    if (!result.ok()) {
      record.fail(target.name + ": " + result.status().to_string());
    } else if (result->connectivity != target.expected) {
      record.fail(target.name + ": connectivity " +
                  std::to_string(result->connectivity) + ", flow says " +
                  std::to_string(target.expected));
    }
  };
  const auto load_start = Clock::now();
  while (ms_since(load_start) < args.seconds * 1000.0) {
    for (const std::size_t i : shuffled(targets.size(), rng)) {
      QueryOptions options;
      options.seed = query_seed(args, 0xc0ec, ++issued);
      Solver solver(targets[i].graph);
      const auto t0 = Clock::now();
      const auto result = solver.vertex_connectivity(options);
      record.query_ms.push_back(ms_since(t0));
      check(targets[i], result);
    }
  }
  record.measured_s = ms_since(load_start) / 1000.0;
  record.peak_rss_mb = peak_rss_mb();
  if (!args.trace) return;

  TraceTotals totals;
  HitRatio hits;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Target& target = targets[i];
    QueryOptions options;
    options.seed = query_seed(args, 0x7ace, i);
    std::unique_ptr<Solver> last;
    const auto result = timed_twice(record, totals, target.name, [&] {
      last = std::make_unique<Solver>(target.graph);
      return last->vertex_connectivity(options);
    });
    hits.add(last->cache_stats());
    const ConnectivityReplay replay = traced(record, [&] {
      return replay_vertex_connectivity(target.graph, options.seed,
                                        record.tracer, totals.counts);
    });
    check(target, result);
    check_replay_work(record, totals, target.name,
                      result.ok() ? result->metrics.work() : 0, replay.work);
    if (replay.connectivity != target.expected) {
      ++record.attempted;
      record.fail(target.name + ": replay connectivity " +
                  std::to_string(replay.connectivity));
    }
  }
  record.layer["cover_hit_ratio"] = hits.value();
  publish(record, totals);
}

}  // namespace perfbench
