// SolverPool unit tests: admission under both policies (strict priority
// classes + EDF + fair tenants + shedding + park/resume under kPriority,
// plain submission order under kFifo), cancellation in every state (queued /
// running / finished), per-target shard isolation, the unified submit<T>
// surface, unknown-target rejection, and the stats counters.
//
// Ordering assertions exploit two deterministic facts: at max_concurrent = 1
// results publish in dispatch order (completion publishes under the pool
// mutex before the next query's completion can), and a queue snapshot taken
// while every candidate is still queued pins the pick order no matter when
// the running query finishes. Where a test needs "the blocker was still
// running", it verifies that precondition from stats() instead of assuming
// timing, so every legal schedule passes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/dynamic.hpp"
#include "api/solver_pool.hpp"
#include "graph/generators.hpp"
#include "support/arena.hpp"
#include "testing/pool_checks.hpp"

namespace ppsi {
namespace {

using cover::DecisionResult;
using iso::Pattern;

Pattern cycle_pattern(Vertex k) {
  return Pattern::from_graph(gen::cycle_graph(k));
}

TEST(SolverPool, AnswersAcrossMultipleTargets) {
  SolverPool pool;
  const TargetId with_c4 = pool.add_target(gen::grid_graph(6, 6));
  const TargetId without_c4 = pool.add_target(gen::path_graph(12));
  ASSERT_EQ(pool.num_targets(), 2u);

  QueryOptions opts;
  opts.max_runs = 3;
  auto hit = pool.find_async(with_c4, cycle_pattern(4), opts);
  auto miss = pool.find_async(without_c4, cycle_pattern(4), opts);
  ASSERT_TRUE(hit.get().ok());
  ASSERT_TRUE(miss.get().ok());
  EXPECT_TRUE(hit.get()->found);
  EXPECT_FALSE(miss.get()->found);
}

TEST(SolverPool, ShardsKeepSeparateCaches) {
  SolverPool pool;
  const TargetId a = pool.add_target(gen::grid_graph(6, 6));
  const TargetId b = pool.add_target(gen::grid_graph(6, 6));
  QueryOptions opts;
  opts.max_runs = 2;
  pool.find_async(a, cycle_pattern(4), opts).wait();
  // Same pattern against the identical twin target: its shard starts cold.
  pool.find_async(b, cycle_pattern(4), opts).wait();
  EXPECT_GT(pool.solver(a).cache_stats().cover_misses, 0u);
  EXPECT_GT(pool.solver(b).cache_stats().cover_misses, 0u);
  EXPECT_EQ(pool.solver(b).cache_stats().cover_hits,
            pool.solver(a).cache_stats().cover_hits);
}

TEST(SolverPool, AdmissionIsFifoAtOneSlot) {
  // With one admission slot queries execute strictly in submission order,
  // so by the time a later query resolves every earlier one already has.
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(10, 10));
  QueryOptions opts;
  opts.max_runs = 2;

  std::vector<PendingResult<DecisionResult>> handles;
  for (int i = 0; i < 4; ++i)
    handles.push_back(pool.find_async(id, cycle_pattern(5), opts));
  handles.back().wait();
  for (auto& earlier : handles) EXPECT_TRUE(earlier.ready());

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.cancelled_before_start, 0u);
  EXPECT_EQ(stats.queued, 0u);
  testing::expect_drained_pool_stats_conserved(stats);
}

TEST(SolverPool, CancelWhileQueuedSkipsWithoutWork) {
  // One long-running query holds the single admission slot; a queued
  // victim cancelled before it is admitted must resolve to kCancelled with
  // an empty result and count as cancelled_before_start.
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(12, 12));
  QueryOptions slow;
  slow.max_runs = 4;

  auto blocker = pool.find_async(id, cycle_pattern(5), slow);
  auto victim = pool.find_async(id, cycle_pattern(5), slow);
  victim.cancel();
  const auto& r = victim.get();
  // The blocker may or may not still be running when the victim resolves;
  // either way the victim never executed.
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->runs, 0u);
  EXPECT_EQ(r->metrics.work(), 0u);
  ASSERT_TRUE(blocker.get().ok());

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled_before_start, 1u);
}

TEST(SolverPool, CancelWhileRunningPreemptsMidCover) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(24, 24));
  QueryOptions opts;
  opts.max_runs = 8;
  auto pending = pool.find_async(id, cycle_pattern(5), opts);
  pending.cancel();
  const auto& r = pending.get();
  ASSERT_TRUE(r.has_value());
  // The cancel may land while queued, mid-run, or after completion; the
  // status set is what the contract pins.
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  EXPECT_FALSE(r->found);  // C5 is absent from the bipartite grid
}

TEST(SolverPool, CancelAfterCompletionIsANoOp) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(6, 6));
  auto pending = pool.find_async(id, cycle_pattern(4));
  ASSERT_TRUE(pending.get().ok());
  pending.cancel();
  EXPECT_TRUE(pending.get().ok());
  EXPECT_TRUE(pending.get()->found);
}

TEST(SolverPool, UnknownTargetRejectsWithoutEnqueueing) {
  SolverPool pool;
  pool.add_target(gen::grid_graph(4, 4));
  auto pending = pool.find_async(7, cycle_pattern(4));
  ASSERT_TRUE(pending.valid());
  EXPECT_TRUE(pending.ready());  // resolved immediately, nothing queued
  EXPECT_EQ(pending.get().status().code(), StatusCode::kInvalidOptions);
  EXPECT_EQ(pool.stats().submitted, 0u);
}

TEST(SolverPool, RejectsNonPositiveConcurrency) {
  PoolOptions options;
  options.max_concurrent = 0;
  EXPECT_THROW(SolverPool{options}, std::exception);
}

TEST(SolverPool, DestructorCancelsQueuedAndWaitsForRunning) {
  PoolOptions options;
  options.max_concurrent = 1;
  std::vector<PendingResult<DecisionResult>> handles;
  {
    SolverPool pool(options);
    const TargetId id = pool.add_target(gen::grid_graph(12, 12));
    QueryOptions opts;
    opts.max_runs = 3;
    for (int i = 0; i < 3; ++i)
      handles.push_back(pool.find_async(id, cycle_pattern(5), opts));
    // ~SolverPool: queued queries resolve to kCancelled, running ones
    // finish before the shards are torn down.
  }
  for (auto& pending : handles) {
    ASSERT_TRUE(pending.ready());
    const auto& r = pending.get();
    ASSERT_TRUE(r.has_value());
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
      EXPECT_EQ(r->metrics.work(), 0u);
    }
  }
  // The head query was already admitted, so at least one ran to a result.
  EXPECT_TRUE(handles.front().get().ok());
}

TEST(SolverPool, ListAndCountRunThroughAdmission) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(6, 6));
  QueryOptions opts;
  opts.seed = 5;
  auto list = pool.list_async(id, cycle_pattern(4), opts);
  auto count = pool.count_async(id, cycle_pattern(4), opts);
  ASSERT_TRUE(list.get().ok());
  ASSERT_TRUE(count.get().ok());
  EXPECT_FALSE(list.get()->occurrences.empty());
  EXPECT_EQ(count.get()->assignments, list.get()->occurrences.size());
  EXPECT_EQ(pool.stats().completed, 2u);
}

// ---------------------------------------------------------------------------
// Unified submission surface.

TEST(SolverPoolSubmit, TypedWrappersAreThinOverSubmit) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(6, 6));
  QueryOptions opts;
  opts.seed = 5;
  auto direct =
      pool.submit<cover::ListingResult>(id, Query::List(cycle_pattern(4), opts));
  auto wrapped = pool.list_async(id, cycle_pattern(4), opts);
  ASSERT_TRUE(direct.get().ok());
  ASSERT_TRUE(wrapped.get().ok());
  EXPECT_EQ(direct.get()->occurrences, wrapped.get()->occurrences);
  EXPECT_EQ(direct.get()->iterations, wrapped.get()->iterations);
}

TEST(SolverPoolSubmit, KindMismatchRejectsWithoutEnqueueing) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(4, 4));
  auto pending =
      pool.submit<cover::DecisionResult>(id, Query::List(cycle_pattern(4)));
  ASSERT_TRUE(pending.valid());
  EXPECT_TRUE(pending.ready());
  EXPECT_EQ(pending.get().status().code(), StatusCode::kInvalidOptions);
  EXPECT_EQ(pool.stats().submitted, 0u);
}

TEST(SolverPoolSubmit, InvalidAdmissionRejectsWithoutEnqueueing) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(4, 4));
  Admission bad;
  bad.tenant_weight = -1.0;
  auto pending = pool.find_async(id, cycle_pattern(4), {}, bad);
  EXPECT_TRUE(pending.ready());
  EXPECT_EQ(pending.get().status().code(), StatusCode::kInvalidOptions);
  bad = {};
  bad.deadline_seconds = -2.0;
  EXPECT_EQ(pool.find_async(id, cycle_pattern(4), {}, bad)
                .get()
                .status()
                .code(),
            StatusCode::kInvalidOptions);
  EXPECT_EQ(pool.stats().submitted, 0u);
}

// ---------------------------------------------------------------------------
// Policy engine: strict priority, EDF, shedding, fair share, parking.

TEST(SolverPoolAdmission, StrictPriorityOutranksSubmissionOrder) {
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(12, 12));
  QueryOptions slow;
  slow.max_runs = 4;
  QueryOptions quick;
  quick.max_runs = 1;

  // The blocker is interactive-class so no waiter outranks it (parking
  // cannot trigger; the ladder stays queued until the blocker finishes).
  Admission interactive;
  interactive.priority = Priority::kInteractive;
  Admission normal;  // kNormal default
  Admission bulk;
  bulk.priority = Priority::kBulk;

  auto blocker = pool.find_async(id, cycle_pattern(5), slow, interactive);
  auto low = pool.find_async(id, cycle_pattern(4), quick, bulk);
  auto mid = pool.find_async(id, cycle_pattern(4), quick, normal);
  auto high = pool.find_async(id, cycle_pattern(4), quick, interactive);

  // Precondition: all three still queued (the blocker holds the slot), so
  // the pick order is pinned no matter when the blocker finishes.
  const PoolStats snapshot = pool.stats();
  const bool ladder_was_queued = snapshot.queued == 3;

  high.wait();
  mid.wait();
  if (ladder_was_queued) {
    // At one slot results publish in dispatch order: when the normal-class
    // query resolved, the interactive one (submitted last!) already had.
    EXPECT_TRUE(high.ready());
  }
  low.wait();
  if (ladder_was_queued) {
    EXPECT_TRUE(mid.ready());
    EXPECT_TRUE(high.ready());
  }
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_TRUE(low.get().ok());
  EXPECT_TRUE(mid.get().ok());
  EXPECT_TRUE(high.get().ok());
  EXPECT_EQ(pool.stats().completed, 4u);
  EXPECT_EQ(pool.stats().shed, 0u);
}

TEST(SolverPoolAdmission, EarliestDeadlineFirstWithinAClass) {
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(12, 12));
  QueryOptions slow;
  slow.max_runs = 4;
  QueryOptions quick;
  quick.max_runs = 1;

  // All normal-class, one tenant: only the deadlines differentiate. The
  // deadlines are generous enough that nothing sheds.
  Admission late;
  late.deadline_seconds = 9000.0;
  Admission mid_dl;
  mid_dl.deadline_seconds = 6000.0;
  Admission soon;
  soon.deadline_seconds = 3000.0;

  auto blocker = pool.find_async(id, cycle_pattern(5), slow);
  auto d_late = pool.find_async(id, cycle_pattern(4), quick, late);
  auto d_mid = pool.find_async(id, cycle_pattern(4), quick, mid_dl);
  auto d_soon = pool.find_async(id, cycle_pattern(4), quick, soon);
  // An open-ended query sorts after every deadlined one of its class.
  auto open_ended = pool.find_async(id, cycle_pattern(4), quick);

  const bool all_queued = pool.stats().queued == 4;

  d_mid.wait();
  if (all_queued) EXPECT_TRUE(d_soon.ready());
  d_late.wait();
  if (all_queued) {
    EXPECT_TRUE(d_mid.ready());
    EXPECT_TRUE(d_soon.ready());
  }
  open_ended.wait();
  if (all_queued) EXPECT_TRUE(d_late.ready());
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_TRUE(d_soon.get().ok());
  EXPECT_TRUE(d_mid.get().ok());
  EXPECT_TRUE(d_late.get().ok());
  EXPECT_TRUE(open_ended.get().ok());
  EXPECT_EQ(pool.stats().shed, 0u);
}

TEST(SolverPoolAdmission, DueDeadlineShedsWithZeroWork) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(8, 8));
  Admission due;
  due.deadline_seconds = 1e-300;  // sub-tick: due the instant it is submitted
  auto pending = pool.find_async(id, cycle_pattern(4), {}, due);
  // Shed deterministically at the submission's own dispatch pass — it never
  // waits for a slot, and the handle is ready before find_async returns.
  ASSERT_TRUE(pending.valid());
  EXPECT_TRUE(pending.ready());
  const auto& r = pending.get();
  EXPECT_EQ(r.status().code(), StatusCode::kShed);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->runs, 0u);
  EXPECT_EQ(r->metrics.work(), 0u);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 0u);
  // The shard was never touched: shedding is admission-side only.
  EXPECT_EQ(pool.solver(id).cache_stats().cover_misses, 0u);
  testing::expect_drained_pool_stats_conserved(stats);
}

TEST(SolverPoolAdmission, CancellationOutranksShedding) {
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(12, 12));
  QueryOptions slow;
  slow.max_runs = 4;
  auto blocker = pool.find_async(id, cycle_pattern(5), slow);
  Admission due;
  due.deadline_seconds = 3600.0;
  auto victim = pool.find_async(id, cycle_pattern(4), {}, due);
  victim.cancel();
  EXPECT_EQ(victim.get().status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(blocker.get().ok());
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.cancelled_before_start + stats.completed, 2u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(SolverPoolAdmission, LeastChargedTenantDispatchesFirst) {
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId tenant_a = pool.add_target(gen::grid_graph(12, 12));
  const TargetId tenant_b = pool.add_target(gen::grid_graph(12, 12));
  QueryOptions slow;
  slow.max_runs = 4;
  QueryOptions quick;
  quick.max_runs = 1;

  // Charge tenant A with one completed query...
  ASSERT_TRUE(pool.find_async(tenant_a, cycle_pattern(5), quick).get().ok());
  // ...then race a second A query (submitted first) against a B query
  // behind a blocker. B's tenant is uncharged, so B dispatches first.
  auto blocker = pool.find_async(tenant_a, cycle_pattern(5), slow);
  auto charged = pool.find_async(tenant_a, cycle_pattern(4), quick);
  auto uncharged = pool.find_async(tenant_b, cycle_pattern(4), quick);

  const bool both_queued = pool.stats().queued == 2;
  charged.wait();
  if (both_queued) EXPECT_TRUE(uncharged.ready());
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_TRUE(charged.get().ok());
  EXPECT_TRUE(uncharged.get().ok());
}

TEST(SolverPoolAdmission, TenantWeightScalesTheCharge) {
  // Same setup, but tenant A pre-pays its charge at a huge weight, so its
  // cumulative charge (work / weight) stays below B's single cheap run:
  // now A's queued query outranks B's despite A having done more raw work.
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId tenant_a = pool.add_target(gen::grid_graph(12, 12));
  const TargetId tenant_b = pool.add_target(gen::grid_graph(12, 12));
  QueryOptions quick;
  quick.max_runs = 1;
  QueryOptions slow;
  slow.max_runs = 4;

  Admission heavy_weight;
  heavy_weight.tenant_weight = 1e9;
  ASSERT_TRUE(
      pool.find_async(tenant_a, cycle_pattern(5), quick, heavy_weight)
          .get()
          .ok());
  ASSERT_TRUE(pool.find_async(tenant_b, cycle_pattern(4), quick).get().ok());

  auto blocker = pool.find_async(tenant_b, cycle_pattern(5), slow);
  auto b_query = pool.find_async(tenant_b, cycle_pattern(4), quick);
  auto a_query = pool.find_async(tenant_a, cycle_pattern(4), quick);

  const bool both_queued = pool.stats().queued == 2;
  b_query.wait();
  if (both_queued) EXPECT_TRUE(a_query.ready());
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_TRUE(a_query.get().ok());
  EXPECT_TRUE(b_query.get().ok());
}

TEST(SolverPoolAdmission, InteractiveParksRunningBulkAndResumesIt) {
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(20, 20));
  QueryOptions bulk_opts;
  bulk_opts.max_runs = 6;  // C5 is absent: six full cover runs of slices
  Admission bulk;
  bulk.priority = Priority::kBulk;

  auto victim = pool.find_async(id, cycle_pattern(5), bulk_opts, bulk);
  // Wait until the bulk query actually occupies the slot, so the
  // interactive submission below finds every slot busy with lower-class
  // work — the park precondition.
  while (pool.stats().started < 1) std::this_thread::yield();

  Admission interactive;
  interactive.priority = Priority::kInteractive;
  QueryOptions quick;
  quick.max_runs = 1;
  auto waiter = pool.find_async(id, cycle_pattern(4), quick, interactive);

  // The interactive query completes while the bulk one is suspended.
  ASSERT_TRUE(waiter.get().ok());
  EXPECT_TRUE(waiter.get()->found);

  // The parked victim resumes and finishes with a result bit-identical to
  // a blocking run: parking changes when it computes, never what.
  const auto& parked_result = victim.get();
  ASSERT_TRUE(parked_result.ok()) << parked_result.status().to_string();
  Solver reference(gen::grid_graph(20, 20));
  const auto blocking = reference.find(cycle_pattern(5), bulk_opts);
  ASSERT_TRUE(blocking.ok());
  EXPECT_EQ(parked_result->found, blocking->found);
  EXPECT_EQ(parked_result->witness, blocking->witness);
  EXPECT_EQ(parked_result->runs, blocking->runs);
  EXPECT_EQ(parked_result->slices_solved, blocking->slices_solved);
  EXPECT_EQ(parked_result->metrics.work(), blocking->metrics.work());

  const PoolStats stats = pool.stats();
  EXPECT_GE(stats.park_events, 1u);
  EXPECT_EQ(stats.parked, 0u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

TEST(SolverPoolWave, BulkParkedMidWaveMatchesItsBlockingTwin) {
  // A negative bulk find with default runs (C5 on a 20x20 grid: 21 runs)
  // spends nearly all of its time in the waves after run 0, each of them
  // one task graph over up to 8 runs. The interactive query arrives after
  // run 0 has had time to finish, so the park lands inside a wave: the
  // wave's pending tasks skip, the query parks between graph rounds, and
  // the resumed round solves exactly the rest.
  const Graph grid = gen::grid_graph(20, 20);
  QueryOptions run0;
  run0.max_runs = 1;
  const auto run0_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(Solver(grid).find(cycle_pattern(5), run0).ok());
  const auto run0_time = std::chrono::steady_clock::now() - run0_start;

  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId id = pool.add_target(grid);
  Admission bulk;
  bulk.priority = Priority::kBulk;
  auto victim = pool.find_async(id, cycle_pattern(5), {}, bulk);
  while (pool.stats().started < 1) std::this_thread::yield();
  std::this_thread::sleep_for(2 * run0_time);

  Admission interactive;
  interactive.priority = Priority::kInteractive;
  QueryOptions quick;
  quick.max_runs = 1;
  auto waiter = pool.find_async(id, cycle_pattern(4), quick, interactive);
  ASSERT_TRUE(waiter.get().ok());

  const auto& parked_result = victim.get();
  ASSERT_TRUE(parked_result.ok()) << parked_result.status().to_string();
  const auto blocking = Solver(grid).find(cycle_pattern(5));
  ASSERT_TRUE(blocking.ok());
  EXPECT_FALSE(blocking->found);
  EXPECT_EQ(parked_result->found, blocking->found);
  EXPECT_EQ(parked_result->witness, blocking->witness);
  EXPECT_EQ(parked_result->runs, blocking->runs);
  EXPECT_EQ(parked_result->slices_solved, blocking->slices_solved);
  EXPECT_EQ(parked_result->metrics.work(), blocking->metrics.work());
  EXPECT_EQ(parked_result->metrics.rounds(), blocking->metrics.rounds());
  EXPECT_GE(pool.stats().park_events, 1u);
}

TEST(SolverPoolAdmission, StatsBalanceUnderConcurrentCancelAndShed) {
  // Mixed closed-loop traffic with concurrent cancels and deterministic
  // sheds: after the drain the counters must balance exactly —
  // submitted == completed + cancelled_before_start + shed, nothing left
  // queued, running, or parked.
  PoolOptions options;
  options.max_concurrent = 2;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(10, 10));
  QueryOptions opts;
  opts.max_runs = 2;

  constexpr int kQueries = 24;
  std::vector<PendingResult<cover::DecisionResult>> handles;
  std::vector<int> shed_slots;
  std::vector<PendingResult<cover::DecisionResult>> to_cancel;
  for (int i = 0; i < kQueries; ++i) {
    Admission admission;
    admission.priority = static_cast<Priority>(i % 3);
    if (i % 3 == 0) {
      admission.deadline_seconds = 1e-300;  // sheds deterministically
      shed_slots.push_back(i);
    }
    handles.push_back(
        pool.find_async(id, cycle_pattern(5), opts, admission));
    if (i % 3 == 1) to_cancel.push_back(handles.back());
  }
  // Cancel a third of the traffic from a second thread, racing dispatch
  // and execution: each cancel may land while queued, mid-run, or late.
  std::thread canceller([&] {
    for (auto& handle : to_cancel) handle.cancel();
  });
  canceller.join();
  for (auto& handle : handles) handle.wait();

  for (const int i : shed_slots) {
    const auto& r = handles[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status().code(), StatusCode::kShed) << "slot " << i;
    ASSERT_TRUE(r.has_value()) << "slot " << i;
    EXPECT_EQ(r->metrics.work(), 0u) << "slot " << i;
  }

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(stats.shed, shed_slots.size());
  EXPECT_EQ(stats.completed + stats.cancelled_before_start + stats.shed,
            stats.submitted);
  EXPECT_EQ(stats.started, stats.submitted);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.parked, 0u);
  testing::expect_drained_pool_stats_conserved(stats);
}

// ---------------------------------------------------------------------------
// Memory governance and retry (robustness counters).

TEST(SolverPoolMemory, WatermarkShedsQueuedBulkOnly) {
  PoolOptions options;
  options.max_concurrent = 1;
  options.memory_high_watermark_bytes = 1;  // any residency trips it
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(10, 10));
  QueryOptions opts;
  opts.max_runs = 2;

  // Prime the arenas: residency is monotone, so after one completed query
  // the pool sits above the 1-byte watermark for the rest of the test.
  ASSERT_TRUE(pool.find_async(id, cycle_pattern(4), opts).get().ok());
  ASSERT_GT(support::scratch_residency_bytes(), 1u);

  QueryOptions slow;
  slow.max_runs = 4;
  auto blocker = pool.find_async(id, cycle_pattern(5), slow);
  Admission bulk;
  bulk.priority = Priority::kBulk;
  auto shed_victim = pool.find_async(id, cycle_pattern(4), opts, bulk);
  // kNormal is never memory-shed — it waits its turn and completes.
  auto survivor = pool.find_async(id, cycle_pattern(4), opts);

  const auto& shed_result = shed_victim.get();
  EXPECT_EQ(shed_result.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(shed_result.has_value());
  EXPECT_EQ(shed_result->metrics.work(), 0u);
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_TRUE(survivor.get().ok());

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.contained, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 3u);
  testing::expect_drained_pool_stats_conserved(stats);
}

TEST(SolverPoolMemory, HighWatermarkNeverSheds) {
  PoolOptions options;
  options.max_concurrent = 1;
  options.memory_high_watermark_bytes = std::uint64_t{1} << 60;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(10, 10));
  QueryOptions opts;
  opts.max_runs = 2;
  Admission bulk;
  bulk.priority = Priority::kBulk;
  auto a = pool.find_async(id, cycle_pattern(4), opts, bulk);
  auto b = pool.find_async(id, cycle_pattern(4), opts, bulk);
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.contained, 0u);
  EXPECT_EQ(stats.failed, 0u);
  testing::expect_drained_pool_stats_conserved(stats);
}

TEST(SolverPoolRetry, ExhaustedRetriesCountContainedRetriedFailed) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(8, 8));
  // Prime residency so a 1-byte per-query budget fails deterministically.
  ASSERT_TRUE(pool.find_async(id, cycle_pattern(4)).get().ok());
  ASSERT_GT(support::scratch_residency_bytes(), 1u);

  QueryOptions tiny;
  tiny.max_runs = 2;
  tiny.max_memory_bytes = 1;
  Admission retry;
  retry.max_retries = 2;
  retry.retry_backoff_seconds = 0.0;
  auto pending = pool.find_async(id, cycle_pattern(4), tiny, retry);
  const auto& r = pending.get();
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(r.has_value());  // interruption: partial stats, not rejection

  const PoolStats stats = pool.stats();
  // Three attempts, each contained; two were retries; the final one failed.
  EXPECT_EQ(stats.contained, 3u);
  EXPECT_EQ(stats.retried, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  testing::expect_drained_pool_stats_conserved(stats);
}

TEST(SolverPoolRetry, ZeroRetriesByDefaultOnSuccess) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(6, 6));
  ASSERT_TRUE(pool.find_async(id, cycle_pattern(4)).get().ok());
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.contained, 0u);
  EXPECT_EQ(stats.retried, 0u);
  EXPECT_EQ(stats.failed, 0u);
  testing::expect_drained_pool_stats_conserved(stats);
}

TEST(SolverPoolRetry, InvalidBackoffRejects) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(4, 4));
  Admission bad;
  bad.retry_backoff_seconds = -1.0;
  auto pending = pool.find_async(id, cycle_pattern(4), {}, bad);
  EXPECT_TRUE(pending.ready());
  EXPECT_EQ(pending.get().status().code(), StatusCode::kInvalidOptions);
  EXPECT_EQ(pool.stats().submitted, 0u);
}

// ---------------------------------------------------------------------------
// kFifo compatibility policy.

TEST(SolverPoolFifo, IgnoresPrioritiesAndNeverSheds) {
  PoolOptions options;
  options.max_concurrent = 1;
  options.policy = AdmissionPolicy::kFifo;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(12, 12));
  QueryOptions slow;
  slow.max_runs = 4;
  QueryOptions quick;
  quick.max_runs = 1;

  Admission bulk;
  bulk.priority = Priority::kBulk;
  Admission interactive;
  interactive.priority = Priority::kInteractive;
  Admission due;
  due.deadline_seconds = 1e-300;  // would shed instantly under kPriority

  auto blocker = pool.find_async(id, cycle_pattern(5), slow);
  auto first = pool.find_async(id, cycle_pattern(4), quick, bulk);
  auto second = pool.find_async(id, cycle_pattern(4), quick, interactive);
  auto third = pool.find_async(id, cycle_pattern(4), quick, due);

  const bool all_queued = pool.stats().queued == 3;
  second.wait();
  if (all_queued) EXPECT_TRUE(first.ready());  // FIFO: bulk went first
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  // The due deadline is recorded but ignored: the query runs to completion.
  EXPECT_TRUE(third.get().ok());
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.park_events, 0u);
  EXPECT_EQ(stats.completed, 4u);
}

// Dynamic targets under admission: every pool query pins its shard's
// version at submit, so edits landing while a query is queued, running, or
// parked never change what it answers against.

TEST(SolverPoolDynamic, ParkedQueryResumesOnItsSubmitTimeVersion) {
  PoolOptions options;
  options.max_concurrent = 1;
  SolverPool pool(options);
  const TargetId id = pool.add_target(gen::grid_graph(20, 20));
  QueryOptions bulk_opts;
  bulk_opts.max_runs = 6;  // C5 is absent: six full cover runs of slices
  Admission bulk;
  bulk.priority = Priority::kBulk;

  auto victim = pool.find_async(id, cycle_pattern(5), bulk_opts, bulk);
  while (pool.stats().started < 1) std::this_thread::yield();

  // The edit lands while the bulk query occupies the slot (version 2);
  // the victim stays pinned to version 1.
  ASSERT_TRUE(pool.remove_edge(id, 0, 1).ok());
  const TargetVersion v2 = pool.current_version(id);
  ASSERT_EQ(v2.id(), 2u);

  // An interactive waiter parks the victim mid-cover; it was submitted
  // after the commit, so it must answer on version 2.
  Admission interactive;
  interactive.priority = Priority::kInteractive;
  QueryOptions quick;
  quick.max_runs = 1;
  auto waiter = pool.find_async(id, cycle_pattern(4), quick, interactive);
  ASSERT_TRUE(waiter.get().ok());
  Solver edited_ref(v2.graph());
  const auto waiter_ref = edited_ref.find(cycle_pattern(4), quick);
  ASSERT_TRUE(waiter_ref.ok());
  EXPECT_EQ(waiter.get()->found, waiter_ref->found);
  EXPECT_EQ(waiter.get()->witness, waiter_ref->witness);
  EXPECT_EQ(waiter.get()->metrics.work(), waiter_ref->metrics.work());

  // The resumed victim is bit-identical to a blocking run on the
  // *pre-edit* target — the edit was invisible to it.
  const auto& parked_result = victim.get();
  ASSERT_TRUE(parked_result.ok()) << parked_result.status().to_string();
  Solver base_ref(gen::grid_graph(20, 20));
  const auto blocking = base_ref.find(cycle_pattern(5), bulk_opts);
  ASSERT_TRUE(blocking.ok());
  EXPECT_EQ(parked_result->found, blocking->found);
  EXPECT_EQ(parked_result->witness, blocking->witness);
  EXPECT_EQ(parked_result->runs, blocking->runs);
  EXPECT_EQ(parked_result->slices_solved, blocking->slices_solved);
  EXPECT_EQ(parked_result->metrics.work(), blocking->metrics.work());
}

TEST(SolverPoolDynamic, VersionsDrainOnceHandlesAndQueriesFinish) {
  // A completed query publishes its result before the serving thread tears
  // down the closure holding its version pin, so the reclamation
  // assertions poll (bounded) instead of assuming the teardown finished.
  const auto live_versions_settle_to = [](Solver& solver, std::uint64_t want) {
    for (int spin = 0; spin < 10000; ++spin) {
      if (solver.cache_stats().live_versions == want) return true;
      std::this_thread::yield();
    }
    return solver.cache_stats().live_versions == want;
  };

  SolverPool pool;
  const TargetId id = pool.add_target(gen::grid_graph(4, 4));
  QueryOptions opts;
  opts.max_runs = 2;
  {
    // Handles pin their versions; queries pin at submit and release on
    // completion.
    const TargetVersion v1 = pool.current_version(id);
    auto on_v1 = pool.find_async(id, cycle_pattern(4), opts);
    ASSERT_TRUE(pool.remove_edge(id, 0, 1).ok());
    ASSERT_TRUE(pool.insert_edge(id, 0, 1).ok());
    auto on_v3 = pool.find_async(id, cycle_pattern(4), opts);
    ASSERT_TRUE(on_v1.get().ok());
    ASSERT_TRUE(on_v3.get().ok());
    // v1 is still held by the handle; v3 is current. v2 had no handle and
    // drained as soon as the second commit replaced it.
    EXPECT_TRUE(live_versions_settle_to(pool.solver(id), 2u));
    const CacheStats held = pool.solver(id).cache_stats();
    EXPECT_EQ(held.versions_committed, 2u);
    EXPECT_EQ(held.versions_reclaimed, 1u);
  }
  // Abandoning the last handle drains v1; only the current version lives.
  EXPECT_TRUE(live_versions_settle_to(pool.solver(id), 1u));
  EXPECT_EQ(pool.solver(id).cache_stats().versions_reclaimed, 2u);
}

TEST(SolverPoolDynamic, EditsRacingAsyncQueriesNeverMixVersions) {
  // A writer thread toggles one edge while the main thread streams async
  // queries. Whatever interleaving the scheduler produces, every result
  // must be bit-identical (modulo cache-warmth work) to a blocking Solver
  // on ONE of the two graphs the target ever was — a query observing half
  // an edit, or different versions across its cover runs, would match
  // neither reference.
  const Graph path = gen::path_graph(8);
  const Pattern c8 = cycle_pattern(8);
  QueryOptions opts;
  opts.max_runs = 3;

  Solver path_ref(path);
  const auto ref_open = path_ref.find(c8, opts);
  ASSERT_TRUE(ref_open.ok());
  EXPECT_FALSE(ref_open->found);
  GraphDelta closed_delta;
  ASSERT_TRUE(apply_edits(path, EditScript{}.insert_edge(0, 7), &closed_delta)
                  .empty());
  Solver cycle_ref(closed_delta.graph);
  const auto ref_closed = cycle_ref.find(c8, opts);
  ASSERT_TRUE(ref_closed.ok());
  EXPECT_TRUE(ref_closed->found);

  PoolOptions options;
  options.max_concurrent = 2;
  SolverPool pool(options);
  const TargetId id = pool.add_target(path);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    bool closed = false;
    while (!stop.load()) {
      const auto committed = closed ? pool.remove_edge(id, 0, 7)
                                    : pool.insert_edge(id, 0, 7);
      ASSERT_TRUE(committed.ok()) << committed.status().message();
      closed = !closed;
      std::this_thread::yield();
    }
  });

  std::vector<PendingResult<DecisionResult>> handles;
  for (int i = 0; i < 32; ++i)
    handles.push_back(pool.find_async(id, c8, opts));
  for (auto& handle : handles) handle.wait();
  stop.store(true);
  writer.join();

  for (auto& handle : handles) {
    const auto& result = handle.get();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto& ref = result->found ? ref_closed : ref_open;
    EXPECT_EQ(result->witness, ref->witness);
    EXPECT_EQ(result->runs, ref->runs);
    EXPECT_EQ(result->slices_solved, ref->slices_solved);
  }
}

TEST(SolverPool, CodecRangeIsUnsupportedNotInternal) {
  // Same out-of-range query as SolverCodecRange in test_solver.cpp, served
  // through admission: the typed status survives the pool, and the pool
  // does not count or retry it as a contained failure.
  SolverPool pool;
  const TargetId grid = pool.add_target(gen::grid_graph(20, 20));
  QueryOptions opts;
  opts.max_runs = 2;
  Admission admission;
  admission.max_retries = 2;
  auto handle = pool.find_async(grid, Pattern::from_graph(gen::path_graph(16)),
                                opts, admission);
  const auto& result = handle.get();
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported)
      << result.status().to_string();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.contained, 0u);
  EXPECT_EQ(stats.retried, 0u);
}

}  // namespace
}  // namespace ppsi
