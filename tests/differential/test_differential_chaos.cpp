// Chaos differential suite: the serving stack under deterministic injected
// faults (support/fault.hpp) — thrown errors, simulated allocation
// failures, scheduler delays, plus test-driven cancellation storms.
//
// Invariants pinned here, at every OMP thread count the ctest variants run:
//   * no crash, terminate, or deadlock — every handle resolves;
//   * a query either succeeds or resolves to a *contained* status
//     (kCancelled / kInternal / kResourceExhausted) with partial stats;
//   * every successful result is identical to a fault-free reference on
//     its semantic outputs (found / witness / runs / slices_solved) — a
//     fault in one query must never bleed into another's answer;
//   * delay-only plans change nothing at all, including the work counters;
//   * PoolStats conservation holds after the storm (testing/pool_checks);
//   * versions committed while faults fire are still reclaimed on drain.
//
// metrics.work() is deliberately NOT pinned on faulted successes: a fault
// that kills the query building a shard's cover leaves the next query to
// rebuild (and be charged for) it, so work depends on which attempts died —
// the fault-free differential suites pin work determinism instead.
//
// With PPSI_FAULT_INJECTION compiled out (the default build) the armed
// plans never fire and this suite degenerates to a fault-free soak of the
// same invariants; the fired-count assertions are gated on compiled_in().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/dynamic.hpp"
#include "api/solver.hpp"
#include "api/solver_pool.hpp"
#include "graph/generators.hpp"
#include "support/fault.hpp"
#include "testing/pool_checks.hpp"

namespace ppsi {
namespace {

using cover::DecisionResult;
using iso::Pattern;
using support::FaultInjector;
using support::FaultKind;
using support::FaultPlan;
using support::ScopedFaultPlan;

Pattern cycle_pattern(Vertex k) {
  return Pattern::from_graph(gen::cycle_graph(k));
}

bool contained_code(StatusCode code) {
  return code == StatusCode::kCancelled || code == StatusCode::kInternal ||
         code == StatusCode::kResourceExhausted;
}

/// The schedule- and cache-invariant fields of a decision result.
struct Semantics {
  bool found = false;
  std::optional<iso::Assignment> witness;
  std::uint32_t runs = 0;
  std::size_t slices_solved = 0;

  bool operator==(const Semantics&) const = default;
};

Semantics semantics_of(const Result<DecisionResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  return {r->found, r->witness, r->runs, r->slices_solved};
}

TEST(ChaosDifferential, FaultedPoolMatchesFaultFreeReference) {
  PoolOptions options;
  options.max_concurrent = 3;
  SolverPool pool(options);
  struct Combo {
    TargetId id;
    Pattern pattern;
  };
  const TargetId grid = pool.add_target(gen::grid_graph(10, 10));
  const TargetId path = pool.add_target(gen::path_graph(16));
  const std::vector<Combo> combos = {
      {grid, cycle_pattern(4)}, {grid, cycle_pattern(5)},
      {path, cycle_pattern(4)}};
  QueryOptions opts;
  opts.seed = 9;
  opts.max_runs = 2;

  // Fault-free references (these first runs also build the shard covers).
  std::vector<Semantics> reference;
  for (const Combo& c : combos) {
    auto pending = pool.find_async(c.id, c.pattern, opts);
    reference.push_back(semantics_of(pending.get()));
  }

  FaultInjector::instance().reset_stats();
  FaultPlan plan;
  plan.seed = 2026;
  plan.rate = 7;
  plan.kind = FaultKind::kMixed;
  constexpr int kStorm = 36;
  std::vector<PendingResult<DecisionResult>> handles;
  std::vector<PendingResult<DecisionResult>> to_cancel;
  {
    const ScopedFaultPlan scoped(plan);
    for (int i = 0; i < kStorm; ++i) {
      Admission admission;
      admission.priority = static_cast<Priority>(i % 3);
      admission.max_retries = static_cast<std::uint32_t>(i % 3);
      const Combo& c = combos[static_cast<std::size_t>(i) % combos.size()];
      handles.push_back(pool.find_async(c.id, c.pattern, opts, admission));
      if (i % 4 == 0) to_cancel.push_back(handles.back());
    }
    std::thread canceller([&] {
      for (auto& handle : to_cancel) handle.cancel();
    });
    canceller.join();
    for (auto& handle : handles) handle.wait();
  }

  int succeeded = 0;
  for (int i = 0; i < kStorm; ++i) {
    const auto& r = handles[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.has_value()) << "slot " << i;  // partials, never a crash
    if (r.ok()) {
      ++succeeded;
      const Semantics& want =
          reference[static_cast<std::size_t>(i) % combos.size()];
      EXPECT_EQ(semantics_of(handles[static_cast<std::size_t>(i)].get()),
                want)
          << "slot " << i;
    } else {
      EXPECT_TRUE(contained_code(r.status().code()))
          << "slot " << i << ": " << r.status().to_string();
    }
  }

  if (FaultInjector::compiled_in()) {
    EXPECT_GT(FaultInjector::instance().stats().visits, 0u);
  } else {
    // Only the test-driven cancels can fail a query in a default build.
    EXPECT_GE(succeeded, kStorm - static_cast<int>(to_cancel.size()));
  }

  // The pool is still fully serviceable after the storm.
  for (std::size_t c = 0; c < combos.size(); ++c) {
    auto pending = pool.find_async(combos[c].id, combos[c].pattern, opts);
    EXPECT_EQ(semantics_of(pending.get()), reference[c]) << "combo " << c;
  }
  testing::expect_drained_pool_stats_conserved(pool);
}

TEST(ChaosDifferential, EditsUnderFaultsReclaimVersions) {
  SolverPool pool;
  const TargetId id = pool.add_target(gen::path_graph(8));
  const Pattern c4 = cycle_pattern(4);
  QueryOptions opts;
  opts.max_runs = 2;
  ASSERT_TRUE(pool.find_async(id, c4, opts).get().ok());  // fault-free prime

  FaultPlan plan;
  plan.seed = 515;
  plan.rate = 6;
  plan.kind = FaultKind::kMixed;
  {
    const ScopedFaultPlan scoped(plan);
    std::vector<PendingResult<DecisionResult>> handles;
    bool closed = false;
    for (int i = 0; i < 12; ++i) {
      handles.push_back(pool.find_async(id, c4, opts));
      if (i % 2 == 0) {
        const auto committed =
            closed ? pool.remove_edge(id, 0, 7) : pool.insert_edge(id, 0, 7);
        // A commit may itself be hit by a fault; the ledger must stay
        // consistent either way, so only track the toggle on success.
        if (committed.ok()) closed = !closed;
      }
    }
    for (auto& handle : handles) {
      handle.wait();
      ASSERT_TRUE(handle.get().has_value());
      if (!handle.get().ok()) {
        EXPECT_TRUE(contained_code(handle.get().status().code()))
            << handle.get().status().to_string();
      }
    }
  }

  // Handles are gone and the pool is drained: every superseded version —
  // including those whose queries died to injected faults — must drain,
  // leaving only the current one.
  const auto live_versions_settle_to = [&](std::uint64_t want) {
    for (int spin = 0; spin < 10000; ++spin) {
      if (pool.solver(id).cache_stats().live_versions == want) return true;
      std::this_thread::yield();
    }
    return pool.solver(id).cache_stats().live_versions == want;
  };
  EXPECT_TRUE(live_versions_settle_to(1u));
  const CacheStats cache = pool.solver(id).cache_stats();
  EXPECT_EQ(cache.live_versions + cache.versions_reclaimed,
            cache.versions_committed + 1u);
  testing::expect_drained_pool_stats_conserved(pool);
}

TEST(ChaosDifferential, AbandonedHandlesAndDestructorDrainUnderFaults) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rate = 5;
  plan.kind = FaultKind::kMixed;
  std::vector<PendingResult<DecisionResult>> kept;
  {
    // The plan outlives the pool, so ~SolverPool drains while faults are
    // still firing: queued queries cancel, running ones contain or finish.
    const ScopedFaultPlan scoped(plan);
    PoolOptions options;
    options.max_concurrent = 2;
    SolverPool pool(options);
    const TargetId id = pool.add_target(gen::grid_graph(12, 12));
    QueryOptions opts;
    opts.max_runs = 3;
    for (int i = 0; i < 12; ++i) {
      auto pending = pool.find_async(id, cycle_pattern(5), opts);
      if (i % 3 == 1) pending.cancel();  // cancelled, then abandoned
      if (i % 3 != 2) continue;          // abandoned outright
      kept.push_back(std::move(pending));
    }
  }
  // Destruction resolved everything that was still pending — including the
  // abandoned handles' shared states, whose waiters must not have leaked a
  // lock or deadlocked the drain for the kept ones.
  for (auto& pending : kept) {
    ASSERT_TRUE(pending.valid());
    ASSERT_TRUE(pending.ready());
    const auto& r = pending.get();
    ASSERT_TRUE(r.has_value());
    if (!r.ok()) {
      EXPECT_TRUE(contained_code(r.status().code()))
          << r.status().to_string();
    }
  }
}

TEST(ChaosDifferential, DelayOnlyPlansChangeNothingAtAll) {
  Solver solver(gen::grid_graph(10, 10));
  const Pattern c4 = cycle_pattern(4);
  QueryOptions opts;
  opts.seed = 3;
  opts.max_runs = 2;
  ASSERT_TRUE(solver.find(c4, opts).ok());  // build the cover (cold run)
  const auto warm = solver.find(c4, opts);
  ASSERT_TRUE(warm.ok());

  FaultPlan plan;
  plan.seed = 77;
  plan.rate = 3;
  plan.kind = FaultKind::kDelay;
  const ScopedFaultPlan scoped(plan);
  for (int i = 0; i < 3; ++i) {
    const auto delayed = solver.find(c4, opts);
    ASSERT_TRUE(delayed.ok()) << "attempt " << i;
    // Delays perturb timing only: everything, including the instrumented
    // work and round counters, must be bit-identical to the warm run.
    EXPECT_EQ(delayed->found, warm->found) << i;
    EXPECT_EQ(delayed->witness, warm->witness) << i;
    EXPECT_EQ(delayed->runs, warm->runs) << i;
    EXPECT_EQ(delayed->slices_solved, warm->slices_solved) << i;
    EXPECT_EQ(delayed->metrics.work(), warm->metrics.work()) << i;
    EXPECT_EQ(delayed->metrics.rounds(), warm->metrics.rounds()) << i;
  }
}

}  // namespace
}  // namespace ppsi
