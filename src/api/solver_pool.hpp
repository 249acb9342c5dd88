#pragma once

// SolverPool — multi-tenant serving front-end over per-target Solvers.
//
// A pool owns several targets, each behind its own Solver shard (so cover
// caches never mix across tenants), and admits asynchronous queries through
// a policy engine: at most PoolOptions::max_concurrent queries execute at a
// time on the shared executor (support::Scheduler::submit). Inside one
// admitted query the full slice/path task parallelism of the engines still
// applies, on the same workers — admission bounds *queries*; the executor
// bounds threads.
//
// Every submission carries an Admission (api/admission.hpp); under the
// default kPriority policy dispatch picks, in order:
//   1. the highest non-empty priority class (kInteractive > kNormal >
//      kBulk, strict — a queued interactive query always dispatches before
//      any queued bulk one);
//   2. within that class, the least-charged tenant (deficit round-robin:
//      each completed query charges its TargetId's tenant accounted work
//      units / tenant_weight, and dispatch favors the smallest cumulative
//      charge);
//   3. within that tenant, earliest queueing deadline first (queries
//      without a deadline sort last), submission order breaking ties.
// A queued query whose Admission deadline already passed is shed at
// dispatch: it completes immediately with StatusCode::kShed, an empty
// value, and zero accounted work. And when a query of a strictly higher
// class waits while every slot runs lower-class work, the engine *parks*
// one running victim: the query suspends cooperatively at its next
// slice-boundary checkpoint (state retained, budget clock paused), its slot
// dispatches the waiter, and the victim resumes when a slot frees.
// PoolOptions::policy = kFifo disables all of this and reproduces the old
// strictly-FIFO admission (the bench baseline).
//
// Determinism contract: policy decides *ordering only*. Every admitted
// query's result — including one that parked and resumed — is bit-identical
// to its blocking run (tests/differential/test_differential_async.cpp).
// Targets are dynamic (api/dynamic.hpp): apply/mutate commit versioned
// edits on a shard, and because every query pins the shard's version at
// submit, reordering never changes which snapshot a query answers against.
//
// Every submission returns a PendingResult<T> owning the query's
// CancelToken:
//   * cancelled while still queued: the query is skipped at admission and
//     resolves to kCancelled without doing any work;
//   * cancelled while executing: the cooperative checkpoints preempt it
//     mid-cover and it resolves to kCancelled with the partial result;
//   * cancelled after completion: a no-op.
// Destroying the pool cancels everything still queued, resumes everything
// parked, waits for running queries to finish, then tears down the shards.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "api/admission.hpp"
#include "api/pending.hpp"
#include "api/solver.hpp"

namespace ppsi {

/// Index of one target within its pool (dense, in add_target order). Each
/// target doubles as the tenant fair sharing accounts against.
using TargetId = std::uint32_t;

/// How the pool orders queued queries (see the header comment).
enum class AdmissionPolicy {
  /// Strict priority classes, weighted fair tenants, EDF + shedding,
  /// cooperative park/resume.
  kPriority,
  /// Plain submission order; Admission fields are recorded but ignored
  /// (no shedding, no parking). The pre-policy-engine behavior.
  kFifo,
};

struct PoolOptions {
  /// Queries admitted concurrently; further submissions wait in the policy
  /// order. Must be positive.
  std::uint32_t max_concurrent = 2;
  /// Per-shard cover-cache capacity (Solver::set_cache_capacity).
  std::size_t cache_capacity_per_target = kDefaultCacheCapacity;
  /// Queue ordering policy; kPriority unless benchmarking the baseline.
  AdmissionPolicy policy = AdmissionPolicy::kPriority;
  /// Pool-wide scratch-memory high watermark in bytes (0 = off; kPriority
  /// policy only). While the process-wide tracked scratch residency
  /// (support::scratch_residency_bytes()) sits above it, dispatch sheds
  /// queued kBulk queries first — they resolve to kResourceExhausted with
  /// an empty value and zero accounted work — instead of admitting them
  /// and growing the arenas further. kNormal/kInteractive queries are
  /// never memory-shed (use QueryOptions::max_memory_bytes to bound them
  /// individually).
  std::uint64_t memory_high_watermark_bytes = 0;
};

/// Cumulative admission counters (stats() snapshots them atomically).
struct PoolStats {
  std::uint64_t submitted = 0;  ///< enqueued queries
  std::uint64_t started = 0;    ///< dequeued for execution (incl. skipped)
  std::uint64_t completed = 0;  ///< ran to a result
  std::uint64_t cancelled_before_start = 0;  ///< skipped at admission
  std::uint64_t shed = 0;       ///< completed as kShed at dispatch, zero work
  std::uint64_t queued = 0;     ///< currently waiting
  std::uint64_t running = 0;    ///< currently executing
  std::uint64_t parked = 0;     ///< currently suspended at a slice boundary
  std::uint64_t park_events = 0;  ///< cumulative acknowledged parks
  /// Attempts that resolved to a contained failure (kInternal /
  /// kResourceExhausted), whether or not a retry later succeeded. Memory
  /// sheds over PoolOptions::memory_high_watermark_bytes count here too.
  std::uint64_t contained = 0;
  /// Re-executions performed under Admission::max_retries (each retry of
  /// each query counts once; always <= contained).
  std::uint64_t retried = 0;
  /// Queries whose *final* result was kInternal / kResourceExhausted
  /// (retries exhausted or not requested, plus memory sheds).
  std::uint64_t failed = 0;
};

/// One type-erased query for the unified submission surface. The typed
/// wrappers (find_async & co) build these; submit<T> checks that T matches
/// the kind (find -> DecisionResult, list -> ListingResult, count ->
/// CountResult) and rejects a mismatch with kInvalidOptions.
struct Query {
  enum class Kind { kFind, kList, kCount };

  Kind kind = Kind::kFind;
  iso::Pattern pattern;
  QueryOptions options;

  static Query Find(iso::Pattern pattern, QueryOptions options = {}) {
    return {Kind::kFind, std::move(pattern), std::move(options)};
  }
  static Query List(iso::Pattern pattern, QueryOptions options = {}) {
    return {Kind::kList, std::move(pattern), std::move(options)};
  }
  static Query Count(iso::Pattern pattern, QueryOptions options = {}) {
    return {Kind::kCount, std::move(pattern), std::move(options)};
  }
};

class SolverPool {
 public:
  explicit SolverPool(PoolOptions options = {});
  ~SolverPool();
  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Registers a target; queries reference it by the returned id.
  TargetId add_target(Graph target);
  /// Embedded registration (enables vertex_connectivity on the shard).
  TargetId add_target(planar::EmbeddedGraph target);
  std::size_t num_targets() const;

  /// Direct shard access (e.g. for blocking queries or cache_stats).
  /// Blocking queries bypass the pool's admission queue.
  Solver& solver(TargetId id);

  /// Dynamic targets (api/dynamic.hpp): the per-shard edit API, mirroring
  /// Solver's. A commit never disturbs queries already submitted — every
  /// pool query pins its shard's current version at submit time, so a
  /// query that is still queued (or parked) when an edit lands executes
  /// against the snapshot it was submitted under; submissions after the
  /// commit see the new version. apply/insert_* reject an unknown id with
  /// kInvalidOptions; current_version/mutate throw like solver(id).
  TargetVersion current_version(TargetId id);
  Result<TargetVersion> apply(TargetId id, const EditScript& script);
  MutableTarget mutate(TargetId id);
  Result<TargetVersion> insert_edge(TargetId id, Vertex u, Vertex v);
  Result<TargetVersion> remove_edge(TargetId id, Vertex u, Vertex v);
  Result<TargetVersion> insert_vertex(TargetId id);

  /// The one submission surface: admission, validation, shedding, and
  /// dispatch live here once; the typed wrappers below only build the
  /// Query. T must match query.kind (see Query); an unknown id, invalid
  /// Admission, or kind/T mismatch rejects with kInvalidOptions (the
  /// handle is already resolved). The shard's current target version (or
  /// query.options.at, when set) is pinned here, before queueing.
  template <typename T>
  PendingResult<T> submit(TargetId id, Query query,
                          const Admission& admission = {});

  /// Thin typed wrappers over submit().
  PendingResult<cover::DecisionResult> find_async(
      TargetId id, iso::Pattern pattern, const QueryOptions& options = {},
      const Admission& admission = {});
  PendingResult<cover::ListingResult> list_async(
      TargetId id, iso::Pattern pattern, const QueryOptions& options = {},
      const Admission& admission = {});
  PendingResult<cover::CountResult> count_async(
      TargetId id, iso::Pattern pattern, const QueryOptions& options = {},
      const Admission& admission = {});

  PoolStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

extern template PendingResult<cover::DecisionResult> SolverPool::submit(
    TargetId, Query, const Admission&);
extern template PendingResult<cover::ListingResult> SolverPool::submit(
    TargetId, Query, const Admission&);
extern template PendingResult<cover::CountResult> SolverPool::submit(
    TargetId, Query, const Admission&);

}  // namespace ppsi
