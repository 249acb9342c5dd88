#pragma once

// One process-wide work-stealing executor for every kind of parallelism:
// detached serving jobs (Scheduler::submit), dependency-driven TaskGraphs
// (Scheduler::run) and the fork-join loops of support/parallel.hpp
// (Scheduler::fork). A query's slice tasks, its path tasks and its
// parallel_for chunks all run on the same workers as the queries
// themselves, so admitting more queries never adds threads.
//
// Executor. max(P, 2) worker threads, where P is the process default width
// (omp_get_max_threads() of a fresh thread, i.e. OMP_NUM_THREADS or the
// core count); the floor of two keeps one worker free while a serving job
// blocks (a parked SolverPool query). Each worker owns a deque: it pushes
// the tasks it spawns and pops the newest one, and idle workers steal the
// newest task of another deque, so the lowest ready index of the innermost
// run is the next one taken (the low-index completion bias
// first-accepting-index queries rely on). Tasks pushed from outside the
// executor go to a FIFO injection queue. Idle workers prefer tasks to
// detached jobs, poll for about a millisecond, then sleep on a condition
// variable until work arrives.
//
// Slots. At most workers() threads execute at once: every executing thread
// holds one of that many slots, and a worker gives its slot up when it
// runs out of work. A thread outside the executor that waits in run() or
// fork() executes tasks only while it holds a slot an idle worker left
// free, so callers never add threads on top of the workers. The one
// exception keeps such a caller live: once no task anywhere has started
// for 50 ms (every worker blocked, e.g. on a lock the caller holds), it
// executes its own run's tasks without a slot.
//
// Width. A run's width is num_threads() on the calling thread, and tasks
// of the run see that width as their own num_threads(), so nested runs
// and loops inherit it. Width 1 executes inline on the caller (no
// executor). The width fixes the static block partition of the fork-join
// loops; it does not reserve threads.
//
// Helping join. A thread waiting in run() or fork() executes only tasks of
// that run and of runs nested inside them, never an unrelated sibling, so
// holding a mutex across a run cannot deadlock against another task of
// the same run that takes the same mutex.
//
// Determinism contract: the scheduler never decides *what* is computed,
// only *when*. Tasks must write disjoint state (or accumulate through
// commutative atomics, e.g. support::Metrics sums), and any order-sensitive
// reduction is replayed by the caller in canonical index order after run()
// returns. Under that discipline results are bit-identical for every
// thread count and schedule (pinned by tests/differential/
// test_differential_threads.cpp).
//
// Failure containment: the first exception of a run is recorded, later
// tasks of the run skip their bodies (but still release their successors,
// so the graph drains), and run()/fork() rethrow it on the caller.
//
// Cooperative cancellation rides along as a CancelWatermark: "first
// accepting index wins" queries lower the watermark when an index accepts,
// and queued work keyed by a strictly greater index skips itself. The
// watermark is monotone decreasing, so anything at or below the final
// watermark is guaranteed to have run to completion — which is what makes
// cancelled runs replayable deterministically (see api/solver.cpp). A
// CancelScope additionally carries the query-wide CancelToken and
// DeadlineClock (support/cancel.hpp), so one checkpoint covers all three
// cancellation sources.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "support/cancel.hpp"

namespace ppsi::support {

namespace detail {
class Run;  // scheduler.cpp: one run()/fork()'s execution state

/// Widens the calling thread's CPU mask to every CPU the process's cpuset
/// allows when it allows fewer than `min_cpus`. Threads inherit their
/// creator's mask, and libgomp pins the initial thread to one place at
/// startup when OMP_PROC_BIND is set; executor workers created from such
/// a thread would otherwise share one core. A mask at least `min_cpus`
/// wide (e.g. a deliberate taskset) is kept. No-op off Linux.
void widen_narrow_mask(int min_cpus);
}  // namespace detail

/// Width of the parallel work started on this thread: inside an executor
/// task, the width of the task's run; elsewhere omp_get_max_threads()
/// (OMP_NUM_THREADS, or omp_set_num_threads on this thread).
int num_threads();

/// Monotone-decreasing index watermark for first-accepting-index queries.
/// Thread-safe; starts at kNone (nothing accepted, nothing obsolete).
class CancelWatermark {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Records that `index` accepted; the watermark becomes the minimum
  /// accepting index seen so far.
  void accept(std::uint32_t index) {
    std::uint32_t current = mark_.load(std::memory_order_relaxed);
    while (index < current &&
           !mark_.compare_exchange_weak(current, index,
                                        std::memory_order_acq_rel)) {
    }
  }

  /// True when work keyed by `index` is no longer needed: some strictly
  /// smaller index already accepted. Work at or below the watermark is
  /// never obsolete, so every index up to the final watermark completes.
  bool obsolete(std::uint32_t index) const {
    return index > mark_.load(std::memory_order_acquire);
  }

  /// Smallest accepting index so far (kNone if none).
  std::uint32_t watermark() const {
    return mark_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint32_t> mark_{kNone};
};

/// One submission's view of every cancellation source: the subject's own
/// index against the shared watermark, plus the query-wide CancelToken and
/// DeadlineClock when the query has them. Default-constructed scopes never
/// cancel (solo queries). All three sources are monotone, so a scope that
/// reported cancelled() stays cancelled.
struct CancelScope {
  const CancelWatermark* watermark = nullptr;
  std::uint32_t index = 0;
  const CancelToken* token = nullptr;
  const DeadlineClock* deadline = nullptr;

  bool cancelled() const {
    if (watermark != nullptr && watermark->obsolete(index)) return true;
    if (token != nullptr && token->cancelled()) return true;
    return deadline != nullptr && deadline->expired();
  }
};

/// A static dependency graph of tasks. Build single-threaded (add/add_edge),
/// run once via Scheduler::run. Task ids are dense and assigned in add()
/// order, so callers can keep per-task output slots in a plain vector.
class TaskGraph {
 public:
  using Fn = std::function<void()>;

  /// Adds a task; returns its id (== number of prior add() calls).
  std::uint32_t add(Fn fn);

  /// Declares that `succ` may only start after `pred` finished.
  /// Both ids must already exist; the graph must stay acyclic.
  void add_edge(std::uint32_t pred, std::uint32_t succ);

  std::size_t size() const { return nodes_.size(); }

 private:
  friend class Scheduler;
  friend class detail::Run;

  struct Node {
    Fn fn;
    std::atomic<std::uint32_t> pending{0};  ///< unfinished predecessors
    std::vector<std::uint32_t> successors;

    Node() = default;
    explicit Node(Fn f) : fn(std::move(f)) {}
    // Build-time only (the vector may grow while single-threaded).
    Node(Node&& other) noexcept
        : fn(std::move(other.fn)),
          pending(other.pending.load(std::memory_order_relaxed)),
          successors(std::move(other.successors)) {}
  };

  std::vector<Node> nodes_;
};

/// Non-owning view of a `void(std::size_t)` callable for Scheduler::fork;
/// the callable must outlive the fork (it does: fork joins before
/// returning).
class ForkBody {
 public:
  template <typename F>
  explicit ForkBody(F& f)
      : ctx_(&f), call_([](void* ctx, std::size_t i) {
          (*static_cast<F*>(ctx))(i);
        }) {}
  void operator()(std::size_t i) const { call_(ctx_, i); }

 private:
  void* ctx_;
  void (*call_)(void*, std::size_t);
};

/// Entry points of the process-wide executor.
class Scheduler {
 public:
  /// Runs `graph` to completion and rethrows its first task failure.
  /// Callable from any thread, including from inside a running task (the
  /// nested run's tasks join the same executor and the waiting thread
  /// helps execute them). A graph is single-use: run it once.
  static void run(TaskGraph& graph);

  /// Runs body(i) for every i in [0, n) as n independent tasks and joins,
  /// rethrowing the first failure. The fork-join primitive under
  /// support::parallel_for and friends.
  static void fork(std::size_t n, ForkBody body);

  /// Detached submission for the serving layer: enqueues `job` and returns
  /// immediately (never runs it inline). Jobs drain highest `priority`
  /// first, FIFO within a priority level (the default 0 keeps plain
  /// submissions strictly FIFO; SolverPool maps its admission classes
  /// onto this so an interactive dispatch overtakes already-enqueued bulk
  /// ones). Idle workers take jobs after tasks of runs already in flight.
  /// Completion is the caller's to observe (e.g. through a PendingResult);
  /// the executor drains queued jobs and joins at process exit.
  static void submit(std::function<void()> job, int priority = 0);

  /// Convenience: runs `graph` detached, then `on_complete` (if any).
  /// The graph is owned by the submission; both run on a worker.
  static void submit(TaskGraph graph, std::function<void()> on_complete);

  /// Number of executor workers, each able to run one detached job.
  static std::size_t serving_threads();
};

}  // namespace ppsi::support
