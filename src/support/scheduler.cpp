#include "support/scheduler.hpp"

#include <omp.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "support/fault.hpp"
#include "support/types.hpp"

namespace ppsi::support {

std::uint32_t TaskGraph::add(Fn fn) {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back(std::move(fn));
  return id;
}

void TaskGraph::add_edge(std::uint32_t pred, std::uint32_t succ) {
  require(pred < nodes_.size() && succ < nodes_.size(),
          "TaskGraph::add_edge: unknown task id");
  nodes_[pred].successors.push_back(succ);
  nodes_[succ].pending.fetch_add(1, std::memory_order_relaxed);
}

namespace detail {
namespace {

using Clock = std::chrono::steady_clock;

/// How long an idle worker or a waiting caller keeps polling (yielding the
/// core between polls) before it blocks.
constexpr auto kSpin = std::chrono::milliseconds(1);
/// Longest a blocked joiner sleeps before it looks for work again.
constexpr auto kPoll = std::chrono::milliseconds(1);
/// A caller outside the executor executes its own run's tasks without a
/// slot once no task anywhere has started for this long: every worker is
/// then blocked (typically on a lock the caller holds).
constexpr auto kStall = std::chrono::milliseconds(50);

thread_local Run* tls_run = nullptr;  ///< run of the task being executed
thread_local int tls_worker = -1;     ///< executor worker index, or -1

struct Item {
  Run* run;
  std::uint32_t id;
};

}  // namespace

/// One run()/fork()'s execution state. Lives on the joining caller's
/// frame; the caller does not return before the last task finished.
class Run {
 public:
  Run(TaskGraph* graph, const ForkBody* body, std::size_t size)
      : width(num_threads()),
        parent(tls_run),
        graph_(graph),
        body_(body),
        remaining_(size) {}

  const int width;    ///< num_threads() of the caller, seen by every task
  Run* const parent;  ///< run whose task started this one (or nullptr)

  /// True when this run is `ancestor` or nested inside it.
  bool within(const Run* ancestor) const {
    for (const Run* r = this; r != nullptr; r = r->parent)
      if (r == ancestor) return true;
    return false;
  }

  bool finished() const {
    return remaining_.load(std::memory_order_acquire) == 0;
  }

  /// Runs task `id`, releases its successors (onto `inline_ready` when
  /// given, else onto the executor), and counts it finished.
  void execute(std::uint32_t id,
               std::vector<std::uint32_t>* inline_ready = nullptr);

  /// Blocks until the run finished or `timeout` passed; returns finished.
  /// Without a timeout this is the final handshake: it returns once the
  /// last finisher released the run, after which nothing touches it.
  bool wait(std::optional<Clock::duration> timeout = std::nullopt) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto done = [&] { return done_; };
    if (timeout) return done_cv_.wait_for(lock, *timeout, done);
    done_cv_.wait(lock, done);
    return true;
  }

  /// The first task failure, if any; read after the final wait().
  std::exception_ptr error() const { return error_; }

 private:
  TaskGraph* graph_;       ///< graph run, or nullptr for a fork
  const ForkBody* body_;   ///< fork body (graph_ == nullptr)
  std::atomic<std::size_t> remaining_;
  std::atomic<bool> failed_{false};
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;         // guarded by mutex_
  std::exception_ptr error_;  // guarded by mutex_
};

void widen_narrow_mask(int min_cpus) {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0 ||
      CPU_COUNT(&set) >= min_cpus)
    return;
  // Ask for every CPU id: the kernel clips the mask to the online CPUs
  // the process's cpuset allows, whatever their numbering.
  CPU_ZERO(&set);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
#else
  (void)min_cpus;
#endif
}

namespace {

/// The process-wide executor: one deque per worker plus a FIFO injection
/// queue (the last entry of queues_) for tasks pushed from outside, and a
/// priority queue of detached jobs. Started on first use; drains its jobs
/// and joins at exit.
class Executor {
 public:
  static Executor& instance() {
    static Executor executor;
    return executor;
  }

  std::size_t workers() const { return queues_.size() - 1; }

  /// Makes tasks `ids` of `run` ready, ids[0] to be taken first: on the
  /// calling worker's deque (taken newest first), else on the injection
  /// queue (taken oldest first).
  void push(Run* run, const std::uint32_t* ids, std::size_t n) {
    Queue& queue = own();
    {
      const std::lock_guard<std::mutex> lock(queue.mutex);
      for (std::size_t k = 0; k < n; ++k)
        queue.items.push_back(
            Item{run, ids[tls_worker >= 0 ? n - 1 - k : k]});
      queue.size.store(queue.items.size(), std::memory_order_release);
    }
    wake(n);
  }

  /// Executes tasks of `run` (helping join) until it finished, then
  /// rethrows its first failure. A worker, or any thread inside a task,
  /// already holds a slot; an outside caller executes only while it holds
  /// a slot that an idle worker left free.
  void join(Run& run) {
    const bool inside = tls_worker >= 0 || run.parent != nullptr;
    bool slot = false;
    bool stalled = false;
    auto idle_since = Clock::now();
    std::uint64_t progress = progress_total();
    auto progress_at = idle_since;
    while (!run.finished()) {
      if (inside || stalled || slot || (slot = try_acquire_slot())) {
        if (std::optional<Item> item = take([&run](const Item& i) {
              return i.run->within(&run);
            })) {
          execute(*item);
          idle_since = Clock::now();
          continue;
        }
        if (slot) release_slot();
        slot = false;
      }
      if (Clock::now() - idle_since < kSpin) {
        std::this_thread::yield();
      } else if (!run.wait(kPoll) && !inside) {
        if (const std::uint64_t now = progress_total(); now != progress) {
          progress = now;
          progress_at = Clock::now();
        }
        if (Clock::now() - progress_at > kStall) stalled = true;
      }
    }
    if (slot) release_slot();
    run.wait();
    if (run.error()) std::rethrow_exception(run.error());
  }

  void submit(std::function<void()> job, int priority) {
    {
      const std::lock_guard<std::mutex> lock(jobs_mutex_);
      // Highest priority first, FIFO within a priority level.
      jobs_.emplace(std::make_pair(-priority, next_seq_++), std::move(job));
      jobs_size_.store(jobs_.size(), std::memory_order_release);
    }
    wake(1);
  }

  ~Executor() {
    {
      const std::lock_guard<std::mutex> lock(park_mutex_);
      stop_ = true;
    }
    park_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

 private:
  struct alignas(64) Queue {
    std::mutex mutex;
    std::deque<Item> items;                 // guarded by mutex
    std::atomic<std::size_t> size{0};       // unlocked emptiness hint
    std::atomic<std::uint64_t> started{0};  // progress, see kStall
  };

  Executor() {
    // The process default width: a fresh thread sees the global ICV, not
    // a caller's omp_set_num_threads.
    int width = 1;
    std::thread([&width] { width = omp_get_max_threads(); }).join();
    const auto n = static_cast<std::size_t>(std::max(width, 2));
    for (std::size_t i = 0; i <= n; ++i)
      queues_.push_back(std::make_unique<Queue>());
    active_.store(static_cast<int>(n), std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i)
      threads_.emplace_back([this, i, width] { worker_loop(i, width); });
  }

  void worker_loop(std::size_t index, int width) {
    tls_worker = static_cast<int>(index);
    widen_narrow_mask(width);
    for (;;) {
      if (std::optional<Item> item = take([](const Item&) { return true; })) {
        execute(*item);
      } else if (std::function<void()> job = take_job()) {
        own().started.fetch_add(1, std::memory_order_relaxed);
        // Last-resort backstop: every submitted job resolves its own
        // PendingResult and contains its own failures (Solver's *_async
        // paths); anything reaching here was already reported, so
        // swallowing keeps the worker alive for the next job.
        try {
          job();
        } catch (...) {
        }
      } else if (!idle()) {
        return;
      }
    }
  }

  /// The calling worker's deque, or the injection queue off the executor.
  Queue& own() { return *queues_[tls_worker >= 0 ? tls_worker : workers()]; }

  void execute(Item item) {
    own().started.fetch_add(1, std::memory_order_relaxed);
    Run* const saved = tls_run;
    tls_run = item.run;
    item.run->execute(item.id);
    tls_run = saved;
  }

  /// Removes the first task that `accept`s: from the own deque, then the
  /// injection queue, then the other deques. Deques are scanned from the
  /// newest entry, the injection queue from the oldest.
  template <typename Accept>
  std::optional<Item> take(const Accept& accept) {
    const std::size_t w = workers();
    const std::size_t self = tls_worker >= 0 ? tls_worker : w;
    for (std::size_t k = 0; k < w + 2; ++k) {
      const std::size_t q = k == 0 ? self : k == 1 ? w : (self + k - 1) % w;
      if ((k == 0 && q == w) || (k > 1 && q == self)) continue;
      Queue& queue = *queues_[q];
      if (queue.size.load(std::memory_order_acquire) == 0) continue;
      const std::lock_guard<std::mutex> lock(queue.mutex);
      const std::size_t size = queue.items.size();
      for (std::size_t j = 0; j < size; ++j) {
        const auto it =
            queue.items.begin() +
            static_cast<std::ptrdiff_t>(q == w ? j : size - 1 - j);
        if (!accept(*it)) continue;
        const Item item = *it;
        queue.items.erase(it);
        queue.size.store(size - 1, std::memory_order_release);
        return item;
      }
    }
    return std::nullopt;
  }

  std::function<void()> take_job() {
    if (jobs_size_.load(std::memory_order_acquire) == 0) return {};
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (jobs_.empty()) return {};
    std::function<void()> job = std::move(jobs_.begin()->second);
    jobs_.erase(jobs_.begin());
    jobs_size_.store(jobs_.size(), std::memory_order_release);
    return job;
  }

  bool has_work() const {
    return jobs_size_.load(std::memory_order_acquire) != 0 ||
           std::any_of(queues_.begin(), queues_.end(), [](const auto& q) {
             return q->size.load(std::memory_order_acquire) != 0;
           });
  }

  std::uint64_t progress_total() const {
    std::uint64_t total = 0;
    for (const auto& q : queues_)
      total += q->started.load(std::memory_order_relaxed);
    return total;
  }

  /// At most workers() threads execute at once: each holds one of that
  /// many slots. Workers hold theirs from wake-up until they run dry.
  bool try_acquire_slot() {
    int active = active_.load(std::memory_order_relaxed);
    while (active < static_cast<int>(workers())) {
      if (active_.compare_exchange_weak(active, active + 1,
                                        std::memory_order_acq_rel))
        return true;
    }
    return false;
  }

  void release_slot() {
    active_.fetch_sub(1, std::memory_order_acq_rel);
    if (has_work()) wake(1);
  }

  /// Out of work: gives up the slot, polls while a slot is free to come
  /// back to, then sleeps until there is work and a free slot. Returns
  /// holding a slot, or false once the executor stops with no work left.
  bool idle() {
    active_.fetch_sub(1, std::memory_order_acq_rel);
    const auto since = Clock::now();
    while (Clock::now() - since < kSpin &&
           active_.load(std::memory_order_relaxed) <
               static_cast<int>(workers())) {
      if (has_work() && try_acquire_slot()) return true;
      std::this_thread::yield();
    }
    for (;;) {
      const std::uint64_t seen = epoch_.load(std::memory_order_seq_cst);
      const bool work = has_work();
      if (work && try_acquire_slot()) return true;
      std::unique_lock<std::mutex> lock(park_mutex_);
      if (stop_ && !work) return false;
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      park_cv_.wait(lock, [&] {
        return stop_ || epoch_.load(std::memory_order_seq_cst) != seen;
      });
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Announces `n` new tasks or jobs (or a freed slot): bumps the epoch a
  /// sleeping worker re-checks under park_mutex_, and wakes up to `n`.
  void wake(std::size_t n) {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    const int sleeping = sleepers_.load(std::memory_order_seq_cst);
    if (sleeping == 0) return;
    const std::lock_guard<std::mutex> lock(park_mutex_);
    if (n >= static_cast<std::size_t>(sleeping)) {
      park_cv_.notify_all();
    } else {
      for (std::size_t i = 0; i < n; ++i) park_cv_.notify_one();
    }
  }

  std::vector<std::unique_ptr<Queue>> queues_;  // per worker + injection

  std::mutex jobs_mutex_;
  std::map<std::pair<int, std::uint64_t>, std::function<void()>>
      jobs_;                               // guarded by jobs_mutex_
  std::uint64_t next_seq_ = 0;             // guarded by jobs_mutex_
  std::atomic<std::size_t> jobs_size_{0};  // unlocked emptiness hint

  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> sleepers_{0};  // modified under park_mutex_
  std::atomic<int> active_{0};    // slots held, see try_acquire_slot
  bool stop_ = false;             // guarded by park_mutex_
  std::vector<std::thread> threads_;  // last: the workers use the above
};

/// Pushes `ids` of `run` and joins it (the executor path of run/fork).
void start(Run& run, const std::uint32_t* ids, std::size_t n) {
  Executor& executor = Executor::instance();
  executor.push(&run, ids, n);
  executor.join(run);
}

}  // namespace

void Run::execute(std::uint32_t id,
                  std::vector<std::uint32_t>* inline_ready) {
  if (!failed_.load(std::memory_order_acquire)) {
    try {
      if (graph_ == nullptr) {
        (*body_)(id);
      } else if (graph_->nodes_[id].fn) {
        PPSI_FAULT_POINT("scheduler.task");
        graph_->nodes_[id].fn();
      }
    } catch (...) {
      // The run's outcome is decided; later tasks skip their bodies but
      // still release successors, so the graph drains and joins.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
    }
  }
  if (graph_ != nullptr) {
    std::vector<std::uint32_t> ready;
    for (const std::uint32_t succ : graph_->nodes_[id].successors) {
      if (graph_->nodes_[succ].pending.fetch_sub(
              1, std::memory_order_acq_rel) == 1)
        ready.push_back(succ);
    }
    if (inline_ready != nullptr)
      inline_ready->insert(inline_ready->end(), ready.begin(), ready.end());
    else if (!ready.empty())
      Executor::instance().push(this, ready.data(), ready.size());
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  done_ = true;
  done_cv_.notify_all();
}

}  // namespace detail

int num_threads() {
  const detail::Run* run = detail::tls_run;
  return run != nullptr ? run->width : omp_get_max_threads();
}

void Scheduler::run(TaskGraph& graph) {
  const std::size_t n = graph.nodes_.size();
  if (n == 0) return;
  // Snapshot the root set before anything runs: once the first root is
  // live, successors' counters may reach zero concurrently, and reading
  // live counters would spawn such a successor twice.
  std::vector<std::uint32_t> ready;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (graph.nodes_[id].pending.load(std::memory_order_relaxed) == 0)
      ready.push_back(id);
  }
  require(!ready.empty(), "Scheduler::run: dependency cycle in TaskGraph");
  detail::Run run(&graph, nullptr, n);
  if (num_threads() > 1) {
    detail::start(run, ready.data(), ready.size());
    return;
  }
  // Width 1: execute inline in a topological order. Outputs are identical
  // by the determinism contract, and nested runs from inside these tasks
  // take this same path. FIFO (cursor over a grow-only worklist), not a
  // stack: lowest-id-ready-first preserves the low-index completion bias
  // first-accepting-index queries rely on for their cancellation watermark
  // (solve_all_slices's window chains would otherwise drain highest chain
  // first). Failures are contained as on the executor.
  for (std::size_t next = 0; next < ready.size(); ++next)
    run.execute(ready[next], &ready);
  require(ready.size() == n, "Scheduler::run: dependency cycle in TaskGraph");
  if (run.error()) std::rethrow_exception(run.error());
}

void Scheduler::fork(std::size_t n, ForkBody body) {
  if (n <= 1 || num_threads() == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  detail::Run run(nullptr, &body, n);
  detail::start(run, ids.data(), n);
}

void Scheduler::submit(std::function<void()> job, int priority) {
  detail::Executor::instance().submit(std::move(job), priority);
}

void Scheduler::submit(TaskGraph graph, std::function<void()> on_complete) {
  // shared_ptr: std::function requires copyable callables, and the graph
  // must survive until a worker runs it.
  auto owned = std::make_shared<TaskGraph>(std::move(graph));
  submit([owned, on_complete = std::move(on_complete)] {
    Scheduler::run(*owned);
    if (on_complete) on_complete();
  });
}

std::size_t Scheduler::serving_threads() {
  return detail::Executor::instance().workers();
}

}  // namespace ppsi::support
