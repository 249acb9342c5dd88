#include "api/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/budget.hpp"
#include "api/dynamic.hpp"
#include "connectivity/articulation.hpp"
#include "connectivity/flow_connectivity.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "isomorphism/dp_scratch.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "planar/face_vertex_graph.hpp"
#include "support/fault.hpp"
#include "support/simd.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/scheduler.hpp"
#include "support/timer.hpp"
#include "treedecomp/bfs_layer_decomposition.hpp"
#include "treedecomp/greedy_decomposition.hpp"

// GCC 12's -Wmaybe-uninitialized fires false positives in the query methods
// below when a result struct holding a std::optional member
// (DecisionResult::witness) is moved into Result<T>'s std::optional; the
// member is provably engaged-or-empty. Placed after the includes so the
// headers keep the diagnostic.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace ppsi {

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidOptions: return "invalid options";
    case StatusCode::kInvalidPattern: return "invalid pattern";
    case StatusCode::kUnsupported: return "unsupported";
    case StatusCode::kListLimitReached: return "list limit reached";
    case StatusCode::kWorkBudgetExceeded: return "work budget exceeded";
    case StatusCode::kDeadlineExceeded: return "deadline exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kShed: return "shed";
    case StatusCode::kInternal: return "internal error";
    case StatusCode::kResourceExhausted: return "resource exhausted";
    case StatusCode::kMalformedInput: return "malformed input";
    case StatusCode::kEmpty: return "empty";
  }
  return "unknown";
}

Status contained_status() {
  try {
    throw;
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "allocation failed during query execution");
  } catch (const std::exception& e) {
    return Status::Internal(std::string("contained exception: ") + e.what());
  } catch (...) {
    return Status::Internal("contained unknown exception");
  }
}

std::string Status::to_string() const {
  std::string out = ppsi::to_string(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status validate(const QueryOptions& options) {
  cover::PipelineOptions pipeline;
  pipeline.seed = options.seed;
  pipeline.max_runs = options.max_runs;
  pipeline.engine = options.engine;
  pipeline.decomposition = options.decomposition;
  pipeline.use_shortcuts = options.use_shortcuts;
  pipeline.list_limit = options.list_limit;
  pipeline.stopping_slack = options.stopping_slack;
  if (const char* message = cover::validate_options(pipeline))
    return Status::InvalidOptions(message);
  if (std::isnan(options.deadline_seconds) || options.deadline_seconds < 0)
    return Status::InvalidOptions(
        "deadline_seconds must be non-negative (0 disables the deadline)");
  return Status::Ok();
}

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kBulk: return "bulk";
    case Priority::kNormal: return "normal";
    case Priority::kInteractive: return "interactive";
  }
  return "unknown";
}

Status validate(const Admission& admission) {
  switch (admission.priority) {
    case Priority::kBulk:
    case Priority::kNormal:
    case Priority::kInteractive:
      break;
    default:
      return Status::InvalidOptions("Admission::priority: unknown class");
  }
  if (!(admission.deadline_seconds >= 0) ||
      !std::isfinite(admission.deadline_seconds))
    return Status::InvalidOptions(
        "Admission::deadline_seconds must be non-negative and finite "
        "(0 disables shedding)");
  if (!(admission.tenant_weight > 0) || !std::isfinite(admission.tenant_weight))
    return Status::InvalidOptions(
        "Admission::tenant_weight must be positive and finite");
  if (!(admission.retry_backoff_seconds >= 0) ||
      !std::isfinite(admission.retry_backoff_seconds))
    return Status::InvalidOptions(
        "Admission::retry_backoff_seconds must be non-negative and finite");
  return Status::Ok();
}

namespace {

using cover::Cover;
using cover::CountResult;
using cover::DecisionResult;
using cover::ListingResult;
using cover::Slice;
using iso::Assignment;
using iso::Pattern;

std::uint32_t default_runs(Vertex n) {
  const double lg = std::log2(static_cast<double>(n) + 2.0);
  return static_cast<std::uint32_t>(2.0 * lg) + 4;
}

/// Per-slice tree decompositions of one cover. shared_ptr elements so
/// structurally identical slices of consecutive target versions share one
/// decomposition instead of rebuilding it (api/dynamic.hpp).
using TdList = std::vector<std::shared_ptr<const treedecomp::TreeDecomposition>>;

treedecomp::TreeDecomposition decompose_slice(
    const Slice& slice, cover::DecompositionKind kind) {
  using namespace treedecomp;
  PPSI_FAULT_POINT("solver.decompose");
  switch (kind) {
    case cover::DecompositionKind::kGreedyMinFill:
      return binarize(
          greedy_decomposition(slice.graph, GreedyStrategy::kMinFill));
    case cover::DecompositionKind::kBfsLayer:
      return binarize(bfs_layer_decomposition(slice.graph, slice.bfs_root));
    case cover::DecompositionKind::kGreedyMinDegree:
      break;
  }
  return binarize(
      greedy_decomposition(slice.graph, GreedyStrategy::kMinDegree));
}

iso::DpSolution solve_slice(const Slice& slice,
                            const treedecomp::TreeDecomposition& td,
                            const Pattern& pattern,
                            const QueryOptions& options,
                            bool release_interior,
                            const support::CancelScope& cancel) {
  PPSI_FAULT_POINT("solver.slice");
  if (options.engine == cover::EngineKind::kSequential) {
    iso::DpOptions dp;
    dp.spec = slice.spec;
    dp.release_interior = release_interior;
    dp.cancel = cancel;  // per-node checks preempt mid-slice
    return iso::solve_sequential(slice.graph, td, pattern, dp);
  }
  if (options.engine == cover::EngineKind::kSparse) {
    iso::DpOptions dp;
    dp.spec = slice.spec;
    dp.release_interior = release_interior;
    dp.cancel = cancel;
    return iso::solve_sparse(slice.graph, td, pattern, dp);
  }
  iso::ParallelOptions par;
  par.spec = slice.spec;
  par.use_shortcuts = options.use_shortcuts;
  par.release_interior = release_interior;
  par.cancel = cancel;  // path tasks of an obsolete slice skip themselves
  return iso::solve_parallel(slice.graph, td, pattern, par);
}

/// One slice's task result. `solved` means the task ran to completion;
/// cancelled slices leave it false and their (partial) solution is never
/// read: watermark cancellation requires a strictly smaller accepting (or
/// limit-reaching) index, at which the replay stops first, and token/
/// deadline preemption stops the replay at the first unsolved slice.
struct SliceOutcome {
  iso::DpSolution sol;
  bool solved = false;
};

/// One cover run as solve_all_slices sees it: the cover and its memoized
/// per-slice decompositions.
struct RunCover {
  const Cover* cover = nullptr;
  const TdList* tds = nullptr;
};

/// Maps a mid-cover preemption to its interruption status. Both sources
/// are monotone, so whichever is observed here is the one the slices saw;
/// cancellation outranks the deadline (mirrors Budget::check).
Status interruption_cause(const support::CancelToken* token,
                          const support::DeadlineClock* deadline) {
  if (token != nullptr && token->cancelled())
    return {StatusCode::kCancelled, "query cancelled through its CancelToken"};
  if (deadline != nullptr && deadline->expired())
    return {StatusCode::kDeadlineExceeded,
            "wall clock exceeded QueryOptions::deadline_seconds"};
  support::require(false, "solve_all_slices: unsolved slice without a cause");
  return {};
}

/// kUnsupported when a slice that can host the pattern decomposed into
/// bags the 64-bit DP state codec cannot encode (iso::StateCodec::supports),
/// naming the bound; ok otherwise. Checked before any slice of the run is
/// solved, so an out-of-range run costs no DP work and never reaches the
/// codec's internal invariant checks.
Status codec_range(const RunCover& run, const Pattern& pattern) {
  const Cover& cover = *run.cover;
  for (std::size_t i = 0; i < cover.slices.size(); ++i) {
    if (cover.slices[i].graph.num_vertices() < pattern.size()) continue;
    std::size_t max_bag = 1;
    for (const auto& bag : (*run.tds)[i]->bags)
      max_bag = std::max(max_bag, bag.size());
    if (iso::StateCodec::supports(pattern.size(), max_bag)) continue;
    return Status::Unsupported(
        "slice " + std::to_string(i) + " decomposes into a bag of " +
        std::to_string(max_bag) + " vertices, outside the 64-bit state codec "
        "for a " + std::to_string(pattern.size()) +
        "-vertex pattern: bags may hold at most 56 vertices and "
        "k * ceil(log2(bag + 2)) must not exceed 64");
  }
  return Status::Ok();
}

/// Solves the slices of a span of cover runs against their decompositions
/// and accounts them into `decision`. Decision mode (`collect` null) takes
/// any number of runs and returns true at the first accepting slice, with
/// a witness (slice-local images translated through origin_of) unless the
/// query is decision-only. Collect mode takes one run and accumulates up
/// to `limit` occurrences of its accepting slices into `collect`.
///
/// Task index. The (run, slice) pairs whose slice can host the pattern
/// are indexed run-major: run 0's slices in slice order, then run 1's, and
/// so on. That index keys the tasks, the cancellation watermark, the
/// speculation window and the replay, so a span of runs is one task graph
/// whose replay reads the pairs in exactly the order a one-run-at-a-time
/// loop solves them. All tasks go into the shared
/// executor (the parallel engine's path tasks join the same workers), and
/// the results are replayed in index order with exactly the sequential
/// loop's arithmetic: per run, its slices' work adds and their rounds
/// compose as a maximum; runs compose in sequence. Outputs, metric sums and
/// the early-exit accounting cut are therefore bit-identical for every
/// thread count and every span of runs: cancellation and speculation only
/// ever discard work the replay would never have accounted.
///
/// Runs and waves. The decision run loop (Impl::decide) solves run 0 alone
/// and, once it failed, the rest in waves of 2, 4, 8, ... runs, each wave
/// one call here. The replay of run r first calls `begin_run(r)`, which
/// publishes the run's cover to the Solver's cache and charges its build:
/// covers are published in replay order, so the cache sees the same
/// acquire sequence as a serial loop and runs past the accepting one never
/// touch it. Then come run r's slices, the stop at its first accepting
/// slice, the interruption check, and (before run r + 1) the coarse
/// `budget.check`. A run whose decompositions the state codec cannot
/// encode (codec_range) gets no tasks; the replay reports kUnsupported
/// through `*status` when it reaches that run.
///
/// Cooperative cancellation has three sources, all carried by each slice's
/// CancelScope (and threaded into the engines' path tasks / per-node DP
/// loops):
///   * the watermark: in decision mode the first accepting pair lowers
///     it; in collect mode the replay task that satisfies `limit` does —
///     either way the speculative tail of strictly larger indices, later
///     runs included, skips itself;
///   * the query's CancelToken and armed DeadlineClock (from `budget`):
///     these preempt mid-run (even mid-slice); the replay then stops at the
///     first unsolved slice, reports the cause through `*status`, and
///     everything accounted before it is the documented partial result.
///
/// Decision mode replays after the graph completes; a solved slice that
/// does not accept keeps only its metrics (all its replay reads). A wave of
/// several runs solves decision-only (the engines free each node once its
/// parent consumed it), and the replay re-solves the one accepting slice in
/// full when the query wants a witness, so a wave never holds more than
/// the live frontier of each in-flight slice. Collect mode replays
/// *inside* the graph — a chain of per-slice replay tasks (R_j needs S_j
/// and R_{j-1}) serializes the std::set insertion in index order while
/// later slices are still solving, which is what lets a mid-run limit hit
/// cancel the tail at all.
///
/// Cooperative suspend/resume (the serving pool's ParkGate, from `budget`)
/// is the fourth signal, and the only resumable one: a requested park makes
/// the remaining slice tasks skip themselves *without* being cancelled, the
/// drained graph parks the whole query (the admission slot goes back to the
/// pool; the budget clock is credited for the suspension), and on resume a
/// fresh graph round re-runs exactly the tasks still pending. Solved
/// outcomes, the watermark, and the replay cursor all persist across
/// rounds, so the replayed sequence — and with it every output and every
/// accounted counter — is bit-identical to an unparked run.
bool solve_all_slices(std::span<const RunCover> runs, const Pattern& pattern,
                      const QueryOptions& options, const Budget& budget,
                      const std::function<void(std::size_t)>& begin_run,
                      DecisionResult* decision, std::set<Assignment>* collect,
                      std::size_t limit, Status* status) {
  // Decision-only queries never recover assignments, so the engines may
  // free each solved node as soon as its parent has consumed it.
  const bool release_interior = options.decision_only && collect == nullptr;
  const bool decision_mode = collect == nullptr;
  support::require(decision_mode || runs.size() == 1,
                   "solve_all_slices: collect mode solves one run");
  // A wave of several runs solves every slice that way too: a slice's
  // tables matter only if it accepts and a witness is wanted, and then the
  // replay re-solves that one slice in full. Otherwise up to one full set
  // of DP tables per worker, each from a different run, is live at once.
  const bool lean = release_interior || runs.size() > 1;
  const support::CancelToken* token = budget.token();
  const support::DeadlineClock* deadline = budget.deadline();
  support::ParkGate* park = budget.park();
  const auto preempted = [&] {
    return (token != nullptr && token->cancelled()) ||
           (deadline != nullptr && deadline->expired());
  };

  // Runs before the first one the state codec cannot encode get tasks.
  std::size_t solvable = 0;
  Status unsupported;
  for (; solvable < runs.size(); ++solvable) {
    unsupported = codec_range(runs[solvable], pattern);
    if (!unsupported.ok()) break;
  }
  if (!decision_mode && solvable == 0) {
    *status = std::move(unsupported);
    return false;
  }

  // The task index: (run, slice) pairs large enough to host the pattern,
  // run-major.
  struct SliceRef {
    std::uint32_t run;
    std::uint32_t slice;
  };
  std::vector<SliceRef> refs;
  for (std::size_t r = 0; r < solvable; ++r) {
    const Cover& cover = *runs[r].cover;
    for (std::size_t i = 0; i < cover.slices.size(); ++i) {
      if (cover.slices[i].graph.num_vertices() >= pattern.size())
        refs.push_back({static_cast<std::uint32_t>(r),
                        static_cast<std::uint32_t>(i)});
    }
  }
  const std::size_t num_tasks = refs.size();
  const auto slice_at = [&](std::size_t j) -> const Slice& {
    return runs[refs[j].run].cover->slices[refs[j].slice];
  };
  const auto td_at = [&](std::size_t j) -> const auto& {
    return *(*runs[refs[j].run].tds)[refs[j].slice];
  };

  // Solve state, persistent across park/resume rounds.
  std::vector<SliceOutcome> outcomes(num_tasks);
  support::CancelWatermark watermark;

  // Replay accounting, shared by both modes. Slices are independent
  // (solved in parallel in the PRAM reading): their work adds, their
  // rounds compose as a maximum within the run. Allocation events add and
  // scratch peaks max-merge, mirroring the work/rounds split.
  const auto account = [&](const iso::DpSolution& sol,
                           support::Metrics& run_depth) {
    decision->metrics.add_work(sol.metrics.work());
    decision->metrics.add_allocs(sol.metrics.allocs());
    decision->metrics.note_scratch_peak(sol.metrics.scratch_peak_bytes());
    run_depth.absorb_parallel(sol.metrics);
    ++decision->slices_solved;
  };

  // Bounded speculation: both modes stop accounting early (decision: first
  // accepting slice; collect: the slice whose occurrences satisfy the
  // limit), so slices solved beyond that point are wasted wall time.
  // Window edges (progress at index j gates task j+W) keep at most W slice
  // tasks in flight with a low-index completion bias: the scheduler stays
  // fully occupied, the watermark drops as early as the old sequential
  // loop stopped, and the cancelled tail skips itself. Without them a
  // work-stealing schedule may stack every speculative slice before the
  // stopping one completes (observed: 20x wall regression on warm
  // single-thread decisions). W tracks the run's width; the edge structure
  // never affects results — the replay decides those.
  const std::uint32_t window =
      2 * static_cast<std::uint32_t>(std::max(1, support::num_threads()));

  // Collect mode: in-graph replay chain. replay_slice(j) runs with every
  // smaller replay done (chain edges), so the limit cut it computes is the
  // same one the old sequential loop computed; limit_reached/stopped/
  // paused are written and read only under that serialization (rounds are
  // serialized by Scheduler::run returning between them).
  struct ReplayState {
    bool found = false;
    bool limit_reached = false;
    bool stopped = false;  ///< token/deadline preemption observed
    bool paused = false;   ///< park-skipped slice reached; resumes next round
  } replay;
  support::Metrics collect_depth;  // collect mode's one run
  std::vector<std::uint8_t> replayed(num_tasks, 0);  // collect-mode cursor
  const auto replay_slice = [&](std::size_t j) {
    if (replay.limit_reached || replay.stopped || replay.paused) return;
    SliceOutcome& outcome = outcomes[j];
    if (!outcome.solved) {
      if (preempted()) {
        replay.stopped = true;
        return;
      }
      // Not preempted, and watermark cancellation needs a strictly smaller
      // limit-reaching index (at which the replay stopped first) — the only
      // remaining cause is a park-skip. Pause: the next round re-solves
      // this slice and the replay resumes here, so the consumed sequence
      // is the same one an unparked run produces.
      support::require(park != nullptr && park->park_requested(),
                       "solve_all_slices: replay reached a cancelled slice");
      replay.paused = true;
      return;
    }
    const iso::DpSolution& sol = outcome.sol;
    account(sol, collect_depth);
    replayed[j] = 1;
    if (!sol.accepted) {
      outcome.sol = {};  // accounted; free before replaying the rest
      return;
    }
    replay.found = true;
    for (Assignment a : iso::recover_assignments(sol, td_at(j), limit)) {
      for (Vertex& image : a) image = slice_at(j).origin_of[image];
      collect->insert(std::move(a));
    }
    outcome.sol = {};
    if (collect->size() >= limit) {
      replay.limit_reached = true;
      // Drop the speculative tail: queued/in-flight slice tasks of
      // strictly larger index skip themselves. Outputs and accounted work
      // of every completed (replayed) slice are untouched.
      watermark.accept(static_cast<std::uint32_t>(j));
    }
  };

  // ---- Solve all (needed) slices on the shared task pool, in rounds. ----
  // Without a ParkGate the loop body runs exactly once (the pre-park
  // structure). With one, a round that drained while a park was requested
  // suspends here — between slice graphs, with all per-slice state intact —
  // and the next round covers exactly the slices still pending.
  for (;;) {
    support::TaskGraph graph;
    std::vector<std::uint32_t> solve_tasks;   // this round's, in index order
    std::vector<std::uint32_t> replay_tasks;  // collect mode, this round
    for (std::size_t j = 0; j < num_tasks; ++j) {
      const auto index = static_cast<std::uint32_t>(j);
      // A slice is pending until replayed (collect) / solved or made
      // obsolete by an accepting smaller index (decision).
      if (decision_mode &&
          (outcomes[j].solved || watermark.obsolete(index)))
        continue;
      if (!decision_mode && replayed[j] != 0) continue;
      std::uint32_t solve_task = support::CancelWatermark::kNone;
      if (!outcomes[j].solved) {
        solve_task = graph.add([&, j, index] {
          const support::CancelScope scope{&watermark, index, token,
                                           deadline};
          if (scope.cancelled()) return;  // obsolete index, or preempted
          // A requested park skips the slice *before* any work: the slice
          // is not cancelled, just deferred to the post-resume round.
          if (park != nullptr && park->park_requested()) return;
          SliceOutcome& out = outcomes[j];
          out.sol = solve_slice(slice_at(j), td_at(j), pattern, options,
                                lean, scope);
          if (scope.cancelled()) {
            out.sol = {};  // partial (paths/nodes skipped): free, never read
            return;
          }
          out.solved = true;
          if (!decision_mode) return;
          if (out.sol.accepted) {
            watermark.accept(index);
          } else {
            // The replay of a rejected slice reads only its metrics; drop
            // its DP tables now instead of holding them until the replay.
            iso::DpSolution rejected;
            rejected.metrics = out.sol.metrics;
            out.sol = std::move(rejected);
          }
        });
        solve_tasks.push_back(solve_task);
      }
      if (!decision_mode) {
        const std::uint32_t r = graph.add([&, j] { replay_slice(j); });
        if (solve_task != support::CancelWatermark::kNone)
          graph.add_edge(solve_task, r);
        if (!replay_tasks.empty()) graph.add_edge(replay_tasks.back(), r);
        replay_tasks.push_back(r);
      }
    }
    if (decision_mode) {
      for (std::size_t j = 0; j + window < solve_tasks.size(); ++j)
        graph.add_edge(solve_tasks[j], solve_tasks[j + window]);
    } else {
      // The window gates on replay progress, so the limit verdict (not
      // just slice completion) bounds how far ahead the solves speculate.
      for (std::size_t j = 0; j + window < replay_tasks.size(); ++j) {
        if (j + window < solve_tasks.size())
          graph.add_edge(replay_tasks[j], solve_tasks[j + window]);
      }
    }
    support::Scheduler::run(graph);

    // Go around only for a park: preemption wins (the replay below reports
    // it), and with nothing pending the request rides to the query's next
    // slice-boundary checkpoint (or its completion) instead.
    if (park == nullptr || !park->park_requested() || preempted()) break;
    bool pending = false;
    for (std::size_t j = 0; j < num_tasks && !pending; ++j) {
      pending = decision_mode
                    ? !outcomes[j].solved &&
                          !watermark.obsolete(static_cast<std::uint32_t>(j))
                    : replayed[j] == 0 && !replay.limit_reached &&
                          !replay.stopped;
    }
    if (!pending) break;
    replay.paused = false;
    // Park: hand the admission slot back (ParkGate's on_parked), block
    // until the pool resumes us, and credit the suspension to the budget
    // clock — parked time must not count against the execution deadline.
    budget.credit_parked(park->park());
  }

  if (!decision_mode) {
    decision->metrics.add_rounds(collect_depth.rounds());
    if (replay.stopped) *status = interruption_cause(token, deadline);
    return replay.found;
  }

  // ---- Decision mode: deterministic replay in (run, slice) order. ----
  std::size_t j = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    begin_run(r);
    if (r == solvable) {
      *status = std::move(unsupported);
      return false;
    }
    support::Metrics run_depth;
    bool accepted = false;
    bool unsolved = false;
    for (; j < num_tasks && refs[j].run == r; ++j) {
      const SliceOutcome& outcome = outcomes[j];
      // As in replay_slice: an unsolved slice here means the query itself
      // was preempted (the watermark alone stops the replay at its
      // accepting index before reaching any cancelled slice).
      unsolved = !outcome.solved;
      if (unsolved) break;
      account(outcome.sol, run_depth);
      accepted = outcome.sol.accepted;
      if (accepted) break;
    }
    decision->metrics.add_rounds(run_depth.rounds());
    if (unsolved) {
      support::require(token != nullptr || deadline != nullptr,
                       "solve_all_slices: replay reached a cancelled slice");
      *status = interruption_cause(token, deadline);
      return false;
    }
    if (accepted) {
      if (!release_interior && !decision->witness.has_value()) {
        // Solving is deterministic, so the re-solve of a lean slice
        // recovers the witness a full solve would have; its work is
        // executed, never accounted (the replay accounted the lean solve).
        iso::DpSolution& sol = outcomes[j].sol;
        if (lean)
          sol = solve_slice(slice_at(j), td_at(j), pattern, options,
                            /*release_interior=*/false, {});
        auto assignments = iso::recover_assignments(sol, td_at(j), 1);
        if (!assignments.empty()) {
          Assignment witness = assignments.front();
          for (Vertex& image : witness) image = slice_at(j).origin_of[image];
          decision->witness = witness;
        }
      }
      return true;
    }
    if (r + 1 < runs.size()) {
      *status = budget.check(decision->metrics);
      if (!status->ok()) return false;
    }
  }
  return false;
}

/// Cache key of one cover: everything the cover build reads besides the
/// target graph. `k` doubles as the clustering parameter (beta = 2k) and
/// the minimum slice size, so two patterns with equal (diameter, size)
/// resolve to the same cover. `version` — the target snapshot the cover
/// was built from — orders LAST, so all versions of one parameter set are
/// adjacent in the cache map and the newest older version (the structural-
/// sharing donor) is the entry's immediate same-base predecessor.
struct CoverKey {
  std::uint32_t d = 0;
  std::uint32_t k = 0;
  std::uint64_t seed = 0;
  bool separating = false;
  std::vector<std::uint8_t> in_s;  ///< empty unless separating
  std::uint64_t version = 0;

  bool operator<(const CoverKey& other) const {
    return std::tie(d, k, seed, separating, in_s, version) <
           std::tie(other.d, other.k, other.seed, other.separating,
                    other.in_s, other.version);
  }
  bool same_base(const CoverKey& other) const {
    return d == other.d && k == other.k && seed == other.seed &&
           separating == other.separating && in_s == other.in_s;
  }
};

/// One memoized cover plus its per-kind slice decompositions. Built under
/// `mutex`; immutable afterwards (new decomposition kinds only append map
/// nodes, never touch existing ones) — which is what lets a newer version's
/// build read a donor entry's slices and share its decomposition pointers
/// after only a null check under the donor's mutex.
struct CoverEntry {
  std::mutex mutex;
  /// Null until built. Shared so that a cover built privately ahead of its
  /// publication (Impl::prepare_cover) is installed without a copy.
  std::shared_ptr<const Cover> cover;
  std::map<cover::DecompositionKind, TdList> tds;
  /// LRU tick, guarded by the owning Solver's cache_mutex (not `mutex`).
  std::uint64_t last_used = 0;
};

/// Borrowed view of a cached cover; `entry` keeps the data alive across a
/// concurrent clear_cache().
struct CoverAccess {
  std::shared_ptr<CoverEntry> entry;
  const Cover* cover = nullptr;
  const TdList* tds = nullptr;
  bool built_cover = false;  ///< this call built it (owns its metrics)
};

/// A cover and its decompositions of one kind, obtained without any cache
/// bookkeeping: borrowed from a resident entry or built privately
/// (Impl::prepare_cover). Covers and decompositions are deterministic, so
/// it equals what an in-order acquire would have produced.
struct PreparedCover {
  std::shared_ptr<const Cover> cover;
  TdList tds;
};

/// Builds the cover `key` names on the target graph `g`. The cover
/// skeleton (clustering, BFS levels, slice graphs) is always rebuilt from
/// the pinned version's graph — it is cheap next to the decompositions and
/// keeping it bit-identical to a cold build is what makes incremental
/// results provably equal.
std::shared_ptr<const Cover> build_cover(const Graph& g, const CoverKey& key) {
  PPSI_FAULT_POINT("solver.cover_build");
  const double beta = 2.0 * key.k;
  return std::make_shared<const Cover>(
      key.separating ? cover::build_separating_cover(g, key.in_s, key.d, beta,
                                                     key.seed, key.k)
                     : cover::build_kd_cover(g, key.d, beta, key.seed, key.k));
}

/// Decomposes the slices of `cover` listed in `which` into `tds`.
/// Slices decompose independently, so the build fans out across the
/// executor (each iteration fills its own pre-sized slot; results are
/// per-slice deterministic, so the assembled vector is too). Grain 1:
/// decompositions are orders of magnitude heavier than a loop iteration's
/// overhead.
void decompose_slices(const Cover& cover, cover::DecompositionKind kind,
                      const std::vector<std::size_t>& which, TdList& tds) {
  support::parallel_for(
      0, which.size(),
      [&](std::size_t r) {
        const std::size_t i = which[r];
        tds[i] = std::make_shared<const treedecomp::TreeDecomposition>(
            decompose_slice(cover.slices[i], kind));
      },
      /*grain=*/1);
}

/// Order-sensitive structural signature of one slice (graph in adjacency
/// order, origin map, separating spec) for the cross-version match.
std::uint64_t slice_signature(const Slice& slice) {
  std::uint64_t h = support::hash_combine(0x51c3, slice.graph.num_vertices());
  for (Vertex v = 0; v < slice.graph.num_vertices(); ++v) {
    h = support::hash_combine(h, slice.graph.degree(v));
    for (const Vertex w : slice.graph.neighbors(v))
      h = support::hash_combine(h, w);
    h = support::hash_combine(h, slice.origin_of[v]);
    h = support::hash_combine(h, slice.is_original[v]);
  }
  h = support::hash_combine(h, slice.bfs_root);
  h = support::hash_combine(h, slice.spec.enabled ? 1 : 0);
  for (const std::uint8_t b : slice.spec.in_s) h = support::hash_combine(h, b);
  for (const std::uint8_t b : slice.spec.allowed)
    h = support::hash_combine(h, b);
  return h;
}

/// Exact structural equality backing the signature above. Everything the
/// slice solve and witness translation read must match: the graph with its
/// adjacency order, the origin/original maps, the decomposition root, and
/// the separating spec.
bool slice_equal(const Slice& a, const Slice& b) {
  if (a.graph.num_vertices() != b.graph.num_vertices()) return false;
  if (a.graph.num_half_edges() != b.graph.num_half_edges()) return false;
  for (Vertex v = 0; v < a.graph.num_vertices(); ++v) {
    const auto na = a.graph.neighbors(v);
    const auto nb = b.graph.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return a.origin_of == b.origin_of && a.is_original == b.is_original &&
         a.bfs_root == b.bfs_root && a.spec.enabled == b.spec.enabled &&
         a.spec.in_s == b.spec.in_s && a.spec.allowed == b.spec.allowed;
}

/// Delta invalidation: matches the slices of `cover` against the donor
/// version's and gives each structurally identical slice the donor's
/// decomposition pointer (decompose_slice is deterministic, so the shared
/// object equals what a rebuild would produce). Returns the indices of the
/// slices left to decompose, ascending; all of them without a donor.
std::vector<std::size_t> share_donor_slices(const Cover& cover,
                                            const PreparedCover& donor,
                                            TdList& tds) {
  std::vector<std::size_t> rebuild;
  if (!donor.cover) {
    rebuild.resize(tds.size());
    for (std::size_t i = 0; i < tds.size(); ++i) rebuild[i] = i;
    return rebuild;
  }
  std::unordered_multimap<std::uint64_t, std::size_t> by_signature;
  for (std::size_t i = 0; i < donor.cover->slices.size(); ++i)
    by_signature.emplace(slice_signature(donor.cover->slices[i]), i);
  for (std::size_t i = 0; i < cover.slices.size(); ++i) {
    const Slice& slice = cover.slices[i];
    const auto [lo, hi] = by_signature.equal_range(slice_signature(slice));
    for (auto match = lo; match != hi; ++match) {
      if (slice_equal(slice, donor.cover->slices[match->second])) {
        tds[i] = donor.tds[match->second];
        break;
      }
    }
    if (!tds[i]) rebuild.push_back(i);
  }
  return rebuild;
}

}  // namespace

struct Solver::Impl {
  using Snapshot = std::shared_ptr<const detail::VersionState>;

  // ---- Version state (guarded by version_mutex) ----
  // `current` is the snapshot new queries pin; `registry` tracks every
  // version still reachable (weakly, so the last pin draining reclaims the
  // VersionState without the Solver's involvement); the ledger survives
  // reclaimed versions and collects their counters.
  std::shared_ptr<detail::VersionLedger> ledger =
      std::make_shared<detail::VersionLedger>();
  mutable std::mutex version_mutex;
  Snapshot current;
  std::map<std::uint64_t, std::weak_ptr<const detail::VersionState>> registry;
  std::uint64_t next_version_id = 1;
  std::uint64_t versions_committed = 0;
  /// Serializes apply() commits (never held together with cache_mutex).
  std::mutex edit_mutex;

  std::mutex cache_mutex;
  std::map<CoverKey, std::shared_ptr<CoverEntry>> covers;
  std::size_t cache_capacity = kDefaultCacheCapacity;  // guarded by ^
  std::uint64_t use_tick = 0;                          // guarded by ^
  std::atomic<std::uint64_t> cover_hits{0};
  std::atomic<std::uint64_t> cover_misses{0};
  std::atomic<std::uint64_t> td_hits{0};
  std::atomic<std::uint64_t> td_misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> slices_rebuilt{0};
  std::atomic<std::uint64_t> slices_reused{0};
  std::atomic<std::uint64_t> stale_purged{0};

  /// Installs the initial version (id 1); constructor-only, no locking.
  void install_initial(Graph graph,
                       std::optional<planar::EmbeddedGraph> embedding) {
    auto state = std::make_shared<detail::VersionState>();
    state->id = 1;
    state->graph = std::move(graph);
    state->embedding = std::move(embedding);
    state->ledger = ledger;
    registry.emplace(state->id, state);
    current = std::move(state);
    next_version_id = 2;
  }

  Snapshot pin_current() const {
    const std::lock_guard<std::mutex> lock(version_mutex);
    return current;
  }

  /// Resolves the snapshot a query runs against: an explicit
  /// QueryOptions::at pin (validated to belong to this Solver — foreign
  /// versions would poison the version-keyed cache) or the current version.
  Status pin(const TargetVersion* at, Snapshot* out) const {
    if (at != nullptr) {
      if (!at->valid())
        return Status::InvalidOptions(
            "QueryOptions::at: default-constructed TargetVersion");
      if (at->state_->ledger != ledger)
        return Status::InvalidOptions(
            "QueryOptions::at: TargetVersion belongs to a different Solver");
      *out = at->state_;
      return Status::Ok();
    }
    *out = pin_current();
    return Status::Ok();
  }

  /// Every still-reachable snapshot (sweeps expired registry entries).
  std::vector<Snapshot> live_snapshots() const {
    std::vector<Snapshot> out;
    const std::lock_guard<std::mutex> lock(version_mutex);
    for (const auto& [id, weak] : registry) {
      if (Snapshot snap = weak.lock()) out.push_back(std::move(snap));
    }
    return out;
  }

  /// The structural-sharing donor of `key`: the newest older-version entry
  /// with the same cover parameters. `version` orders last in the key, so
  /// that entry — if any — is exactly the map predecessor of `pos`, the
  /// key's lower bound. Caller holds cache_mutex.
  std::shared_ptr<CoverEntry> donor_before(
      std::map<CoverKey, std::shared_ptr<CoverEntry>>::iterator pos,
      const CoverKey& key) {
    if (pos == covers.begin()) return nullptr;
    const auto prev = std::prev(pos);
    return prev->first.same_base(key) ? prev->second : nullptr;
  }

  /// The donor's cover and `kind` decompositions, or an empty result while
  /// it has none. Locking order entry -> donor is acyclic: a thread only
  /// ever waits on strictly older versions.
  static PreparedCover donated(const std::shared_ptr<CoverEntry>& donor,
                               cover::DecompositionKind kind) {
    if (!donor) return {};
    const std::lock_guard<std::mutex> lock(donor->mutex);
    const auto it = donor->tds.find(kind);
    if (!donor->cover || it == donor->tds.end()) return {};
    return {donor->cover, it->second};
  }

  /// The side-effect-free half of acquire_cover: reads the resident cover
  /// and decompositions for (key, kind) without counting a hit, ticking
  /// the LRU clock or inserting an entry, and builds whatever is missing
  /// privately (sharing a donor's decompositions as acquire_cover would).
  /// acquire_cover(ver, key, kind, &prepared) later does the bookkeeping.
  PreparedCover prepare_cover(const detail::VersionState& ver,
                              const CoverKey& key,
                              cover::DecompositionKind kind) {
    std::shared_ptr<CoverEntry> entry;
    std::shared_ptr<CoverEntry> donor;
    {
      const std::lock_guard<std::mutex> lock(cache_mutex);
      const auto pos = covers.lower_bound(key);
      if (pos != covers.end() && !(key < pos->first)) entry = pos->second;
      donor = donor_before(pos, key);
    }
    PreparedCover out;
    if (entry) {
      const std::lock_guard<std::mutex> lock(entry->mutex);
      out.cover = entry->cover;
      const auto it = entry->tds.find(kind);
      if (out.cover && it != entry->tds.end()) {
        out.tds = it->second;
        return out;
      }
    }
    if (!out.cover) out.cover = build_cover(ver.graph, key);
    out.tds.resize(out.cover->slices.size());
    decompose_slices(*out.cover, kind,
                     share_donor_slices(*out.cover, donated(donor, kind),
                                        out.tds),
                     out.tds);
    return out;
  }

  /// Looks up (key, kind) in the cache, counting the hit or miss, ticking
  /// the LRU clock and evicting beyond the capacity, and builds what the
  /// entry lacks. With `prepared`, a missing cover or decomposition is
  /// taken from it instead of built: the publish step of a run whose cover
  /// prepare_cover produced ahead of time.
  CoverAccess acquire_cover(const detail::VersionState& ver,
                            const CoverKey& key,
                            cover::DecompositionKind kind,
                            const PreparedCover* prepared = nullptr) {
    CoverAccess access;
    std::shared_ptr<CoverEntry> donor;
    {
      const std::lock_guard<std::mutex> lock(cache_mutex);
      donor = donor_before(covers.lower_bound(key), key);
      std::shared_ptr<CoverEntry>& slot = covers[key];
      if (!slot) slot = std::make_shared<CoverEntry>();
      slot->last_used = ++use_tick;
      access.entry = slot;
      // Capacity bound (0 = unlimited): evict the least-recently-used
      // other entry. In-flight readers keep theirs alive via shared_ptr.
      // Entries of every version count against the one bound.
      while (cache_capacity > 0 && covers.size() > cache_capacity) {
        auto victim = covers.end();
        for (auto it = covers.begin(); it != covers.end(); ++it) {
          if (it->second == access.entry) continue;
          if (victim == covers.end() ||
              it->second->last_used < victim->second->last_used) {
            victim = it;
          }
        }
        if (victim == covers.end()) break;
        covers.erase(victim);
        evictions.fetch_add(1, std::memory_order_relaxed);
      }
    }
    CoverEntry& entry = *access.entry;
    bool donated_any = false;
    {
      const std::lock_guard<std::mutex> lock(entry.mutex);
      if (!entry.cover) {
        // Containment note: a throw from the build (including the injected
        // point) unwinds the lock_guards with the cover still null and no
        // miss counted — the entry stays an empty shell a later query (or
        // a pool retry) builds from scratch.
        entry.cover = prepared != nullptr ? prepared->cover
                                          : build_cover(ver.graph, key);
        access.built_cover = true;
        cover_misses.fetch_add(1, std::memory_order_relaxed);
      } else {
        cover_hits.fetch_add(1, std::memory_order_relaxed);
      }
      auto it = entry.tds.find(kind);
      if (it == entry.tds.end()) {
        TdList tds(entry.cover->slices.size());
        const std::vector<std::size_t> rebuild = share_donor_slices(
            *entry.cover,
            donor != access.entry ? donated(donor, kind) : PreparedCover{},
            tds);
        if (prepared != nullptr) {
          for (const std::size_t i : rebuild) tds[i] = prepared->tds[i];
        } else {
          decompose_slices(*entry.cover, kind, rebuild, tds);
        }
        slices_rebuilt.fetch_add(rebuild.size(), std::memory_order_relaxed);
        slices_reused.fetch_add(tds.size() - rebuild.size(),
                                std::memory_order_relaxed);
        donated_any = tds.size() > rebuild.size();
        it = entry.tds.emplace(kind, std::move(tds)).first;
        td_misses.fetch_add(1, std::memory_order_relaxed);
      } else {
        td_hits.fetch_add(1, std::memory_order_relaxed);
      }
      access.cover = entry.cover.get();
      access.tds = &it->second;
    }
    if (donor || donated_any) purge_stale(key);
    return access;
  }

  /// Drops same-parameter cover entries of strictly older versions that
  /// are dead (no reachable snapshot can ever query them again). Runs
  /// after the newer entry is complete, so the donation above already
  /// happened; entries of still-live versions stay for their pinned
  /// queries (and age out through the LRU like any other entry).
  void purge_stale(const CoverKey& key) {
    std::set<std::uint64_t> live;
    {
      const std::lock_guard<std::mutex> lock(version_mutex);
      for (const auto& [id, weak] : registry) {
        if (!weak.expired()) live.insert(id);
      }
    }
    const std::lock_guard<std::mutex> lock(cache_mutex);
    CoverKey first = key;
    first.version = 0;
    std::vector<CoverKey> dead;
    for (auto it = covers.lower_bound(first);
         it != covers.end() && it->first.same_base(key) &&
         it->first.version < key.version;
         ++it) {
      if (live.count(it->first.version) == 0) dead.push_back(it->first);
    }
    for (const CoverKey& victim : dead) covers.erase(victim);
    stale_purged.fetch_add(dead.size(), std::memory_order_relaxed);
  }

  /// Solves the cover runs keyed `keys` as one wave into `total` (see
  /// solve_all_slices). A lone run acquires its cover through the cache up
  /// front, as a one-run query always did. A wave of several prepares its
  /// covers privately in parallel and publishes each (acquire_cover with
  /// the prepared cover) only when the replay reaches its run, so the
  /// cache sees the serial acquire order and a run past the accepting one
  /// inserts, evicts and counts nothing. True when a run accepted;
  /// `*status` reports what else stopped the wave.
  bool solve_wave(const detail::VersionState& ver,
                  std::span<const CoverKey> keys, const Pattern& pattern,
                  const QueryOptions& options, const Budget& budget,
                  DecisionResult* total, Status* status) {
    const cover::DecompositionKind kind = options.decomposition;
    std::vector<CoverAccess> access(keys.size());
    std::vector<PreparedCover> prepared(keys.size());
    std::vector<RunCover> runs(keys.size());
    if (keys.size() == 1) {
      access[0] = acquire_cover(ver, keys[0], kind);
      runs[0] = {access[0].cover, access[0].tds};
    } else {
      support::parallel_for(
          0, keys.size(),
          [&](std::size_t r) {
            prepared[r] = prepare_cover(ver, keys[r], kind);
          },
          /*grain=*/1);
      for (std::size_t r = 0; r < keys.size(); ++r)
        runs[r] = {prepared[r].cover.get(), &prepared[r].tds};
    }
    const auto begin_run = [&](std::size_t r) {
      if (!access[r].entry)
        access[r] = acquire_cover(ver, keys[r], kind, &prepared[r]);
      // Cover-build metrics are charged only to the run that built the
      // cover: a cache hit did not perform that work.
      if (access[r].built_cover)
        total->metrics.absorb(access[r].cover->metrics);
      ++total->runs;
    };
    return solve_all_slices(runs, pattern, options, budget, begin_run, total,
                            nullptr, 1, status);
  }

  /// The run loop of find and find_separating: run r solves the cover keyed
  /// key_of(r), for max_runs runs (default 2 log2(n + 2) + 4), stopping at
  /// the first accepting run. Run 0 goes alone; once it failed, the rest
  /// go in waves of 2, 4, 8, ... runs, each one task graph, so the paper's
  /// independent trials run in parallel while speculative cover builds
  /// never outnumber the runs already done. Every run that does not accept
  /// is followed by the coarse budget check.
  Result<DecisionResult> decide(
      const detail::VersionState& ver, const Pattern& pattern,
      const std::function<CoverKey(std::uint32_t)>& key_of,
      const QueryOptions& options) {
    const Budget budget(options);
    DecisionResult total;
    // Entry check: a pre-cancelled token or pre-expired deadline returns
    // before any cover is built or solved (runs == 0, empty partial result).
    if (Status status = budget.check(total.metrics); !status.ok())
      return {std::move(status), std::move(total)};
    if (ver.graph.num_vertices() < pattern.size()) return total;
    const std::uint32_t runs = options.max_runs > 0
                                   ? options.max_runs
                                   : default_runs(ver.graph.num_vertices());
    // Containment boundary: an exception from a wave (internal invariant,
    // allocation failure, injected fault — surfaced by Scheduler::run /
    // parallel_for on this thread) resolves to kInternal/kResourceExhausted
    // carrying the runs accounted so far; the Solver, its cache,
    // and the version ledger stay consistent (every mutation is
    // lock-guarded and ordered build-then-publish).
    try {
      std::vector<CoverKey> keys;
      for (std::uint64_t first = 0, width = 1; first < runs;
           first += width, width *= 2) {
        keys.clear();
        const std::uint64_t end = std::min<std::uint64_t>(runs, first + width);
        for (std::uint64_t r = first; r < end; ++r)
          keys.push_back(key_of(static_cast<std::uint32_t>(r)));
        Status status;
        if (solve_wave(ver, keys, pattern, options, budget, &total, &status)) {
          total.found = true;
          return total;
        }
        if (!status.ok()) return {std::move(status), std::move(total)};
        if (Status s = budget.check(total.metrics); !s.ok())
          return {std::move(s), std::move(total)};
      }
    } catch (...) {
      return {contained_status(), std::move(total)};
    }
    return total;
  }

  // In-flight async queries (find_async & co). The destructor drains them
  // so a detached query never outlives the Solver it references.
  std::mutex async_mutex;
  std::condition_variable async_done;
  std::size_t async_inflight = 0;  // guarded by async_mutex

  void async_begin() {
    const std::lock_guard<std::mutex> lock(async_mutex);
    ++async_inflight;
  }
  void async_end() {
    // Notify under the lock: once the count reads 0, ~Solver may destroy
    // the condition variable as soon as it can take the mutex.
    const std::lock_guard<std::mutex> lock(async_mutex);
    --async_inflight;
    async_done.notify_all();
  }
  void drain_async() {
    std::unique_lock<std::mutex> lock(async_mutex);
    async_done.wait(lock, [&] { return async_inflight == 0; });
  }
};

namespace {

/// Cache key of one decision run's (non-separating) cover.
CoverKey decision_key(const detail::VersionState& ver, const Pattern& pattern,
                      std::uint64_t run_seed) {
  CoverKey key;
  key.d = std::max(1u, pattern.diameter());
  key.k = pattern.size();
  key.seed = run_seed;
  key.version = ver.id;
  return key;
}

Status require_connected(const Pattern& pattern, const char* query) {
  if (pattern.is_connected()) return Status::Ok();
  return Status::InvalidPattern(std::string(query) +
                                ": connected pattern required "
                                "(use find_disconnected)");
}

}  // namespace

Solver::Solver(Graph target) : impl_(std::make_unique<Impl>()) {
  impl_->install_initial(std::move(target), std::nullopt);
}

Solver::Solver(planar::EmbeddedGraph target) : impl_(std::make_unique<Impl>()) {
  Graph graph = target.graph();
  impl_->install_initial(std::move(graph), std::move(target));
}

Solver::~Solver() {
  // Detached async queries reference this Solver; never die under them.
  if (impl_) impl_->drain_async();
}
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

const Graph& Solver::target() const { return impl_->pin_current()->graph; }
bool Solver::has_embedding() const {
  return impl_->pin_current()->embedding.has_value();
}

TargetVersion Solver::current_version() const {
  return TargetVersion(impl_->pin_current());
}

Result<TargetVersion> Solver::apply(const EditScript& script) {
  // One commit at a time: each script validates against (and builds on)
  // the version current when its turn comes.
  const std::lock_guard<std::mutex> edit(impl_->edit_mutex);
  const Impl::Snapshot base = impl_->pin_current();
  if (script.empty()) return TargetVersion(base);
  auto next = std::make_shared<detail::VersionState>();
  next->ledger = impl_->ledger;
  if (base->embedding.has_value()) {
    // Embedded targets stay embedded: the rotation system is patched
    // incrementally (planarity-breaking edits are rejected here).
    planar::EmbeddedGraph patched;
    if (Status status =
            detail::apply_edits_embedded(*base->embedding, script, &patched);
        !status.ok())
      return status;
    next->graph = patched.graph();
    next->embedding = std::move(patched);
  } else {
    GraphDelta delta;
    if (std::string error = apply_edits(base->graph, script, &delta);
        !error.empty())
      return Status::InvalidOptions("apply: " + error);
    next->graph = std::move(delta.graph);
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->version_mutex);
    next->id = impl_->next_version_id++;
    impl_->registry.emplace(next->id, next);
    impl_->current = next;
    ++impl_->versions_committed;
    // Sweep registry entries whose versions have fully drained.
    for (auto it = impl_->registry.begin(); it != impl_->registry.end();) {
      it = it->second.expired() ? impl_->registry.erase(it) : std::next(it);
    }
  }
  return TargetVersion(std::move(next));
}

MutableTarget Solver::mutate() {
  return MutableTarget(this, impl_->pin_current()->graph.num_vertices());
}

Result<TargetVersion> Solver::insert_edge(Vertex u, Vertex v) {
  EditScript script;
  script.insert_edge(u, v);
  return apply(script);
}

Result<TargetVersion> Solver::remove_edge(Vertex u, Vertex v) {
  EditScript script;
  script.remove_edge(u, v);
  return apply(script);
}

Result<TargetVersion> Solver::insert_vertex() {
  EditScript script;
  script.insert_vertex();
  return apply(script);
}

Result<DecisionResult> Solver::find(const iso::Pattern& pattern,
                                    const QueryOptions& options) {
  if (Status status = validate(options); !status.ok()) return status;
  if (Status status = require_connected(pattern, "find"); !status.ok())
    return status;
  Impl::Snapshot snap;
  if (Status status = impl_->pin(options.at, &snap); !status.ok())
    return status;
  return impl_->decide(
      *snap, pattern,
      [&](std::uint32_t r) {
        return decision_key(*snap, pattern,
                            support::hash_combine(options.seed, r));
      },
      options);
}

Result<DecisionResult> Solver::find_once(const iso::Pattern& pattern,
                                         std::uint64_t run_seed,
                                         const QueryOptions& options) {
  if (Status status = validate(options); !status.ok()) return status;
  Impl::Snapshot snap;
  if (Status status = impl_->pin(options.at, &snap); !status.ok())
    return status;
  const Budget budget(options);
  if (Status status = budget.check({}); !status.ok())
    return {std::move(status), DecisionResult{}};
  Status interrupt;
  DecisionResult one;
  try {
    const CoverKey key = decision_key(*snap, pattern, run_seed);
    one.found = impl_->solve_wave(*snap, {&key, 1}, pattern, options, budget,
                                  &one, &interrupt);
  } catch (...) {
    return {contained_status(), std::move(one)};
  }
  if (!interrupt.ok()) return {std::move(interrupt), std::move(one)};
  return one;
}

Result<ListingResult> Solver::list(const iso::Pattern& pattern,
                                   const QueryOptions& options) {
  if (Status status = validate(options); !status.ok()) return status;
  if (Status status = require_connected(pattern, "list"); !status.ok())
    return status;
  Impl::Snapshot snap;
  if (Status status = impl_->pin(options.at, &snap); !status.ok())
    return status;
  const detail::VersionState& ver = *snap;
  const Budget budget(options);
  ListingResult result;
  if (Status status = budget.check(result.metrics); !status.ok())
    return {std::move(status), std::move(result)};
  std::set<Assignment> all;
  const double lgn =
      std::log2(static_cast<double>(ver.graph.num_vertices()) + 2.0);
  std::uint32_t streak = 0;
  std::uint32_t j = 0;
  const std::uint32_t d = std::max(1u, pattern.diameter());
  Status interrupted;
  try {
    while (all.size() < options.list_limit) {
      ++j;
      CoverKey key;
      key.d = d;
      key.k = pattern.size();
      key.seed = support::hash_combine(options.seed, 0x11570 + j);
      key.version = ver.id;
      const CoverAccess access =
          impl_->acquire_cover(ver, key, options.decomposition);
      if (access.built_cover) result.metrics.absorb(access.cover->metrics);
      const std::size_t before = all.size();
      // The iteration stats meter the DP solve work (the dominant cost)
      // into the listing's metrics so bench accounting and the max_work
      // budget see it, not just the cover builds.
      DecisionResult iteration;
      const RunCover run{access.cover, access.tds};
      solve_all_slices({&run, 1}, pattern, options, budget, {}, &iteration,
                       &all, options.list_limit, &interrupted);
      result.metrics.absorb(iteration.metrics);
      if (!interrupted.ok()) break;  // mid-cover preemption (token/deadline)
      streak = all.size() == before ? streak + 1 : 0;
      // Observation 2 / Theorem 4.2: stop once no new occurrence appeared
      // for log2(j) + Theta(log n) iterations in a row.
      const auto threshold = static_cast<std::uint32_t>(
          std::ceil(std::log2(static_cast<double>(j) + 1.0) + lgn)) +
          options.stopping_slack;
      if (streak >= threshold) break;
      if (interrupted = budget.check(result.metrics); !interrupted.ok()) break;
    }
  } catch (...) {
    result.iterations = j;
    result.occurrences.assign(all.begin(), all.end());
    return {contained_status(), std::move(result)};
  }
  result.iterations = j;
  result.occurrences.assign(all.begin(), all.end());
  if (!interrupted.ok()) return {std::move(interrupted), std::move(result)};
  if (all.size() >= options.list_limit)
    return {Status(StatusCode::kListLimitReached,
                   "listing stopped at QueryOptions::list_limit; the "
                   "occurrence set may be incomplete"),
            std::move(result)};
  return result;
}

Result<CountResult> Solver::count(const iso::Pattern& pattern,
                                  const QueryOptions& options) {
  Result<ListingResult> listing = list(pattern, options);
  if (!listing.has_value()) return listing.status();
  CountResult count;
  count.assignments = listing->occurrences.size();
  count.iterations = listing->iterations;
  count.metrics = listing->metrics;
  // Distinct subgraphs: dedupe by the sorted list of edge images.
  try {
    std::set<std::vector<std::uint64_t>> images;
    for (const Assignment& a : listing->occurrences) {
      std::vector<std::uint64_t> edges;
      for (Vertex u = 0; u < pattern.size(); ++u) {
        for (Vertex v : pattern.graph().neighbors(u)) {
          if (v < u) continue;
          const Vertex x = std::min(a[u], a[v]);
          const Vertex y = std::max(a[u], a[v]);
          edges.push_back((static_cast<std::uint64_t>(x) << 32) | y);
        }
      }
      std::sort(edges.begin(), edges.end());
      images.insert(std::move(edges));
    }
    count.subgraphs = images.size();
  } catch (...) {
    return {contained_status(), std::move(count)};
  }
  if (!listing.ok()) return {listing.status(), std::move(count)};
  return count;
}

Result<DecisionResult> Solver::find_disconnected(const iso::Pattern& pattern,
                                                 const QueryOptions& options) {
  if (Status status = validate(options); !status.ok()) return status;
  const auto components = pattern.components();
  if (components.size() <= 1) return find(pattern, options);
  Impl::Snapshot snap;
  if (Status status = impl_->pin(options.at, &snap); !status.ok())
    return status;
  const Budget budget(options);
  DecisionResult total;
  if (Status status = budget.check(total.metrics); !status.ok())
    return {std::move(status), std::move(total)};
  const Graph& g = snap->graph;
  if (g.num_vertices() < pattern.size()) return total;
  const auto l = static_cast<std::uint32_t>(components.size());
  // l^k attempts find a fixed occurrence with constant probability
  // (Lemma 4.1); multiply by log n for w.h.p. (capped by max_runs).
  double attempts_d = std::pow(static_cast<double>(l), pattern.size()) *
                      (std::log2(static_cast<double>(g.num_vertices()) + 2.0));
  if (options.max_runs > 0)
    attempts_d = std::min(attempts_d, static_cast<double>(options.max_runs));
  const auto attempts = static_cast<std::uint32_t>(std::min(attempts_d, 1e7));
  // Component patterns and their back maps into the full pattern.
  std::vector<Pattern> parts;
  std::vector<std::vector<std::uint32_t>> back_maps;
  for (const auto& comp : components) {
    std::vector<std::uint32_t> back;
    parts.push_back(pattern.component_pattern(comp, &back));
    back_maps.push_back(std::move(back));
  }
  QueryOptions inner = options;
  inner.max_runs = 3;  // constant success probability per correct coloring
  inner.at = nullptr;  // sub-solvers have their own (single) version
  try {
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    ++total.runs;
    support::Rng rng(support::hash_combine(options.seed, 0xd15c + attempt));
    std::vector<Vertex> color(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      color[v] = static_cast<Vertex>(rng.next_below(l));
    Assignment witness(pattern.size(), kNoVertex);
    bool all_found = true;
    for (std::uint32_t i = 0; i < parts.size(); ++i) {
      std::vector<Vertex> members;
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        if (color[v] == i) members.push_back(v);
      if (members.size() < parts[i].size()) {
        all_found = false;
        break;
      }
      // Each coloring induces a fresh subgraph, so there is nothing to
      // cache across attempts: an ephemeral sub-Solver matches the legacy
      // behavior exactly.
      DerivedGraph sub = induced_subgraph(g, members);
      const std::vector<Vertex> origin_of = std::move(sub.origin_of);
      inner.seed = support::hash_combine(options.seed, attempt * l + i);
      // Sub-queries inherit whatever budget is left, so one component
      // search cannot overshoot the caller's work/deadline bound.
      inner.max_work = budget.remaining_work(total.metrics);
      inner.deadline_seconds = budget.remaining_seconds();
      Solver sub_solver(std::move(sub.graph));
      const Result<DecisionResult> part = sub_solver.find(parts[i], inner);
      total.metrics.absorb(part->metrics);
      total.slices_solved += part->slices_solved;
      if (!part.ok()) return {part.status(), std::move(total)};
      if (!part->found) {
        all_found = false;
        break;
      }
      if (part->witness.has_value()) {
        for (std::uint32_t v = 0; v < parts[i].size(); ++v)
          witness[back_maps[i][v]] = origin_of[(*part->witness)[v]];
      }
    }
    if (all_found) {
      total.found = true;
      if (!options.decision_only) total.witness = witness;
      return total;
    }
    if (Status status = budget.check(total.metrics); !status.ok())
      return {std::move(status), std::move(total)};
  }
  } catch (...) {
    return {contained_status(), std::move(total)};
  }
  return total;
}

Result<DecisionResult> Solver::find_separating(
    const std::vector<std::uint8_t>& in_s, const iso::Pattern& pattern,
    const QueryOptions& options) {
  if (Status status = validate(options); !status.ok()) return status;
  if (Status status = require_connected(pattern, "find_separating");
      !status.ok())
    return status;
  Impl::Snapshot snap;
  if (Status status = impl_->pin(options.at, &snap); !status.ok())
    return status;
  if (in_s.size() != snap->graph.num_vertices())
    return Status::InvalidOptions(
        "find_separating: in_s must mark every target vertex");
  return impl_->decide(
      *snap, pattern,
      [&](std::uint32_t r) {
        CoverKey key = decision_key(
            *snap, pattern, support::hash_combine(options.seed, 0x5e9 + r));
        key.separating = true;
        key.in_s = in_s;
        return key;
      },
      options);
}

Result<connectivity::VertexConnectivityResult> Solver::vertex_connectivity(
    const QueryOptions& options) {
  using connectivity::VertexConnectivityResult;
  if (Status status = validate(options); !status.ok()) return status;
  Impl::Snapshot snap;
  if (Status status = impl_->pin(options.at, &snap); !status.ok())
    return status;
  // Read the capacity before any fvg_mutex work (never nested under it).
  std::size_t capacity;
  {
    const std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    capacity = impl_->cache_capacity;
  }
  if (!snap->embedding.has_value())
    return Status::Unsupported(
        "vertex_connectivity: this Solver was built without an embedding; "
        "construct it from a planar::EmbeddedGraph");
  const Budget budget(options);
  VertexConnectivityResult result;
  if (Status status = budget.check(result.metrics); !status.ok())
    return {std::move(status), std::move(result)};
  try {
  const Graph& g = snap->graph;
  const Vertex n = g.num_vertices();
  if (n <= options.small_cutoff) {
    const connectivity::FlowConnectivityResult flow =
        connectivity::vertex_connectivity_flow(g);
    result.connectivity = flow.connectivity;
    result.witness_cut = flow.min_cut;
    return result;
  }
  if (connected_components(g).count != 1) {
    result.connectivity = 0;
    return result;
  }
  const std::vector<Vertex> cuts = connectivity::articulation_points(g);
  if (!cuts.empty()) {
    result.connectivity = 1;
    result.witness_cut = {cuts.front()};
    return result;
  }
  // 2-connected: probe S-separating cycles in the face-vertex graph, which
  // is built once per *version* and probed through a cached sub-Solver
  // (its cover cache persists across vertex_connectivity calls, and a
  // pinned query probes exactly the snapshot it pinned).
  {
    const std::lock_guard<std::mutex> lock(snap->fvg_mutex);
    if (!snap->fvg_solver) {
      const planar::FaceVertexGraph fvg =
          planar::build_face_vertex_graph(*snap->embedding);
      snap->fvg_num_original = fvg.num_original;
      snap->fvg_in_s.assign(fvg.graph.num_vertices(), 0);
      for (Vertex v = 0; v < fvg.num_original; ++v) snap->fvg_in_s[v] = 1;
      snap->fvg_solver = std::make_unique<Solver>(fvg.graph);
      snap->fvg_solver->set_cache_capacity(capacity);
    }
  }
  QueryOptions probe = options;
  probe.at = nullptr;  // the sub-solver has its own (single) version
  for (std::uint32_t c = 2; c <= 4; ++c) {
    const iso::Pattern cycle =
        iso::Pattern::from_graph(gen::cycle_graph(2 * c));
    probe.seed = support::hash_combine(options.seed, c);
    // Each probe inherits whatever budget is left, so a single cycle probe
    // (itself a full find_separating run loop) cannot overshoot it.
    probe.max_work = budget.remaining_work(result.metrics);
    probe.deadline_seconds = budget.remaining_seconds();
    const Result<DecisionResult> probed =
        snap->fvg_solver->find_separating(snap->fvg_in_s, cycle, probe);
    result.metrics.absorb(probed->metrics);
    result.cycle_runs += probed->runs;
    if (!probed.ok()) return {probed.status(), std::move(result)};
    if (probed->found) {
      result.connectivity = c;
      if (probed->witness.has_value()) {
        for (const Vertex image : *probed->witness) {
          if (image < snap->fvg_num_original)
            result.witness_cut.push_back(image);
        }
        std::sort(result.witness_cut.begin(), result.witness_cut.end());
        // Degenerate separating cycles (e.g. both faces of one edge on a
        // 2-face graph) separate G' by exhausting the faces without the
        // originals being a cut of G; verify and drop such witnesses.
        // The connectivity *value* is unaffected (Lemma 5.1).
        std::vector<Vertex> keep;
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          if (!std::binary_search(result.witness_cut.begin(),
                                  result.witness_cut.end(), v)) {
            keep.push_back(v);
          }
        }
        if (keep.size() < 2 ||
            connected_components(induced_subgraph(g, keep).graph).count < 2) {
          result.witness_cut.clear();
        }
      }
      return result;
    }
    if (Status status = budget.check(result.metrics); !status.ok())
      return {std::move(status), std::move(result)};
  }
  // No separating C4/C6/C8: Euler's formula caps planar connectivity at 5.
  result.connectivity = 5;
  return result;
  } catch (...) {
    return {contained_status(), std::move(result)};
  }
}

std::vector<Result<DecisionResult>> Solver::find_batch(
    std::span<const iso::Pattern> patterns, const QueryOptions& options) {
  std::vector<Result<DecisionResult>> out(patterns.size());
  if (Status status = validate(options); !status.ok()) {
    for (auto& slot : out) slot = status;
    return out;
  }
  // Pin once for the whole batch: every query runs against the same
  // snapshot even if an edit commits mid-batch (per-query pin validation
  // still happens inside find()).
  const TargetVersion pinned =
      options.at != nullptr ? *options.at : current_version();
  QueryOptions inner = options;
  inner.at = &pinned;
  // Queries share the cover cache: patterns with equal (diameter, size)
  // and the common per-run seeds resolve to the same memoized covers, so
  // whichever task gets there first builds and the rest reuse.
  //
  // One query task per pattern on the executor: the nested slice and path
  // tasks each query spawns join the same workers, so a lone large query
  // in the batch still uses every idle thread.
  support::TaskGraph graph;
  for (std::size_t i = 0; i < patterns.size(); ++i)
    graph.add([&, i] { out[i] = find(patterns[i], inner); });
  // find() contains its own failures per slot; what Scheduler::run can
  // still rethrow is a failure *outside* any find (an injected
  // scheduler.task fault, a result-move allocation failure). Slots whose
  // task never completed are still kEmpty — resolve them to the contained
  // status so every slot of the batch carries a definitive answer.
  try {
    support::Scheduler::run(graph);
  } catch (...) {
    const Status status = contained_status();
    for (auto& slot : out) {
      if (slot.status().code() == StatusCode::kEmpty)
        slot = Result<DecisionResult>(status, DecisionResult{});
    }
  }
  return out;
}

// The async entry points share one shape: validate the Admission, allocate
// the rendezvous state, point the query's cancellation at its token (the
// PendingResult owns the query's lifetime, so its token overrides any
// caller-supplied one), and run the blocking twin detached on the serving
// pool at the admission class's priority. Two deadlines with distinct
// jobs: the Admission queueing deadline arms HERE, at submission — a query
// it catches still waiting when a serving thread picks it up resolves to
// kShed with zero work — while the relative QueryOptions execution
// deadline arms inside the blocking call, i.e. when execution starts, so
// queue time does not consume execution budget and admitted results stay
// bit-identical to the blocking API. async_begin/async_end bracket the
// detached query so ~Solver can drain.

namespace {

/// Already-resolved rejection handle (invalid Admission).
template <typename T>
PendingResult<T> rejected_async(Status status) {
  auto shared = std::make_shared<detail::PendingShared<T>>();
  shared->set(Result<T>(std::move(status)));
  return PendingResult<T>(std::move(shared));
}

Status shed_status() {
  return {StatusCode::kShed,
          "Admission::deadline_seconds passed before execution started; "
          "the query was shed without doing work"};
}

/// The armed queueing deadline of one detached query (unarmed when the
/// admission has none), shared between submitter and serving thread.
std::shared_ptr<support::DeadlineClock> queue_deadline(
    const Admission& admission) {
  auto clock = std::make_shared<support::DeadlineClock>();
  if (admission.deadline_seconds > 0) clock->arm(admission.deadline_seconds);
  return clock;
}

}  // namespace

PendingResult<DecisionResult> Solver::find_async(iso::Pattern pattern,
                                                 const QueryOptions& options,
                                                 const Admission& admission) {
  if (Status status = ppsi::validate(admission); !status.ok())
    return rejected_async<DecisionResult>(std::move(status));
  auto shared = std::make_shared<detail::PendingShared<DecisionResult>>();
  QueryOptions opts = options;
  opts.cancel = &shared->token;
  // Pin at submit: an apply() landing while this query waits in the
  // serving queue must not change what it sees (api/dynamic.hpp).
  const TargetVersion pinned =
      options.at != nullptr ? *options.at : current_version();
  auto deadline = queue_deadline(admission);
  impl_->async_begin();
  Impl* impl = impl_.get();
  support::Scheduler::submit(
      [this, impl, shared, deadline, pattern = std::move(pattern), opts,
       pinned] {
        if (deadline->expired()) {
          shared->set(Result<DecisionResult>(shed_status(), DecisionResult{}));
        } else {
          QueryOptions exec = opts;
          exec.at = &pinned;
          // Serving-thread backstop: the handle must resolve even if the
          // query throws past its own containment (e.g. out of the entry
          // validation), or the waiter deadlocks and ~Solver never drains.
          try {
            shared->set(find(pattern, exec));
          } catch (...) {
            shared->set(
                Result<DecisionResult>(contained_status(), DecisionResult{}));
          }
        }
        impl->async_end();
      },
      static_cast<int>(admission.priority));
  return PendingResult<DecisionResult>(std::move(shared));
}

PendingResult<ListingResult> Solver::list_async(iso::Pattern pattern,
                                                const QueryOptions& options,
                                                const Admission& admission) {
  if (Status status = ppsi::validate(admission); !status.ok())
    return rejected_async<ListingResult>(std::move(status));
  auto shared = std::make_shared<detail::PendingShared<ListingResult>>();
  QueryOptions opts = options;
  opts.cancel = &shared->token;
  const TargetVersion pinned =
      options.at != nullptr ? *options.at : current_version();
  auto deadline = queue_deadline(admission);
  impl_->async_begin();
  Impl* impl = impl_.get();
  support::Scheduler::submit(
      [this, impl, shared, deadline, pattern = std::move(pattern), opts,
       pinned] {
        if (deadline->expired()) {
          shared->set(Result<ListingResult>(shed_status(), ListingResult{}));
        } else {
          QueryOptions exec = opts;
          exec.at = &pinned;
          try {
            shared->set(list(pattern, exec));
          } catch (...) {
            shared->set(
                Result<ListingResult>(contained_status(), ListingResult{}));
          }
        }
        impl->async_end();
      },
      static_cast<int>(admission.priority));
  return PendingResult<ListingResult>(std::move(shared));
}

PendingResult<CountResult> Solver::count_async(iso::Pattern pattern,
                                               const QueryOptions& options,
                                               const Admission& admission) {
  if (Status status = ppsi::validate(admission); !status.ok())
    return rejected_async<CountResult>(std::move(status));
  auto shared = std::make_shared<detail::PendingShared<CountResult>>();
  QueryOptions opts = options;
  opts.cancel = &shared->token;
  const TargetVersion pinned =
      options.at != nullptr ? *options.at : current_version();
  auto deadline = queue_deadline(admission);
  impl_->async_begin();
  Impl* impl = impl_.get();
  support::Scheduler::submit(
      [this, impl, shared, deadline, pattern = std::move(pattern), opts,
       pinned] {
        if (deadline->expired()) {
          shared->set(Result<CountResult>(shed_status(), CountResult{}));
        } else {
          QueryOptions exec = opts;
          exec.at = &pinned;
          try {
            shared->set(count(pattern, exec));
          } catch (...) {
            shared->set(
                Result<CountResult>(contained_status(), CountResult{}));
          }
        }
        impl->async_end();
      },
      static_cast<int>(admission.priority));
  return PendingResult<CountResult>(std::move(shared));
}

namespace {

/// Adds a face-vertex sub-solver's cumulative counters (resident-state
/// fields excluded for dead versions are included here for live ones,
/// where the entries still exist).
void add_sub_stats(CacheStats* into, const CacheStats& sub) {
  into->cover_hits += sub.cover_hits;
  into->cover_misses += sub.cover_misses;
  into->decomposition_hits += sub.decomposition_hits;
  into->decomposition_misses += sub.decomposition_misses;
  into->cover_evictions += sub.cover_evictions;
  into->cover_entries += sub.cover_entries;
  into->slices_rebuilt += sub.slices_rebuilt;
  into->slices_reused += sub.slices_reused;
  into->stale_covers_purged += sub.stale_covers_purged;
}

}  // namespace

CacheStats Solver::cache_stats() const {
  CacheStats stats;
  stats.cover_hits = impl_->cover_hits.load(std::memory_order_relaxed);
  stats.cover_misses = impl_->cover_misses.load(std::memory_order_relaxed);
  stats.decomposition_hits = impl_->td_hits.load(std::memory_order_relaxed);
  stats.decomposition_misses =
      impl_->td_misses.load(std::memory_order_relaxed);
  stats.cover_evictions = impl_->evictions.load(std::memory_order_relaxed);
  stats.slices_rebuilt = impl_->slices_rebuilt.load(std::memory_order_relaxed);
  stats.slices_reused = impl_->slices_reused.load(std::memory_order_relaxed);
  stats.stale_covers_purged =
      impl_->stale_purged.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    stats.cover_entries = impl_->covers.size();
  }
  std::vector<Impl::Snapshot> live = impl_->live_snapshots();
  {
    const std::lock_guard<std::mutex> lock(impl_->version_mutex);
    stats.versions_committed = impl_->versions_committed;
  }
  stats.live_versions = live.size();
  {
    const std::lock_guard<std::mutex> lock(impl_->ledger->mutex);
    stats.versions_reclaimed = impl_->ledger->reclaimed;
    add_sub_stats(&stats, impl_->ledger->harvested);
  }
  for (const Impl::Snapshot& snap : live) {
    const std::lock_guard<std::mutex> lock(snap->fvg_mutex);
    if (snap->fvg_solver) add_sub_stats(&stats, snap->fvg_solver->cache_stats());
  }
  // Attestations, not counters (add_sub_stats leaves them alone): which
  // SIMD kernel this process dispatches to, and where the *calling*
  // thread's DP scratch arena landed (first-touch node at first growth).
  stats.simd_variant =
      static_cast<std::int64_t>(support::simd::active_variant());
  stats.arena_numa_node = iso::detail::DpScratch::local().arena.numa_node();
  return stats;
}

void Solver::set_cache_capacity(std::size_t max_covers) {
  {
    const std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    impl_->cache_capacity = max_covers;
    // Shrink immediately if the cache already exceeds the new bound.
    while (max_covers > 0 && impl_->covers.size() > max_covers) {
      auto victim = impl_->covers.begin();
      for (auto it = impl_->covers.begin(); it != impl_->covers.end(); ++it) {
        if (it->second->last_used < victim->second->last_used) victim = it;
      }
      impl_->covers.erase(victim);
      impl_->evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (const Impl::Snapshot& snap : impl_->live_snapshots()) {
    const std::lock_guard<std::mutex> lock(snap->fvg_mutex);
    if (snap->fvg_solver) snap->fvg_solver->set_cache_capacity(max_covers);
  }
}

void Solver::clear_cache() {
  {
    const std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    impl_->covers.clear();
  }
  impl_->cover_hits.store(0, std::memory_order_relaxed);
  impl_->cover_misses.store(0, std::memory_order_relaxed);
  impl_->td_hits.store(0, std::memory_order_relaxed);
  impl_->td_misses.store(0, std::memory_order_relaxed);
  impl_->evictions.store(0, std::memory_order_relaxed);
  impl_->slices_rebuilt.store(0, std::memory_order_relaxed);
  impl_->slices_reused.store(0, std::memory_order_relaxed);
  impl_->stale_purged.store(0, std::memory_order_relaxed);
  {
    // The harvested sub-solver counters are cache counters; the version
    // lifecycle counts (committed/reclaimed) deliberately survive.
    const std::lock_guard<std::mutex> lock(impl_->ledger->mutex);
    impl_->ledger->harvested = CacheStats{};
  }
  for (const Impl::Snapshot& snap : impl_->live_snapshots()) {
    const std::lock_guard<std::mutex> lock(snap->fvg_mutex);
    if (snap->fvg_solver) snap->fvg_solver->clear_cache();
  }
}

}  // namespace ppsi
