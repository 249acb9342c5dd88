#pragma once

// Shared pieces of the perfbench workload program.
//
// One process runs one part of one workload (perfbench/run.py starts the
// parts one after another and derives every metric). The process prints a
// single JSON record of raw observations: setup time, per-query latency
// samples, failures, peak memory and, on a traced run, the per-layer
// counters and the spans of the layer replay. Percentiles, Little's-law
// waits and span self times are computed from that record by
// perfbench/stats.py, so this side only measures.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "isomorphism/pattern.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;  ///< timed region of this part
  std::uint32_t part = 0;
  bool trace = false;
  bool setup_only = false;  ///< stop after timing the set-up
};

/// One layer-boundary span of the traced replay. Spans of one traced query
/// share `query`; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  std::uint32_t query = 0;
  const char* name = "";
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder; written out once, with the record.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  /// Starts a new traced query; later spans carry its id.
  void begin_query() { ++query_; }
  std::uint32_t queries() const { return query_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t query_ = 0;
};

/// Raw observations of one workload part.
struct Record {
  double setup_s = 0.0;
  double measured_s = 0.0;  ///< wall time of the timed region
  std::vector<double> query_ms;
  std::vector<double> interactive_ms;  ///< serve_warm: kInteractive client
  std::vector<double> edit_ms;         ///< edit_stream: Solver::apply
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  double peak_rss_mb = 0.0;
  /// Traced run only: per-layer counters and the replay's spans.
  std::map<std::string, double> layer;
  Tracer tracer;

  void fail(const std::string& why);
};

/// Peak resident set of this process so far (VmHWM), in MiB.
double peak_rss_mb();

/// Sets the OMP team size of the calling thread's later queries.
void set_threads(int threads);
/// Team size the process started with (OMP_NUM_THREADS or the core count).
int default_threads();

/// True when `witness` is an injective map of the pattern into `g` that
/// sends every pattern edge to an edge of `g`.
bool valid_witness(const ppsi::Graph& g, const ppsi::iso::Pattern& pattern,
                   const std::vector<ppsi::Vertex>& witness);

/// Workload entry points: set up (timed into record.setup_s), run the
/// timed region for args.seconds, check every answer, and on a traced run
/// replay a sample of the queries layer by layer.
void run_serve_warm(const Args& args, Record& record);
void run_cold_decide(const Args& args, Record& record);
void run_edit_stream(const Args& args, Record& record);
void run_connectivity(const Args& args, Record& record);

}  // namespace perfbench
