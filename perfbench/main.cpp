// ppsi_perfbench — one part of one perfbench workload.
//
//   ppsi_perfbench --workload NAME --seed N --seconds S --part P
//                  [--trace | --setup-only]
//
// Sets the workload up, runs its timed region for S seconds, checks every
// answer and prints one JSON record of raw observations on stdout (see
// bench.hpp). --setup-only stops after timing the set-up. perfbench/run.py
// starts the parts and turns their records into metrics; running this
// binary alone is for debugging.

#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(static_cast<std::int32_t>(tracer.spans_.size())) {
  Span span;
  span.query = tracer.query_;
  span.name = name;
  span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - tracer.epoch_)
                      .count();
  tracer.spans_.push_back(span);
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           tracer_.epoch_)
          .count();
  tracer_.open_.pop_back();
}

void Record::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

void set_threads(int threads) { omp_set_num_threads(threads); }

int default_threads() {
  static const int threads = omp_get_max_threads();
  return threads;
}

bool valid_witness(const ppsi::Graph& g, const ppsi::iso::Pattern& pattern,
                   const std::vector<ppsi::Vertex>& witness) {
  if (witness.size() != pattern.size()) return false;
  std::set<ppsi::Vertex> images;
  for (const ppsi::Vertex v : witness) {
    if (v >= g.num_vertices() || !images.insert(v).second) return false;
  }
  for (std::uint32_t u = 0; u < pattern.size(); ++u) {
    for (const ppsi::Vertex v : pattern.graph().neighbors(u)) {
      if (!g.has_edge(witness[u], witness[v])) return false;
    }
  }
  return true;
}

namespace {

void json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void json_numbers(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i)
    out << (i ? "," : "") << values[i];
  out << ']';
}

void emit(const Args& args, const Record& record) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":";
  json_string(out, args.workload);
  out << ",\"part\":" << args.part << ",\"threads\":" << default_threads()
      << ",\"setup_s\":" << record.setup_s
      << ",\"measured_s\":" << record.measured_s
      << ",\"attempted\":" << record.attempted
      << ",\"failed\":" << record.failed
      << ",\"peak_rss_mb\":" << record.peak_rss_mb << ",\"query_ms\":";
  json_numbers(out, record.query_ms);
  out << ",\"interactive_ms\":";
  json_numbers(out, record.interactive_ms);
  out << ",\"edit_ms\":";
  json_numbers(out, record.edit_ms);
  out << ",\"failures\":[";
  for (std::size_t i = 0; i < record.failures.size(); ++i) {
    if (i) out << ',';
    json_string(out, record.failures[i]);
  }
  out << "],\"layer\":{";
  bool first = true;
  for (const auto& [name, value] : record.layer) {
    if (!first) out << ',';
    first = false;
    json_string(out, name);
    out << ':' << value;
  }
  out << "},\"traced_queries\":" << record.tracer.queries() << ",\"spans\":[";
  const auto& spans = record.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? "," : "") << '[' << s.query << ",\"" << s.name << "\","
        << s.parent << ',' << s.start_ns << ',' << s.end_ns << ']';
  }
  out << "]}\n";
  std::fputs(out.str().c_str(), stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ppsi_perfbench: %s\nusage: ppsi_perfbench --workload "
               "serve_warm|cold_decide|edit_stream|connectivity --seed N "
               "--seconds S [--part P] [--trace | --setup-only]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args.trace = true;
      continue;
    }
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--part") {
      args.part = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  default_threads();  // latch the starting team size before any override

  Record record;
  if (args.workload == "serve_warm") {
    run_serve_warm(args, record);
  } else if (args.workload == "cold_decide") {
    run_cold_decide(args, record);
  } else if (args.workload == "edit_stream") {
    run_edit_stream(args, record);
  } else if (args.workload == "connectivity") {
    run_connectivity(args, record);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }
  emit(args, record);
  return 0;
}
