#include "support/numa.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#if defined(PPSI_HAVE_LIBNUMA)
#include <numa.h>
#endif
#endif  // __linux__

namespace ppsi::support::numa {

namespace {

#if defined(__linux__)

/// Parses a sysfs cpulist ("0-3,8,10-11") into a cpu_set_t. Returns the
/// number of CPUs added (0 on parse failure).
int parse_cpulist(const char* text, cpu_set_t* set) {
  int added = 0;
  const char* p = text;
  while (*p != '\0' && *p != '\n') {
    char* end = nullptr;
    const long lo = std::strtol(p, &end, 10);
    if (end == p || lo < 0 || lo >= CPU_SETSIZE) return 0;
    long hi = lo;
    p = end;
    if (*p == '-') {
      ++p;
      hi = std::strtol(p, &end, 10);
      if (end == p || hi < lo || hi >= CPU_SETSIZE) return 0;
      p = end;
    }
    for (long cpu = lo; cpu <= hi; ++cpu) {
      CPU_SET(static_cast<int>(cpu), set);
      ++added;
    }
    if (*p == ',') ++p;
  }
  return added;
}

int count_nodes() {
  // Online nodes appear as /sys/devices/system/node/nodeN. Probe
  // ascending ids; node directories are dense on Linux.
  int n = 0;
  while (true) {
    const std::string path =
        "/sys/devices/system/node/node" + std::to_string(n) + "/cpulist";
    if (access(path.c_str(), R_OK) != 0) break;
    ++n;
    if (n >= 1024) break;  // defensive
  }
  return n > 0 ? n : 1;
}

#endif  // __linux__

}  // namespace

bool enabled() {
  static const bool on = [] {
    const char* env = std::getenv("PPSI_NUMA");
    return env != nullptr &&
           (std::strcmp(env, "1") == 0 || std::strcmp(env, "ON") == 0 ||
            std::strcmp(env, "on") == 0);
  }();
  return on;
}

int num_nodes() {
#if defined(__linux__)
  static const int n = count_nodes();
  return n;
#else
  return 1;
#endif
}

int current_node() {
#if defined(__linux__)
  unsigned cpu = 0;
  unsigned node = 0;
  if (getcpu(&cpu, &node) != 0) return -1;
  return static_cast<int>(node);
#else
  return -1;
#endif
}

int bind_current_thread(int node) {
#if defined(__linux__)
  if (node < 0 || node >= num_nodes()) return -1;
  const std::string path =
      "/sys/devices/system/node/node" + std::to_string(node) + "/cpulist";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1;
  char buf[4096];
  const bool read_ok = std::fgets(buf, sizeof buf, f) != nullptr;
  std::fclose(f);
  if (!read_ok) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (parse_cpulist(buf, &set) == 0) return -1;
  if (sched_setaffinity(0, sizeof set, &set) != 0) return -1;
#if defined(PPSI_HAVE_LIBNUMA)
  if (::numa_available() >= 0) ::numa_set_preferred(node);
#endif
  return node;
#else
  (void)node;
  return -1;
#endif
}

void widen_narrow_mask(int min_cpus) {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0 ||
      CPU_COUNT(&set) >= min_cpus)
    return;
  CPU_ZERO(&set);
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  for (long cpu = 0; cpu < online && cpu < CPU_SETSIZE; ++cpu)
    CPU_SET(static_cast<int>(cpu), &set);
  (void)sched_setaffinity(0, sizeof set, &set);
#else
  (void)min_cpus;
#endif
}

int preferred_node_for_worker(unsigned long index) {
  const int nodes = num_nodes();
  return nodes > 1 ? static_cast<int>(index % static_cast<unsigned long>(
                                                  nodes))
                   : 0;
}

}  // namespace ppsi::support::numa
