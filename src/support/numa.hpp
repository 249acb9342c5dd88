#pragma once

// NUMA topology queries and optional explicit thread binding.
//
// The DP scratch arenas (isomorphism/dp_scratch.hpp) are thread_local and
// grow on the thread that uses them, so their pages land on the owning
// worker's NUMA node by first-touch. That placement is only *stable* when
// the workers themselves stay put, so this module adds an opt-in binding
// mode: with PPSI_NUMA=ON (or 1), the executor's worker threads pin
// themselves round-robin across the nodes reported by sysfs
// (sched_setaffinity over the node's cpulist; libnuma, when the build
// found it, additionally sets the preferred allocation node).
//
// Everything degrades gracefully: on single-node hosts binding is a no-op,
// on non-Linux platforms the queries return "unknown" (-1) / 1 node, and
// nothing here is on a hot path (topology is cached after the first call;
// current_node() is one getcpu syscall and is only used to *record*
// placement, once per arena growth).

namespace ppsi::support::numa {

/// True when PPSI_NUMA is set to ON/on/1 (cached at first call).
bool enabled();

/// Number of online NUMA nodes (>= 1; 1 on non-Linux or unknown).
int num_nodes();

/// NUMA node of the CPU this thread is running on, or -1 when unknown.
int current_node();

/// Pins the calling thread to the CPUs of `node` (and, with libnuma,
/// prefers allocations from it). Returns the node on success, -1 on
/// failure or when the platform cannot bind. No-op unless 0 <= node <
/// num_nodes().
int bind_current_thread(int node);

/// Widens the calling thread's CPU mask to every online CPU (clipped by
/// the kernel to the process's cpuset) when it allows fewer than
/// `min_cpus` CPUs. Threads inherit their creator's mask, and libgomp pins
/// the initial thread to one place at startup when OMP_PROC_BIND is set;
/// executor workers created from such a thread would otherwise share one
/// core. A mask at least `min_cpus` wide (e.g. a deliberate taskset) is
/// kept. No-op off Linux.
void widen_narrow_mask(int min_cpus);

/// Round-robin node assignment for executor worker `index`
/// (index % num_nodes(); 0 on single-node hosts).
int preferred_node_for_worker(unsigned long index);

}  // namespace ppsi::support::numa
