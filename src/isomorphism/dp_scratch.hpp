#pragma once

// Per-thread reusable working storage for the DP engines.
//
// solve_node_exact and solve_path previously allocated their working sets
// per node / per path (candidate-state vectors, hash maps, the match-DAG
// adjacency, BFS frontiers). One DpScratch lives per thread (the executor
// keeps its workers alive across queries), is prepared once per solve from
// (k, max_bag), and is *acquired* — cleared with capacity kept — at each
// use. After the first queries of a given shape the buffers stop growing
// and the engines run with zero steady-state scratch allocation; the
// embedded ScratchArena (support/arena.hpp) counts growth events and the
// footprint high-water mark, which solves surface through
// support::Metrics (allocs / scratch_peak_bytes).
//
// Output storage (SolvedNode's state array and CSR signature groups) is
// not scratch: it persists in the DpSolution and is sized exactly and
// written once per node. The sparse engine's dedup table is scratch: it
// lives here, is reused by every node the thread solves, and is emptied
// after each node in O(that node's states) — never by a sweep of its
// high-water bucket array.
//
// Staging invariant. The sparse engine stages a node's states in
// exact_states/sparse_index under a StagingScope (sparse_dp.cpp), and a
// heavy join node's chunks stage in the scratch of whichever thread runs
// them — the forking thread's own included, since a thread waiting in
// Scheduler::fork()/run() executes tasks of that run. A thread therefore
// never waits in fork()/run() while it holds its StagingScope: join
// preparation and the chunk fork happen before the node's scope opens,
// and build_sig_groups (which may fork) after it closed. Chunk outputs go
// to chunk_states slots of the forking thread's scratch, one per chunk,
// sized before the fork and read back only after it joined.

#include <cstdint>
#include <utility>
#include <vector>

#include "isomorphism/state_enumeration.hpp"
#include "support/arena.hpp"
#include "support/flat_table.hpp"

namespace ppsi::iso::detail {

using StateIndexMap = support::FlatMap<StateKey, StateKeyHash>;

/// Per-path-node bookkeeping of solve_path (plain data so the array is
/// reusable scratch).
struct PathNodeMeta {
  std::uint32_t id = 0;          ///< treedecomp::NodeId
  std::uint32_t base = 0;        ///< first DAG vertex id of this node
  std::uint32_t side = 0;        ///< side-child NodeId (valid when has_side)
  std::uint64_t side_shared = 0;
  std::uint64_t path_shared = 0;
  const StateKey* states = nullptr;  ///< candidate states (span)
  std::uint32_t num_states = 0;
  bool has_side = false;
};

struct DpScratch {
  support::ScratchArena arena;

  // solve_node_exact / solve_sparse: a node's states, staged before the
  // exact-sized copy into the SolvedNode, and (sparse) their dedup table.
  std::vector<StateKey> exact_states;
  StateIndexMap sparse_index;

  // build_sig_groups: (signature, state index) pairs fed to SigIndex, and
  // the merge buffer of their parallel_sort.
  std::vector<std::pair<StateKey, std::uint32_t>> sig_pairs;
  std::vector<std::pair<StateKey, std::uint32_t>> sig_sort_buffer;

  // solve_sparse joins: the right child's signatures keyed for the join
  // (sorted, with their parallel_sort merge buffer), each left signature's
  // [lo, hi) range of equal keys in join_pairs, and a heavy join's chunk
  // boundaries (left-signature indices) and per-chunk staged states.
  std::vector<std::pair<std::uint64_t, StateKey>> join_pairs;
  std::vector<std::pair<std::uint64_t, StateKey>> join_sort_buffer;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> join_ranges;
  std::vector<std::uint32_t> chunk_bounds;
  std::vector<std::vector<StateKey>> chunk_states;

  // solve_path: per-node candidate states and index (slot j of the path),
  // the flat match-DAG edge list and its CSR form, translation targets,
  // per-junction projection map, shortcut forest, and the BFS state.
  std::vector<PathNodeMeta> path_meta;
  std::vector<std::vector<StateKey>> path_states;
  std::vector<StateIndexMap> path_index;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> edge_offsets;
  std::vector<std::uint32_t> edge_cursor;
  std::vector<std::uint32_t> edge_targets;
  std::vector<std::uint32_t> translate_target;
  StateIndexMap pi_map;
  std::vector<std::uint32_t> forest_parent;
  std::vector<char> reachable;
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> next_frontier;
  std::vector<std::uint32_t> marked;

  /// Tracked bytes of the chunk output slots (settle() bookkeeping).
  std::size_t chunk_bytes() const {
    std::size_t bytes = support::ScratchArena::bytes_of(chunk_states);
    for (const std::vector<StateKey>& slot : chunk_states)
      bytes += support::ScratchArena::bytes_of(slot);
    return bytes;
  }

  /// Grows the per-path-node slot arrays to n without discarding the
  /// capacity already learned by existing slots. Call before taking slot
  /// references (growth moves the outer arrays).
  void ensure_slots(std::size_t n) {
    if (path_states.size() < n || path_index.size() < n) grow_slots(n);
  }
  /// Slot j of the per-path-node buffers (ensure_slots(j + 1) first).
  std::vector<StateKey>& states_slot(std::size_t j) {
    path_states[j].clear();
    return path_states[j];
  }
  StateIndexMap& index_slot(std::size_t j) {
    path_index[j].clear();
    return path_index[j];
  }

  /// The calling thread's scratch (thread-local, reused across queries).
  static DpScratch& local();

 private:
  void grow_slots(std::size_t n);
};

}  // namespace ppsi::iso::detail
