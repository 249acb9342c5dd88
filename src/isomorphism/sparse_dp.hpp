#pragma once

// Output-sensitive bottom-up DP ("sparse engine").
//
// solve_sequential/solve_parallel realize the paper's per-node cost: they
// enumerate all (|bag|+2)^k locally valid partial matches and filter by
// child support. This engine instead *generates* exactly the supported
// states from the children's signature sets: it joins the two signature
// sets on their shared-position restriction, derives the forced base state
// of each compatible pair, and enumerates only the genuinely free choices
// (new matches on bag-only vertices, labels of unconstrained components).
// The resulting per-node state sets are identical to solve_sequential's
// (tested), but the work is proportional to the states that actually exist
// — the difference between hours and seconds on the vertex-connectivity
// workloads (separating C8 probes).
//
// Nodes are solved bottom-up, one after another; the parallelism is inside
// a node (one PRAM round over its independent signature pairs, as in the
// paper's per-node DP step):
//   * join preparation — keying the right child's signatures, sorting them
//     (support::parallel_sort) and locating each left signature's key range
//     — runs as parallel loops, inline below their grain;
//   * a heavy join (at least detail::kForkPairs pairs, width > 1) splits
//     its left signatures into at most 4 x width chunks of about equal pair
//     count, forked on the executor. Each chunk stages and deduplicates its
//     states in its own thread's scratch; the forking thread then re-emits
//     the chunk outputs in chunk order through its own dedup table, keeping
//     first occurrences, which is exactly the serial walk's emission order;
//   * signature grouping (detail::build_sig_groups, shared with the other
//     engines) projects a node of support::kDefaultGrain states or more in
//     parallel and sorts with support::parallel_sort.
// States, their order, signature groups, accounted work and rounds are
// therefore identical at every width; a light node, or width 1, runs the
// serial walk. Every chunk polls the cancel scope first, so a cancelled or
// obsolete slice also stops inside a heavy node.

#include <cstdint>

#include "isomorphism/sequential_dp.hpp"

namespace ppsi::iso {

/// Sparse counterpart of solve_sequential; `td` must be binary.
DpSolution solve_sparse(const Graph& g,
                        const treedecomp::TreeDecomposition& td,
                        const Pattern& pattern, const DpOptions& options);

namespace detail {

/// Join pairs from which a node forks into chunks. A pair costs ~100 ns
/// (plain) to ~160 ns (separating), so a forked join holds at least
/// ~0.4 ms of expansion. On 4 cores vertex connectivity gained as much at
/// 4096 as at 2048, and at 4096 the short plain-pattern joins of serving
/// and edit workloads (~0.15 ms) stay inline.
inline constexpr std::uint64_t kForkPairs = 4096;

/// (left, right) signature pairs the join at node `x` of a solved `td`
/// expands (0 unless x has two children; their signature groups must
/// still be held, i.e. solved without release_interior).
std::uint64_t join_pair_count(const DpSolution& solution,
                              const treedecomp::TreeDecomposition& td,
                              treedecomp::NodeId x);

}  // namespace detail

}  // namespace ppsi::iso
