#pragma once

// Layer-by-layer replay of the Solver's decision queries, for the traced
// run. It calls each layer's public functions in the order
// Solver::find / find_separating / vertex_connectivity use them:
//
//   cover::build_kd_cover | build_separating_cover   (span "cover")
//   treedecomp::greedy_decomposition + binarize      (span "treedecomp")
//   iso::solve_sparse per slice, in slice order      (span "iso.dp")
//   iso::recover_assignments on the accepting slice  (span "iso.recover")
//   planar::build_face_vertex_graph                  (span "planar.fvg")
//
// with the Solver's parameters (beta = 2k, min slice size k, run seeds
// hash_combine(seed, r) or hash_combine(seed, 0x5e9 + r), 2 log2(n+2) + 4
// runs). The accounted work it sums must equal the Solver's
// metrics.work() for the same query; the traced run fails otherwise.

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "cover/kd_cover.hpp"
#include "graph/graph.hpp"
#include "isomorphism/pattern.hpp"
#include "planar/rotation_system.hpp"
#include "treedecomp/tree_decomposition.hpp"

namespace perfbench {

/// Counters the replay accumulates at the layer boundaries.
struct LayerCounts {
  std::uint64_t cover_builds = 0;
  std::uint64_t cover_slices = 0;    ///< slices of the covers queries used
  std::uint64_t decompositions = 0;  ///< slice decompositions built
  std::uint64_t width_max = 0;
  std::uint64_t dp_work = 0;
  std::uint64_t slices_solved = 0;
  std::uint64_t slices_accepting = 0;
  std::uint64_t states = 0;  ///< DP states stored over all solved nodes
  std::uint64_t probes = 0;  ///< separating-cycle probes
  std::uint64_t cycle_runs = 0;
};

/// The replay's counterpart of the Solver's cover cache: per cover
/// parameter set, the newest target version's cover and its slice
/// decompositions. A lookup for the same version reuses both; a newer
/// version rebuilds the cover and re-decomposes only the slices that differ
/// from the previous version's, as the Solver's delta invalidation does.
class ReplayCache {
 public:
  struct Entry {
    bool ready = false;
    std::uint64_t version = 0;
    std::uint64_t width = 0;  ///< widest slice decomposition
    ppsi::cover::Cover cover;
    std::vector<std::shared_ptr<const ppsi::treedecomp::TreeDecomposition>>
        tds;
  };

  /// Returns the entry for (d, k, seed), building or refreshing it for
  /// `version`. Adds the cover's accounted work to `*work` when built.
  const Entry& acquire(const ppsi::Graph& g, std::uint64_t version,
                       std::uint32_t d, std::uint32_t k, std::uint64_t seed,
                       const std::vector<std::uint8_t>* in_s, Tracer& tracer,
                       LayerCounts& counts, std::uint64_t* work);

 private:
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, bool>,
           Entry>
      entries_;
};

struct ReplayOutcome {
  bool found = false;
  std::uint64_t work = 0;  ///< accounted work, as Result::metrics.work()
  std::uint32_t runs = 0;
  std::vector<ppsi::Vertex> witness;
};

/// Replays Solver::find (in_s == nullptr) or Solver::find_separating with
/// default QueryOptions and the given seed against `g` at `version`.
ReplayOutcome replay_find(const ppsi::Graph& g, std::uint64_t version,
                          const ppsi::iso::Pattern& pattern,
                          std::uint64_t seed,
                          const std::vector<std::uint8_t>* in_s,
                          ReplayCache& cache, Tracer& tracer,
                          LayerCounts& counts);

struct ConnectivityReplay {
  std::uint32_t connectivity = 0;
  std::uint64_t work = 0;
};

/// Replays Solver::vertex_connectivity with default QueryOptions and the
/// given seed on a fresh Solver.
ConnectivityReplay replay_vertex_connectivity(
    const ppsi::planar::EmbeddedGraph& eg, std::uint64_t seed, Tracer& tracer,
    LayerCounts& counts);

}  // namespace perfbench
