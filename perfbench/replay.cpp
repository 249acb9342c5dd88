#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "connectivity/articulation.hpp"
#include "connectivity/flow_connectivity.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "isomorphism/sparse_dp.hpp"
#include "planar/face_vertex_graph.hpp"
#include "support/rng.hpp"
#include "treedecomp/greedy_decomposition.hpp"

namespace perfbench {

using ppsi::Graph;
using ppsi::Vertex;
using ppsi::cover::Slice;
using ppsi::support::hash_combine;

namespace {

// Mirrors of the Solver's defaults (api/solver.cpp, QueryOptions).
constexpr Vertex kSmallCutoff = 8;
constexpr std::uint64_t kSeparatingSeedBase = 0x5e9;

std::uint32_t default_runs(Vertex n) {
  const double lg = std::log2(static_cast<double>(n) + 2.0);
  return static_cast<std::uint32_t>(2.0 * lg) + 4;
}

std::uint64_t slice_signature(const Slice& slice) {
  std::uint64_t h = hash_combine(0x51c3, slice.graph.num_vertices());
  for (Vertex v = 0; v < slice.graph.num_vertices(); ++v) {
    for (const Vertex w : slice.graph.neighbors(v)) h = hash_combine(h, w);
    h = hash_combine(h, slice.origin_of[v]);
  }
  return h;
}

/// Everything the decomposition and the slice solve read.
bool same_slice(const Slice& a, const Slice& b) {
  if (a.graph.num_vertices() != b.graph.num_vertices() ||
      a.graph.num_half_edges() != b.graph.num_half_edges())
    return false;
  for (Vertex v = 0; v < a.graph.num_vertices(); ++v) {
    const auto na = a.graph.neighbors(v);
    const auto nb = b.graph.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return a.origin_of == b.origin_of && a.is_original == b.is_original &&
         a.bfs_root == b.bfs_root && a.spec.enabled == b.spec.enabled &&
         a.spec.in_s == b.spec.in_s && a.spec.allowed == b.spec.allowed;
}

}  // namespace

const ReplayCache::Entry& ReplayCache::acquire(
    const Graph& g, std::uint64_t version, std::uint32_t d, std::uint32_t k,
    std::uint64_t seed, const std::vector<std::uint8_t>* in_s, Tracer& tracer,
    LayerCounts& counts, std::uint64_t* work) {
  using namespace ppsi::treedecomp;
  Entry& entry = entries_[{d, k, seed, in_s != nullptr}];
  const bool hit = entry.ready && entry.version == version;
  ppsi::cover::Cover built;
  {
    const Tracer::Scope span(tracer, "cover");
    if (!hit) {
      const double beta = 2.0 * k;
      built = in_s != nullptr
                  ? ppsi::cover::build_separating_cover(g, *in_s, d, beta,
                                                        seed, k)
                  : ppsi::cover::build_kd_cover(g, d, beta, seed, k);
      *work += built.metrics.work();
      ++counts.cover_builds;
    }
  }
  {
    const Tracer::Scope span(tracer, "treedecomp");
    if (!hit) {
      // Slices identical to the previous version's keep its decomposition.
      std::unordered_multimap<std::uint64_t, std::size_t> donor;
      for (std::size_t i = 0; i < entry.tds.size(); ++i)
        donor.emplace(slice_signature(entry.cover.slices[i]), i);
      decltype(entry.tds) tds(built.slices.size());
      std::uint64_t width = 0;
      for (std::size_t i = 0; i < built.slices.size(); ++i) {
        const Slice& slice = built.slices[i];
        const auto [lo, hi] = donor.equal_range(slice_signature(slice));
        for (auto it = lo; it != hi; ++it) {
          if (same_slice(slice, entry.cover.slices[it->second])) {
            tds[i] = entry.tds[it->second];
            break;
          }
        }
        if (!tds[i]) {
          tds[i] = std::make_shared<const TreeDecomposition>(binarize(
              greedy_decomposition(slice.graph, GreedyStrategy::kMinDegree)));
          ++counts.decompositions;
        }
        width = std::max<std::uint64_t>(
            width, static_cast<std::uint64_t>(tds[i]->width()));
      }
      entry.ready = true;
      entry.version = version;
      entry.width = width;
      entry.cover = std::move(built);
      entry.tds = std::move(tds);
    }
  }
  counts.cover_slices += entry.cover.slices.size();
  counts.width_max = std::max(counts.width_max, entry.width);
  return entry;
}

ReplayOutcome replay_find(const Graph& g, std::uint64_t version,
                          const ppsi::iso::Pattern& pattern,
                          std::uint64_t seed,
                          const std::vector<std::uint8_t>* in_s,
                          ReplayCache& cache, Tracer& tracer,
                          LayerCounts& counts) {
  ReplayOutcome out;
  if (g.num_vertices() < pattern.size()) return out;
  const std::uint32_t d = std::max(1u, pattern.diameter());
  const std::uint32_t runs = default_runs(g.num_vertices());
  for (std::uint32_t r = 0; r < runs && !out.found; ++r) {
    ++out.runs;
    const std::uint64_t run_seed =
        in_s != nullptr ? hash_combine(seed, kSeparatingSeedBase + r)
                        : hash_combine(seed, r);
    const ReplayCache::Entry& entry = cache.acquire(
        g, version, d, pattern.size(), run_seed, in_s, tracer, counts,
        &out.work);
    for (std::size_t i = 0; i < entry.cover.slices.size(); ++i) {
      const Slice& slice = entry.cover.slices[i];
      if (slice.graph.num_vertices() < pattern.size()) continue;
      ppsi::iso::DpSolution sol;
      {
        const Tracer::Scope span(tracer, "iso.dp");
        ppsi::iso::DpOptions dp;
        dp.spec = slice.spec;
        sol = ppsi::iso::solve_sparse(slice.graph, *entry.tds[i], pattern, dp);
      }
      out.work += sol.metrics.work();
      counts.dp_work += sol.metrics.work();
      ++counts.slices_solved;
      for (const auto& node : sol.nodes) counts.states += node.states.size();
      if (!sol.accepted) continue;
      ++counts.slices_accepting;
      out.found = true;
      const Tracer::Scope span(tracer, "iso.recover");
      const auto assignments =
          ppsi::iso::recover_assignments(sol, *entry.tds[i], 1);
      if (!assignments.empty()) {
        out.witness = assignments.front();
        for (Vertex& image : out.witness) image = slice.origin_of[image];
      }
      break;
    }
  }
  return out;
}

ConnectivityReplay replay_vertex_connectivity(
    const ppsi::planar::EmbeddedGraph& eg, std::uint64_t seed, Tracer& tracer,
    LayerCounts& counts) {
  ConnectivityReplay out;
  const Graph& g = eg.graph();
  if (g.num_vertices() <= kSmallCutoff) {
    out.connectivity =
        ppsi::connectivity::vertex_connectivity_flow(g).connectivity;
    return out;
  }
  if (ppsi::connected_components(g).count != 1) return out;
  if (!ppsi::connectivity::articulation_points(g).empty()) {
    out.connectivity = 1;
    return out;
  }
  ppsi::planar::FaceVertexGraph fvg;
  {
    const Tracer::Scope span(tracer, "planar.fvg");
    fvg = ppsi::planar::build_face_vertex_graph(eg);
  }
  std::vector<std::uint8_t> in_s(fvg.graph.num_vertices(), 0);
  for (Vertex v = 0; v < fvg.num_original; ++v) in_s[v] = 1;
  ReplayCache cache;  // the face-vertex sub-solver starts cold
  for (std::uint32_t c = 2; c <= 4; ++c) {
    const auto cycle =
        ppsi::iso::Pattern::from_graph(ppsi::gen::cycle_graph(2 * c));
    const ReplayOutcome probe =
        replay_find(fvg.graph, 1, cycle, hash_combine(seed, c), &in_s, cache,
                    tracer, counts);
    ++counts.probes;
    counts.cycle_runs += probe.runs;
    out.work += probe.work;
    if (probe.found) {
      out.connectivity = c;
      return out;
    }
  }
  out.connectivity = 5;
  return out;
}

}  // namespace perfbench
