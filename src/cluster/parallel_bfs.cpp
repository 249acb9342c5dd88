#include "cluster/parallel_bfs.hpp"

#include <algorithm>
#include <atomic>

#include "support/parallel.hpp"

namespace ppsi::cluster {

BfsResult parallel_bfs(const Graph& g, std::span<const Vertex> sources,
                       support::Metrics* metrics) {
  const Vertex n = g.num_vertices();
  BfsResult out;
  out.dist.assign(n, kUnreached);
  out.parent.assign(n, kNoVertex);
  std::vector<Vertex> frontier;
  frontier.reserve(sources.size());
  for (Vertex s : sources) {
    support::require(s < n, "parallel_bfs: source out of range");
    if (out.dist[s] == kUnreached) {
      out.dist[s] = 0;
      frontier.push_back(s);
    }
  }
  std::uint64_t work = frontier.size();
  std::uint32_t level = 0;
  // Each level expands the frontier in static blocks (one block below the
  // fork-join grain). A vertex joins the block that wins its CAS; blocks
  // append to their own list, kept with its capacity across levels, and
  // the lists concatenate in block order into the next frontier.
  std::vector<std::vector<Vertex>> found;
  while (!frontier.empty()) {
    ++level;
    const std::size_t blocks =
        support::parallel_width(frontier.size(), support::kDefaultGrain);
    found.resize(std::max(found.size(), blocks));
    support::parallel_blocks(
        0, frontier.size(), blocks,
        [&](std::size_t t, std::size_t lo, std::size_t hi) {
          std::vector<Vertex>& local = found[t];
          local.clear();
          for (std::size_t i = lo; i < hi; ++i) {
            const Vertex u = frontier[i];
            for (Vertex w : g.neighbors(u)) {
              std::uint32_t expected = kUnreached;
              std::atomic_ref<std::uint32_t> slot(out.dist[w]);
              if (slot.load(std::memory_order_relaxed) == kUnreached &&
                  slot.compare_exchange_strong(expected, level,
                                               std::memory_order_relaxed)) {
                out.parent[w] = u;
                local.push_back(w);
              }
            }
          }
        });
    for (const Vertex u : frontier) work += g.degree(u);  // edges scanned
    frontier.clear();
    for (std::size_t t = 0; t < blocks; ++t)
      frontier.insert(frontier.end(), found[t].begin(), found[t].end());
  }
  out.num_levels = level;
  if (metrics != nullptr) {
    metrics->add_work(work);
    metrics->add_rounds(level);
  }
  return out;
}

}  // namespace ppsi::cluster
