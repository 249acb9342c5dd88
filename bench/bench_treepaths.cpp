// E6 — Lemma 3.2 / Appendix A: decomposing trees into layered paths.
//
// One case per tree shape and size: counters compare the number of layers
// against the log2(n)+1 bound, and the tree-contraction evaluation's
// synchronous rounds and work come from the instrumented metrics
// (pointer-jumping variant: O(log n)-ish rounds, O(n log n) work; the
// paper's fully work-efficient contraction would shave the log factor).
//
// Erratum (also checked by tests/test_treepath.cpp): the paper's Appendix A
// function family {f_{!=i}, g_{=i}} is NOT closed under composition
// (f_{!=2}(f_{!=1}(x)) for x = 0,1,2,3 gives 2,3,3,3, while the paper's
// table claims f_{!=max(2,1)} = f_{!=2}, which maps 1 -> 2); the
// implementation uses the closed two-parameter family F(a, l).

#include <cmath>
#include <string>

#include "harness/corpus.hpp"
#include "harness/harness.hpp"
#include "support/rng.hpp"
#include "treepath/tree_paths.hpp"

using namespace ppsi;
using bench::Corpus;
using bench::Registry;
using bench::Trial;
using treepath::Forest;
using treepath::kNoNode;
using treepath::NodeId;

namespace {

Forest path_tree(std::size_t n) {
  Forest f;
  f.parent.assign(n, kNoNode);
  for (std::size_t v = 1; v < n; ++v) f.parent[v] = static_cast<NodeId>(v - 1);
  return f;
}

Forest complete_tree(std::size_t n) {
  Forest f;
  f.parent.assign(n, kNoNode);
  for (std::size_t v = 1; v < n; ++v)
    f.parent[v] = static_cast<NodeId>((v - 1) / 2);
  return f;
}

Forest caterpillar(std::size_t n) {
  Forest f;
  f.parent.assign(n, kNoNode);
  const std::size_t spine = n / 2;
  for (std::size_t v = 1; v < spine; ++v)
    f.parent[v] = static_cast<NodeId>(v - 1);
  for (std::size_t v = spine; v < n; ++v)
    f.parent[v] = static_cast<NodeId>(v - spine);
  return f;
}

Forest random_binary(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  Forest f;
  f.parent.assign(n, kNoNode);
  std::vector<int> kids(n, 0);
  for (std::size_t v = 1; v < n; ++v) {
    while (true) {
      const auto p = static_cast<NodeId>(rng.next_below(v));
      if (kids[p] < 2) {
        f.parent[v] = p;
        ++kids[p];
        break;
      }
    }
  }
  return f;
}

void add_case(Registry& reg, const std::string& name, Forest f) {
  reg.add(name, [f = std::move(f)](Trial& trial) {
    support::Metrics metrics;
    treepath::PathDecomposition pd;
    trial.measure([&] {
      const auto layers = treepath::layer_numbers_contraction(f, &metrics);
      pd = treepath::decompose_into_paths(f, layers);
    });
    trial.record(metrics);
    trial.counter("layers", pd.num_layers);
    trial.counter("bound_layers",
                  std::log2(static_cast<double>(f.size())) + 1);
    trial.counter("paths", static_cast<double>(pd.paths.size()));
  });
}

void register_benchmarks(Registry& reg, const Corpus& corpus) {
  for (const std::size_t base : {1000u, 10000u, 100000u}) {
    const std::size_t n = corpus.n(static_cast<Vertex>(base), 64);
    std::string suffix = "/";
    suffix += std::to_string(base);
    add_case(reg, "path" + suffix, path_tree(n));
    add_case(reg, "complete" + suffix, complete_tree(n));
    add_case(reg, "caterpillar" + suffix, caterpillar(n));
    add_case(reg, "random" + suffix, random_binary(n, 42));
  }
}

}  // namespace

int main(int argc, char** argv) {
  return ppsi::bench::run_main(argc, argv, "treepaths", register_benchmarks);
}
