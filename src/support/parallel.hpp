#pragma once

// Fork-join primitives realizing the paper's CREW PRAM steps on the
// process-wide executor (support/scheduler.hpp). A loop of at least
// `grain` items splits into num_threads() contiguous static blocks (the
// first `count % blocks` one item longer); smaller loops run inline. Every
// primitive is deterministic: results depend on the inputs and the width,
// never on the schedule (randomized algorithms draw from per-index RNG
// streams, see rng.hpp). A failure in any block is rethrown on the caller.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/scheduler.hpp"

namespace ppsi::support {

/// Grain below which parallel loops fall back to serial execution.
inline constexpr std::size_t kDefaultGrain = 2048;

/// Number of blocks a loop of `count` items with `grain` splits into.
inline std::size_t parallel_width(std::size_t count, std::size_t grain) {
  return count < grain ? 1 : std::min<std::size_t>(count, num_threads());
}

/// Calls f(block, lo, hi) for each of `blocks` contiguous static blocks of
/// [begin, end), in parallel; `blocks` must not exceed end - begin.
template <typename F>
void parallel_blocks(std::size_t begin, std::size_t end, std::size_t blocks,
                     F&& f) {
  const std::size_t q = (end - begin) / blocks;
  const std::size_t r = (end - begin) % blocks;
  auto block = [&](std::size_t t) {
    const std::size_t lo = begin + t * q + std::min(t, r);
    f(t, lo, lo + q + (t < r ? 1 : 0));
  };
  if (blocks == 1) return block(0);  // inline, no executor round trip
  Scheduler::fork(blocks, ForkBody(block));
}

/// Applies f(i) for i in [begin, end). One PRAM round over `end - begin`
/// items; f must be safe to run concurrently for distinct i.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& f,
                  std::size_t grain = kDefaultGrain) {
  if (end <= begin) return;
  parallel_blocks(begin, end, parallel_width(end - begin, grain),
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) f(i);
                  });
}

/// One per-block accumulator slot, padded to a cache line so adjacent
/// blocks' partials never share one (the unpadded layout made every
/// partial-write a coherence miss on its neighbors).
template <typename T>
struct alignas(alignof(T) > 64 ? alignof(T) : 64) PaddedAccumulator {
  T value;
};

/// Parallel reduction of f(i) over [begin, end) with a commutative,
/// associative combiner; `identity` is the combiner's neutral element.
template <typename T, typename F, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, F&& f,
                  Combine&& combine, std::size_t grain = kDefaultGrain) {
  if (end <= begin) return identity;
  const std::size_t blocks = parallel_width(end - begin, grain);
  std::vector<PaddedAccumulator<T>> partial(blocks,
                                            PaddedAccumulator<T>{identity});
  parallel_blocks(begin, end, blocks,
                  [&](std::size_t t, std::size_t lo, std::size_t hi) {
                    T acc = identity;
                    for (std::size_t i = lo; i < hi; ++i)
                      acc = combine(acc, f(i));
                    partial[t].value = acc;
                  });
  T acc = identity;
  for (const PaddedAccumulator<T>& p : partial) acc = combine(acc, p.value);
  return acc;
}

/// Sum reduction convenience wrapper.
template <typename T, typename F>
T parallel_sum(std::size_t begin, std::size_t end, F&& f) {
  return parallel_reduce<T>(begin, end, T{}, std::forward<F>(f),
                            [](T a, T b) { return a + b; });
}

/// Exclusive prefix sum of `values` in place; returns the total.
/// Two-pass blocked scan (O(n) work, O(log n) PRAM depth shape).
template <typename T>
T exclusive_scan_inplace(std::vector<T>& values) {
  const std::size_t n = values.size();
  if (n == 0) return T{};
  const std::size_t blocks = parallel_width(n, kDefaultGrain);
  std::vector<T> block_total(blocks, T{});
  parallel_blocks(0, n, blocks,
                  [&](std::size_t b, std::size_t lo, std::size_t hi) {
                    T acc{};
                    for (std::size_t i = lo; i < hi; ++i) acc += values[i];
                    block_total[b] = acc;
                  });
  T total{};
  for (T& t : block_total) total += std::exchange(t, total);
  parallel_blocks(0, n, blocks,
                  [&](std::size_t b, std::size_t lo, std::size_t hi) {
                    T acc = block_total[b];
                    for (std::size_t i = lo; i < hi; ++i) {
                      const T v = values[i];
                      values[i] = acc;
                      acc += v;
                    }
                  });
  return total;
}

/// Returns the indices i in [0, n) with keep(i), in increasing order.
/// Parallel pack via per-block counting + scan.
template <typename Pred>
std::vector<std::uint32_t> pack_indices(std::size_t n, Pred&& keep) {
  std::vector<std::uint32_t> flags(n);
  parallel_for(0, n, [&](std::size_t i) { flags[i] = keep(i) ? 1u : 0u; });
  std::vector<std::uint32_t> pos = flags;
  const std::uint32_t total = exclusive_scan_inplace(pos);
  std::vector<std::uint32_t> out(total);
  parallel_for(0, n, [&](std::size_t i) {
    if (flags[i]) out[pos[i]] = static_cast<std::uint32_t>(i);
  });
  return out;
}

/// Sorts `values` ascending by operator<. A vector of at least `grain`
/// items splits into parallel_width() static blocks that sort in parallel,
/// then merge pairwise, the pairs of each round in parallel (an odd run
/// out is carried to the next round), ping-ponging through `buffer`, which
/// is resized to values.size() and may come back holding the input's old
/// storage. Smaller inputs, or width 1, take std::sort inline. Distinct
/// elements give the std::sort order at every width.
template <typename T>
void parallel_sort(std::vector<T>& values, std::vector<T>& buffer,
                   std::size_t grain = kDefaultGrain) {
  const std::size_t n = values.size();
  std::size_t runs = parallel_width(n, grain);
  if (runs == 1) {
    std::sort(values.begin(), values.end());
    return;
  }
  // Run r spans [bounds[r], bounds[r + 1]).
  std::vector<std::size_t> bounds(runs + 1, n);
  parallel_blocks(0, n, runs,
                  [&](std::size_t t, std::size_t lo, std::size_t hi) {
                    bounds[t] = lo;
                    std::sort(values.begin() + lo, values.begin() + hi);
                  });
  buffer.resize(n);
  T* src = values.data();
  T* dst = buffer.data();
  while (runs > 1) {
    const std::size_t merged = (runs + 1) / 2;
    parallel_blocks(0, merged, merged,
                    [&](std::size_t p, std::size_t, std::size_t) {
                      const std::size_t lo = bounds[2 * p];
                      const std::size_t mid = bounds[2 * p + 1];
                      const std::size_t hi = bounds[std::min(2 * p + 2, runs)];
                      std::merge(src + lo, src + mid, src + mid, src + hi,
                                 dst + lo);
                    });
    for (std::size_t p = 0; p < merged; ++p) bounds[p] = bounds[2 * p];
    bounds[merged] = n;
    std::swap(src, dst);
    runs = merged;
  }
  if (src != values.data()) values.swap(buffer);
}

/// Packs values[i] for which keep(i) holds, preserving order.
template <typename T, typename Pred>
std::vector<T> pack_values(const std::vector<T>& values, Pred&& keep) {
  const std::size_t n = values.size();
  std::vector<std::uint32_t> pos(n);
  parallel_for(0, n, [&](std::size_t i) { pos[i] = keep(i) ? 1u : 0u; });
  const std::uint32_t total = exclusive_scan_inplace(pos);
  std::vector<T> out(total);
  parallel_for(0, n, [&](std::size_t i) {
    if (keep(i)) out[pos[i]] = values[i];
  });
  return out;
}

}  // namespace ppsi::support
