// Unit and property tests for the parallel primitives and RNG streams.

#include <gtest/gtest.h>
#include <omp.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <numeric>
#include <tuple>
#include <thread>
#include <vector>

#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/scheduler.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace ppsi::support {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<int> hits(10000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyAndSingleton) {
  int count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(7, 8, [&](std::size_t i) { count += static_cast<int>(i); });
  EXPECT_EQ(count, 7);
}

TEST(ParallelReduce, MatchesSerialSum) {
  const std::size_t n = 123456;
  const auto value = [](std::size_t i) {
    return static_cast<std::uint64_t>(i * 2654435761u % 1000);
  };
  std::uint64_t serial = 0;
  for (std::size_t i = 0; i < n; ++i) serial += value(i);
  EXPECT_EQ(parallel_sum<std::uint64_t>(0, n, value), serial);
}

TEST(ParallelReduce, MaxCombiner) {
  const auto r = parallel_reduce<std::uint32_t>(
      0, 100000, 0u,
      [](std::size_t i) {
        return static_cast<std::uint32_t>((i * 37) % 54321);
      },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
  std::uint32_t expect = 0;
  for (std::size_t i = 0; i < 100000; ++i)
    expect = std::max(expect, static_cast<std::uint32_t>((i * 37) % 54321));
  EXPECT_EQ(r, expect);
}

class ScanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSizes, ExclusiveScanMatchesSerial) {
  const std::size_t n = GetParam();
  std::vector<std::uint64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = (i * 31 + 7) % 101;
  std::vector<std::uint64_t> expect(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = acc;
    acc += values[i];
  }
  std::vector<std::uint64_t> got = values;
  const std::uint64_t total = exclusive_scan_inplace(got);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(0, 1, 2, 100, 2047, 2048, 2049,
                                           100000));

// parallel_sort at each width: sizes around its grain (below it the sort
// is inline) and one that splits into uneven blocks; width 3 merges three
// runs, so one run is carried over a round.
class ParallelSort
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ParallelSort, MatchesStdSort) {
  const auto [n, width] = GetParam();
  // Distinct elements (unique second field) with many equal keys.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> values(n);
  for (std::size_t i = 0; i < n; ++i)
    values[i] = {splitmix64(i) % 97, static_cast<std::uint32_t>(i)};
  auto expect = values;
  std::sort(expect.begin(), expect.end());
  std::thread worker([&, width = width] {
    omp_set_num_threads(width);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> buffer;
    parallel_sort(values, buffer);
  });
  worker.join();
  EXPECT_EQ(values, expect);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndWidths, ParallelSort,
    ::testing::Combine(::testing::Values(0, 1, kDefaultGrain - 1,
                                         kDefaultGrain, kDefaultGrain + 1,
                                         3 * kDefaultGrain + 7),
                       ::testing::Values(1, 2, 3, 4)));

TEST(Pack, IndicesAndValues) {
  const std::size_t n = 50000;
  const auto keep = [](std::size_t i) { return i % 7 == 3; };
  const auto idx = pack_indices(n, keep);
  std::size_t expect_count = 0;
  for (std::size_t i = 0; i < n; ++i) expect_count += keep(i);
  ASSERT_EQ(idx.size(), expect_count);
  for (std::size_t j = 0; j < idx.size(); ++j) {
    EXPECT_TRUE(keep(idx[j]));
    if (j > 0) {
      EXPECT_LT(idx[j - 1], idx[j]);
    }
  }
  std::vector<int> values(n);
  std::iota(values.begin(), values.end(), 0);
  const auto packed = pack_values(values, keep);
  ASSERT_EQ(packed.size(), expect_count);
  for (std::size_t j = 0; j < packed.size(); ++j)
    EXPECT_EQ(packed[j], static_cast<int>(idx[j]));
}

TEST(Rng, DeterministicPerSeedAndStream) {
  Rng a(42, 7), b(42, 7), c(42, 8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  Rng a2(42, 7);
  for (int i = 0; i < 100; ++i) differs |= a2.next_u64() != c.next_u64();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBelowBound) {
  Rng rng(1);
  for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  const double mean = 8.0;
  double sum = 0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) sum += rng.next_exponential(mean);
  EXPECT_NEAR(sum / samples, mean, 0.15);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Metrics, AbsorbSequentialAndParallel) {
  Metrics total;
  Metrics a, b;
  a.add_work(10);
  a.add_rounds(3);
  b.add_work(20);
  b.add_rounds(5);
  total.absorb(a);
  total.absorb(b);
  EXPECT_EQ(total.work(), 30u);
  EXPECT_EQ(total.rounds(), 8u);
  Metrics par;
  par.absorb_parallel(a);
  par.absorb_parallel(b);
  EXPECT_EQ(par.work(), 30u);
  EXPECT_EQ(par.rounds(), 5u);  // max, not sum
}

TEST(Metrics, AllocAndScratchCountersCompose) {
  Metrics a, b;
  a.add_allocs(2);
  a.note_scratch_peak(100);
  b.add_allocs(3);
  b.note_scratch_peak(70);
  Metrics total;
  total.absorb(a);
  total.absorb(b);
  EXPECT_EQ(total.allocs(), 5u);          // events add
  EXPECT_EQ(total.scratch_peak_bytes(), 100u);  // peaks max-merge
  Metrics par;
  par.absorb_parallel(a);
  par.absorb_parallel(b);
  EXPECT_EQ(par.allocs(), 5u);
  EXPECT_EQ(par.scratch_peak_bytes(), 100u);
  // Copy and reset carry all four counters.
  const Metrics copy = total;
  EXPECT_EQ(copy.allocs(), 5u);
  EXPECT_EQ(copy.scratch_peak_bytes(), 100u);
  total.reset();
  EXPECT_EQ(total.allocs(), 0u);
  EXPECT_EQ(total.scratch_peak_bytes(), 0u);
}

TEST(Stats, SummarizeOddAndEven) {
  const SampleStats odd = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(odd.count, 3u);
  EXPECT_DOUBLE_EQ(odd.min, 1.0);
  EXPECT_DOUBLE_EQ(odd.max, 3.0);
  EXPECT_DOUBLE_EQ(odd.mean, 2.0);
  EXPECT_DOUBLE_EQ(odd.median, 2.0);
  EXPECT_DOUBLE_EQ(odd.stddev, 1.0);

  const SampleStats even = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.mean, 2.5);
}

TEST(Stats, SummarizeDegenerate) {
  const SampleStats empty = summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.median, 0.0);

  const SampleStats one = summarize({7.5});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.median, 7.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);  // undefined for n=1; reported as 0
}

TEST(Stats, ScopedTimerAccumulates) {
  double acc = 0;
  {
    ScopedTimer outer(acc);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  const double first = acc;
  EXPECT_GT(first, 0.0);
  {
    ScopedTimer again(acc);
  }
  EXPECT_GE(acc, first);  // accumulates, never resets
}

TEST(Hashing, SplitmixSpreads) {
  // Adjacent inputs should produce very different outputs.
  std::uint64_t collisions = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if ((splitmix64(i) & 0xffff) == (splitmix64(i + 1) & 0xffff))
      ++collisions;
  }
  EXPECT_LT(collisions, 5u);
}

#if defined(__linux__)
TEST(NumaPlacement, NarrowInheritedMaskIsWidened) {
  // A thread pinned to one CPU (as libgomp pins the initial thread under
  // OMP_PROC_BIND) regains the online CPUs when asked for two; a mask
  // already wide enough is kept.
  cpu_set_t process;
  ASSERT_EQ(sched_getaffinity(0, sizeof process, &process), 0);
  if (CPU_COUNT(&process) < 2) GTEST_SKIP() << "needs two usable CPUs";
  int first = 0;
  while (!CPU_ISSET(first, &process)) ++first;
  std::thread([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    detail::widen_narrow_mask(1);  // one CPU is enough: kept
    cpu_set_t mask;
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    EXPECT_EQ(CPU_COUNT(&mask), 1);
    detail::widen_narrow_mask(2);
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    EXPECT_GE(CPU_COUNT(&mask), 2);
  }).join();
}
#endif

}  // namespace
}  // namespace ppsi::support
