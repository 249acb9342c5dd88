// Unit tests of the flat-state storage layer: the open-addressing FlatMap
// (collision chains, growth rehash, exact reserve, clear-with-capacity,
// backward-shift erase and the O(keys) reset of a reused table), the CSR
// SigIndex (grouping, empty/absent lookups, input-order independence), and
// the ScratchArena growth accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "isomorphism/sig_index.hpp"
#include "support/arena.hpp"
#include "support/flat_table.hpp"
#include "support/rng.hpp"

namespace ppsi {
namespace {

using iso::SigIndex;
using iso::StateKey;
using iso::StateKeyHash;
using support::FlatMap;
using support::kFlatNotFound;

struct U64Hash {
  std::size_t operator()(std::uint64_t v) const {
    return support::splitmix64(v);
  }
};

/// Worst case: every key probes from the same slot.
struct CollidingHash {
  std::size_t operator()(std::uint64_t) const { return 42; }
};

TEST(FlatMap, InsertAndFind) {
  FlatMap<std::uint64_t, U64Hash> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), kFlatNotFound);
  EXPECT_TRUE(map.emplace(7, 70));
  EXPECT_TRUE(map.emplace(9, 90));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.find(7), 70u);
  EXPECT_EQ(map.find(9), 90u);
  EXPECT_EQ(map.find(8), kFlatNotFound);
  EXPECT_TRUE(map.contains(7));
  EXPECT_FALSE(map.contains(8));
}

TEST(FlatMap, DuplicateEmplaceKeepsFirstValue) {
  FlatMap<std::uint64_t, U64Hash> map;
  EXPECT_TRUE(map.emplace(5, 1));
  EXPECT_FALSE(map.emplace(5, 2));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(5), 1u);
}

TEST(FlatMap, FullCollisionChainStaysCorrect) {
  FlatMap<std::uint64_t, CollidingHash> map;
  constexpr std::uint32_t kN = 200;
  for (std::uint32_t i = 0; i < kN; ++i)
    ASSERT_TRUE(map.emplace(1000 + i, i));
  EXPECT_EQ(map.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i)
    EXPECT_EQ(map.find(1000 + i), i) << i;
  // Absent keys on the same chain terminate.
  EXPECT_EQ(map.find(999), kFlatNotFound);
  EXPECT_EQ(map.find(1000 + kN), kFlatNotFound);
}

TEST(FlatMap, GrowthRehashPreservesEntries) {
  FlatMap<std::uint64_t, U64Hash> map;  // no reserve: must rehash repeatedly
  support::Rng rng(3);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.next_u64() | 1);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (std::uint32_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE(map.emplace(keys[i], i));
  EXPECT_EQ(map.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(map.find(keys[i]), i);
  // Load factor stays under 7/8 after growth.
  EXPECT_GT(map.bucket_count() * 7 / 8, map.size());
}

TEST(FlatMap, ExactReserveNeverRehashes) {
  FlatMap<std::uint64_t, U64Hash> map;
  constexpr std::size_t kN = 1234;
  map.reserve(kN);
  const std::size_t buckets = map.bucket_count();
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_TRUE(map.emplace(i * 2654435761u + 1, static_cast<std::uint32_t>(i)));
  EXPECT_EQ(map.bucket_count(), buckets);
  EXPECT_EQ(map.size(), kN);
}

TEST(FlatMap, ClearKeepsCapacityAndEmpties) {
  FlatMap<std::uint64_t, U64Hash> map;
  for (std::uint32_t i = 0; i < 100; ++i) map.emplace(i, i);
  const std::size_t buckets = map.bucket_count();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.bucket_count(), buckets);
  EXPECT_EQ(map.find(1), kFlatNotFound);
  EXPECT_TRUE(map.emplace(1, 11));
  EXPECT_EQ(map.find(1), 11u);
}

/// Identity hash: tests place keys on chosen home slots (key & mask).
struct IdentityHash {
  std::size_t operator()(std::uint64_t v) const { return v; }
};

/// Occupied buckets, counted by a walk of the bucket array (a reset that
/// left stale buckets behind would still report size() == 0, and probes
/// from an emptied home slot would not see them).
template <class Map>
std::size_t occupied_buckets(const Map& map) {
  std::size_t n = 0;
  map.for_each([&](auto, std::uint32_t) { ++n; });
  return n;
}

TEST(FlatMap, EraseKeysKeepsTheRestFindableOnACollisionChain) {
  FlatMap<std::uint64_t, CollidingHash> map;
  std::vector<std::uint64_t> keys;
  for (std::uint32_t i = 0; i < 40; ++i) {
    keys.push_back(1000 + i);
    ASSERT_TRUE(map.emplace(keys.back(), i));
  }
  const std::size_t buckets = map.bucket_count();
  // Reset every third key, from the head, middle and tail of the chain.
  std::vector<std::uint64_t> gone, kept;
  for (std::uint32_t i = 0; i < keys.size(); ++i)
    (i % 3 == 0 ? gone : kept).push_back(keys[i]);
  map.erase_keys(gone.data(), gone.size());
  EXPECT_EQ(map.size(), kept.size());
  for (const std::uint64_t key : gone) EXPECT_FALSE(map.contains(key)) << key;
  for (const std::uint64_t key : kept)
    EXPECT_EQ(map.find(key), key - 1000) << key;
  // Resetting the remaining entries empties the table, capacity kept.
  map.erase_keys(kept.data(), kept.size());
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(occupied_buckets(map), 0u);
  EXPECT_EQ(map.bucket_count(), buckets);
  for (const std::uint64_t key : keys) EXPECT_FALSE(map.contains(key)) << key;
  EXPECT_TRUE(map.emplace(keys[5], 5));
  EXPECT_EQ(map.find(keys[5]), 5u);
}

TEST(FlatMap, EraseKeysHandlesClustersThatWrapAround) {
  FlatMap<std::uint64_t, IdentityHash> map;
  map.reserve(32);
  const std::uint64_t b = map.bucket_count();
  // Two interleaved clusters homed on the last two slots: their probe runs
  // wrap past the end of the bucket array into slot 0 and beyond.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t m = 1; m <= 6; ++m) {
    keys.push_back(m * b + b - 1);
    keys.push_back(m * b + b - 2);
  }
  keys.push_back(b + 1);  // homed inside the wrapped run
  for (std::uint32_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE(map.emplace(keys[i], i));
  const std::set<std::uint32_t> dropped = {0, 3, 7, 12};
  for (const std::uint32_t i : dropped) {
    ASSERT_TRUE(map.erase(keys[i]));
    EXPECT_FALSE(map.erase(keys[i]));  // already gone
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(map.find(keys[i]), dropped.count(i) ? kFlatNotFound : i) << i;
  std::vector<std::uint64_t> rest;
  for (std::uint32_t i = 0; i < keys.size(); ++i)
    if (map.contains(keys[i])) rest.push_back(keys[i]);
  map.erase_keys(rest.data(), rest.size());  // all entries: run walks
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(occupied_buckets(map), 0u);
  for (const std::uint64_t key : keys) EXPECT_FALSE(map.contains(key));
}

TEST(FlatMap, EraseMatchesASetModelUnderChurn) {
  FlatMap<std::uint64_t, U64Hash> map;
  std::set<std::uint64_t> model;
  support::Rng rng(11);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_u64() % 512;  // dense: long clusters
    if (rng.next_u64() % 3 == 0) {
      EXPECT_EQ(map.erase(key), model.erase(key) == 1) << step;
    } else {
      EXPECT_EQ(map.emplace(key, static_cast<std::uint32_t>(key)),
                model.insert(key).second)
          << step;
    }
  }
  EXPECT_EQ(map.size(), model.size());
  EXPECT_EQ(occupied_buckets(map), model.size());
  for (std::uint64_t key = 0; key < 512; ++key)
    EXPECT_EQ(map.contains(key), model.count(key) == 1) << key;
}

TEST(FlatMap, ResetOfAHighWaterTableLeavesItEmptyForReuse) {
  // A table sized by a large input, then used for small ones: each reset
  // (all entries, via erase_keys) must leave it empty with capacity kept.
  FlatMap<std::uint64_t, U64Hash> map;
  for (std::uint32_t i = 0; i < 50000; ++i) map.emplace(i * 7919ULL, i);
  std::vector<std::uint64_t> all;
  map.for_each([&](std::uint64_t key, std::uint32_t) { all.push_back(key); });
  map.erase_keys(all.data(), all.size());
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(occupied_buckets(map), 0u);
  const std::size_t buckets = map.bucket_count();
  for (std::uint64_t round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 20; ++i) {
      keys.push_back(round * 1000 + i);
      ASSERT_TRUE(map.emplace(keys.back(), static_cast<std::uint32_t>(i)));
    }
    for (std::uint64_t i = 0; i < 20; ++i)
      ASSERT_EQ(map.find(keys[i]), i);
    map.erase_keys(keys.data(), keys.size());
    ASSERT_TRUE(map.empty()) << round;
    ASSERT_EQ(occupied_buckets(map), 0u) << round;
    for (const std::uint64_t key : keys) ASSERT_FALSE(map.contains(key));
  }
  EXPECT_EQ(map.bucket_count(), buckets);
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce) {
  FlatMap<std::uint64_t, U64Hash> map;
  for (std::uint32_t i = 0; i < 64; ++i) map.emplace(i * 3 + 1, i);
  std::vector<std::uint32_t> seen;
  map.for_each([&](std::uint64_t key, std::uint32_t value) {
    EXPECT_EQ(key, value * 3u + 1u);
    seen.push_back(value);
  });
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 64u);
  for (std::uint32_t i = 0; i < 64; ++i) EXPECT_EQ(seen[i], i);
}

TEST(FlatMap, WorksWithStateKeys) {
  FlatMap<StateKey, StateKeyHash> map;
  const StateKey a{0x12, 0}, b{0x12, 1}, c{0x13, 0};
  map.emplace(a, 0);
  map.emplace(b, 1);
  EXPECT_EQ(map.find(a), 0u);
  EXPECT_EQ(map.find(b), 1u);  // sep distinguishes
  EXPECT_EQ(map.find(c), kFlatNotFound);
}

// ---- SigIndex ----

using SigPairs = std::vector<std::pair<StateKey, std::uint32_t>>;

SigPairs sample_pairs() {
  // Three groups with interleaved discovery order; indices ascend within
  // each group as build_sig_groups produces them.
  return {
      {{5, 0}, 0}, {{3, 0}, 1}, {{5, 0}, 2}, {{9, 1}, 3},
      {{3, 0}, 4}, {{5, 0}, 5}, {{9, 0}, 6},
  };
}

TEST(SigIndex, GroupsAndLookups) {
  auto pairs = sample_pairs();
  SigPairs sort_buffer;
  SigIndex index;
  index.build(pairs, sort_buffer);
  EXPECT_EQ(index.size(), 4u);
  EXPECT_TRUE(index.contains(StateKey{5, 0}));
  const auto g5 = index.group(StateKey{5, 0});
  ASSERT_EQ(g5.size(), 3u);
  EXPECT_EQ(g5[0], 0u);
  EXPECT_EQ(g5[1], 2u);
  EXPECT_EQ(g5[2], 5u);
  const auto g3 = index.group(StateKey{3, 0});
  ASSERT_EQ(g3.size(), 2u);
  EXPECT_EQ(g3[0], 1u);
  EXPECT_EQ(g3[1], 4u);
  // (9,0) and (9,1) are distinct signatures.
  EXPECT_EQ(index.group(StateKey{9, 0}).size(), 1u);
  EXPECT_EQ(index.group(StateKey{9, 1}).size(), 1u);
}

TEST(SigIndex, AbsentAndEmptyLookups) {
  SigIndex empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains(StateKey{1, 0}));
  EXPECT_TRUE(empty.group(StateKey{1, 0}).empty());

  auto pairs = sample_pairs();
  SigPairs sort_buffer;
  SigIndex index;
  index.build(pairs, sort_buffer);
  EXPECT_FALSE(index.contains(StateKey{4, 0}));
  EXPECT_TRUE(index.group(StateKey{4, 0}).empty());
  EXPECT_FALSE(index.contains(StateKey{5, 1}));

  SigPairs none;
  SigIndex rebuilt;
  rebuilt.build(none, sort_buffer);
  EXPECT_EQ(rebuilt.size(), 0u);
  EXPECT_TRUE(rebuilt.group(StateKey{5, 0}).empty());
}

TEST(SigIndex, InputOrderIndependence) {
  auto pairs = sample_pairs();
  SigPairs sort_buffer;
  SigIndex reference;
  reference.build(pairs, sort_buffer);
  support::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    auto shuffled = sample_pairs();
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    SigIndex index;
    index.build(shuffled, sort_buffer);
    ASSERT_EQ(index.sigs(), reference.sigs());
    for (std::size_t s = 0; s < index.size(); ++s) {
      const auto got = index.group_at(s);
      const auto want = reference.group_at(s);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << "group " << s << " trial " << trial;
    }
  }
}

TEST(SigIndex, SigsAreSorted) {
  auto pairs = sample_pairs();
  SigPairs sort_buffer;
  SigIndex index;
  index.build(pairs, sort_buffer);
  EXPECT_TRUE(std::is_sorted(index.sigs().begin(), index.sigs().end()));
}

// ---- ScratchArena ----

TEST(ScratchArena, AcquireCountsGrowthOnce) {
  support::ScratchArena arena;
  std::vector<std::uint32_t> buf;
  arena.acquire(buf, 100);
  EXPECT_EQ(arena.alloc_events(), 1u);
  EXPECT_GE(arena.footprint_bytes(), 100 * sizeof(std::uint32_t));
  // Steady state: same-size reuse never allocates.
  for (int i = 0; i < 10; ++i) arena.acquire(buf, 100);
  EXPECT_EQ(arena.alloc_events(), 1u);
  arena.acquire(buf, 50);  // smaller fits existing capacity
  EXPECT_EQ(arena.alloc_events(), 1u);
  arena.acquire(buf, 200);  // growth is one more event
  EXPECT_EQ(arena.alloc_events(), 2u);
  EXPECT_EQ(arena.peak_bytes(), arena.footprint_bytes());
}

TEST(ScratchArena, SettleTracksOrganicGrowth) {
  support::ScratchArena arena;
  std::vector<std::uint64_t> buf;
  const std::size_t before = support::ScratchArena::bytes_of(buf);
  for (int i = 0; i < 100; ++i) buf.push_back(i);
  arena.settle(before, support::ScratchArena::bytes_of(buf));
  EXPECT_EQ(arena.alloc_events(), 1u);
  EXPECT_EQ(arena.footprint_bytes(), support::ScratchArena::bytes_of(buf));
  // A use that stays within capacity settles for free.
  const std::size_t stable = support::ScratchArena::bytes_of(buf);
  buf.clear();
  buf.push_back(1);
  arena.settle(stable, support::ScratchArena::bytes_of(buf));
  EXPECT_EQ(arena.alloc_events(), 1u);
}

}  // namespace
}  // namespace ppsi
