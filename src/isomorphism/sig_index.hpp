#pragma once

// CSR layout of a solved node's signature groups.
//
// A solved node projects each of its valid states into the parent's
// coordinate space; states sharing a projection form a *signature group*
// (sequential_dp.hpp). The previous representation was
// unordered_map<StateKey, vector<uint32>> — one heap node per signature
// plus one heap vector per group, probed on the engine's hottest lookup
// (`is this child signature present?`). This layout packs the same data
// into three flat arrays built once per node with exact reserves:
//
//   sigs     – the distinct signatures, sorted by (code, sep)
//   offsets  – offsets[i]..offsets[i+1] delimit group i in `indices`
//   indices  – state indices, ascending within each group
//
// Lookup is a branchless-friendly binary search over `sigs`; iteration is
// deterministic (sorted), which removes the hash-map-order dependence the
// sparse engine previously inherited. Group contents are identical to the
// map version: `build` sorts (sig, state) pairs by (sig, state), so each
// group lists its states in ascending order exactly as the map's
// push_back order did.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "isomorphism/state_enumeration.hpp"

namespace ppsi::iso {

class SigIndex {
 public:
  /// Builds from (signature, state index) pairs; sorts `pairs` in place.
  /// Storage is exact: one allocation per array, no growth. Also builds a
  /// hash-bitmap prefilter (~4 bits per distinct signature, power-of-two
  /// sized) so contains() rejects most absent signatures with one bit test
  /// instead of a binary search.
  void build(std::vector<std::pair<StateKey, std::uint32_t>>& pairs) {
    clear();
    std::sort(pairs.begin(), pairs.end());
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      if (i == 0 || !(pairs[i].first == pairs[i - 1].first)) ++distinct;
    sigs_.reserve(distinct);
    offsets_.reserve(distinct + 1);
    indices_.reserve(pairs.size());
    for (const auto& [sig, idx] : pairs) {
      if (sigs_.empty() || !(sigs_.back() == sig)) {
        sigs_.push_back(sig);
        offsets_.push_back(static_cast<std::uint32_t>(indices_.size()));
      }
      indices_.push_back(idx);
    }
    offsets_.push_back(static_cast<std::uint32_t>(indices_.size()));
    std::size_t filter_bits = 64;
    while (filter_bits < 4 * distinct) filter_bits <<= 1;
    filter_.assign(filter_bits / 64, 0);
    filter_mask_ = filter_bits - 1;
    for (const StateKey& sig : sigs_) {
      const std::size_t bit = StateKeyHash{}(sig) & filter_mask_;
      filter_[bit / 64] |= 1ULL << (bit % 64);
    }
  }

  void clear() {
    sigs_.clear();
    offsets_.clear();
    indices_.clear();
    filter_.clear();
    filter_mask_ = 0;
  }

  /// Drops the storage entirely (decision-only queries release solved
  /// interior nodes once their parent has consumed them).
  void release() {
    std::vector<StateKey>().swap(sigs_);
    std::vector<std::uint32_t>().swap(offsets_);
    std::vector<std::uint32_t>().swap(indices_);
    std::vector<std::uint64_t>().swap(filter_);
    filter_mask_ = 0;
  }

  bool contains(const StateKey& sig) const {
    if (filter_.empty()) return false;
    const std::size_t bit = StateKeyHash{}(sig) & filter_mask_;
    if ((filter_[bit / 64] >> (bit % 64) & 1ULL) == 0) return false;
    return slot_of(sig) >= 0;
  }

  /// State indices projecting to `sig` (empty when absent; groups of
  /// present signatures are never empty).
  std::span<const std::uint32_t> group(const StateKey& sig) const {
    const std::ptrdiff_t slot = slot_of(sig);
    if (slot < 0) return {};
    return std::span<const std::uint32_t>(indices_)
        .subspan(offsets_[slot], offsets_[slot + 1] - offsets_[slot]);
  }

  /// Distinct signatures, sorted by (code, sep).
  const std::vector<StateKey>& sigs() const { return sigs_; }
  std::span<const std::uint32_t> group_at(std::size_t slot) const {
    return std::span<const std::uint32_t>(indices_)
        .subspan(offsets_[slot], offsets_[slot + 1] - offsets_[slot]);
  }
  std::size_t size() const { return sigs_.size(); }
  bool empty() const { return sigs_.empty(); }

 private:
  std::ptrdiff_t slot_of(const StateKey& sig) const {
    const auto it = std::lower_bound(sigs_.begin(), sigs_.end(), sig);
    if (it == sigs_.end() || !(*it == sig)) return -1;
    return it - sigs_.begin();
  }

  std::vector<StateKey> sigs_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> indices_;
  /// Hash-bitmap prefilter over `sigs_` (see build()).
  std::vector<std::uint64_t> filter_;
  std::size_t filter_mask_ = 0;
};

}  // namespace ppsi::iso
