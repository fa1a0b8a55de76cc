#ifndef SUBSTREAM_SKETCH_CANDIDATE_POOL_H_
#define SUBSTREAM_SKETCH_CANDIDATE_POOL_H_

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "util/common.h"

/// \file candidate_pool.h
/// The recovered-candidate half of the paper's sketch-plus-candidates
/// estimators. Theorem 6 (CountMin) and Theorem 7 (CountSketch) heavy
/// hitters and Theorem 2's Indyk–Woodruff level sets all pair a linear
/// sketch with a bounded set of items whose point estimate once cleared a
/// bar; CountMinHeavyHitters, CountSketchHeavyHitters and every
/// IndykWoodruffEstimator depth keep one CandidatePool.

namespace substream {

/// Bounded map item -> latest point estimate. When full, a newcomer
/// replaces the weakest tracked item if its estimate is larger. Ties for
/// weakest go to the first entry in the map's iteration order, so the
/// container and the scan order are part of how the summary's state
/// evolves; the wire format writes entries sorted and depends on neither.
template <typename EstimateT>
class CandidatePool {
 public:
  using Map = std::unordered_map<item_t, EstimateT>;

  CandidatePool() = default;
  explicit CandidatePool(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }

  /// item -> estimate at its last offer or refresh.
  const Map& entries() const { return entries_; }

  /// Decoder access: serde fills the map in place; the decoder then
  /// rejects records with size() > capacity().
  Map* mutable_entries() { return &entries_; }

  void Clear() { entries_.clear(); }

  /// Records `estimate` for `item`: a tracked item takes the new value, a
  /// new one is inserted while there is room, and otherwise it replaces
  /// the weakest tracked item when its estimate is larger. A zero-capacity
  /// pool (a decoded record may carry one) tracks nothing.
  void Offer(item_t item, EstimateT estimate) {
    auto it = entries_.find(item);
    if (it != entries_.end()) {
      it->second = estimate;
      return;
    }
    if (entries_.size() < capacity_) {
      entries_.emplace(item, estimate);
      return;
    }
    if (entries_.empty()) return;
    auto weakest = entries_.begin();
    for (auto jt = entries_.begin(); jt != entries_.end(); ++jt) {
      if (jt->second < weakest->second) weakest = jt;
    }
    if (weakest->second < estimate) {
      entries_.erase(weakest);
      entries_.emplace(item, estimate);
    }
  }

  /// Re-reads every tracked estimate as `estimate(item)`, typically from
  /// a sketch that just absorbed a merge, so later evictions compare
  /// current values rather than stale per-shard ones.
  template <typename EstimateFn>
  void Refresh(EstimateFn estimate) {
    for (auto& [item, value] : entries_) value = estimate(item);
  }

  /// The union half of a merge: offers every item `other` tracks at
  /// `estimate(item)`, its estimate against the merged sketch (`other`'s
  /// stored values are stale). Items estimated below `min_estimate`, when
  /// given, are skipped.
  template <typename EstimateFn>
  void Union(const CandidatePool& other, EstimateFn estimate,
             std::optional<EstimateT> min_estimate = std::nullopt) {
    for (const auto& [item, stale] : other.entries_) {
      (void)stale;
      const EstimateT value = estimate(item);
      if (min_estimate && value < *min_estimate) continue;
      Offer(item, value);
    }
  }

 private:
  Map entries_;
  std::size_t capacity_ = 0;
};

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_CANDIDATE_POOL_H_
