// Small statistics helpers for experiment analysis: running moments and a
// mergeable log-bucketed quantile sketch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace mtr {

/// Welford running mean / variance accumulator.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// DDSketch-style quantile sketch over log-spaced buckets with a *fixed*
/// index mapping: bucket i covers (gamma^(i-1), gamma^i] for positive
/// values, with gamma = (1+alpha)/(1-alpha), a mirrored store for negative
/// values, and an exact-zero bucket. Because the mapping never rescales,
/// merging two sketches is a bucket-wise count add — exact, commutative,
/// and associative — so per-run sketches fold run -> cell -> sweep -> shard
/// in any grouping and land on identical bytes. Quantile estimates carry a
/// relative error bounded by alpha; the tracked min/max are exact.
class QuantileSketch {
 public:
  /// Relative-error target. gamma^index spans ~[4e-18, 2.4e17] over the
  /// clamped index range, wide enough for cycle counts down to sub-
  /// microsecond wall times; values outside clamp into the edge buckets.
  static constexpr double kAlpha = 0.01;
  static constexpr std::int32_t kMinIndex = -2000;
  static constexpr std::int32_t kMaxIndex = 2000;

  /// Ordered sparse bucket store: index -> count. Ordered so serialization
  /// and equality are deterministic.
  using Buckets = std::map<std::int32_t, std::uint64_t>;

  void add(double x, std::uint64_t n = 1);
  /// Bucket-wise add; min/max combine exactly, so merge order is
  /// irrelevant down to the last bit.
  void merge(const QuantileSketch& o);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// q in [0, 1]; the bucket-representative value at that rank, clamped to
  /// the exact [min, max] envelope. 0 for an empty sketch.
  double quantile(double q) const;

  std::uint64_t zero_count() const { return zero_; }
  const Buckets& positive() const { return pos_; }
  const Buckets& negative() const { return neg_; }

  // Deserialization loaders (the metrics.json parser rebuilds sketches
  // bucket-by-bucket; load_bounds restores the exact envelope).
  void load_bucket(std::int32_t index, std::uint64_t n, bool negative);
  void load_zero(std::uint64_t n);
  void load_bounds(double lo, double hi);
  /// The one consistency check of a loaded sketch against the count its
  /// writer recorded: nullptr, or why no sequence of add() calls could
  /// have built it ("count does not match its buckets", "min exceeds
  /// max").
  const char* load_error(std::uint64_t recorded_count) const;

  friend bool operator==(const QuantileSketch& a, const QuantileSketch& b) {
    return a.count_ == b.count_ && a.zero_ == b.zero_ && a.min_ == b.min_ &&
           a.max_ == b.max_ && a.pos_ == b.pos_ && a.neg_ == b.neg_;
  }

 private:
  static std::int32_t index_of(double magnitude);
  static double value_of(std::int32_t index);

  std::uint64_t count_ = 0;
  std::uint64_t zero_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  Buckets pos_;
  Buckets neg_;  // keyed on the index of |x|
};

}  // namespace mtr
