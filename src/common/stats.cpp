#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace mtr {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

// gamma and its log, shared by the index map and the representative value.
constexpr double kGamma =
    (1.0 + QuantileSketch::kAlpha) / (1.0 - QuantileSketch::kAlpha);
const double kLogGamma = std::log(kGamma);

}  // namespace

std::int32_t QuantileSketch::index_of(double magnitude) {
  const double raw = std::ceil(std::log(magnitude) / kLogGamma);
  if (raw <= static_cast<double>(kMinIndex)) return kMinIndex;
  if (raw >= static_cast<double>(kMaxIndex)) return kMaxIndex;
  return static_cast<std::int32_t>(raw);
}

double QuantileSketch::value_of(std::int32_t index) {
  // Midpoint (in the multiplicative sense) of (gamma^(i-1), gamma^i].
  return 2.0 * std::exp(static_cast<double>(index) * kLogGamma) /
         (kGamma + 1.0);
}

void QuantileSketch::add(double x, std::uint64_t n) {
  if (n == 0) return;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += n;
  if (x == 0.0) {
    zero_ += n;
  } else if (x > 0.0) {
    pos_[index_of(x)] += n;
  } else {
    neg_[index_of(-x)] += n;
  }
}

void QuantileSketch::merge(const QuantileSketch& o, std::uint64_t times) {
  if (o.count_ == 0 || times == 0) return;
  if (count_ == 0) {
    min_ = o.min_;
    max_ = o.max_;
  } else {
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }
  count_ += o.count_ * times;
  zero_ += o.zero_ * times;
  for (const auto& [i, n] : o.pos_) pos_[i] += n * times;
  for (const auto& [i, n] : o.neg_) neg_[i] += n * times;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank over the bucket walk, most-negative value first: the
  // negative store descends by index (largest |x| first), then zero, then
  // the positive store ascends.
  // A count near 2^64 rounds up to 2^64 as a double, which is outside
  // uint64_t: clamp the rank before the cast. `seen` saturates, so bucket
  // counts that sum past 2^64 cannot wrap it back below the rank.
  const double last = static_cast<double>(count_ - 1);
  const double want = q * last;
  const std::uint64_t rank =
      want >= last ? count_ - 1 : static_cast<std::uint64_t>(want);
  std::uint64_t seen = 0;
  const auto bump = [&seen](std::uint64_t n) {
    seen = n > UINT64_MAX - seen ? UINT64_MAX : seen + n;
  };
  double v = 0.0;
  bool found = false;
  for (auto it = neg_.rbegin(); it != neg_.rend() && !found; ++it) {
    bump(it->second);
    if (seen > rank) {
      v = -value_of(it->first);
      found = true;
    }
  }
  if (!found && zero_ > 0) {
    bump(zero_);
    if (seen > rank) {
      v = 0.0;
      found = true;
    }
  }
  if (!found) {
    for (const auto& [i, n] : pos_) {
      bump(n);
      if (seen > rank) {
        v = value_of(i);
        break;
      }
    }
  }
  return std::clamp(v, min_, max_);
}

void QuantileSketch::load_bucket(std::int32_t index, std::uint64_t n,
                                 bool negative) {
  MTR_ENSURE(index >= kMinIndex && index <= kMaxIndex);
  if (n == 0) return;
  (negative ? neg_ : pos_)[index] += n;
  count_ += n;
}

void QuantileSketch::load_zero(std::uint64_t n) {
  zero_ += n;
  count_ += n;
}

void QuantileSketch::load_bounds(double lo, double hi) {
  min_ = lo;
  max_ = hi;
}

const char* QuantileSketch::load_error(std::uint64_t recorded_count) const {
  if (count_ != recorded_count) return "count does not match its buckets";
  if (!empty() && min_ > max_) return "min exceeds max";
  return nullptr;
}

}  // namespace mtr
