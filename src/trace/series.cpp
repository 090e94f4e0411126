#include "trace/series.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/ensure.hpp"

namespace mtr::trace {
namespace {

SeriesBucket combine(const SeriesBucket& a, const SeriesBucket& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  // Buckets read from a metrics file can sit near the integer limits; a
  // fold that would wrap is refused instead of written out corrupted.
  SeriesBucket out{0, std::min(a.min, b.min), std::max(a.max, b.max), 0};
  if (__builtin_add_overflow(a.count, b.count, &out.count) ||
      __builtin_add_overflow(a.sum, b.sum, &out.sum))
    throw std::overflow_error("a series bucket overflows when folded");
  return out;
}

}  // namespace

void TimeSeries::halve() {
  const std::size_t pairs = kCapacity / 2;
  for (std::size_t i = 0; i < pairs; ++i)
    buckets_[i] = combine(buckets_[2 * i], buckets_[2 * i + 1]);
  for (std::size_t i = pairs; i < kCapacity; ++i) buckets_[i] = SeriesBucket{};
  used_ = (used_ + 1) / 2;
  width_ *= 2;
}

void TimeSeries::sample(std::uint64_t t, std::int64_t v) {
  if (buckets_.empty()) buckets_.resize(kCapacity);
  while (t / width_ >= kCapacity) halve();
  SeriesBucket& b = buckets_[t / width_];
  if (b.count == 0) {
    b.min = b.max = v;
  } else {
    b.min = std::min(b.min, v);
    b.max = std::max(b.max, v);
  }
  ++b.count;
  b.sum += v;
  ++samples_;
  used_ = std::max(used_, static_cast<std::size_t>(t / width_) + 1);
}

void TimeSeries::merge(const TimeSeries& o) {
  if (o.samples_ == 0) return;
  if (samples_ == 0) {
    *this = o;
    return;
  }
  // Coarsen the finer series to the wider width. Both spans already fit
  // kCapacity buckets at their own widths, so the common width never needs
  // to exceed the maximum — the result's width is a function of the input
  // widths alone, which is what makes the fold associative.
  while (width_ < o.width_) halve();
  const std::size_t ratio = static_cast<std::size_t>(width_ / o.width_);
  for (std::size_t j = 0; j < o.used_; ++j) {
    const SeriesBucket& src = o.buckets_[j];
    if (src.count == 0) continue;
    SeriesBucket& dst = buckets_[j / ratio];
    dst = combine(dst, src);
    used_ = std::max(used_, j / ratio + 1);
  }
  samples_ += o.samples_;
}

void TimeSeries::load(std::uint64_t width, std::vector<SeriesBucket> buckets) {
  MTR_ENSURE_MSG(width >= kBaseWidth && (width % kBaseWidth) == 0 &&
                     ((width / kBaseWidth) & (width / kBaseWidth - 1)) == 0,
                 "TimeSeries width must be kBaseWidth * 2^k");
  MTR_ENSURE(buckets.size() <= kCapacity);
  width_ = width;
  used_ = buckets.size();
  samples_ = 0;
  buckets_.assign(kCapacity, SeriesBucket{});
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets_[i] = buckets[i];
    samples_ += buckets[i].count;
  }
  // Trim a padded tail so load(write(x)) == x even if a caller hands in
  // trailing empty buckets.
  while (used_ > 0 && buckets_[used_ - 1].count == 0) --used_;
}

bool operator==(const TimeSeries& a, const TimeSeries& b) {
  if (a.samples_ != b.samples_ || a.used_ != b.used_) return false;
  if (a.samples_ == 0) return true;  // empty series compare equal at any width
  if (a.width_ != b.width_) return false;
  for (std::size_t i = 0; i < a.used_; ++i)
    if (a.buckets_[i] != b.buckets_[i]) return false;
  return true;
}

bool Telemetry::empty() const {
  bool any = false;
  for_each_series([&](const char*, const TimeSeries& s) { any |= !s.empty(); });
  for_each_sketch(
      [&](const char*, const QuantileSketch& s) { any |= !s.empty(); });
  return !any;
}

void Telemetry::merge(const Telemetry& o) {
  run_queue.merge(o.run_queue);
  runnable.merge(o.runnable);
  free_frames.merge(o.free_frames);
  event_depth.merge(o.event_depth);
  victim_gap.merge(o.victim_gap);
  billing_error.merge(o.billing_error);
  charge_batch.merge(o.charge_batch);
  cell_seconds.merge(o.cell_seconds);
}

}  // namespace mtr::trace
