// Bounded time-series gauge sampling for the observability layer.
//
// A TimeSeries buckets (virtual-time, integer-gauge) samples into a fixed
// number of absolute time buckets; when a sample lands past the end, the
// series halves its resolution by merging adjacent bucket pairs (keeping
// exact count/min/max/sum per bucket) until the sample fits. Bucket widths
// are always kBaseWidth * 2^k and buckets are anchored at virtual time 0,
// so merging two series — coarsen both to the wider of their widths, then
// add bucket-wise — is exact, commutative, and associative: shard-merged
// series are bit-identical to a single-process run's. Values are integers
// (queue depths, frame counts, cycle gaps), so sums never lose precision
// to summation order.
//
// The kernel feeds a Telemetry bundle of these behind the same null-checked
// pointer pattern as the tracer: a detached kernel runs the exact
// pre-observability instruction stream.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace mtr::trace {

/// One time bucket: exact aggregate of every sample in its span.
struct SeriesBucket {
  std::uint64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t sum = 0;

  friend bool operator==(const SeriesBucket&, const SeriesBucket&) = default;
};

class TimeSeries {
 public:
  /// Fixed bucket budget. 64 buckets render as one sparkline row and keep
  /// a sweep's worth of series small in metrics.json.
  static constexpr std::size_t kCapacity = 64;
  /// Full-resolution bucket width in cycles (~0.4 ms at 2.5 GHz); long
  /// runs coarsen from here in power-of-two steps.
  static constexpr std::uint64_t kBaseWidth = 1u << 20;

  /// Records gauge value `v` at virtual time `t` (cycles). Amortized O(1):
  /// at most log2(span / kBaseWidth) halvings over a series' lifetime.
  void sample(std::uint64_t t, std::int64_t v);

  /// Exact bucket-wise fold of `o` into this series, `times` over (see
  /// file comment): counts and sums scale by `times`, min and max stay, so
  /// the result equals `times` merges of `o`. Throws std::overflow_error
  /// when a bucket's count or sum would wrap.
  void merge(const TimeSeries& o, std::uint64_t times = 1);

  bool empty() const { return samples_ == 0; }
  std::uint64_t samples() const { return samples_; }
  std::uint64_t width() const { return width_; }
  /// Buckets [0, size()): the prefix up to the last non-empty bucket.
  std::size_t size() const { return used_; }
  const SeriesBucket& bucket(std::size_t i) const { return buckets_[i]; }

  /// Deserialization: replaces this series with an explicit bucket layout.
  /// `width` must be kBaseWidth * 2^k and `buckets` at most kCapacity.
  void load(std::uint64_t width, std::vector<SeriesBucket> buckets);

  friend bool operator==(const TimeSeries& a, const TimeSeries& b);

 private:
  void halve();

  std::uint64_t width_ = kBaseWidth;
  std::uint64_t samples_ = 0;
  std::size_t used_ = 0;
  std::vector<SeriesBucket> buckets_;  // kCapacity once allocated
};

/// Everything one run's kernel samples for the observability layer: five
/// virtual-time gauge series plus the mergeable quantile sketches. Folded
/// run -> cell -> sweep -> invocation and across shards; every fold is
/// exact (integer series, bucket-wise sketches), so the merged telemetry
/// of N shards equals the single-process run's byte-for-byte.
struct Telemetry {
  /// Sampling hint, set by the experiment harness after launch: the thread
  /// group whose billed-vs-true gap victim_gap tracks. Not merged and not
  /// serialized — it is run-local configuration, not data.
  Tgid victim{};

  TimeSeries run_queue;     // scheduler run-queue depth (waiting, not running)
  TimeSeries runnable;      // run-queue depth plus the running process
  TimeSeries free_frames;   // unallocated physical frames
  TimeSeries event_depth;   // calendar-queue depth (0 under the slice engine)
  TimeSeries victim_gap;    // victim billed-minus-true cycles (whole jiffies
                            // billed at cpu/hz cycles per tick)

  QuantileSketch billing_error;  // per-thread-group billed-true seconds
  QuantileSketch charge_batch;   // charge-batch sizes at flush
  QuantileSketch cell_seconds;   // per-cell wall seconds (sweep-level only)

  bool empty() const;
  /// Folds `o` in `times` over: equal to `times` merges of `o`.
  void merge(const Telemetry& o, std::uint64_t times = 1);

  friend bool operator==(const Telemetry&, const Telemetry&) = default;

  /// The single name<->member lists metrics serialization and parsing key
  /// on; order is load-bearing for byte-stable round trips.
  template <typename F>
  void for_each_series(F&& f) const { visit_series(*this, f); }
  template <typename F>
  void for_each_series(F&& f) { visit_series(*this, f); }
  template <typename F>
  void for_each_sketch(F&& f) const { visit_sketches(*this, f); }
  template <typename F>
  void for_each_sketch(F&& f) { visit_sketches(*this, f); }

 private:
  template <typename Self, typename F>
  static void visit_series(Self& t, F& f) {
    f("run_queue", t.run_queue);
    f("runnable", t.runnable);
    f("free_frames", t.free_frames);
    f("event_depth", t.event_depth);
    f("victim_gap", t.victim_gap);
  }
  template <typename Self, typename F>
  static void visit_sketches(Self& t, F& f) {
    f("billing_error", t.billing_error);
    f("charge_batch", t.charge_batch);
    f("cell_seconds", t.cell_seconds);
  }
};

}  // namespace mtr::trace
