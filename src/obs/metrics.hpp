// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms (metric naming convention: "<component>.<what>[_<unit>]",
// e.g. "sched.decision_latency_us", "fm.passes", "sched.twin_reuses").
//
// Registry instruments are thread-safe (atomics; histograms use atomic
// bucket counters) and survive Registry::reset(), which zeroes values but
// keeps references valid — the runner resets between sweeps, not the
// instruments' owners. HistogramData is the plain value-type twin used
// for per-run local recording (e.g. DriverReport's decision-latency
// histogram) and for snapshots of registry histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "obs/obs.hpp"
#include "util/annotations.hpp"
#include "util/expected.hpp"
#include "util/sync.hpp"

namespace gts::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(long long delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

/// Last-write-wins gauge.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Shared bucket layouts. Bounds are ascending inclusive upper edges; an
/// implicit overflow bucket follows the last bound.
std::span<const double> latency_bounds_us();  // 1us .. 1e7us, 1-2-5 series
std::span<const double> depth_bounds();       // 1..24 linear
std::span<const double> cost_bounds();        // 1 .. ~1e6 geometric
std::span<const double> fraction_bounds();    // 0.05..1.0 linear (ratios)

/// Plain (non-atomic) fixed-bucket histogram with value semantics.
class HistogramData {
 public:
  /// Default layout is the decision-latency ladder.
  HistogramData() : HistogramData(latency_bounds_us()) {}
  explicit HistogramData(std::span<const double> bounds);

  void record(double value) noexcept;
  void merge(const HistogramData& other);
  void reset() noexcept;

  long long count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Percentile estimate by linear interpolation inside the owning bucket
  /// (`p` in [0, 1]); the overflow bucket reports the observed max.
  double percentile(double p) const noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  const std::vector<long long>& counts() const noexcept { return counts_; }
  long long bucket_count(std::size_t bucket) const noexcept {
    return bucket < counts_.size() ? counts_[bucket] : 0;
  }

  /// {"count","sum","mean","min","max","p50","p95","bounds":[...],
  ///  "counts":[...]} — counts has bounds.size()+1 entries (overflow last).
  json::Value to_json() const;

 private:
  friend class Histogram;       // snapshot() fills the representation directly
  friend class WindowedStats;   // window-slot merges fill it the same way
  std::vector<double> bounds_;
  std::vector<long long> counts_;  // bounds_.size() + 1 (overflow)
  long long count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Thread-safe registry histogram (atomic buckets).
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void record(double value) noexcept;
  HistogramData snapshot() const;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<long long>> counts_;
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// The process-wide instrument registry. Lookup registers on first use;
/// returned references stay valid for the process lifetime (including
/// across reset(), which only zeroes values).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies on first registration only; later lookups of the
  /// same name ignore it. Empty bounds = latency ladder.
  Histogram& histogram(const std::string& name,
                       std::span<const double> bounds = {});

  /// Zeroes every instrument; references remain valid.
  void reset();

  std::size_t instrument_count() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
  json::Value snapshot_json() const;

 private:
  Registry() = default;
  // The maps are guarded; the instruments they point to are internally
  // thread-safe (atomics) and may be used lock-free once handed out.
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GTS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      GTS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GTS_GUARDED_BY(mutex_);
};

/// The standalone --metrics-out document:
/// {"schema_version":1,"kind":"metrics","metrics":snapshot_json()}.
json::Value metrics_document();
util::Status write_metrics_json(const std::string& path);
util::Status validate_metrics_json(const json::Value& doc);

}  // namespace gts::obs

/// Hot-path macros: one branch when metrics are disabled; instrument
/// lookup happens once per call site (function-local static reference).
#define GTS_METRIC_COUNT(name, delta)                                   \
  do {                                                                  \
    if (::gts::obs::metrics_enabled()) {                                \
      static ::gts::obs::Counter& gts_obs_counter =                     \
          ::gts::obs::Registry::instance().counter(name);               \
      gts_obs_counter.add(delta);                                       \
    }                                                                   \
  } while (0)

#define GTS_METRIC_GAUGE_SET(name, value)                               \
  do {                                                                  \
    if (::gts::obs::metrics_enabled()) {                                \
      static ::gts::obs::Gauge& gts_obs_gauge =                         \
          ::gts::obs::Registry::instance().gauge(name);                 \
      gts_obs_gauge.set(value);                                         \
    }                                                                   \
  } while (0)

#define GTS_METRIC_HISTOGRAM(name, value, bounds)                       \
  do {                                                                  \
    if (::gts::obs::metrics_enabled()) {                                \
      static ::gts::obs::Histogram& gts_obs_histogram =                 \
          ::gts::obs::Registry::instance().histogram(name, bounds);     \
      gts_obs_histogram.record(value);                                  \
    }                                                                   \
  } while (0)
