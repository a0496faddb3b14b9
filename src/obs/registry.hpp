#pragma once
// The metrics registry: one for the flow executor and one for the daemon.
//
// Both own an obs::Registry.  The executor's metrics are the unlabeled
// case (flow.* counters, stage.* histograms, pool/cache/disk gauges),
// reported once per batch by `adc_dse --json` and the serve `stats` op.
// The daemon's are labeled families — "queue wait" is one family with a
// series per priority class, so a Prometheus scraper can aggregate and a
// dashboard can facet — served by the `metrics` op and `/metrics`.  The
// two instances stay separate so the executor's families never reach the
// daemon's `/metrics` catalogue.
//
// Counters are single atomics (lock-free after the first lookup).
// SlidingHistogram keeps the *lifetime* cumulative buckets Prometheus
// needs (monotone `_bucket` series) plus a small ring of time slices for
// live windowed p50/p95/p99; both quantile kinds go through
// histogram_quantile_micros.  Gauges hold nothing: a gauge source reads
// the object that owns the numbers (a cache's stats, a queue's depth)
// whenever the registry is read.
//
// Instruments are never unregistered; returned references live as long as
// the registry, so hot paths capture them once and increment forever.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace adc {

class JsonWriter;

namespace obs {

// Sorted (key, value) pairs; part of a time series' identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// One series of a gauge source: its identity and the family's help text.
struct GaugeSeries {
  std::string name;
  Labels labels;
  std::string help;
};
// Reads every series of one source, in declaration order.
using GaugeReader = std::function<std::vector<double>()>;

// Power-of-two-microsecond histogram: lifetime cumulative buckets for
// Prometheus (bucket i counts durations < 2^(i+1) µs) plus a ring of
// wall-clock slices so live quantiles answer "recently", not "ever".
class SlidingHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;
  static constexpr std::size_t kSlices = 6;
  static constexpr std::uint64_t kSliceSeconds = 10;  // 60 s window total

  void record_micros(std::uint64_t micros);

  struct Snapshot {
    // Lifetime (Prometheus: monotone counters).
    std::uint64_t count = 0;
    std::uint64_t sum_micros = 0;
    std::uint64_t max_micros = 0;
    std::uint64_t buckets[kBuckets] = {};  // non-cumulative per bucket
    // Windowed (last kSlices * kSliceSeconds seconds).
    std::uint64_t window_count = 0;
    std::uint64_t window_p50_micros = 0;
    std::uint64_t window_p95_micros = 0;
    std::uint64_t window_p99_micros = 0;
  };
  Snapshot snapshot() const;

  // Test hook: advance the slice clock as if `seconds` elapsed, expiring
  // old slices without sleeping.
  void advance_for_test(std::uint64_t seconds);

 private:
  struct Slice {
    std::uint64_t epoch = 0;  // slice index since process start; 0 = empty
    std::uint64_t count = 0;
    std::uint64_t buckets[kBuckets] = {};
  };
  std::uint64_t slice_epoch_now() const;
  Slice& slice_for_locked(std::uint64_t epoch);

  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
  Slice slices_[kSlices];
  std::uint64_t fake_advance_s_ = 0;
};

// Upper bound of `micros`'s power-of-two bucket; shared with the
// Prometheus renderer so `le=` edges and recorded buckets agree.
std::size_t histogram_bucket_index(std::uint64_t micros);
std::uint64_t histogram_bucket_upper_micros(std::size_t index);

// The q-quantile of `count` samples spread over power-of-two buckets, by
// nearest rank: the upper bound of the bucket holding the ceil(q*count)-th
// smallest sample, capped at the recorded maximum.  q is clamped to [0,1];
// no samples gives 0.
std::uint64_t histogram_quantile_micros(
    const std::uint64_t (&buckets)[SlidingHistogram::kBuckets],
    std::uint64_t count, std::uint64_t max_micros, double q);

class Registry {
 public:
  // Instrument lookup-or-create.  `help` is kept from the *first*
  // registration of a family and feeds Prometheus # HELP lines.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  SlidingHistogram& histogram(const std::string& name,
                              const Labels& labels = {},
                              const std::string& help = "");
  // Declares a gauge source: `series` (fixed for the registry's lifetime)
  // and `read`, which returns their current values in the same order.
  // Every snapshot() calls `read` once, outside the registry mutex, so one
  // source's values come from one read of its owner (disk.hits and
  // disk.misses from the same DiskCache::stats()) and `read` may take its
  // owner's locks.  Throws std::logic_error on a series already declared.
  void gauge_source(std::vector<GaugeSeries> series, GaugeReader read);

  struct Series {
    std::string name;
    Labels labels;
  };
  struct CounterSample : Series {
    std::uint64_t value = 0;
  };
  struct GaugeSample : Series {
    double value = 0;
  };
  struct HistogramSample : Series {
    SlidingHistogram::Snapshot hist;
  };
  struct Snapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
    std::map<std::string, std::string> help;  // family name -> help text
  };
  // Counters and histograms under one mutex, one instant: no torn
  // cross-metric invariants.  Gauges are then read from their sources and
  // merged into the same series-key order.
  Snapshot snapshot() const;

  // {"counters": [...], "gauges": [...], "histograms": [...]}: each
  // series an object with its name (and labels), histograms with lifetime
  // count/sum_us/max_us/p50_us/p90_us/p99_us and the window_* fields.
  // The `metrics` protocol op's `obs` payload, the `stats` op's and
  // `adc_dse --json`'s `metrics` section.
  void write_json(JsonWriter& w) const;

  // Every distinct family name currently registered (the catalogue the
  // CI smoke diff pins down).
  std::vector<std::string> family_names() const;

 private:
  static std::string series_key(const std::string& name, const Labels& labels);
  template <class T>
  T& find_or_create_locked(std::map<std::string, std::unique_ptr<T>>& family,
                           const std::string& name, const Labels& labels,
                           const std::string& help);

  struct GaugeSource {
    std::vector<std::pair<std::string, Series>> series;  // (key, identity)
    GaugeReader read;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::vector<std::shared_ptr<const GaugeSource>> gauge_sources_;
  std::map<std::string, std::unique_ptr<SlidingHistogram>> histograms_;
  std::map<std::string, Series> series_;  // key -> decoded identity
  std::map<std::string, std::string> help_;
};

}  // namespace obs
}  // namespace adc
