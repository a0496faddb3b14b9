#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>

#include "report/json.hpp"

namespace adc {
namespace obs {

void Gauge::set(double v) {
  scaled_.store(true, std::memory_order_relaxed);
  v_.store(static_cast<std::int64_t>(std::llround(v * 1000.0)),
           std::memory_order_relaxed);
}

double Gauge::value_scaled() const {
  const std::int64_t raw = v_.load(std::memory_order_relaxed);
  return scaled() ? static_cast<double>(raw) / 1000.0
                  : static_cast<double>(raw);
}

std::size_t histogram_bucket_index(std::uint64_t micros) {
  std::size_t i = 0;
  while (i + 1 < SlidingHistogram::kBuckets && (micros >> (i + 1)) != 0) ++i;
  return i;
}

std::uint64_t histogram_bucket_upper_micros(std::size_t index) {
  return std::uint64_t{1} << (index + 1);
}

std::uint64_t SlidingHistogram::slice_epoch_now() const {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const auto s = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(now).count());
  // +1 so a live slice's epoch is never 0 (0 marks "empty").
  return (s + fake_advance_s_) / kSliceSeconds + 1;
}

SlidingHistogram::Slice& SlidingHistogram::slice_for_locked(
    std::uint64_t epoch) {
  Slice& s = slices_[epoch % kSlices];
  if (s.epoch != epoch) {
    s.epoch = epoch;
    s.count = 0;
    std::fill(std::begin(s.buckets), std::end(s.buckets), 0);
  }
  return s;
}

void SlidingHistogram::record_micros(std::uint64_t micros) {
  const std::size_t b = histogram_bucket_index(micros);
  std::lock_guard<std::mutex> lk(mu_);
  ++count_;
  sum_ += micros;
  max_ = std::max(max_, micros);
  ++buckets_[b];
  Slice& s = slice_for_locked(slice_epoch_now());
  ++s.count;
  ++s.buckets[b];
}

void SlidingHistogram::advance_for_test(std::uint64_t seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  fake_advance_s_ += seconds;
}

SlidingHistogram::Snapshot SlidingHistogram::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot out;
  out.count = count_;
  out.sum_micros = sum_;
  out.max_micros = max_;
  std::copy(std::begin(buckets_), std::end(buckets_), std::begin(out.buckets));

  // Merge the live slices into one windowed distribution; slices older
  // than the window (epoch too far behind) are dead and skipped.
  const std::uint64_t now_epoch = slice_epoch_now();
  std::uint64_t win[kBuckets] = {};
  for (const Slice& s : slices_) {
    if (s.epoch == 0 || s.epoch + kSlices <= now_epoch) continue;
    out.window_count += s.count;
    for (std::size_t i = 0; i < kBuckets; ++i) win[i] += s.buckets[i];
  }
  out.window_p50_micros = histogram_quantile_micros(win, out.window_count, max_, 0.50);
  out.window_p95_micros = histogram_quantile_micros(win, out.window_count, max_, 0.95);
  out.window_p99_micros = histogram_quantile_micros(win, out.window_count, max_, 0.99);
  return out;
}

std::uint64_t histogram_quantile_micros(
    const std::uint64_t (&buckets)[SlidingHistogram::kBuckets],
    std::uint64_t count, std::uint64_t max_micros, double q) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))), 1,
      count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < SlidingHistogram::kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return std::min(histogram_bucket_upper_micros(i), max_micros);
  }
  return max_micros;
}

std::string Registry::series_key(const std::string& name,
                                 const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

template <class T>
T& Registry::find_or_create_locked(
    std::map<std::string, std::unique_ptr<T>>& family, const std::string& name,
    const Labels& labels, const std::string& help) {
  const std::string key = series_key(name, labels);
  auto it = family.find(key);
  if (it == family.end()) {
    it = family.emplace(key, std::make_unique<T>()).first;
    series_[key] = Series{name, labels};
    if (!help.empty()) help_.emplace(name, help);
  }
  return *it->second;
}

Counter& Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_create_locked(counters_, name, labels, help);
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_create_locked(gauges_, name, labels, help);
}

SlidingHistogram& Registry::histogram(const std::string& name,
                                      const Labels& labels,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_create_locked(histograms_, name, labels, help);
}

void Registry::update_gauges(
    const std::vector<std::pair<std::string, std::int64_t>>& values) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, v] : values)
    find_or_create_locked(gauges_, name, {}, "").set(v);
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot out;
  out.help = help_;
  for (const auto& [key, c] : counters_) {
    CounterSample s;
    static_cast<Series&>(s) = series_.at(key);
    s.value = c->value();
    out.counters.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauges_) {
    GaugeSample s;
    static_cast<Series&>(s) = series_.at(key);
    s.value = g->value_scaled();
    out.gauges.push_back(std::move(s));
  }
  for (const auto& [key, h] : histograms_) {
    HistogramSample s;
    static_cast<Series&>(s) = series_.at(key);
    s.hist = h->snapshot();
    out.histograms.push_back(std::move(s));
  }
  return out;
}

std::vector<std::string> Registry::family_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  for (const auto& [key, series] : series_) {
    (void)key;
    if (names.empty() || names.back() != series.name)
      names.push_back(series.name);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

namespace {

void write_series_ident(JsonWriter& w, const Registry::Series& s) {
  w.kv("name", s.name);
  if (!s.labels.empty()) {
    w.key("labels");
    w.begin_object();
    for (const auto& [k, v] : s.labels) w.kv(k, v);
    w.end_object();
  }
}

}  // namespace

void Registry::write_json(JsonWriter& w) const {
  const Snapshot snap = snapshot();
  w.begin_object();
  w.key("counters");
  w.begin_array();
  for (const auto& c : snap.counters) {
    w.begin_object();
    write_series_ident(w, c);
    w.kv("value", c.value);
    w.end_object();
  }
  w.end_array();
  w.key("gauges");
  w.begin_array();
  for (const auto& g : snap.gauges) {
    w.begin_object();
    write_series_ident(w, g);
    w.kv("value", g.value);
    w.end_object();
  }
  w.end_array();
  w.key("histograms");
  w.begin_array();
  for (const auto& h : snap.histograms) {
    w.begin_object();
    write_series_ident(w, h);
    w.kv("count", h.hist.count);
    w.kv("sum_us", h.hist.sum_micros);
    w.kv("max_us", h.hist.max_micros);
    for (const auto& [key, q] : {std::pair{"p50_us", 0.50}, std::pair{"p90_us", 0.90},
                                 std::pair{"p99_us", 0.99}})
      w.kv(key, histogram_quantile_micros(h.hist.buckets, h.hist.count,
                                          h.hist.max_micros, q));
    w.kv("window_count", h.hist.window_count);
    w.kv("window_p50_us", h.hist.window_p50_micros);
    w.kv("window_p95_us", h.hist.window_p95_micros);
    w.kv("window_p99_us", h.hist.window_p99_micros);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace obs
}  // namespace adc
