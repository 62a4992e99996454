#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace autoem {
namespace obs {

namespace internal {

size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return shard;
}

}  // namespace internal

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), row_width_(bounds_.size() + 1) {
  bucket_counts_.reset(new std::atomic<uint64_t>[kMetricShards * row_width_]);
  sums_.reset(new std::atomic<double>[kMetricShards]);
  for (size_t i = 0; i < kMetricShards * row_width_; ++i) {
    bucket_counts_[i].store(0, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kMetricShards; ++i) {
    sums_[i].store(0.0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  // lower_bound: first bound >= value, i.e. Prometheus `le` semantics —
  // an observation equal to a bucket's upper bound counts in that bucket.
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  size_t shard = internal::ThisThreadShard();
  bucket_counts_[shard * row_width_ + bucket].fetch_add(
      1, std::memory_order_relaxed);
  sums_[shard].fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(row_width_, 0);
  for (size_t shard = 0; shard < kMetricShards; ++shard) {
    for (size_t b = 0; b < row_width_; ++b) {
      snap.counts[b] += bucket_counts_[shard * row_width_ + b].load(
          std::memory_order_relaxed);
    }
    snap.sum += sums_[shard].load(std::memory_order_relaxed);
  }
  for (uint64_t c : snap.counts) snap.count += c;
  return snap;
}

std::vector<double> Histogram::DefaultLatencyBucketsMs() {
  return {0.25, 0.5, 1.0,   2.5,   5.0,   10.0,   25.0,  50.0,
          100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so worker threads can still bump counters during static
  // destruction of other globals.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  if (bounds.empty()) bounds = Histogram::DefaultLatencyBucketsMs();
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

std::string MetricsRegistry::SnapshotJsonLine(double ts_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"ts_s\": " + JsonNumber(ts_s) + ", \"counters\": {";
  const char* sep = "";
  for (const auto& [name, counter] : counters_) {
    out += sep + JsonQuote(name) + ": " + std::to_string(counter->Total());
    sep = ",";
  }
  out += "},\"gauges\": {";
  sep = "";
  for (const auto& [name, gauge] : gauges_) {
    out += sep + JsonQuote(name) + ": " + JsonNumber(gauge->Value());
    sep = ",";
  }
  out += "},\"histograms\": {";
  sep = "";
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot snap = histogram->Snap();
    out += sep + JsonQuote(name) + ": {\"count\": " +
           std::to_string(snap.count) + ", \"sum\": " + JsonNumber(snap.sum) +
           ", \"buckets\": [";
    for (size_t b = 0; b < snap.counts.size(); ++b) {
      if (b > 0) out += ", ";
      out += "{\"le\": ";
      out += b < snap.bounds.size() ? JsonNumber(snap.bounds[b]) : "\"inf\"";
      out += ", \"count\": " + std::to_string(snap.counts[b]) + "}";
    }
    out += "]}";
    sep = ",";
  }
  out += "}}";
  return out;
}

namespace {

/// OpenMetrics metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dot-separated
/// registry paths map dots (and anything else outside the charset) to '_'.
std::string OpenMetricsName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

/// Label-value escaping per the OpenMetrics ABNF: backslash, double quote,
/// and line feed.
std::string OpenMetricsLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string OpenMetricsNumber(double v) {
  if (v != v) return "NaN";
  if (v > 1.7e308) return "+Inf";
  if (v < -1.7e308) return "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::SnapshotOpenMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " counter\n";
    out += om + "_total " + std::to_string(counter->Total()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " gauge\n";
    out += om + " " + OpenMetricsNumber(gauge->Value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot snap = histogram->Snap();
    std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < snap.counts.size(); ++b) {
      cumulative += snap.counts[b];
      std::string le = b < snap.bounds.size()
                           ? OpenMetricsNumber(snap.bounds[b])
                           : "+Inf";
      out += om + "_bucket{le=\"" + OpenMetricsLabelValue(le) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += om + "_sum " + OpenMetricsNumber(snap.sum) + "\n";
    out += om + "_count " + std::to_string(snap.count) + "\n";
  }
  out += "# EOF\n";
  return out;
}

}  // namespace obs
}  // namespace autoem
