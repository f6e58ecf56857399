#include "common/metrics_registry.h"

#include <sstream>

namespace dynopt {

namespace {

int BucketFor(uint64_t value) {
  int bucket = 0;
  while (value > 0) {
    ++bucket;
    value >>= 1;
  }
  return bucket < Histogram::kNumBuckets ? bucket
                                         : Histogram::kNumBuckets - 1;
}

}  // namespace

void Histogram::Record(uint64_t value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::ApproxQuantile(double quantile) const {
  uint64_t total = count();
  if (total == 0) return 0;
  uint64_t target = static_cast<uint64_t>(quantile * total);
  if (target >= total) target = total - 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > target) {
      return i == 0 ? 0 : (uint64_t{1} << i) - 1;  // bucket upper bound
    }
  }
  return sum();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string MetricsRegistry::TextSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, counter] : counters_) {
    os << name << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    os << name << " " << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    os << name << " count=" << histogram->count()
       << " sum=" << histogram->sum() << " p50=" << histogram->p50()
       << " p90=" << histogram->p90() << " p99=" << histogram->p99() << "\n";
  }
  return os.str();
}

std::vector<MetricSample> MetricsRegistry::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSample s;
    s.kind = "counter";
    s.name = name;
    s.value = static_cast<int64_t>(counter->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample s;
    s.kind = "gauge";
    s.name = name;
    s.value = gauge->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSample s;
    s.kind = "histogram";
    s.name = name;
    s.value = static_cast<int64_t>(histogram->count());
    s.sum = histogram->sum();
    s.p50 = histogram->p50();
    s.p90 = histogram->p90();
    s.p99 = histogram->p99();
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace dynopt
