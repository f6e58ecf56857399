#ifndef DYNOPT_COMMON_METRICS_REGISTRY_H_
#define DYNOPT_COMMON_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dynopt {

/// Monotonic engine-wide counter (e.g. "exec.spill_bytes").
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed level (e.g. "admission.queue_depth").
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Power-of-two bucketed histogram of non-negative integer samples (e.g.
/// queue-wait microseconds). Bucket i holds samples in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(uint64_t value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Upper bucket bound below which >= `quantile` of samples fall (0 when
  /// empty). Approximate by construction — bucket granularity is 2x.
  uint64_t ApproxQuantile(double quantile) const;
  uint64_t p50() const { return ApproxQuantile(0.5); }
  uint64_t p90() const { return ApproxQuantile(0.9); }
  uint64_t p99() const { return ApproxQuantile(0.99); }
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// One metric rendered to plain values — the row format `sys.metrics`
/// materializes and benches serialize. `value` is the counter/gauge value
/// or the histogram sample count; sum/p50/p90/p99 are histogram-only.
struct MetricSample {
  std::string kind;  ///< "counter" | "gauge" | "histogram".
  std::string name;
  int64_t value = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
};

/// Registry of named counters/gauges/histograms. Each Engine owns one and
/// every component it builds records there, so metrics stay attributable
/// per engine; there is no process-wide instance. Lookup takes a lock; the
/// returned pointers are stable for the registry lifetime, so hot call
/// sites can cache them. TextSnapshot() renders one sorted "name value"
/// line per metric.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  std::string TextSnapshot() const;

  /// Every registered metric as plain values, counters then gauges then
  /// histograms, each group sorted by name (the map order).
  std::vector<MetricSample> Samples() const;

  /// Zeroes every registered metric (benches/tests isolate runs with this;
  /// the names stay registered).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dynopt

#endif  // DYNOPT_COMMON_METRICS_REGISTRY_H_
