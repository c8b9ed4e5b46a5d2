#ifndef DESIS_SRC_OBS_METRICS_H_
#define DESIS_SRC_OBS_METRICS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/relaxed_cell.h"

namespace desis::obs {

/// Metric labels, in registration order ({{"node","3"},{"role","local"}}).
/// Two metrics are the same series iff name and the full ordered label list
/// match. The schema contract for every metric lives in docs/METRICS.md.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Add() is a single relaxed fetch_add — safe from any
/// thread, no allocation, no lock.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_ += n; }
  uint64_t value() const { return v_.load(); }

 private:
  RelaxedU64 v_;
};

/// Point-in-time signed value. Set/Add/StoreMax are single relaxed atomic
/// ops; StoreMax is the high-water-mark update used by queue-depth gauges.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v); }
  void Add(int64_t d) { v_ += d; }
  void StoreMax(int64_t v) { v_.StoreMax(v); }
  int64_t value() const { return v_.load(); }

 private:
  RelaxedI64 v_;
};

/// Log-scale histogram over non-negative integer samples (latencies in ns,
/// sizes in bytes). Buckets are 2^(1/16)-ish: values below 2^kSubBits are
/// exact; above that each power of two splits into 2^kSubBits sub-buckets,
/// bounding the relative quantile error at 1/2^kSubBits (6.25%). Record()
/// is two relaxed fetch_adds plus two CAS-max updates — lock-free, no
/// allocation. Quantile() linearly interpolates inside the hit bucket.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 4;
  static constexpr uint32_t kNumBuckets = ((64 - kSubBits) << kSubBits) +
                                          (1u << kSubBits);

  void Record(int64_t sample);

  uint64_t count() const { return count_.load(); }
  uint64_t sum() const { return sum_.load(); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const { return max_.load(); }
  /// q in [0,1]; returns 0 when empty. p50 = Quantile(0.50), etc.
  double Quantile(double q) const;

  static uint32_t BucketFor(uint64_t v);
  static uint64_t BucketLowerBound(uint32_t idx);

 private:
  RelaxedU64 count_;
  RelaxedU64 sum_;
  RelaxedU64 min_{UINT64_MAX};
  RelaxedU64 max_;
  RelaxedU64 buckets_[kNumBuckets];
};

/// Named metric registry: the one place every layer registers its series.
/// Get* registers on first call (mutex + allocation) and returns a stable
/// handle; the handle's update methods are the only thing on hot paths.
/// Snapshot exporters (ToJson/ToCsv) may run concurrently with updates —
/// they read the same relaxed atomics the writers use.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  /// Registers (or finds) a series; `unit` is documentation carried into
  /// exports ("ns", "bytes", "events"). Never returns null. Requesting the
  /// same name+labels again returns the same handle whatever the unit.
  Counter* GetCounter(const std::string& name, Labels labels = {},
                      const std::string& unit = "");
  Gauge* GetGauge(const std::string& name, Labels labels = {},
                  const std::string& unit = "");
  Histogram* GetHistogram(const std::string& name, Labels labels = {},
                          const std::string& unit = "");

  /// Number of registered series.
  size_t size() const;

  /// One JSON object: {"metrics":[{name,type,unit,labels,...}, ...]} in
  /// registration order. Counters/gauges carry "value"; histograms carry
  /// count/sum/min/max/p50/p95/p99. Schema: docs/METRICS.md.
  std::string ToJson() const;

  /// CSV with a fixed header; empty numeric columns for non-applicable
  /// fields (e.g. "value" for histograms). Schema: docs/METRICS.md.
  std::string ToCsv() const;

 private:
  struct Impl;  // series storage + registration mutex (defined in metrics.cc)
  Impl* impl() const;

  mutable Impl* impl_ = nullptr;
};

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by every obs exporter.
std::string JsonEscape(const std::string& s);

}  // namespace desis::obs

#endif  // DESIS_SRC_OBS_METRICS_H_
