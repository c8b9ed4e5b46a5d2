#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

namespace desis::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ------------------------------------------------------------- histogram --

uint32_t Histogram::BucketFor(uint64_t v) {
  if (v < (1u << kSubBits)) return static_cast<uint32_t>(v);
  const uint32_t exp = 63 - static_cast<uint32_t>(std::countl_zero(v));
  const uint32_t sub =
      static_cast<uint32_t>((v >> (exp - kSubBits)) & ((1u << kSubBits) - 1));
  return ((exp - kSubBits + 1) << kSubBits) + sub;
}

uint64_t Histogram::BucketLowerBound(uint32_t idx) {
  if (idx < (1u << kSubBits)) return idx;
  const uint32_t octave = idx >> kSubBits;  // 1-based beyond the exact region
  const uint32_t exp = octave + kSubBits - 1;
  const uint64_t sub = idx & ((1u << kSubBits) - 1);
  return (uint64_t{1} << exp) + (sub << (exp - kSubBits));
}

void Histogram::Record(int64_t sample) {
  const uint64_t v = sample < 0 ? 0 : static_cast<uint64_t>(sample);
  ++count_;
  sum_ += v;
  min_.StoreMin(v);
  max_.StoreMax(v);
  ++buckets_[BucketFor(v)];
}

uint64_t Histogram::min() const {
  const uint64_t m = min_.load();
  return m == UINT64_MAX ? 0 : m;
}

double Histogram::Quantile(double q) const {
  const uint64_t n = count_.load();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target sample (1-based, nearest-rank with interpolation
  // inside the bucket the rank lands in).
  const double rank = q * static_cast<double>(n - 1) + 1.0;
  uint64_t cum = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = buckets_[i].load();
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      const uint64_t lo = BucketLowerBound(i);
      const uint64_t hi = i + 1 < kNumBuckets ? BucketLowerBound(i + 1) : lo;
      const double within =
          (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      const double estimate =
          static_cast<double>(lo) +
          within * static_cast<double>(hi > lo ? hi - lo : 0);
      // Interpolation can overshoot the edge buckets; the true value never
      // lies outside the observed range.
      return std::clamp(estimate, static_cast<double>(min()),
                        static_cast<double>(max_.load()));
    }
    cum += in_bucket;
  }
  return static_cast<double>(max_.load());
}

// -------------------------------------------------------------- registry --

namespace {

enum SeriesType { kCounter = 0, kGauge, kHistogram };

const char* TypeName(int type) {
  switch (type) {
    case kCounter: return "counter";
    case kGauge: return "gauge";
    default: return "histogram";
  }
}

std::string SeriesKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

/// Prints a double with enough precision for quantiles without trailing
/// noise: integers print as integers.
std::string FormatDouble(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

}  // namespace

struct MetricsRegistry::Impl {
  struct Series {
    std::string name;
    Labels labels;
    std::string unit;
    int type;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;  // large; allocated on demand
  };

  mutable std::mutex mu;
  std::deque<Series> series;                // stable addresses
  std::map<std::string, Series*> by_key;

  Series* FindOrCreate(const std::string& name, Labels&& labels,
                       const std::string& unit, int type) {
    const std::string key = SeriesKey(name, labels);
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_key.find(key);
    if (it != by_key.end()) return it->second;
    series.push_back({name, std::move(labels), unit, type, {}, {}, {}});
    Series* s = &series.back();
    if (type == kHistogram) s->histogram = std::make_unique<Histogram>();
    by_key.emplace(key, s);
    return s;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {}

MetricsRegistry::Impl* MetricsRegistry::impl() const { return impl_; }

MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter* MetricsRegistry::GetCounter(const std::string& name, Labels labels,
                                     const std::string& unit) {
  return &impl()->FindOrCreate(name, std::move(labels), unit, kCounter)
              ->counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, Labels labels,
                                 const std::string& unit) {
  return &impl()->FindOrCreate(name, std::move(labels), unit, kGauge)->gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         Labels labels,
                                         const std::string& unit) {
  return impl()
      ->FindOrCreate(name, std::move(labels), unit, kHistogram)
      ->histogram.get();
}

size_t MetricsRegistry::size() const {
  if (impl_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->series.size();
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"metrics\":[";
  if (impl_ != nullptr) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    bool first = true;
    for (const Impl::Series& s : impl_->series) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + JsonEscape(s.name) + "\",\"type\":\"";
      out += TypeName(s.type);
      out += "\",\"unit\":\"" + JsonEscape(s.unit) + "\",\"labels\":{";
      bool first_label = true;
      for (const auto& [k, v] : s.labels) {
        if (!first_label) out += ',';
        first_label = false;
        out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
      }
      out += "}";
      char buf[256];
      switch (s.type) {
        case kCounter:
          std::snprintf(buf, sizeof(buf), ",\"value\":%" PRIu64 "}",
                        s.counter.value());
          out += buf;
          break;
        case kGauge:
          std::snprintf(buf, sizeof(buf), ",\"value\":%" PRId64 "}",
                        s.gauge.value());
          out += buf;
          break;
        default: {
          const Histogram& h = *s.histogram;
          std::snprintf(buf, sizeof(buf),
                        ",\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                        ",\"min\":%" PRIu64 ",\"max\":%" PRIu64,
                        h.count(), h.sum(), h.min(), h.max());
          out += buf;
          out += ",\"p50\":" + FormatDouble(h.Quantile(0.50));
          out += ",\"p95\":" + FormatDouble(h.Quantile(0.95));
          out += ",\"p99\":" + FormatDouble(h.Quantile(0.99));
          out += "}";
        }
      }
    }
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::ToCsv() const {
  std::string out = "name,labels,type,unit,value,count,sum,min,max,p50,p95,p99\n";
  if (impl_ == nullptr) return out;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const Impl::Series& s : impl_->series) {
    out += s.name;
    out += ',';
    // Labels cell: k=v joined by ';' (never contains a comma by contract).
    bool first = true;
    for (const auto& [k, v] : s.labels) {
      if (!first) out += ';';
      first = false;
      out += k + "=" + v;
    }
    out += ',';
    out += TypeName(s.type);
    out += ',';
    out += s.unit;
    char buf[256];
    switch (s.type) {
      case kCounter:
        std::snprintf(buf, sizeof(buf), ",%" PRIu64 ",,,,,,,\n",
                      s.counter.value());
        out += buf;
        break;
      case kGauge:
        std::snprintf(buf, sizeof(buf), ",%" PRId64 ",,,,,,,\n",
                      s.gauge.value());
        out += buf;
        break;
      default: {
        const Histogram& h = *s.histogram;
        std::snprintf(buf, sizeof(buf),
                      ",,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64,
                      h.count(), h.sum(), h.min(), h.max());
        out += buf;
        out += "," + FormatDouble(h.Quantile(0.50));
        out += "," + FormatDouble(h.Quantile(0.95));
        out += "," + FormatDouble(h.Quantile(0.99)) + "\n";
      }
    }
  }
  return out;
}

}  // namespace desis::obs
