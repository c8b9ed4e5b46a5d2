// The observability subsystem: metrics registry export formats (golden
// files + round-trip), log-scale histogram quantile accuracy, and the
// slice-tracer ring buffer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace desis::obs {
namespace {

// ----------------------------------------------------- mini JSON checker --
// A strict structural validator (no value extraction): enough to guarantee
// any JSON parser accepts our exports, without adding a parser dependency.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string GoldenPath(const char* name) {
  return std::string(DESIS_TEST_DATA_DIR) + "/golden/" + name;
}

// A registry with one series of each type and deterministic contents; the
// golden files pin the exact export bytes of this exact population.
void PopulateGoldenRegistry(MetricsRegistry& registry) {
  Counter* events = registry.GetCounter(
      "engine.events", {{"node", "3"}, {"role", "local"}}, "events");
  Gauge* hwm =
      registry.GetGauge("node.queue_hwm", {{"node", "3"}}, "messages");
  Histogram* latency = registry.GetHistogram("node.handler_latency_ns",
                                             {{"role", "local"}}, "ns");
  events->Add(41);
  events->Add();
  hwm->StoreMax(7);
  hwm->StoreMax(3);  // keeps the max
  for (int64_t v : {1, 2, 3, 10, 100, 1000, 10000, 100000}) {
    latency->Record(v);
  }
}

// --------------------------------------------------------------- metrics --

TEST(ObsMetrics, ExportsAreValidJsonAndCsv) {
  MetricsRegistry registry;
  PopulateGoldenRegistry(registry);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  const std::string csv = registry.ToCsv();
  // Every CSV row has exactly the header's column count.
  const size_t cols =
      static_cast<size_t>(std::count(csv.begin(), csv.end(), '\n')) == 0
          ? 0
          : static_cast<size_t>(
                std::count(csv.begin(), csv.end(), ',') /
                std::count(csv.begin(), csv.end(), '\n'));
  std::istringstream lines(csv);
  std::string line;
  size_t header_commas = 0;
  bool first = true;
  while (std::getline(lines, line)) {
    const size_t commas =
        static_cast<size_t>(std::count(line.begin(), line.end(), ','));
    if (first) {
      header_commas = commas;
      first = false;
    } else {
      EXPECT_EQ(commas, header_commas) << line;
    }
  }
  (void)cols;
}

TEST(ObsMetrics, JsonMatchesGoldenFile) {
  MetricsRegistry registry;
  PopulateGoldenRegistry(registry);
  EXPECT_EQ(registry.ToJson() + "\n", ReadFile(GoldenPath("metrics.json")));
}

TEST(ObsMetrics, CsvMatchesGoldenFile) {
  MetricsRegistry registry;
  PopulateGoldenRegistry(registry);
  EXPECT_EQ(registry.ToCsv(), ReadFile(GoldenPath("metrics.csv")));
}

TEST(ObsMetrics, SameNameAndLabelsReturnsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x", {{"k", "v"}});
  Counter* b = registry.GetCounter("x", {{"k", "v"}});
  Counter* c = registry.GetCounter("x", {{"k", "w"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ObsHistogram, QuantilesWithinLogBucketErrorBound) {
  // Uniform integers in [1, 100000]: every quantile is known analytically;
  // the log-scale buckets (4 sub-bits) bound relative error at 6.25% plus
  // one in-bucket interpolation step.
  Histogram h;
  Rng rng(42);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    h.Record(1 + static_cast<int64_t>(rng.NextBounded(100000)));
  }
  EXPECT_EQ(h.count(), static_cast<uint64_t>(n));
  EXPECT_GE(h.min(), 1u);
  EXPECT_LE(h.max(), 100000u);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double expected = q * 100000;
    const double got = h.Quantile(q);
    EXPECT_NEAR(got, expected, expected * 0.09)
        << "q=" << q << " got " << got;
  }
}

TEST(ObsHistogram, ExactBelowSubBucketRegion) {
  Histogram h;
  for (int64_t v = 0; v < 16; ++v) h.Record(v);
  // Values below 2^4 land in exact unit buckets, so any quantile is off by
  // at most one in-bucket interpolation step (< 1.0 absolute).
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_NEAR(h.Quantile(0.5), 8.0, 1.0);
  EXPECT_EQ(h.sum(), 120u);
}

TEST(ObsHistogram, BucketMappingIsMonotoneAndContinuous) {
  uint32_t prev = 0;
  for (uint64_t v = 0; v < 100000; ++v) {
    const uint32_t b = Histogram::BucketFor(v);
    EXPECT_GE(b, prev);
    EXPECT_LE(b - prev, 1u) << "gap at " << v;
    EXPECT_LE(Histogram::BucketLowerBound(b), v);
    prev = b;
  }
}

// ----------------------------------------------------------------- trace --

TEST(ObsTrace, ExportsAreValidJson) {
  SliceTracer tracer(64);
  tracer.Record(SlicePhase::kSliceCreated, 1, 2, 0, 3, kSpanRoleLocal, 1000);
  tracer.Record(SlicePhase::kPartialShipped, 1, 2, 0, 3, kSpanRoleLocal,
                1000);
  tracer.Record(SlicePhase::kMerged, 1, 2, 0, 1, kSpanRoleIntermediate, 1000);
  tracer.Record(SlicePhase::kWindowEmitted, 0, 0, 7, 0, kSpanRoleRoot, 2000);
  EXPECT_TRUE(IsValidJson(tracer.ToJson())) << tracer.ToJson();
  EXPECT_TRUE(IsValidJson(tracer.ToChromeTrace())) << tracer.ToChromeTrace();
}

TEST(ObsTrace, RingKeepsNewestSpansOldestFirst) {
  SliceTracer tracer(8);
  for (uint64_t i = 0; i < 20; ++i) {
    tracer.Record(SlicePhase::kSliceCreated, i, 0, 0, 0, kSpanRoleLocal,
                  static_cast<Timestamp>(i));
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const std::vector<SliceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].slice_id, 12 + i);  // newest 8, oldest first
  }
}

TEST(ObsTrace, ChromeTraceMapsLifecycleToAsyncEvents) {
  SliceTracer tracer(64);
  tracer.Record(SlicePhase::kSliceCreated, 5, 2, 0, 3, kSpanRoleLocal, 1000);
  tracer.Record(SlicePhase::kMerged, 5, 2, 0, 1, kSpanRoleIntermediate, 1000);
  tracer.Record(SlicePhase::kWindowEmitted, 5, 2, 9, 0, kSpanRoleRoot, 2000);
  const std::string trace = tracer.ToChromeTrace();
  EXPECT_NE(trace.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"n\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace desis::obs
