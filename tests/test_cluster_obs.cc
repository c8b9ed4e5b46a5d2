// Cluster observability read paths: the deterministic fields of
// Cluster::StatsReport() against a golden file, and the NodeStats
// snapshots against the registry series they are read from.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/sim_link_transport.h"

namespace desis {
namespace {

Query MakeQuery(QueryId id, WindowSpec window, AggregationFunction fn) {
  Query q;
  q.id = id;
  q.window = window;
  q.agg = {fn, 0.5};
  return q;
}

// Slice partials (sum, average), raw values crossing every link (median),
// and a root-only count-measure group (forward batches, root reordering).
std::vector<Query> Queries() {
  return {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kAverage),
      MakeQuery(2, WindowSpec::Sliding(200, 50), AggregationFunction::kSum),
      MakeQuery(3, WindowSpec::Tumbling(100), AggregationFunction::kMedian),
      MakeQuery(4, WindowSpec::CountTumbling(50), AggregationFunction::kSum),
  };
}

constexpr int kLocals = 3;
constexpr Timestamp kEnd = 3000;

/// Feeds every local one event per 5 time units and advances every 100.
/// With `reattach`, local 0 is declared dead at 1000 and reattached at
/// 1500 (exactly one reattach, with a replay of its buffered sends).
void Drive(Cluster& cluster, bool reattach) {
  for (Timestamp ts = 0; ts < kEnd; ts += 5) {
    for (int l = 0; l < kLocals; ++l) {
      const Event e{ts + l, static_cast<uint32_t>(l),
                    static_cast<double>((ts * 7 + l * 13) % 101), kNoMarker};
      cluster.IngestAt(l, &e, 1);
    }
    if (ts % 100 == 95) cluster.Advance(ts - 50);
    if (reattach && ts == 1000) {
      ASSERT_TRUE(cluster.DeclareLocalDead(0).ok());
    }
    if (reattach && ts == 1500) {
      ASSERT_TRUE(cluster.ReattachLocal(0).ok());
    }
  }
  cluster.Advance(kEnd + 1000);
  cluster.Drain();
}

std::unique_ptr<SimLinkTransport> LossyLink() {
  SimLinkConfig link;
  link.latency_us = 40;
  link.jitter_us = 10;
  link.drop_probability = 0.3;
  link.seed = 17;
  return std::make_unique<SimLinkTransport>(link);
}

ClusterOptions WithRecovery() {
  ClusterOptions options;
  options.recovery.enabled = true;
  return options;
}

/// Replaces the number after each occurrence of `key` with "_".
void MaskNumbers(std::string& report, const std::string& key) {
  for (size_t at = report.find(key); at != std::string::npos;
       at = report.find(key, at)) {
    at += key.size();
    size_t end = at;
    while (end < report.size() &&
           (report[end] == '-' || (report[end] >= '0' && report[end] <= '9'))) {
      ++end;
    }
    report.replace(at, end - at, "_");
  }
}

/// Masks what a run cannot reproduce: every "busy_ns" value (wall-clock
/// CPU time), every histogram's count/sum/min/max/quantiles (timings),
/// keeping the histogram's name, type, unit and labels. One registry
/// series per line so a diff points at the series.
std::string Deterministic(std::string report) {
  MaskNumbers(report, "\"busy_ns\":");
  const std::string hist = "\"type\":\"histogram\"";
  for (size_t at = report.find(hist); at != std::string::npos;
       at = report.find(hist, at)) {
    const size_t labels_end = report.find('}', at);  // closes "labels"
    const size_t entry_end = report.find('}', labels_end + 1);
    report.erase(labels_end + 1, entry_end - labels_end - 1);
    at = labels_end;
  }
  std::string out;
  for (size_t i = 0; i < report.size(); ++i) {
    out += report[i];
    if (report[i] == ',' && report.compare(i + 1, 7, "{\"name\"") == 0) {
      out += '\n';
    }
  }
  return out + "\n";
}

std::string GoldenPath() {
  return std::string(DESIS_TEST_DATA_DIR) + "/golden/stats_report.txt";
}

TEST(StatsReport, DeterministicFieldsMatchGolden) {
  std::string actual;
  {
    obs::MetricsRegistry registry;
    obs::SliceTracer tracer(1 << 14);
    Cluster cluster(ClusterSystem::kDesis, {kLocals, 1});
    cluster.AttachObs(&registry, &tracer);
    ASSERT_TRUE(cluster.Configure(Queries()).ok());
    Drive(cluster, /*reattach=*/false);
    actual += "# inline\n" + Deterministic(cluster.StatsReport());
  }
  {
    obs::MetricsRegistry registry;
    obs::SliceTracer tracer(1 << 14);
    Cluster cluster(ClusterSystem::kDesis, {kLocals, 1}, WithRecovery());
    cluster.set_transport(LossyLink());
    cluster.AttachObs(&registry, &tracer);
    ASSERT_TRUE(cluster.Configure(Queries()).ok());
    Drive(cluster, /*reattach=*/true);
    ASSERT_EQ(cluster.recovery_reattaches(), 1u);
    actual += "# simlink 30% loss, recovery, one reattach\n" +
              Deterministic(cluster.StatsReport());
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << GoldenPath();
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str());
}

/// The fields of NodeStats a run reproduces (busy_ns is wall-clock time).
std::vector<uint64_t> Reproducible(const NodeStats& s) {
  return {s.bytes_sent,  s.bytes_received, s.messages_sent,
          s.messages_received, s.queue_hwm, s.retransmits,
          s.messages_dropped};
}

TEST(ClusterObs, NodeStatsReadTheRegistry) {
  // Node ids are assigned root-first: root=0, intermediate=1, locals 2..4.
  Cluster plain(ClusterSystem::kDesis, {kLocals, 1}, WithRecovery());
  plain.set_transport(LossyLink());
  ASSERT_TRUE(plain.Configure(Queries()).ok());
  Drive(plain, /*reattach=*/true);

  obs::MetricsRegistry registry;
  Cluster observed(ClusterSystem::kDesis, {kLocals, 1}, WithRecovery());
  observed.set_transport(LossyLink());
  observed.AttachObs(&registry, nullptr);
  ASSERT_TRUE(observed.Configure(Queries()).ok());
  Drive(observed, /*reattach=*/true);

  // An attached registry changes where the facts are stored, not what
  // they are.
  for (int i = 0; i < kLocals; ++i) {
    EXPECT_EQ(Reproducible(plain.local_stats(i)),
              Reproducible(observed.local_stats(i)))
        << "local " << i;
  }
  EXPECT_EQ(Reproducible(plain.intermediate_stats(0)),
            Reproducible(observed.intermediate_stats(0)));
  EXPECT_EQ(Reproducible(plain.root_stats()),
            Reproducible(observed.root_stats()));
  EXPECT_EQ(plain.results(), observed.results());
  EXPECT_EQ(plain.recovery_reattaches(), observed.recovery_reattaches());
  EXPECT_EQ(plain.recovery_replayed(), observed.recovery_replayed());

  // Each snapshot field is its node's series, and the cluster facts are
  // theirs. The lookups below must find existing series, not add any.
  const size_t series = registry.size();
  uint64_t retransmits = 0, drops = 0, replayed = 0;
  auto expect_series = [&](const NodeStats& s, const std::string& node,
                           const std::string& role) {
    const obs::Labels labels = {{"node", node}, {"role", role}};
    EXPECT_EQ(static_cast<int64_t>(s.queue_hwm),
              registry.GetGauge("node.queue_hwm", labels)->value())
        << role << " " << node;
    EXPECT_EQ(s.retransmits,
              registry.GetCounter("node.retransmits", labels)->value())
        << role << " " << node;
    EXPECT_EQ(s.messages_dropped,
              registry.GetCounter("node.messages_dropped", labels)->value())
        << role << " " << node;
    retransmits += s.retransmits;
    drops += s.messages_dropped;
    replayed +=
        registry.GetCounter("recovery.replayed_slices", labels)->value();
  };
  expect_series(observed.root_stats(), "0", "root");
  expect_series(observed.intermediate_stats(0), "1", "intermediate");
  for (int i = 0; i < kLocals; ++i) {
    expect_series(observed.local_stats(i), std::to_string(2 + i), "local");
  }
  const obs::Labels system = {{"system", "Desis"}};
  EXPECT_EQ(observed.results(),
            registry.GetCounter("cluster.results", system)->value());
  EXPECT_EQ(observed.recovery_reattaches(),
            registry.GetCounter("recovery.reattaches", system)->value());
  EXPECT_EQ(observed.recovery_replayed(), replayed);
  EXPECT_EQ(registry.size(), series);

  // The run exercised every one of them.
  EXPECT_GT(observed.results(), 0u);
  EXPECT_EQ(observed.recovery_reattaches(), 1u);
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(retransmits, 0u);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(observed.intermediate_stats(0).queue_hwm, 0u);
}

}  // namespace
}  // namespace desis
