// Cost attribution and cluster health: the per-query-group series
// (group.events_in / group.operator_evals) must encode the paper's sharing
// win — every event pays each *distinct* operator once, not once per query
// — and the per-node health gauges (watermark lag, backlog) must be
// published for every role. Also pins the cross-node trace correlation:
// one slice's spans line up across local -> intermediate -> root with a
// consistent (node, slice) identity under both the inline and the threaded
// transport, and retransmits under the lossy link keep that identity.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/sim_link_transport.h"
#include "transport/threaded_transport.h"

namespace desis {
namespace {

Query MakeQuery(QueryId id, WindowSpec window, AggregationFunction fn) {
  Query q;
  q.id = id;
  q.window = window;
  q.agg = {fn, 0.5};
  return q;
}

std::vector<Event> OrderedEvents(size_t n, Timestamp step = 1) {
  std::vector<Event> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    events.push_back({static_cast<Timestamp>(i + 1) * step,
                      static_cast<uint32_t>(i % 4), 1.0, kNoMarker});
  }
  return events;
}

uint64_t CounterValue(obs::MetricsRegistry& registry, const std::string& name,
                      obs::Labels labels, const std::string& unit) {
  return registry.GetCounter(name, std::move(labels), unit)->value();
}

// ------------------------------------------------------- cost attribution --

TEST(ClusterCostAttribution, SharedSumAvgGroupPaysDistinctOperatorsOnce) {
  // sum + average share one cross-function group with operator mask
  // {sum, count}. N events must cost 2N operator evaluations (each distinct
  // operator once per event), NOT the 3N a per-query engine would pay
  // (1N for the sum query + 2N for the average's sum+count).
  DesisEngine engine;
  obs::MetricsRegistry registry;
  engine.set_metrics_registry(&registry);
  ASSERT_TRUE(engine
                  .Configure({MakeQuery(1, WindowSpec::Tumbling(100),
                                        AggregationFunction::kSum),
                              MakeQuery(2, WindowSpec::Tumbling(100),
                                        AggregationFunction::kAverage)})
                  .ok());
  ASSERT_EQ(engine.num_groups(), 1u);
  const std::string gid = std::to_string(engine.group(0).id);

  constexpr size_t kEvents = 1000;
  auto events = OrderedEvents(kEvents);
  engine.IngestBatch(events.data(), events.size());
  engine.AdvanceTo(2000);  // seals every slice covering the events

  EXPECT_EQ(CounterValue(registry, "group.events_in", {{"group", gid}},
                         "events"),
            kEvents);
  const uint64_t sum_evals = CounterValue(
      registry, "group.operator_evals", {{"group", gid}, {"op", "sum"}},
      "evals");
  const uint64_t count_evals = CounterValue(
      registry, "group.operator_evals", {{"group", gid}, {"op", "count"}},
      "evals");
  EXPECT_EQ(sum_evals, kEvents);
  EXPECT_EQ(count_evals, kEvents);
  EXPECT_EQ(sum_evals + count_evals, 2 * kEvents);
  EXPECT_NE(sum_evals + count_evals, 3 * kEvents);  // the unshared cost

  obs::Gauge* queries =
      registry.GetGauge("group.queries", {{"group", gid}}, "queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->value(), 2);
}

TEST(ClusterCostAttribution, ManySharedAveragesReportRatioAboveOne) {
  // n identical average queries: n*N query-events over 2N shared operator
  // evaluations -> sharing ratio n/2 (the Fig 6b win).
  DesisEngine engine;
  obs::MetricsRegistry registry;
  engine.set_metrics_registry(&registry);
  std::vector<Query> queries;
  constexpr int kQueries = 10;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(MakeQuery(static_cast<QueryId>(i + 1),
                                WindowSpec::Tumbling(100),
                                AggregationFunction::kAverage));
  }
  ASSERT_TRUE(engine.Configure(queries).ok());
  ASSERT_EQ(engine.num_groups(), 1u);
  const std::string gid = std::to_string(engine.group(0).id);

  constexpr size_t kEvents = 500;
  auto events = OrderedEvents(kEvents);
  engine.IngestBatch(events.data(), events.size());
  engine.AdvanceTo(1000);

  const double events_in = static_cast<double>(CounterValue(
      registry, "group.events_in", {{"group", gid}}, "events"));
  const double evals =
      static_cast<double>(
          CounterValue(registry, "group.operator_evals",
                       {{"group", gid}, {"op", "sum"}}, "evals")) +
      static_cast<double>(
          CounterValue(registry, "group.operator_evals",
                       {{"group", gid}, {"op", "count"}}, "evals"));
  ASSERT_GT(evals, 0);
  const double ratio = kQueries * events_in / evals;
  EXPECT_DOUBLE_EQ(ratio, kQueries / 2.0);
  EXPECT_GT(ratio, 1.0);
}

TEST(ClusterCostAttribution, PerQueryPolicyReportsUnitSharingRatio) {
  // No sharing: each query gets its own group, every group's ratio is
  // exactly queries * events / evals = 1 * N / N = 1.0.
  SlicingEngine engine("NoShare", SharingPolicy::kPerQuery,
                       PunctuationStrategy::kPrecomputed);
  obs::MetricsRegistry registry;
  engine.set_metrics_registry(&registry);
  ASSERT_TRUE(engine
                  .Configure({MakeQuery(1, WindowSpec::Tumbling(100),
                                        AggregationFunction::kSum),
                              MakeQuery(2, WindowSpec::Tumbling(200),
                                        AggregationFunction::kSum)})
                  .ok());
  ASSERT_EQ(engine.num_groups(), 2u);

  constexpr size_t kEvents = 600;
  auto events = OrderedEvents(kEvents);
  engine.IngestBatch(events.data(), events.size());
  engine.AdvanceTo(1200);

  for (size_t g = 0; g < engine.num_groups(); ++g) {
    const std::string gid = std::to_string(engine.group(g).id);
    const uint64_t events_in = CounterValue(registry, "group.events_in",
                                            {{"group", gid}}, "events");
    const uint64_t evals = CounterValue(
        registry, "group.operator_evals", {{"group", gid}, {"op", "sum"}},
        "evals");
    EXPECT_EQ(events_in, kEvents) << "group " << gid;
    EXPECT_EQ(evals, kEvents) << "group " << gid;
    obs::Gauge* queries =
        registry.GetGauge("group.queries", {{"group", gid}}, "queries");
    ASSERT_NE(queries, nullptr);
    EXPECT_EQ(queries->value(), 1) << "group " << gid;
    EXPECT_DOUBLE_EQ(static_cast<double>(queries->value()) * events_in /
                         evals,
                     1.0);
  }
}

// --------------------------------------------------------- cluster health --

// Node ids are assigned root-first: root=0, intermediates next, locals last
// (Cluster::Configure), so a {2 locals, 1 intermediate} topology is
// root=0, intermediate=1, locals=2,3.
TEST(ClusterHealthGauges, PublishedForEveryRoleAfterSampling) {
  // Obs objects are declared before the cluster: the registry must outlive
  // it (the destructor's transport shutdown flushes queue-depth gauges).
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(1 << 14);
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  cluster.AttachObs(&registry, &tracer);
  ASSERT_TRUE(cluster
                  .Configure({MakeQuery(1, WindowSpec::Tumbling(100),
                                        AggregationFunction::kSum)})
                  .ok());

  auto events = OrderedEvents(1000);
  cluster.IngestAt(0, events.data(), events.size());
  cluster.IngestAt(1, events.data(), events.size());
  // Advance only half-way: the locals have seen ts=1000 but may only
  // advertise <=500, so their watermark lag is at least 500 µs.
  cluster.Advance(500);
  cluster.SampleHealth();

  const size_t series_before = registry.size();
  struct Expect {
    const char* node;
    const char* role;
  };
  for (const Expect& e : {Expect{"0", "root"}, Expect{"1", "intermediate"},
                          Expect{"2", "local"}, Expect{"3", "local"}}) {
    obs::Gauge* lag = registry.GetGauge("health.watermark_lag_us",
                                        {{"node", e.node}, {"role", e.role}},
                                        "us");
    obs::Gauge* backlog = registry.GetGauge(
        "health.backlog", {{"node", e.node}, {"role", e.role}}, "slices");
    ASSERT_NE(lag, nullptr);
    ASSERT_NE(backlog, nullptr);
    EXPECT_GE(lag->value(), 0) << e.role << " " << e.node;
    EXPECT_GE(backlog->value(), 0) << e.role << " " << e.node;
    if (std::string(e.role) == "local") {
      EXPECT_GE(lag->value(), 500) << "local " << e.node;
      EXPECT_LE(lag->value(), 1000) << "local " << e.node;
    }
  }
  // The gauges above were registered by AttachObs, not created by the
  // lookups in this test.
  EXPECT_EQ(registry.size(), series_before);

  // After advancing past every event and draining, the pipeline is caught
  // up: locals report zero lag and the root has no parked slices.
  cluster.Advance(2000);
  cluster.Drain();
  cluster.SampleHealth();
  for (const char* node : {"2", "3"}) {
    obs::Gauge* lag = registry.GetGauge(
        "health.watermark_lag_us", {{"node", node}, {"role", "local"}}, "us");
    ASSERT_NE(lag, nullptr);
    EXPECT_EQ(lag->value(), 0) << "local " << node;
  }
  obs::Gauge* root_backlog = registry.GetGauge(
      "health.backlog", {{"node", "0"}, {"role", "root"}}, "slices");
  ASSERT_NE(root_backlog, nullptr);
  EXPECT_EQ(root_backlog->value(), 0);
}

// ------------------------------------------------- cross-node correlation --

using RoleSet = std::set<uint8_t>;

// Spans grouped by (group, slice): which roles touched each slice, and
// which node recorded each phase.
std::map<std::pair<uint32_t, uint64_t>, std::vector<obs::SliceSpan>>
SpansBySlice(const std::vector<obs::SliceSpan>& spans) {
  std::map<std::pair<uint32_t, uint64_t>, std::vector<obs::SliceSpan>> out;
  for (const obs::SliceSpan& s : spans) {
    if (s.phase == obs::SlicePhase::kWindowEmitted) continue;
    out[{s.group_id, s.slice_id}].push_back(s);
  }
  return out;
}

void ExpectCrossNodeCorrelation(std::unique_ptr<Transport> transport) {
  // Registry/tracer before the cluster: ~Cluster shuts the transport down
  // and that flush still publishes queue-depth gauges.
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(1 << 15);
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  if (transport != nullptr) cluster.set_transport(std::move(transport));
  cluster.AttachObs(&registry, &tracer);
  ASSERT_TRUE(cluster
                  .Configure({MakeQuery(1, WindowSpec::Tumbling(100),
                                        AggregationFunction::kSum)})
                  .ok());

  auto events = OrderedEvents(2000);
  cluster.IngestAt(0, events.data(), events.size());
  cluster.IngestAt(1, events.data(), events.size());
  cluster.Advance(3000);
  cluster.Drain();

  // At least one slice must show the full local -> intermediate -> root
  // life with node ids consistent with the topology (root=0, inter=1,
  // locals=2,3).
  bool full_life = false;
  for (const auto& [key, spans] : SpansBySlice(tracer.Snapshot())) {
    bool created_local = false, shipped_local = false;
    bool merged_inter = false, merged_root = false;
    for (const obs::SliceSpan& s : spans) {
      if (s.role == obs::kSpanRoleLocal) {
        EXPECT_TRUE(s.node_id == 2 || s.node_id == 3) << s.node_id;
        if (s.phase == obs::SlicePhase::kSliceCreated) created_local = true;
        if (s.phase == obs::SlicePhase::kPartialShipped) shipped_local = true;
      } else if (s.role == obs::kSpanRoleIntermediate) {
        EXPECT_EQ(s.node_id, 1u);
        if (s.phase == obs::SlicePhase::kMerged) merged_inter = true;
      } else if (s.role == obs::kSpanRoleRoot) {
        EXPECT_EQ(s.node_id, 0u);
        if (s.phase == obs::SlicePhase::kMerged) merged_root = true;
      }
    }
    if (created_local && shipped_local && merged_inter && merged_root) {
      full_life = true;
    }
  }
  EXPECT_TRUE(full_life)
      << "no slice recorded spans across all three roles";
}

TEST(ClusterTraceCorrelation, SliceSpansCrossNodesInlineTransport) {
  ExpectCrossNodeCorrelation(nullptr);  // default inline transport
}

TEST(ClusterTraceCorrelation, SliceSpansCrossNodesThreadedTransport) {
  ExpectCrossNodeCorrelation(std::make_unique<ThreadedTransport>());
}

TEST(ClusterTraceCorrelation, RetransmitsKeepSliceIdentityUnderLossyLink) {
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(1 << 15);
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  SimLinkConfig config;
  config.drop_probability = 0.3;
  config.seed = 7;
  cluster.set_transport(std::make_unique<SimLinkTransport>(config));
  cluster.AttachObs(&registry, &tracer);
  ASSERT_TRUE(cluster
                  .Configure({MakeQuery(1, WindowSpec::Tumbling(100),
                                        AggregationFunction::kSum)})
                  .ok());

  auto events = OrderedEvents(2000);
  for (Timestamp t = 200; t <= 2200; t += 200) {
    for (int local = 0; local < 2; ++local) {
      size_t begin = static_cast<size_t>(t - 200);
      size_t end = std::min<size_t>(static_cast<size_t>(t), events.size());
      if (end > begin) {
        cluster.IngestAt(local, events.data() + begin, end - begin);
      }
    }
    cluster.Advance(t);
  }
  cluster.Drain();

  // 30% loss over ~40 slice partials: statistically certain to retransmit
  // at least one (the seed pins the schedule, so this is deterministic).
  uint64_t retransmits = 0;
  for (int i = 0; i < cluster.num_locals(); ++i) {
    retransmits += cluster.local_stats(i).retransmits;
  }
  retransmits += cluster.intermediate_stats(0).retransmits;
  ASSERT_GT(retransmits, 0u);

  // Every kRetransmit span must reference a slice some local also shipped:
  // same (group, slice) identity, so the merged trace shows the extra hop
  // on the slice's own track.
  std::set<std::pair<uint32_t, uint64_t>> shipped;
  std::vector<obs::SliceSpan> retransmit_spans;
  for (const obs::SliceSpan& s : tracer.Snapshot()) {
    if (s.phase == obs::SlicePhase::kPartialShipped) {
      shipped.insert({s.group_id, s.slice_id});
    }
    if (s.phase == obs::SlicePhase::kRetransmit) retransmit_spans.push_back(s);
  }
  EXPECT_FALSE(retransmit_spans.empty());
  for (const obs::SliceSpan& s : retransmit_spans) {
    EXPECT_TRUE(shipped.count({s.group_id, s.slice_id}))
        << "retransmit of unknown slice " << s.slice_id;
  }

  // Satellite: the retransmit counter series mirrors the node stats.
  uint64_t counted = 0;
  for (const char* node : {"1", "2", "3"}) {
    const char* role = std::string(node) == "1" ? "intermediate" : "local";
    counted += CounterValue(registry, "node.retransmits",
                            {{"node", node}, {"role", role}}, "messages");
  }
  EXPECT_EQ(counted, retransmits);
}

}  // namespace
}  // namespace desis
