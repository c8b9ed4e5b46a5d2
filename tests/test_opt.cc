// The cost-based query optimizer (src/opt/): cost model, factor-window
// planner, incremental group maintenance, and the cluster runtime paths
// that execute them. Pins the contract the 10k-query experiments rely on:
//  - factor-rewritten plans produce byte-identical results on exactly
//    representable aggregates while doing strictly less merge work;
//  - per-lane mask narrowing changes the operator_evals accounting to the
//    lane-accurate form without touching results;
//  - a query added at runtime joins the exact group a cold start would
//    have chosen (opt::GroupIndex replays the analyzer's probe order), and
//    churn storms under concurrent transports never lose or duplicate a
//    stable query's windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/query_analyzer.h"
#include "core/spec_layout.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "opt/cost_model.h"
#include "opt/factor_planner.h"
#include "opt/group_index.h"
#include "transport/sim_link_transport.h"
#include "transport/threaded_transport.h"

namespace desis {
namespace {

Query MakeQuery(QueryId id, WindowSpec window, AggregationFunction fn,
                Predicate predicate = Predicate::All()) {
  Query q;
  q.id = id;
  q.window = window;
  q.agg = {fn, 0.5};
  q.predicate = predicate;
  return q;
}

std::vector<QueryGroup> Analyze(
    const std::vector<Query>& queries,
    DeploymentMode mode = DeploymentMode::kCentralized) {
  QueryAnalyzer analyzer(mode, SharingPolicy::kCrossFunction);
  auto groups = analyzer.Analyze(queries);
  EXPECT_TRUE(groups.ok());
  return groups.ok() ? groups.value() : std::vector<QueryGroup>{};
}

/// Index of the spec with the given window length in the group's canonical
/// spec layout (the numbering GroupPlan::feeder uses).
int SpecIndexOf(const std::vector<SpecLayoutEntry>& layout, int64_t length) {
  for (size_t i = 0; i < layout.size(); ++i) {
    if (layout[i].spec.length == length) return static_cast<int>(i);
  }
  return -1;
}

// -------------------------------------------------------------- cost model --

TEST(OptCostModel, SlicePeriodIsGcdOverSpecEdges) {
  const auto groups =
      Analyze({MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum),
               MakeQuery(2, WindowSpec::Sliding(150, 50),
                         AggregationFunction::kMax)});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(opt::SlicePeriod(groups[0]), 50);
}

TEST(OptCostModel, FactorGainRequiresFeederCoarserThanSlicePeriod) {
  // A feeder no coarser than the base slice period saves nothing: windows
  // already assemble from slices of that size.
  EXPECT_DOUBLE_EQ(opt::FactorGain(1000, 1000, 100, 100), 0.0);
  // A genuinely coarser feeder replaces many base-slice merges with a few
  // composite merges; a larger feeder saves more.
  const double coarse = opt::FactorGain(10000, 10000, 1000, 100);
  const double fine = opt::FactorGain(10000, 10000, 500, 100);
  EXPECT_GT(coarse, 0.0);
  EXPECT_GT(fine, 0.0);
  EXPECT_GT(coarse, fine);
}

// ----------------------------------------------------------------- planner --

TEST(OptPlanner, FactorsCoarseSpecOntoLargestUsefulFeeder) {
  const auto groups = Analyze(
      {MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum),
       MakeQuery(2, WindowSpec::Tumbling(1000), AggregationFunction::kSum),
       MakeQuery(3, WindowSpec::Tumbling(10000), AggregationFunction::kSum)});
  ASSERT_EQ(groups.size(), 1u);
  const GroupPlan plan = opt::BuildGroupPlan(groups[0]);
  const auto layout = DeriveSpecLayout(groups[0]);
  const int s100 = SpecIndexOf(layout, 100);
  const int s1000 = SpecIndexOf(layout, 1000);
  const int s10000 = SpecIndexOf(layout, 10000);
  ASSERT_GE(s100, 0);
  ASSERT_GE(s1000, 0);
  ASSERT_GE(s10000, 0);
  // The slice period is 100, so the 100-length spec cannot usefully feed
  // anything; the 10000 spec factors onto the largest feeder, 1000.
  EXPECT_TRUE(plan.optimized);
  EXPECT_EQ(plan.rewrites, 1u);
  EXPECT_EQ(plan.FeederOf(static_cast<uint32_t>(s1000)), -1);
  EXPECT_EQ(plan.FeederOf(static_cast<uint32_t>(s10000)), s1000);
  EXPECT_EQ(plan.dag_depth, 2u);
}

TEST(OptPlanner, ChainedFeedersDeepenTheDag) {
  // A sliding window drops the slice period to 25, making the 100-length
  // tumbling spec a useful feeder too: 100 feeds 500 feeds 10000.
  const auto groups = Analyze(
      {MakeQuery(1, WindowSpec::Sliding(50, 25), AggregationFunction::kSum),
       MakeQuery(2, WindowSpec::Tumbling(100), AggregationFunction::kSum),
       MakeQuery(3, WindowSpec::Tumbling(500), AggregationFunction::kSum),
       MakeQuery(4, WindowSpec::Tumbling(10000), AggregationFunction::kSum)});
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(opt::SlicePeriod(groups[0]), 25);
  const GroupPlan plan = opt::BuildGroupPlan(groups[0]);
  const auto layout = DeriveSpecLayout(groups[0]);
  const int s100 = SpecIndexOf(layout, 100);
  const int s500 = SpecIndexOf(layout, 500);
  const int s10000 = SpecIndexOf(layout, 10000);
  EXPECT_EQ(plan.rewrites, 2u);
  EXPECT_EQ(plan.FeederOf(static_cast<uint32_t>(s500)), s100);
  EXPECT_EQ(plan.FeederOf(static_cast<uint32_t>(s10000)), s500);
  EXPECT_EQ(plan.DepthOf(static_cast<uint32_t>(s10000)), 2u);
  EXPECT_EQ(plan.dag_depth, 3u);
}

TEST(OptPlanner, LaneMasksNarrowToEachLanesOperators) {
  const auto groups = Analyze(
      {MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum,
                 Predicate::KeyEquals(1)),
       MakeQuery(2, WindowSpec::Tumbling(100), AggregationFunction::kAverage,
                 Predicate::KeyEquals(2))});
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].lanes.size(), 2u);
  const GroupPlan plan = opt::BuildGroupPlan(groups[0]);
  EXPECT_TRUE(plan.optimized);
  EXPECT_EQ(plan.rewrites, 0u);  // one spec, nothing to factor
  ASSERT_EQ(plan.lane_masks.size(), 2u);
  uint32_t sum_lane = groups[0].queries[0].lane;
  uint32_t avg_lane = groups[0].queries[1].lane;
  // The sum lane stops paying for the average's count operator.
  EXPECT_EQ(plan.lane_masks[sum_lane],
            ReduceMask(OperatorsFor(AggregationFunction::kSum)));
  EXPECT_EQ(plan.lane_masks[avg_lane], groups[0].mask);
  EXPECT_NE(plan.lane_masks[sum_lane], groups[0].mask);
}

TEST(OptPlanner, NonDecomposableSortGroupsStayUnfactored) {
  const auto groups = Analyze(
      {MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kMedian),
       MakeQuery(2, WindowSpec::Tumbling(10000),
                 AggregationFunction::kMedian)});
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_TRUE(MaskHas(groups[0].mask, OperatorKind::kNonDecomposableSort));
  const GroupPlan plan = opt::BuildGroupPlan(groups[0]);
  // Sealed composites would re-merge sorted runs the dependent windows
  // cannot decompose; the planner must leave such groups on base slices.
  EXPECT_EQ(plan.rewrites, 0u);
  EXPECT_FALSE(plan.optimized);  // single lane: mask narrowing is a no-op too
}

TEST(OptPlanner, SingleSpecSingleLaneGroupIsStatic) {
  const auto groups = Analyze(
      {MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum)});
  ASSERT_EQ(groups.size(), 1u);
  const GroupPlan plan = opt::BuildGroupPlan(groups[0]);
  EXPECT_FALSE(plan.optimized);
  EXPECT_EQ(plan.rewrites, 0u);
  EXPECT_EQ(plan.dag_depth, 1u);
}

// ---------------------------------------------------------- plan execution --

using ResultKey = std::tuple<QueryId, Timestamp, Timestamp>;
using ResultMap = std::map<ResultKey, std::pair<double, uint64_t>>;

TEST(OptExecution, FactoredPlanIsByteIdenticalAndMergesLess) {
  const std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum),
      MakeQuery(2, WindowSpec::Tumbling(6000), AggregationFunction::kSum),
      MakeQuery(3, WindowSpec::Sliding(12000, 6000),
                AggregationFunction::kAverage)};

  auto run = [&](bool optimized, ResultMap* results) -> uint64_t {
    DesisEngine engine;
    engine.set_sink([&](const WindowResult& r) {
      (*results)[{r.query_id, r.window_start, r.window_end}] = {r.value,
                                                                r.event_count};
    });
    if (optimized) {
      auto groups = Analyze(queries);
      EXPECT_GE(opt::PlanGroups(groups), 1u);
      EXPECT_GT(groups[0].plan.rewrites, 0u);
      EXPECT_TRUE(engine.ConfigureGroups(std::move(groups)).ok());
    } else {
      EXPECT_TRUE(engine.Configure(queries).ok());
    }
    std::vector<Event> events;
    events.reserve(30000);
    for (int64_t i = 1; i <= 30000; ++i) {
      events.push_back({i, static_cast<uint32_t>(i % 4),
                        static_cast<double>(i % 7), kNoMarker});
    }
    engine.IngestBatch(events.data(), events.size());
    engine.Finish();
    return engine.stats().merges.load();
  };

  ResultMap base, opt;
  const uint64_t base_merges = run(false, &base);
  const uint64_t opt_merges = run(true, &opt);
  ASSERT_FALSE(base.empty());
  // Sum and count are exactly representable over integer values, so the
  // factored plan must reproduce every window bit for bit.
  EXPECT_EQ(base, opt);
  // The 12000-length windows merged two sealed 6000-composites each
  // instead of 120 base slices.
  EXPECT_LT(opt_merges, base_merges);
}

TEST(OptExecution, LaneNarrowingMakesOperatorEvalsLaneAccurate) {
  // key=1 carries a sum query, key=2 a sum+count (average) query; 1000
  // events cycle keys 0..3 so each lane folds 250 events. The static
  // accounting charges every active operator the slice's whole fold count;
  // the planned group charges each operator only the folds on lanes whose
  // narrowed mask carries it.
  const std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum,
                Predicate::KeyEquals(1)),
      MakeQuery(2, WindowSpec::Tumbling(100), AggregationFunction::kAverage,
                Predicate::KeyEquals(2))};
  DesisEngine engine;
  obs::MetricsRegistry registry;
  engine.set_metrics_registry(&registry);
  auto groups = Analyze(queries);
  ASSERT_EQ(opt::PlanGroups(groups), 1u);
  ASSERT_TRUE(engine.ConfigureGroups(std::move(groups)).ok());
  std::vector<Event> events;
  for (int64_t i = 1; i <= 1000; ++i) {
    events.push_back({i, static_cast<uint32_t>(i % 4), 1.0, kNoMarker});
  }
  engine.IngestBatch(events.data(), events.size());
  engine.Finish();

  const std::string gid = std::to_string(engine.group(0).id);
  obs::Counter* sum_evals = registry.GetCounter(
      "group.operator_evals", {{"group", gid}, {"op", "sum"}}, "evals");
  obs::Counter* count_evals = registry.GetCounter(
      "group.operator_evals", {{"group", gid}, {"op", "count"}}, "evals");
  ASSERT_NE(sum_evals, nullptr);
  ASSERT_NE(count_evals, nullptr);
  EXPECT_EQ(sum_evals->value(), 500u);    // both lanes carry sum
  EXPECT_EQ(count_evals->value(), 250u);  // only the average lane
}

// ------------------------------------------------------------- group index --

/// A grouping's shape, independent of group ids: for each group the sorted
/// (query id, lane predicate, dedup) tuples, sorted across groups.
std::vector<std::vector<std::string>> GroupingSignature(
    const std::vector<QueryGroup>& groups) {
  std::vector<std::vector<std::string>> sig;
  for (const QueryGroup& g : groups) {
    std::vector<std::string> members;
    for (const GroupedQuery& gq : g.queries) {
      const SelectionLane& lane = g.lanes[gq.lane];
      members.push_back(std::to_string(gq.query.id) + "|" +
                        lane.predicate.ToString() + "|" +
                        (lane.deduplicate ? "dedup" : "plain") + "|" +
                        (g.root_only ? "root" : "dist"));
    }
    std::sort(members.begin(), members.end());
    sig.push_back(std::move(members));
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

std::vector<Query> MixedQuerySet(size_t n) {
  std::vector<Query> queries;
  for (size_t i = 0; i < n; ++i) {
    const QueryId id = static_cast<QueryId>(i + 1);
    WindowSpec window;
    switch (i % 4) {
      case 0: window = WindowSpec::Tumbling(100 * (1 + i % 3)); break;
      case 1: window = WindowSpec::Sliding(400, 100); break;
      case 2: window = WindowSpec::CountTumbling(50); break;  // root-only
      default: window = WindowSpec::Tumbling(600); break;
    }
    const AggregationFunction fn =
        std::vector<AggregationFunction>{
            AggregationFunction::kSum, AggregationFunction::kAverage,
            AggregationFunction::kMax, AggregationFunction::kMedian}[i % 4];
    const Predicate pred = (i % 5 == 0)
                               ? Predicate::All()
                               : Predicate::KeyEquals(1 + i % 4);
    queries.push_back(MakeQuery(id, window, fn, pred));
  }
  return queries;
}

TEST(OptGroupIndex, RuntimeAddsReplayColdStartGrouping) {
  const std::vector<Query> queries = MixedQuerySet(24);
  const auto cold = Analyze(queries, DeploymentMode::kDecentralized);

  opt::GroupIndex index(DeploymentMode::kDecentralized,
                        SharingPolicy::kCrossFunction);
  const std::vector<Query> seed(queries.begin(), queries.begin() + 8);
  index.Seed(Analyze(seed, DeploymentMode::kDecentralized));
  for (size_t i = 8; i < queries.size(); ++i) index.AddQuery(queries[i]);

  EXPECT_EQ(index.num_queries(), queries.size());
  EXPECT_EQ(index.num_groups(), cold.size());
  EXPECT_EQ(GroupingSignature(index.Snapshot()), GroupingSignature(cold));
}

TEST(OptGroupIndex, PlacementFlagsTrackLanesAndGroups) {
  opt::GroupIndex index;
  index.Seed(Analyze({MakeQuery(1, WindowSpec::Tumbling(100),
                                AggregationFunction::kSum,
                                Predicate::KeyEquals(1))}));
  // Identical predicate: same group, same lane.
  const auto same_lane = index.AddQuery(
      MakeQuery(2, WindowSpec::Tumbling(200), AggregationFunction::kAverage,
                Predicate::KeyEquals(1)));
  EXPECT_FALSE(same_lane.new_group);
  EXPECT_FALSE(same_lane.new_lane);
  // Disjoint key: same group, new lane (the O(1) fast path).
  const auto new_lane = index.AddQuery(
      MakeQuery(3, WindowSpec::Tumbling(100), AggregationFunction::kMax,
                Predicate::KeyEquals(2)));
  EXPECT_FALSE(new_lane.new_group);
  EXPECT_TRUE(new_lane.new_lane);
  EXPECT_EQ(new_lane.gid, same_lane.gid);
  // Overlapping predicate (a value range intersecting the key lanes):
  // cannot share, opens a new group.
  const auto overlap = index.AddQuery(
      MakeQuery(4, WindowSpec::Tumbling(100), AggregationFunction::kSum,
                Predicate::ValueRange(0, 10)));
  EXPECT_TRUE(overlap.new_group);
  EXPECT_EQ(index.num_groups(), 2u);
}

TEST(OptGroupIndex, RemoveRetiresOnlyEmptyGroups) {
  opt::GroupIndex index;
  index.Seed(Analyze(
      {MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum),
       MakeQuery(2, WindowSpec::Tumbling(200), AggregationFunction::kMax)}));
  ASSERT_EQ(index.num_groups(), 1u);

  auto first = index.RemoveQuery(1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().group_empty);
  EXPECT_EQ(index.num_groups(), 1u);
  EXPECT_EQ(index.num_queries(), 1u);

  auto second = index.RemoveQuery(2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().group_empty);
  EXPECT_EQ(index.num_groups(), 0u);

  EXPECT_FALSE(index.RemoveQuery(99).ok());
}

// -------------------------------------------------------- cluster equivalence

Event Ev(Timestamp ts, uint32_t key, double v) { return {ts, key, v, kNoMarker}; }

/// Thread-safe result recorder; counts duplicate emissions of one window.
struct Recorder {
  std::mutex mu;
  ResultMap results;
  int duplicates = 0;

  WindowSink Sink() {
    return [this](const WindowResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      auto [it, inserted] = results.emplace(
          ResultKey{r.query_id, r.window_start, r.window_end},
          std::pair<double, uint64_t>{r.value, r.event_count});
      if (!inserted) ++duplicates;
    };
  }

  /// The recorded windows of one query, optionally from a start cutoff.
  ResultMap Of(QueryId id, Timestamp from = 0) {
    std::lock_guard<std::mutex> lock(mu);
    ResultMap out;
    for (const auto& [key, value] : results) {
      if (std::get<0>(key) == id && std::get<1>(key) >= from) out[key] = value;
    }
    return out;
  }
};

TEST(OptCluster, RuntimeAddMatchesColdStartGroupingAndResults) {
  const Query q1 =
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kAverage);
  const Query q2 =
      MakeQuery(2, WindowSpec::Tumbling(100), AggregationFunction::kSum);
  auto feed = [](Cluster& cluster, Timestamp lo, Timestamp hi) {
    for (int local = 0; local < 2; ++local) {
      std::vector<Event> events;
      for (Timestamp t = lo + local; t < hi; t += 5) {
        events.push_back(Ev(t, static_cast<uint32_t>(t % 3),
                            static_cast<double>(1 + t % 4)));
      }
      cluster.IngestAt(local, events.data(), events.size());
    }
  };

  // Cold start: both queries from the beginning.
  Cluster cold(ClusterSystem::kDesis, {2, 1});
  Recorder cold_rec;
  ASSERT_TRUE(cold.Configure({q1, q2}).ok());
  cold.set_sink(cold_rec.Sink());
  feed(cold, 0, 300);
  cold.Advance(300);
  feed(cold, 300, 600);
  cold.Advance(700);

  // Runtime add: q2 arrives after 300 time units of traffic.
  Cluster live(ClusterSystem::kDesis, {2, 1});
  Recorder live_rec;
  ASSERT_TRUE(live.Configure({q1}).ok());
  live.set_sink(live_rec.Sink());
  feed(live, 0, 300);
  live.Advance(300);
  ASSERT_TRUE(live.AddQuery(q2).ok());
  feed(live, 300, 600);
  live.Advance(700);

  // Identical grouping: q2 joined q1's group, exactly as the cold start
  // grouped them.
  EXPECT_EQ(live.num_query_groups(), 1u);
  EXPECT_EQ(GroupingSignature(live.QueryGroupsSnapshot()),
            GroupingSignature(cold.QueryGroupsSnapshot()));

  // Identical results: q1 everywhere, q2 from its activation on.
  EXPECT_EQ(live_rec.Of(1), cold_rec.Of(1));
  const ResultMap live_q2 = live_rec.Of(2, 300);
  EXPECT_EQ(live_q2.size(), 3u);  // [300,400) [400,500) [500,600)
  EXPECT_EQ(live_q2, cold_rec.Of(2, 300));
  // And no window that straddles the activation leaked out partially.
  EXPECT_TRUE(live_rec.Of(2, 0).size() == live_q2.size());
  EXPECT_EQ(live_rec.duplicates, 0);
}

// ------------------------------------------------------------ churn storms --

enum class TransportKind { kInline, kThreaded, kSimLink };

std::unique_ptr<Transport> MakeTransport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInline:
      return nullptr;  // cluster default
    case TransportKind::kThreaded:
      return std::make_unique<ThreadedTransport>(64);
    case TransportKind::kSimLink: {
      SimLinkConfig config;
      config.latency_us = 20;
      config.jitter_us = 5;
      return std::make_unique<SimLinkTransport>(config);
    }
  }
  return nullptr;
}

/// Drives one cluster over three ingestion phases with (or without) a
/// query churn storm between them, and returns the recorder. The stable
/// queries (ids 1..4, one avg per key lane 0..3) must be byte-identical
/// with and without churn: every added/removed query lands in their group
/// (disjoint key lanes), widening masks and lanes mid-flight.
void DriveChurnRun(TransportKind kind, bool churn, Recorder* rec) {
  ClusterOptions options;
  Cluster cluster(ClusterSystem::kDesis, {4, 1}, options);
  if (auto transport = MakeTransport(kind)) {
    cluster.set_transport(std::move(transport));
  }
  std::vector<Query> stable;
  for (QueryId id = 1; id <= 4; ++id) {
    stable.push_back(MakeQuery(id, WindowSpec::Tumbling(100),
                               AggregationFunction::kAverage,
                               Predicate::KeyEquals(static_cast<uint32_t>(id - 1))));
  }
  ASSERT_TRUE(cluster.Configure(stable).ok());
  cluster.set_sink(rec->Sink());

  auto feed = [&](Timestamp lo, Timestamp hi) {
    for (int local = 0; local < 4; ++local) {
      std::vector<Event> events;
      for (Timestamp t = lo + local; t < hi; t += 3) {
        events.push_back(Ev(t, static_cast<uint32_t>((t + local) % 8),
                            static_cast<double>((t * 7 + local) % 10)));
      }
      cluster.IngestAt(local, events.data(), events.size());
    }
  };

  feed(0, 300);
  cluster.Advance(300);
  cluster.Drain();  // settle watermarks before the churn wave fires
  if (churn) {
    // Wave 1: two joins into the stable group (new key lanes, one widening
    // the mask with max's sort operator) plus a root-only newcomer.
    ASSERT_TRUE(cluster
                    .AddQuery(MakeQuery(101, WindowSpec::Tumbling(100),
                                        AggregationFunction::kSum,
                                        Predicate::KeyEquals(4)))
                    .ok());
    ASSERT_TRUE(cluster
                    .AddQuery(MakeQuery(102, WindowSpec::Sliding(200, 100),
                                        AggregationFunction::kMax,
                                        Predicate::KeyEquals(5)))
                    .ok());
    ASSERT_TRUE(cluster
                    .AddQuery(MakeQuery(103, WindowSpec::CountTumbling(64),
                                        AggregationFunction::kSum,
                                        Predicate::KeyEquals(6)))
                    .ok());
  }
  feed(300, 600);
  cluster.Advance(600);
  cluster.Drain();  // settle watermarks before the churn wave fires
  if (churn) {
    // Wave 2: joins and splits interleave; 103's exit retires the
    // root-only group it created.
    ASSERT_TRUE(cluster.RemoveQuery(101).ok());
    ASSERT_TRUE(cluster
                    .AddQuery(MakeQuery(104, WindowSpec::Tumbling(50),
                                        AggregationFunction::kMax,
                                        Predicate::KeyEquals(7)))
                    .ok());
    ASSERT_TRUE(cluster.RemoveQuery(103).ok());
  }
  feed(600, 900);
  cluster.Advance(900);
  cluster.Drain();  // settle watermarks before the churn wave fires
  if (churn) {
    ASSERT_TRUE(cluster.RemoveQuery(102).ok());
    ASSERT_TRUE(cluster.RemoveQuery(104).ok());
    // Every churn query is gone; only the stable group (and no retired
    // root-only group) remains.
    EXPECT_EQ(cluster.num_query_groups(), 1u);
  }
  feed(900, 1200);
  cluster.Advance(1300);
  cluster.Drain();
}

class OptChurnStorm : public ::testing::TestWithParam<TransportKind> {};

TEST_P(OptChurnStorm, StableQueriesLoseAndDuplicateNothing) {
  Recorder quiet, stormy;
  DriveChurnRun(GetParam(), /*churn=*/false, &quiet);
  DriveChurnRun(GetParam(), /*churn=*/true, &stormy);
  ASSERT_EQ(quiet.duplicates, 0);
  ASSERT_EQ(stormy.duplicates, 0);
  for (QueryId id = 1; id <= 4; ++id) {
    const ResultMap expect = quiet.Of(id);
    ASSERT_FALSE(expect.empty());
    EXPECT_EQ(stormy.Of(id), expect) << "stable query " << id;
  }
  // The churn queries really ran while resident.
  EXPECT_FALSE(stormy.Of(101).empty());
  EXPECT_FALSE(stormy.Of(102).empty());
}

INSTANTIATE_TEST_SUITE_P(Transports, OptChurnStorm,
                         ::testing::Values(TransportKind::kInline,
                                           TransportKind::kThreaded,
                                           TransportKind::kSimLink),
                         [](const auto& info) {
                           switch (info.param) {
                             case TransportKind::kInline: return "Inline";
                             case TransportKind::kThreaded: return "Threaded";
                             case TransportKind::kSimLink: return "SimLink";
                           }
                           return "Unknown";
                         });

// A cluster configured with optimize_plans must stay byte-identical to the
// static deployment on exactly representable aggregates.
TEST(OptCluster, OptimizedDeploymentMatchesStaticByteForByte) {
  auto run = [](bool optimize, Recorder* rec) {
    ClusterOptions options;
    options.optimize_plans = optimize;
    Cluster cluster(ClusterSystem::kDesis, {3, 1}, options);
    ASSERT_TRUE(cluster
                    .Configure({MakeQuery(1, WindowSpec::Tumbling(100),
                                          AggregationFunction::kSum),
                                MakeQuery(2, WindowSpec::Tumbling(2000),
                                          AggregationFunction::kSum),
                                MakeQuery(3, WindowSpec::Sliding(4000, 2000),
                                          AggregationFunction::kAverage),
                                MakeQuery(4, WindowSpec::Tumbling(100),
                                          AggregationFunction::kMax,
                                          Predicate::KeyEquals(2))})
                    .ok());
    cluster.set_sink(rec->Sink());
    for (int local = 0; local < 3; ++local) {
      std::vector<Event> events;
      for (Timestamp t = local; t < 12000; t += 4) {
        events.push_back(Ev(t, static_cast<uint32_t>(t % 5),
                            static_cast<double>(t % 9)));
      }
      cluster.IngestAt(local, events.data(), events.size());
    }
    cluster.Advance(20000);
    cluster.Drain();
  };
  Recorder baseline, optimized;
  run(false, &baseline);
  run(true, &optimized);
  ASSERT_FALSE(baseline.results.empty());
  EXPECT_EQ(baseline.results, optimized.results);
}

}  // namespace
}  // namespace desis
