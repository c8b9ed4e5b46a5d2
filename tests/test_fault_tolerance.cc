#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "net/chaos.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/sim_link_transport.h"
#include "transport/threaded_transport.h"

namespace desis {
namespace {

Query AvgQuery(QueryId id, Timestamp length) {
  Query q;
  q.id = id;
  q.window = WindowSpec::Tumbling(length);
  q.agg = {AggregationFunction::kAverage, 0};
  return q;
}

Event Ev(Timestamp ts, double v) { return {ts, 0, v, kNoMarker}; }

TEST(FaultTolerance, RemovedLocalStopsBlockingWatermarks) {
  Cluster cluster(ClusterSystem::kDesis, {3, 1});
  ASSERT_TRUE(cluster.Configure({AvgQuery(1, 100)}).ok());
  std::map<Timestamp, WindowResult> results;
  cluster.set_sink([&](const WindowResult& r) { results[r.window_start] = r; });

  // All three locals feed the first 200 time units.
  for (int i = 0; i < 3; ++i) {
    std::vector<Event> events;
    for (Timestamp t = i; t < 200; t += 10) events.push_back(Ev(t, 1.0));
    cluster.IngestAt(i, events.data(), events.size());
  }
  cluster.Advance(200);
  EXPECT_TRUE(results.contains(0));
  EXPECT_TRUE(results.contains(100));

  // Local 2 dies. Without removal, windows would stall forever because its
  // watermark never advances; after removal the rest make progress.
  ASSERT_TRUE(cluster.RemoveLocalNode(2).ok());
  EXPECT_FALSE(cluster.RemoveLocalNode(2).ok());  // idempotence check
  EXPECT_FALSE(cluster.local_active(2));

  for (int i = 0; i < 2; ++i) {
    std::vector<Event> events;
    for (Timestamp t = 200 + i; t < 400; t += 10) events.push_back(Ev(t, 2.0));
    cluster.IngestAt(i, events.data(), events.size());
    cluster.AdvanceAt(i, 400);
  }
  ASSERT_TRUE(results.contains(300));
  EXPECT_DOUBLE_EQ(results[300].value, 2.0);
  // The dead node's events are gone: only 2 locals * 10 events per window.
  EXPECT_EQ(results[300].event_count, 20u);
}

TEST(FaultTolerance, SilentNodeSweepRemovesLaggards) {
  Cluster cluster(ClusterSystem::kDesis, {3, 1});
  ASSERT_TRUE(cluster.Configure({AvgQuery(1, 100)}).ok());
  uint64_t fired = 0;
  cluster.set_sink([&](const WindowResult&) { ++fired; });

  for (int i = 0; i < 3; ++i) {
    std::vector<Event> events;
    for (Timestamp t = i; t < 150; t += 10) events.push_back(Ev(t, 1.0));
    cluster.IngestAt(i, events.data(), events.size());
  }
  // Only locals 0 and 1 keep advancing; local 2 goes silent at 150.
  cluster.AdvanceAt(0, 150);
  cluster.AdvanceAt(1, 150);
  cluster.AdvanceAt(2, 150);
  cluster.AdvanceAt(0, 600);
  cluster.AdvanceAt(1, 600);

  auto removed = cluster.RemoveSilentLocals(/*min_watermark=*/300);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], 2);

  // Watermarks recompute after the sweep; the pending window [100,200)
  // (the only remaining one with events) fires.
  cluster.AdvanceAt(0, 700);
  cluster.AdvanceAt(1, 700);
  EXPECT_EQ(fired, 2u);
}

TEST(FaultTolerance, NodeJoinsAtRuntime) {
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  ASSERT_TRUE(cluster.Configure({AvgQuery(1, 100)}).ok());
  std::map<Timestamp, WindowResult> results;
  cluster.set_sink([&](const WindowResult& r) { results[r.window_start] = r; });

  for (int i = 0; i < 2; ++i) {
    std::vector<Event> events;
    for (Timestamp t = i; t < 100; t += 10) events.push_back(Ev(t, 1.0));
    cluster.IngestAt(i, events.data(), events.size());
  }
  cluster.Advance(100);

  auto added = cluster.AddLocalNode();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  const int new_local = added.value();
  EXPECT_EQ(new_local, 2);

  for (int i = 0; i < 3; ++i) {
    std::vector<Event> events;
    for (Timestamp t = 100 + i; t < 300; t += 10) events.push_back(Ev(t, 3.0));
    cluster.IngestAt(i, events.data(), events.size());
  }
  cluster.Advance(400);

  ASSERT_TRUE(results.contains(100));
  // Window [100,200): 3 locals * 10 events each.
  EXPECT_EQ(results[100].event_count, 30u);
  EXPECT_DOUBLE_EQ(results[100].value, 3.0);
}

TEST(FaultTolerance, RuntimeQueryAddAndRemove) {
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  ASSERT_TRUE(cluster.Configure({AvgQuery(1, 100)}).ok());
  std::map<QueryId, int> fired;
  cluster.set_sink([&](const WindowResult& r) { ++fired[r.query_id]; });

  for (int i = 0; i < 2; ++i) {
    std::vector<Event> events;
    for (Timestamp t = i; t < 200; t += 5) events.push_back(Ev(t, 1.0));
    cluster.IngestAt(i, events.data(), events.size());
  }
  cluster.Advance(200);

  // Add a sum query at runtime; reject duplicate ids.
  Query added = AvgQuery(2, 50);
  added.agg.fn = AggregationFunction::kSum;
  ASSERT_TRUE(cluster.AddQuery(added).ok());
  EXPECT_FALSE(cluster.AddQuery(added).ok());

  for (int i = 0; i < 2; ++i) {
    std::vector<Event> events;
    for (Timestamp t = 200 + i; t < 400; t += 5) events.push_back(Ev(t, 1.0));
    cluster.IngestAt(i, events.data(), events.size());
  }
  cluster.Advance(400);
  EXPECT_GT(fired[1], 0);
  EXPECT_GT(fired[2], 0);

  // Remove query 1; its results stop, query 2 continues.
  ASSERT_TRUE(cluster.RemoveQuery(1).ok());
  EXPECT_FALSE(cluster.RemoveQuery(99).ok());
  const int q1_before = fired[1];
  for (int i = 0; i < 2; ++i) {
    std::vector<Event> events;
    for (Timestamp t = 400 + i; t < 600; t += 5) events.push_back(Ev(t, 1.0));
    cluster.IngestAt(i, events.data(), events.size());
  }
  cluster.Advance(700);
  EXPECT_EQ(fired[1], q1_before);
  EXPECT_GT(fired[2], 4);
}

TEST(FaultTolerance, MembershipOpsRejectedOnCentralizedSystems) {
  Cluster cluster(ClusterSystem::kScotty, {2, 1});
  ASSERT_TRUE(cluster.Configure({AvgQuery(1, 100)}).ok());
  EXPECT_FALSE(cluster.AddLocalNode().ok());
  EXPECT_FALSE(cluster.RemoveLocalNode(0).ok());
  EXPECT_FALSE(cluster.AddQuery(AvgQuery(2, 100)).ok());
  EXPECT_FALSE(cluster.RemoveQuery(1).ok());
}

// --- Chaos harness: crash recovery with slice-id replay --------------------
//
// Each schedule runs twice over byte-identical seeded input: once
// undisturbed, once with faults injected in virtual stream time. The
// canonical final-window sets must match exactly — zero lost windows, zero
// duplicates (docs/FAULT_TOLERANCE.md). Aggregates use integer values so
// replay-induced merge reordering cannot perturb doubles.

ClusterOptions RecoveryOn() {
  ClusterOptions options;
  options.recovery.enabled = true;
  return options;
}

std::vector<Query> ChaosQueries() {
  Query sum = AvgQuery(1, 1000);
  sum.agg.fn = AggregationFunction::kSum;
  Query avg = AvgQuery(2, 2000);
  return {sum, avg};
}

/// Runs `schedule` on a fresh SimLink-backed Desis cluster and returns
/// (canonical windows, StatsReport).
struct ChaosRun {
  std::string canonical;
  std::string stats;
};

ChaosRun RunChaos(const ChaosSchedule& schedule, const ChaosStreamConfig& cfg,
                  ClusterTopology topology, double drop_probability = 0.0) {
  Cluster cluster(ClusterSystem::kDesis, topology, RecoveryOn());
  SimLinkConfig link;
  link.latency_us = 20;
  link.drop_probability = drop_probability;
  link.seed = 99;
  cluster.set_transport(std::make_unique<SimLinkTransport>(link));
  ChaosResultLog log;
  cluster.set_sink(log.Sink());
  EXPECT_TRUE(cluster.Configure(ChaosQueries()).ok());
  ChaosRunner runner(&cluster, cfg);
  runner.Run(schedule);
  return {log.Canonical(), cluster.StatsReport()};
}

TEST(ChaosResultLog, CanonicalKeepsFull64BitQueryIds) {
  // Two queries whose ids share their low 32 bits are different windows;
  // a canonical line that truncated the id would call the sets identical.
  const WindowResult low{1, 0, 1000, 2.5, 3};
  WindowResult high = low;
  high.query_id = (1ull << 32) + 1;
  ChaosResultLog a;
  ChaosResultLog b;
  a.Sink()(low);
  b.Sink()(high);
  EXPECT_NE(a.Canonical(), b.Canonical());
  EXPECT_NE(b.Canonical().find("q4294967297 "), std::string::npos)
      << b.Canonical();
}

TEST(ChaosHarness, IntermediateCrashLosesAndDuplicatesNothing) {
  ChaosStreamConfig cfg;
  cfg.end = 20'000;
  const ClusterTopology topology{4, 2, 1};
  const ChaosRun baseline = RunChaos({}, cfg, topology);
  ASSERT_FALSE(baseline.canonical.empty());

  ChaosSchedule schedule;
  schedule.actions.push_back(
      {ChaosAction::Kind::kCrashIntermediate, /*at_watermark=*/9'500, 0});
  const ChaosRun chaos = RunChaos(schedule, cfg, topology);

  EXPECT_EQ(chaos.canonical, baseline.canonical);
  // The crash actually exercised recovery: a reattach happened and slices
  // were replayed from the orphans' resend buffers.
  EXPECT_NE(chaos.stats.find("\"reattaches\":"), std::string::npos);
  EXPECT_EQ(chaos.stats.find("\"reattaches\":0,"), std::string::npos)
      << chaos.stats;
  EXPECT_EQ(chaos.stats.find("\"replayed_slices\":0,"), std::string::npos)
      << chaos.stats;
}

// Regression: units can reach the root out of order after a reattach.
// The crash here lands right after the surviving intermediate already
// forwarded the current range for its own children, so the orphans'
// replayed partials form a held (never-completing) entry at the new
// parent and flush *behind* the next range's complete entry. A monotone
// frontier would judge the late merge stale and silently halve one
// window; the root's exact applied-tracking (OriginProgress) must not.
TEST(ChaosHarness, ReplayedRangeFlushedBehindNewerSlicesIsNotStale) {
  using Key = std::tuple<uint32_t, int64_t, int64_t>;
  std::map<Key, double> out[2];
  for (int variant = 0; variant < 2; ++variant) {
    Cluster cluster(ClusterSystem::kDesis, {4, 2, 1}, RecoveryOn());
    SimLinkConfig link;
    link.latency_us = 15;
    link.seed = 7;
    cluster.set_transport(std::make_unique<SimLinkTransport>(link));
    cluster.set_sink([&, variant](const WindowResult& r) {
      out[variant][{r.query_id, r.window_start, r.window_end}] = r.value;
    });
    ASSERT_TRUE(cluster.Configure(ChaosQueries()).ok());
    for (int64_t ts = 0; ts < 12'000; ts += 10) {
      for (int l = 0; l < 4; ++l) {
        Event e{ts, /*key=*/0, static_cast<double>((ts + l) % 97), 0};
        cluster.IngestAt(l, &e, 1);
      }
      // Crash after every local ingested ts=6000: the [5000,6000) slices
      // are sealed and shipped, the survivor's side already merged.
      if (variant == 1 && ts == 6'000) {
        ASSERT_TRUE(cluster.CrashIntermediate(1).ok());
      }
      if (ts % 500 == 0) {
        for (int l = 0; l < 4; ++l) cluster.AdvanceAt(l, ts - 1'500);
      }
    }
    for (int l = 0; l < 4; ++l) cluster.AdvanceAt(l, 13'000);
    cluster.Drain();
    if (variant == 1) {
      EXPECT_GT(cluster.recovery_reattaches(), 0u);
      EXPECT_GT(cluster.recovery_replayed(), 0u);
    }
  }
  ASSERT_FALSE(out[0].empty());
  EXPECT_EQ(out[0], out[1]);
}

TEST(ChaosHarness, LocalCrashAndReattachLosesNothing) {
  ChaosStreamConfig cfg;
  cfg.end = 20'000;
  const ClusterTopology topology{4, 2, 1};
  const ChaosRun baseline = RunChaos({}, cfg, topology);

  // The local goes dark for four rounds but keeps ingesting: every event
  // from the dark period must surface after the reattach replay.
  ChaosSchedule schedule;
  schedule.actions.push_back(
      {ChaosAction::Kind::kDeclareLocalDead, /*at_watermark=*/8'000, 2});
  schedule.actions.push_back(
      {ChaosAction::Kind::kReattachLocal, /*at_watermark=*/10'000, 2});
  const ChaosRun chaos = RunChaos(schedule, cfg, topology);

  EXPECT_EQ(chaos.canonical, baseline.canonical);
  EXPECT_EQ(chaos.stats.find("\"replayed_slices\":0,"), std::string::npos)
      << chaos.stats;
}

TEST(ChaosHarness, TransientPartitionHealsWithoutAppLevelRecovery) {
  ChaosStreamConfig cfg;
  cfg.end = 20'000;
  const ClusterTopology topology{4, 2, 1};
  const ChaosRun baseline = RunChaos({}, cfg, topology);

  // Link down for one round, healed without declaring anything dead: the
  // SimLink parked-RTO retransmission absorbs the outage below the
  // recovery protocol (zero reattaches), and nothing is lost.
  ChaosSchedule schedule;
  schedule.actions.push_back(
      {ChaosAction::Kind::kPartitionLocal, /*at_watermark=*/9'000, 1});
  schedule.actions.push_back(
      {ChaosAction::Kind::kHealLocal, /*at_watermark=*/10'000, 1});
  const ChaosRun chaos = RunChaos(schedule, cfg, topology);

  EXPECT_EQ(chaos.canonical, baseline.canonical);
  EXPECT_NE(chaos.stats.find("\"reattaches\":0,"), std::string::npos)
      << chaos.stats;
}

TEST(ChaosHarness, SilentKillIsCaughtByTheSweep) {
  ChaosStreamConfig cfg;
  cfg.end = 20'000;
  const ClusterTopology topology{4, 2, 1};
  const ChaosRun baseline = RunChaos({}, cfg, topology);

  // The transport severs the intermediate silently; two rounds later the
  // watermark sweep notices the frozen advertisement and runs the full
  // crash-recovery path.
  ChaosSchedule schedule;
  schedule.actions.push_back(
      {ChaosAction::Kind::kSilentKillIntermediate, /*at_watermark=*/8'000, 1});
  schedule.actions.push_back(
      {ChaosAction::Kind::kSweepRecover, /*at_watermark=*/11'000, 0});
  const ChaosRun chaos = RunChaos(schedule, cfg, topology);

  EXPECT_EQ(chaos.canonical, baseline.canonical);
  EXPECT_EQ(chaos.stats.find("\"reattaches\":0,"), std::string::npos)
      << chaos.stats;
}

TEST(ChaosHarness, SameSeedYieldsByteIdenticalRuns) {
  ChaosStreamConfig cfg;
  cfg.end = 16'000;
  const ClusterTopology topology{4, 2, 1};
  const ChaosSchedule schedule = MakeSeededSchedule(
      /*seed=*/1234, topology.num_intermediates, topology.num_locals, cfg);
  ASSERT_FALSE(schedule.actions.empty());

  // Virtual time + seeded everything: two runs of the same schedule match
  // byte-for-byte, including the recovery counters in StatsReport.
  const ChaosRun a = RunChaos(schedule, cfg, topology, /*drop=*/0.05);
  const ChaosRun b = RunChaos(schedule, cfg, topology, /*drop=*/0.05);
  EXPECT_EQ(a.canonical, b.canonical);
  const auto recovery_section = [](const std::string& stats) {
    const size_t from = stats.find("\"recovery\":");
    const size_t to = stats.find('}', from);
    return stats.substr(from, to - from + 1);
  };
  ASSERT_NE(a.stats.find("\"recovery\":"), std::string::npos);
  EXPECT_EQ(recovery_section(a.stats), recovery_section(b.stats));
}

TEST(ChaosHarness, SessionWindowSurvivesLocalCrashWithZeroEventLoss) {
  // Session windows are the consume-once path at the root (PR 5 watermark
  // pinning): a crash mid-session must neither lose nor double-count any
  // event in the assembled session.
  Query session;
  session.id = 1;
  session.window = WindowSpec::Session(/*gap=*/600);
  session.agg = {AggregationFunction::kSum, 0};

  auto run = [&](bool crash) {
    Cluster cluster(ClusterSystem::kDesis, {4, 2, 1}, RecoveryOn());
    cluster.set_transport(std::make_unique<SimLinkTransport>());
    ChaosResultLog log;
    cluster.set_sink(log.Sink());
    EXPECT_TRUE(cluster.Configure({session}).ok());
    ChaosStreamConfig cfg;
    cfg.end = 12'000;  // one long session: gaps never exceed 600
    ChaosSchedule schedule;
    if (crash) {
      schedule.actions.push_back(
          {ChaosAction::Kind::kDeclareLocalDead, /*at_watermark=*/4'000, 0});
      schedule.actions.push_back(
          {ChaosAction::Kind::kReattachLocal, /*at_watermark=*/7'000, 0});
    }
    ChaosRunner(&cluster, cfg).Run(schedule);
    return log.Canonical();
  };

  const std::string baseline = run(/*crash=*/false);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run(/*crash=*/true), baseline);
}

TEST(ChaosHarness, ReattachAndReplaySpansLandInTheChromeTrace) {
  Cluster cluster(ClusterSystem::kDesis, {4, 2, 1}, RecoveryOn());
  cluster.set_transport(std::make_unique<SimLinkTransport>());
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(4096);
  cluster.AttachObs(&registry, &tracer);
  ChaosResultLog log;
  cluster.set_sink(log.Sink());
  ASSERT_TRUE(cluster.Configure(ChaosQueries()).ok());

  // A dark-period local guarantees replay: while its uplink is dead it keeps
  // ingesting and buffering, and no ack can reach it — so at reattach its
  // unacked slices are unknown to the root and must be re-sent. (An
  // intermediate crash may legitimately replay nothing when every held
  // entry had already been forwarded upstream.)
  ChaosStreamConfig cfg;
  cfg.end = 12'000;
  ChaosSchedule schedule;
  schedule.actions.push_back(
      {ChaosAction::Kind::kDeclareLocalDead, /*at_watermark=*/6'000, 1});
  schedule.actions.push_back(
      {ChaosAction::Kind::kReattachLocal, /*at_watermark=*/9'000, 1});
  ChaosRunner(&cluster, cfg).Run(schedule);

  // Recovery happened...
  EXPECT_EQ(cluster.recovery_reattaches(), 1u);
  EXPECT_GT(cluster.recovery_replayed(), 0u);
  // ...and its latency is visible per orphan: a reattach span for the
  // re-elected child, replay spans for each re-sent slice, and the
  // recovery.* metrics carry the aggregate counters.
  const std::string trace = tracer.ToChromeTrace();
  EXPECT_NE(trace.find("reattach"), std::string::npos);
  EXPECT_NE(trace.find("replay"), std::string::npos);
  const std::string metrics = registry.ToJson();
  EXPECT_NE(metrics.find("recovery.reattaches"), std::string::npos);
  EXPECT_NE(metrics.find("recovery.replayed_slices"), std::string::npos);
  EXPECT_NE(metrics.find("recovery.reattach_latency_us"), std::string::npos);
  EXPECT_NE(metrics.find("recovery.resend_buffer_bytes"), std::string::npos);
}

TEST(ChaosHarness, RecoveryWorksOnInlineAndThreadedTransports) {
  // Without link-level fault support the crash degrades gracefully (the
  // "dead" node keeps relaying until detached; replay is frontier-trimmed
  // to nothing at the root) — still zero lost, zero duplicated windows.
  ChaosStreamConfig cfg;
  cfg.end = 12'000;
  ChaosSchedule schedule;
  schedule.actions.push_back(
      {ChaosAction::Kind::kCrashIntermediate, /*at_watermark=*/6'000, 0});
  for (int threaded = 0; threaded < 2; ++threaded) {
    auto run = [&](const ChaosSchedule& s) {
      Cluster cluster(ClusterSystem::kDesis, {4, 2, 1}, RecoveryOn());
      if (threaded) {
        cluster.set_transport(std::make_unique<ThreadedTransport>());
      }
      ChaosResultLog log;
      cluster.set_sink(log.Sink());
      EXPECT_TRUE(cluster.Configure(ChaosQueries()).ok());
      ChaosRunner(&cluster, cfg).Run(s);
      return log.Canonical();
    };
    const std::string baseline = run({});
    ASSERT_FALSE(baseline.empty());
    EXPECT_EQ(run(schedule), baseline) << "threaded=" << threaded;
  }
}

TEST(ChaosHarness, RecoveryOpsRequireOptIn) {
  Cluster plain(ClusterSystem::kDesis, {2, 1});
  ASSERT_TRUE(plain.Configure({AvgQuery(1, 100)}).ok());
  EXPECT_FALSE(plain.CrashIntermediate(0).ok());
  EXPECT_FALSE(plain.DeclareLocalDead(0).ok());
  EXPECT_FALSE(plain.ReattachLocal(0).ok());
  EXPECT_TRUE(plain.RecoverSilentIntermediates(100).empty());

  ClusterOptions options;
  options.recovery.enabled = true;
  Cluster baseline(ClusterSystem::kScotty, {2, 1}, options);
  EXPECT_FALSE(baseline.Configure({AvgQuery(1, 100)}).ok());

  Cluster enabled(ClusterSystem::kDesis, {2, 1}, RecoveryOn());
  ASSERT_TRUE(enabled.Configure({AvgQuery(1, 100)}).ok());
  EXPECT_FALSE(enabled.CrashIntermediate(7).ok());   // out of range
  EXPECT_FALSE(enabled.ReattachLocal(0).ok());       // not declared dead
  ASSERT_TRUE(enabled.DeclareLocalDead(0).ok());
  EXPECT_FALSE(enabled.DeclareLocalDead(0).ok());    // already dead
  EXPECT_TRUE(enabled.ReattachLocal(0).ok());
}

}  // namespace
}  // namespace desis
