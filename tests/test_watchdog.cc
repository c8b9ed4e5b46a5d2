// Flight recorder + health watchdog (src/obs/flight_recorder.h,
// src/obs/health_monitor.h, docs/FAULT_TOLERANCE.md "Automatic failure
// detection"). Three layers:
//
//  - HealthMonitor detector semantics on synthetic probes, driven
//    deterministically with TickForTest (no thread, no clocks): each typed
//    anomaly, the grace-window false-positive guards, the once-per-episode
//    latches, and the auto-recovery targeting guard.
//  - The cluster integration: a silently severed intermediate detected and
//    crash-recovered by watchdog ticks alone — zero driver recovery calls —
//    with the byte-identical window set of an undisturbed run; plus a
//    live-thread smoke against concurrent drivers (run under TSan in CI).
//  - The recorder ring under concurrent writers (TSan) and the dump ->
//    desis-inspect postmortem round trip.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "inspect_lib.h"
#include "net/cluster.h"
#include "obs/flight_recorder.h"
#include "obs/health_monitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/sim_link_transport.h"

namespace desis {
namespace {

// ------------------------------------------------- detector semantics --

/// A hand-driven topology: the test mutates `probes` between ticks and the
/// monitor sees exactly that state. Anomalies and recover calls are
/// captured verbatim.
struct MonitorFixture {
  std::vector<obs::NodeProbe> probes;
  std::vector<std::pair<obs::AnomalyKind, uint32_t>> anomalies;
  std::vector<Timestamp> recover_watermarks;
  bool recover_result = true;
  std::unique_ptr<obs::HealthMonitor> monitor;

  explicit MonitorFixture(const obs::WatchdogOptions& options) {
    probes.reserve(16);  // node() hands out references across inserts
    obs::WatchdogHooks hooks;
    hooks.probe = [this] { return probes; };
    hooks.on_anomaly = [this](obs::AnomalyKind kind, uint32_t node) {
      anomalies.emplace_back(kind, node);
    };
    hooks.recover = [this](Timestamp wm) {
      recover_watermarks.push_back(wm);
      return recover_result;
    };
    monitor = std::make_unique<obs::HealthMonitor>(options, std::move(hooks));
  }

  obs::NodeProbe& node(uint32_t id) {
    for (obs::NodeProbe& p : probes) {
      if (p.node_id == id) return p;
    }
    probes.emplace_back();
    probes.back().node_id = id;
    return probes.back();
  }

  void Tick() { monitor->TickForTest(); }
};

obs::WatchdogOptions FastOptions() {
  obs::WatchdogOptions options;
  options.enabled = true;
  options.period_ms = 0;  // no thread; ticks only
  options.silence_threshold = 2;
  options.grace_us = 1000;
  return options;
}

TEST(Watchdog, SilentNodeRaisesOnceAndAutoRecovers) {
  MonitorFixture fix(FastOptions());
  obs::NodeProbe& healthy = fix.node(1);
  healthy.recoverable = true;
  healthy.heartbeats = 10;
  healthy.watermark = 1000;
  obs::NodeProbe& silent = fix.node(2);
  silent.recoverable = true;
  silent.heartbeats = 10;
  silent.watermark = 1000;

  fix.Tick();  // baseline sample: tracks initialize, nothing can fire
  for (int round = 0; round < 6; ++round) {
    healthy.heartbeats += 5;
    healthy.watermark += 500;  // silent node lags past grace_us quickly
    fix.Tick();
  }

  ASSERT_EQ(fix.anomalies.size(), 1u);  // latched: one raise per episode
  EXPECT_EQ(fix.anomalies[0].first, obs::AnomalyKind::kSilentNode);
  EXPECT_EQ(fix.anomalies[0].second, 2u);
  EXPECT_EQ(fix.monitor->anomalies(), 1u);
  // Auto-recovery fired exactly once (the suspect flag clears after a
  // successful recover), targeting the healthy floor as of the detecting
  // sample: past the suspect's frozen watermark, at or below the healthy
  // node's final one.
  ASSERT_EQ(fix.recover_watermarks.size(), 1u);
  EXPECT_GT(fix.recover_watermarks[0], 1000);
  EXPECT_LE(fix.recover_watermarks[0], fix.node(1).watermark);
  EXPECT_EQ(fix.monitor->auto_recoveries(), 1u);

  // The recovered node is declared dead: probes skip it, nothing re-fires.
  silent.alive = false;
  for (int round = 0; round < 4; ++round) {
    healthy.heartbeats += 5;
    healthy.watermark += 500;
    fix.Tick();
  }
  EXPECT_EQ(fix.anomalies.size(), 1u);
  EXPECT_EQ(fix.recover_watermarks.size(), 1u);
}

TEST(Watchdog, IdleTopologyRaisesNothing) {
  // Stream end: every node freezes at the same watermark. Heartbeats stop
  // everywhere, but nobody lags the frontier, so the silence detector must
  // stay quiet no matter how long the idle lasts.
  MonitorFixture fix(FastOptions());
  for (uint32_t id = 1; id <= 3; ++id) {
    obs::NodeProbe& p = fix.node(id);
    p.heartbeats = 100;
    p.watermark = 5000;
  }
  for (int round = 0; round < 20; ++round) fix.Tick();
  EXPECT_TRUE(fix.anomalies.empty());
  EXPECT_EQ(fix.monitor->samples(), 20u);
}

TEST(Watchdog, NodeBehindByLessThanGraceIsHealthy) {
  MonitorFixture fix(FastOptions());
  obs::NodeProbe& ahead = fix.node(1);
  ahead.heartbeats = 1;
  ahead.watermark = 0;
  obs::NodeProbe& behind = fix.node(2);
  behind.heartbeats = 1;
  behind.watermark = 0;
  fix.Tick();
  for (int round = 0; round < 10; ++round) {
    ahead.heartbeats += 1;
    ahead.watermark += 100;
    behind.watermark = ahead.watermark - 900;  // inside grace_us = 1000
    fix.Tick();
  }
  EXPECT_TRUE(fix.anomalies.empty());
}

TEST(Watchdog, WatermarkStallNeedsMovingHeartbeats) {
  MonitorFixture fix(FastOptions());
  obs::NodeProbe& ahead = fix.node(1);
  ahead.heartbeats = 1;
  ahead.watermark = 1000;
  obs::NodeProbe& stalled = fix.node(2);
  stalled.heartbeats = 1;
  stalled.watermark = 1000;
  fix.Tick();
  for (int round = 0; round < 6; ++round) {
    ahead.heartbeats += 1;
    ahead.watermark += 600;
    stalled.heartbeats += 1;  // alive and receiving — just not advancing
    fix.Tick();
  }
  ASSERT_EQ(fix.anomalies.size(), 1u);
  EXPECT_EQ(fix.anomalies[0].first, obs::AnomalyKind::kWatermarkStall);
  EXPECT_EQ(fix.anomalies[0].second, 2u);

  // The stall heals: watermark catches up, the latch clears, and a second
  // episode raises again.
  stalled.watermark = ahead.watermark;
  fix.Tick();
  for (int round = 0; round < 6; ++round) {
    ahead.heartbeats += 1;
    ahead.watermark += 600;
    stalled.heartbeats += 1;
    fix.Tick();
  }
  EXPECT_EQ(fix.anomalies.size(), 2u);
}

TEST(Watchdog, MailboxGrowthNeedsStrictGrowth) {
  MonitorFixture fix(FastOptions());
  obs::NodeProbe& p = fix.node(1);
  p.heartbeats = 1;
  fix.Tick();
  for (int round = 0; round < 4; ++round) {
    p.heartbeats += 1;
    p.mailbox_depth += 10;  // strictly increasing
    fix.Tick();
  }
  ASSERT_EQ(fix.anomalies.size(), 1u);
  EXPECT_EQ(fix.anomalies[0].first, obs::AnomalyKind::kMailboxGrowth);

  // Plateau: the streak resets and nothing new fires while the latch
  // holds at this depth.
  for (int round = 0; round < 4; ++round) {
    p.heartbeats += 1;
    fix.Tick();
  }
  EXPECT_EQ(fix.anomalies.size(), 1u);

  // Backlog drains, then grows again: a fresh episode.
  p.mailbox_depth = 0;
  fix.Tick();
  for (int round = 0; round < 4; ++round) {
    p.heartbeats += 1;
    p.mailbox_depth += 10;
    fix.Tick();
  }
  EXPECT_EQ(fix.anomalies.size(), 2u);
}

TEST(Watchdog, SpillThrashNeedsRestoresEverySample) {
  MonitorFixture fix(FastOptions());
  obs::NodeProbe& p = fix.node(1);
  p.heartbeats = 1;
  fix.Tick();
  // Restores every other sample: never `threshold` consecutive, no raise.
  for (int round = 0; round < 8; ++round) {
    p.heartbeats += 1;
    if (round % 2 == 0) p.spill_restores += 3;
    fix.Tick();
  }
  EXPECT_TRUE(fix.anomalies.empty());
  // Restores in every sample: thrash.
  for (int round = 0; round < 3; ++round) {
    p.heartbeats += 1;
    p.spill_restores += 3;
    fix.Tick();
  }
  ASSERT_EQ(fix.anomalies.size(), 1u);
  EXPECT_EQ(fix.anomalies[0].first, obs::AnomalyKind::kSpillThrash);
}

TEST(Watchdog, AutoRecoveryWaitsUntilEverySuspectLagsTheHealthyFloor) {
  // The suspect froze, but a healthy recoverable peer sits at the same
  // watermark (merely slow). RecoverSilentIntermediates(min) would crash
  // both — so the monitor must hold fire until the suspect is strictly
  // behind every healthy peer.
  MonitorFixture fix(FastOptions());
  obs::NodeProbe& frontier_node = fix.node(1);  // not recoverable (a local)
  frontier_node.heartbeats = 1;
  frontier_node.watermark = 1000;
  obs::NodeProbe& slow = fix.node(2);
  slow.recoverable = true;
  slow.heartbeats = 1;
  slow.watermark = 1000;
  obs::NodeProbe& suspect = fix.node(3);
  suspect.recoverable = true;
  suspect.heartbeats = 1;
  suspect.watermark = 1000;

  fix.Tick();
  for (int round = 0; round < 6; ++round) {
    frontier_node.heartbeats += 1;
    frontier_node.watermark += 600;  // frontier runs ahead of both
    slow.heartbeats += 1;            // alive, pinned with the suspect
    fix.Tick();
  }
  // The suspect was raised (it is silent and lagging) but recovery never
  // fired: the healthy floor equals the suspect's watermark.
  ASSERT_FALSE(fix.anomalies.empty());
  EXPECT_TRUE(fix.recover_watermarks.empty());
  EXPECT_EQ(fix.monitor->auto_recoveries(), 0u);

  // The slow peer advances past the suspect: now recovery targets exactly
  // the suspect.
  slow.heartbeats += 1;
  slow.watermark = frontier_node.watermark;
  fix.Tick();
  ASSERT_EQ(fix.recover_watermarks.size(), 1u);
  EXPECT_EQ(fix.recover_watermarks[0], slow.watermark);
}

TEST(Watchdog, AutoRecoverOffNeverCallsRecover) {
  obs::WatchdogOptions options = FastOptions();
  options.auto_recover = false;
  MonitorFixture fix(options);
  obs::NodeProbe& healthy = fix.node(1);
  healthy.recoverable = true;
  healthy.heartbeats = 1;
  healthy.watermark = 0;
  obs::NodeProbe& silent = fix.node(2);
  silent.recoverable = true;
  silent.heartbeats = 1;
  silent.watermark = 0;
  fix.Tick();
  for (int round = 0; round < 6; ++round) {
    healthy.heartbeats += 1;
    healthy.watermark += 600;
    fix.Tick();
  }
  EXPECT_FALSE(fix.anomalies.empty());
  EXPECT_TRUE(fix.recover_watermarks.empty());
}

// --------------------------------------------------- cluster watchdog --

Query SumQuery(QueryId id, Timestamp length) {
  Query q;
  q.id = id;
  q.window = WindowSpec::Tumbling(length);
  q.agg = {AggregationFunction::kSum, 0};
  return q;
}

using WindowKey = std::tuple<uint32_t, int64_t, int64_t>;

/// Drives an identical 4-local stream through a SimLink Desis cluster.
/// `silent_kill_at` severs intermediate 1's links at that event time (or
/// never, for kNoTimestamp); `tick_watchdog` runs one deterministic
/// watchdog pass per advance round.
std::map<WindowKey, double> DriveCluster(Cluster& cluster,
                                         Timestamp silent_kill_at,
                                         bool tick_watchdog) {
  std::map<WindowKey, double> out;
  cluster.set_sink([&](const WindowResult& r) {
    out[{r.query_id, r.window_start, r.window_end}] = r.value;
  });
  EXPECT_TRUE(
      cluster
          .Configure({SumQuery(1, 1000), SumQuery(2, 2000)})
          .ok());
  for (int64_t ts = 0; ts < 12'000; ts += 10) {
    for (int l = 0; l < 4; ++l) {
      Event e{ts, /*key=*/0, static_cast<double>((ts + l) % 97), 0};
      cluster.IngestAt(l, &e, 1);
    }
    if (silent_kill_at != kNoTimestamp && ts == silent_kill_at) {
      EXPECT_TRUE(cluster.InjectIntermediateFailure(1).ok());
    }
    if (ts % 500 == 0) {
      for (int l = 0; l < 4; ++l) cluster.AdvanceAt(l, ts - 1'500);
      if (tick_watchdog) cluster.TickWatchdogForTest();
    }
  }
  for (int l = 0; l < 4; ++l) cluster.AdvanceAt(l, 13'000);
  if (tick_watchdog) cluster.TickWatchdogForTest();
  cluster.Drain();
  return out;
}

ClusterOptions WatchdogClusterOptions() {
  ClusterOptions options;
  options.recovery.enabled = true;
  options.watchdog.enabled = true;
  options.watchdog.period_ms = 0;  // deterministic: ticks only
  options.watchdog.silence_threshold = 2;
  options.watchdog.grace_us = 1'500;
  return options;
}

std::unique_ptr<SimLinkTransport> MakeSimLink() {
  SimLinkConfig link;
  link.latency_us = 20;
  link.seed = 99;
  return std::make_unique<SimLinkTransport>(link);
}

TEST(WatchdogCluster, SilentKillRecoveredByTicksAloneByteIdentically) {
  // Baseline: no fault, no watchdog.
  Cluster baseline(ClusterSystem::kDesis, {4, 2, 1});
  baseline.set_transport(MakeSimLink());
  const std::map<WindowKey, double> golden =
      DriveCluster(baseline, kNoTimestamp, /*tick_watchdog=*/false);
  ASSERT_FALSE(golden.empty());

  // Disturbed: intermediate 1 silently severed mid-stream. The driver
  // never calls RecoverSilentIntermediates — detection and recovery belong
  // to the watchdog ticks entirely.
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(1 << 14);
  Cluster governed(ClusterSystem::kDesis, {4, 2, 1},
                   WatchdogClusterOptions());
  governed.set_transport(MakeSimLink());
  governed.AttachObs(&registry, &tracer);
  const std::map<WindowKey, double> recovered =
      DriveCluster(governed, /*silent_kill_at=*/6'000,
                   /*tick_watchdog=*/true);

  EXPECT_EQ(recovered, golden);
  EXPECT_GT(governed.watchdog_samples(), 0u);
  EXPECT_GT(governed.watchdog_anomalies(), 0u);
  EXPECT_GT(governed.watchdog_auto_recoveries(), 0u);
  EXPECT_GT(governed.recovery_reattaches(), 0u);
  EXPECT_TRUE(governed.intermediate_dead(1));

  // The anomaly surfaced as a typed counter and in the stats report.
  const std::string metrics = registry.ToJson();
  EXPECT_NE(metrics.find("health.anomalies"), std::string::npos);
  EXPECT_NE(metrics.find("silent_node"), std::string::npos);
  const std::string stats = governed.StatsReport();
  EXPECT_NE(stats.find("\"watchdog\":{"), std::string::npos);
  EXPECT_EQ(stats.find("\"auto_recoveries\":0}"), std::string::npos)
      << stats;
}

TEST(WatchdogCluster, LiveThreadSamplesConcurrentlyWithDrivers) {
  // Real sampler thread against live ingest/advance traffic — the TSan
  // lane for the watchdog/driver lock protocol. Threshold is pushed high
  // so scheduler stalls cannot fire anomalies; the assertion is simply
  // that sampling happened and nothing raced.
  ClusterOptions options;
  options.recovery.enabled = true;
  options.watchdog.enabled = true;
  options.watchdog.period_ms = 1;
  options.watchdog.silence_threshold = 1'000'000;
  // Declared before the cluster: the sampler thread publishes into the
  // registry until the cluster's destructor joins it.
  obs::MetricsRegistry registry;
  Cluster cluster(ClusterSystem::kDesis, {2, 1}, options);
  cluster.AttachObs(&registry, nullptr);
  ASSERT_TRUE(cluster.Configure({SumQuery(1, 1000)}).ok());
  EXPECT_TRUE(cluster.watchdog_running());

  std::map<WindowKey, double> out;
  cluster.set_sink([&](const WindowResult& r) {
    out[{r.query_id, r.window_start, r.window_end}] = r.value;
  });
  for (int64_t ts = 0; ts < 6'000; ts += 10) {
    for (int l = 0; l < 2; ++l) {
      Event e{ts, /*key=*/0, 1.0, 0};
      cluster.IngestAt(l, &e, 1);
    }
    if (ts % 500 == 0) {
      cluster.Advance(ts - 1'000);
      if (ts == 3'000) {
        // Give the sampler a visible window mid-traffic.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  cluster.Advance(7'000);
  cluster.Drain();
  EXPECT_GT(cluster.watchdog_samples(), 0u);
  EXPECT_EQ(cluster.watchdog_anomalies(), 0u);
  ASSERT_FALSE(out.empty());
}

TEST(Watchdog, ProbeOfGovernedLocalsIsRaceFree) {
  // The sampler thread reads every governed local's restore counter
  // (spill-thrash detection) while the local's driver thread spills and
  // merges slice state under the same governor — the TSan lane for the
  // probe's reads of a live governor.
  const std::string spill_dir = "watchdog_probe_spill";
  ClusterOptions options;
  options.memory.budget_bytes = 16 * 1024;  // per local node
  options.memory.min_spill_bytes = 4096;
  options.memory.spill_dir = spill_dir;
  options.watchdog.enabled = true;
  options.watchdog.period_ms = 1;
  options.watchdog.silence_threshold = 1'000'000;
  Cluster cluster(ClusterSystem::kDesis, {2, 1}, options);
  std::vector<Query> queries(2);
  queries[0].id = 1;
  queries[0].window = WindowSpec::Tumbling(2000);
  queries[0].agg = {AggregationFunction::kMedian, 0.5};
  queries[1].id = 2;
  queries[1].window = WindowSpec::Tumbling(32000);
  queries[1].agg = {AggregationFunction::kQuantile, 0.9};
  ASSERT_TRUE(cluster.Configure(queries).ok());
  EXPECT_TRUE(cluster.watchdog_running());

  size_t windows = 0;
  cluster.set_sink([&](const WindowResult&) { ++windows; });
  constexpr size_t kEvents = 64 * 1024;
  std::vector<Event> batch;
  for (size_t i = 0; i < kEvents; ++i) {
    batch.push_back({static_cast<Timestamp>(i / 4), static_cast<uint32_t>(i),
                     static_cast<double>((i * 7919) % 10000) / 100.0, 0});
    if (batch.size() == 512) {
      cluster.IngestAt(static_cast<int>(i / 512) % 2, batch.data(),
                       batch.size());
      cluster.Advance(batch.back().ts);
      batch.clear();
    }
    if (i == kEvents / 2) {
      // Give the sampler a visible window mid-traffic.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  cluster.Advance(static_cast<Timestamp>(kEvents / 4) + 64'000);
  cluster.Drain();

  uint64_t spills = 0;
  for (int l = 0; l < 2; ++l) {
    spills += cluster.LocalMemoryGovernor(l)->spills();
  }
  EXPECT_GT(spills, 0u) << "the budget never made a local spill";
  EXPECT_GT(cluster.watchdog_samples(), 0u);
  EXPECT_GT(windows, 0u);
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

// ----------------------------------------------------- recorder ring --

TEST(FlightRecorder, ConcurrentWritersKeepExactCountsAndMirrorCounters) {
  constexpr size_t kCapacity = 256;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  obs::MetricsRegistry registry;
  obs::Counter* events =
      registry.GetCounter("recorder.events", {}, "events");
  obs::Counter* dropped =
      registry.GetCounter("recorder.dropped", {}, "events");
  obs::FlightRecorder recorder(kCapacity);
  recorder.set_identity(7, obs::kSpanRoleLocal);
  recorder.set_counters(events, dropped);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        recorder.Record(obs::FlightEventKind::kWatermarkAdvance,
                        /*a=*/i, /*b=*/static_cast<uint64_t>(t),
                        static_cast<Timestamp>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(recorder.recorded(), kTotal);
  EXPECT_EQ(recorder.dropped(), kTotal - kCapacity);
  EXPECT_EQ(events->value(), kTotal);
  EXPECT_EQ(dropped->value(), kTotal - kCapacity);
  // Torn slots (writers aliasing a wrapped ticket) are skipped, never
  // duplicated or fabricated.
  EXPECT_LE(recorder.Snapshot().size(), kCapacity);
}

TEST(FlightRecorder, FailureHookReceivesTheReason) {
  std::vector<std::string> reasons;
  obs::SetFlightFailureHook(
      [&](const std::string& reason) { reasons.push_back(reason); });
  obs::NotifyFlightFailure("unit_test_failure");
  obs::SetFlightFailureHook(nullptr);
  obs::NotifyFlightFailure("after_clear");  // must be a silent no-op
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "unit_test_failure");
}

// --------------------------------------- dump -> postmortem round trip --

TEST(FlightRecorder, DumpRoundTripsThroughInspectPostmortem) {
  obs::FlightRecorder recorder(64);
  recorder.set_identity(3, obs::kSpanRoleIntermediate);
  recorder.Record(obs::FlightEventKind::kWatermarkAdvance, 500, 0, 500);
  recorder.Record(obs::FlightEventKind::kSpill, /*slice=*/9, /*group=*/1,
                  700);
  recorder.Record(obs::FlightEventKind::kAnomaly,
                  static_cast<uint64_t>(obs::AnomalyKind::kSilentNode),
                  /*sample=*/42, kNoTimestamp);
  recorder.Record(obs::FlightEventKind::kReattach, /*new_parent=*/5,
                  /*old_parent=*/2, 900);

  tools::JsonValue doc;
  std::string error;
  ASSERT_TRUE(
      tools::JsonParser::Parse(recorder.DumpJson("unit_test"), &doc, &error))
      << error;
  tools::FlightDump dump;
  ASSERT_TRUE(tools::FlightDumpFromJson(doc, &dump));
  EXPECT_EQ(dump.node, 3u);
  EXPECT_EQ(dump.role, "intermediate");
  EXPECT_EQ(dump.reason, "unit_test");
  ASSERT_EQ(dump.events.size(), 4u);
  EXPECT_EQ(dump.events[1].kind, obs::FlightEventKind::kSpill);
  EXPECT_EQ(dump.events[1].a, 9u);
  EXPECT_EQ(dump.events[2].virtual_ts, kNoTimestamp);

  const std::string report = tools::Postmortem({dump});
  EXPECT_NE(report.find("first anomaly: silent_node against node 3"),
            std::string::npos)
      << report;
  // Everything from the anomaly on is in the anomaly window — the
  // recovery-side reattach must be visible after the pivot.
  const size_t window = report.find("anomaly window");
  ASSERT_NE(window, std::string::npos);
  EXPECT_NE(report.find("reattach", window), std::string::npos);
  EXPECT_EQ(tools::PostmortemEventCount({dump}), 4u);
}

TEST(FlightRecorder, PostmortemRejectsNonDumpDocuments) {
  tools::JsonValue doc;
  std::string error;
  ASSERT_TRUE(tools::JsonParser::Parse("{\"foo\":1}", &doc, &error));
  tools::FlightDump dump;
  EXPECT_FALSE(tools::FlightDumpFromJson(doc, &dump));
}

}  // namespace
}  // namespace desis
