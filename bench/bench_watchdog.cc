// Watchdog acceptance suite (docs/FAULT_TOLERANCE.md "Automatic failure
// detection", docs/EXPERIMENTS.md): silently severs one intermediate's
// links mid-stream — no driver ever calls RecoverSilentIntermediates — and
// requires the background health watchdog alone to notice the silence,
// raise a silent_node anomaly, and auto-invoke crash recovery, after which
// the run must still produce the byte-identical canonical window set of an
// undisturbed baseline (zero lost, zero duplicated windows).
//
// The schedule deliberately contains no kSweepRecover action: detection is
// the watchdog thread's job. Rounds pause round_sleep_ms of real time so
// the sampler (period_ms cadence) can observe the freeze between
// virtual-time rounds; the post-fault tail of the stream leaves two orders
// of magnitude more real time than the detection latency
// (period_ms * silence_threshold), so scheduler jitter cannot starve it.
//
// Every node's flight recorder is dumped at the end (into
// $DESIS_FLIGHT_DUMP_DIR, default ".") so `desis_inspect postmortem
// flight-*.json` can reconstruct the merged timeline: watermark motion into
// the fault, the silent_node anomaly, then the reattach/replay recovery
// window. CI's postmortem-smoke job runs exactly that. Self-checking: exits
// non-zero when detection, recovery, or exactness fails.

#include "harness.h"
#include "net/chaos.h"
#include "transport/sim_link_transport.h"

namespace desis::bench {
namespace {

std::vector<Query> WatchdogQueries() {
  Query sum;
  sum.id = 1;
  sum.window = WindowSpec::Tumbling(1000);
  sum.agg = {AggregationFunction::kSum, 0};
  Query avg;
  avg.id = 2;
  avg.window = WindowSpec::Tumbling(2000);
  avg.agg = {AggregationFunction::kAverage, 0};
  return {sum, avg};
}

struct WatchdogOutcome {
  std::string canonical;
  uint64_t reattaches = 0;
  uint64_t replayed = 0;
  uint64_t samples = 0;
  uint64_t anomalies = 0;
  uint64_t auto_recoveries = 0;
  std::vector<std::string> dumps;
};

WatchdogOutcome RunSchedule(const std::string& label,
                            const ChaosSchedule& schedule,
                            const ChaosStreamConfig& cfg,
                            const obs::WatchdogOptions& watchdog) {
  ClusterOptions options;
  options.recovery.enabled = true;
  options.watchdog = watchdog;
  // Declared before the cluster: the watchdog thread publishes into the
  // registry until the cluster's destructor joins it.
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(kSidecarTraceCapacity);
  Cluster cluster(ClusterSystem::kDesis, {4, 2, 1}, options);
  SimLinkConfig link;
  link.latency_us = 20;
  link.seed = 99;
  cluster.set_transport(std::make_unique<SimLinkTransport>(link));
  cluster.AttachObs(&registry, &tracer);
  ChaosResultLog log;
  cluster.set_sink(log.Sink());
  if (auto status = cluster.Configure(WatchdogQueries()); !status.ok()) {
    std::fprintf(stderr, "configure failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  ChaosRunner(&cluster, cfg).Run(schedule);

  WatchdogOutcome out;
  out.canonical = log.Canonical();
  out.reattaches = cluster.recovery_reattaches();
  out.replayed = cluster.recovery_replayed();
  out.samples = cluster.watchdog_samples();
  out.anomalies = cluster.watchdog_anomalies();
  out.auto_recoveries = cluster.watchdog_auto_recoveries();
  if (watchdog.enabled) {
    // Final snapshot for the postmortem job: unlike the automatic dump at
    // anomaly time, this one also holds the reattach/replay events the
    // recovery appended afterwards.
    const char* dir = std::getenv("DESIS_FLIGHT_DUMP_DIR");
    out.dumps =
        cluster.DumpFlightRecorders(dir != nullptr ? dir : ".", "on_demand");
  }
  Sidecar::Instance().NoteTransport(cluster.transport()->name());
  Sidecar::Instance().NoteWatchdog(watchdog);
  Sidecar::Instance().RecordRun(label, cluster.StatsReport(), tracer.ToJson());
  return out;
}

int Main() {
  ChaosStreamConfig cfg;
  cfg.end = 20'000;

  obs::WatchdogOptions watchdog;
  watchdog.enabled = true;
  watchdog.period_ms = 10;
  watchdog.silence_threshold = 3;
  watchdog.auto_recover = true;

  // Baseline: undisturbed, watchdog off, no real-time pauses. The disturbed
  // run's exactness target.
  const WatchdogOutcome baseline =
      RunSchedule("baseline", {}, cfg, obs::WatchdogOptions{});
  if (baseline.canonical.empty()) {
    std::fprintf(stderr, "FAIL: baseline produced no windows\n");
    return 1;
  }

  // Disturbed: transport-only silent kill at mid-stream. 24 post-fault
  // rounds x round_sleep_ms real time dwarf the ~30ms detection latency.
  ChaosStreamConfig disturbed_cfg = cfg;
  disturbed_cfg.round_sleep_ms = 20;
  ChaosSchedule kill;
  kill.actions.push_back(
      {ChaosAction::Kind::kSilentKillIntermediate, 8'000, 0});
  const WatchdogOutcome out =
      RunSchedule("silent kill, watchdog recovery", kill, disturbed_cfg,
                  watchdog);

  PrintHeader("Watchdog: silent intermediate kill, zero driver recovery "
              "calls, topology {4,2,1}",
              {"samples", "anomalies", "auto_recov", "reattaches",
               "replayed"});
  PrintRow("disturbed", {static_cast<double>(out.samples),
                         static_cast<double>(out.anomalies),
                         static_cast<double>(out.auto_recoveries),
                         static_cast<double>(out.reattaches),
                         static_cast<double>(out.replayed)});

  int failures = 0;
  if (out.anomalies == 0) {
    std::fprintf(stderr, "FAIL: watchdog never raised an anomaly\n");
    ++failures;
  }
  if (out.auto_recoveries == 0) {
    std::fprintf(stderr,
                 "FAIL: watchdog never auto-recovered the silent node\n");
    ++failures;
  }
  if (out.reattaches == 0) {
    std::fprintf(stderr, "FAIL: recovery never reattached an orphan\n");
    ++failures;
  }
  if (!ChaosRunsMatch(baseline.canonical, out.canonical)) {
    std::fprintf(stderr,
                 "FAIL: watchdog-recovered run diverged from the "
                 "undisturbed baseline (lost or duplicated windows)\n");
    ++failures;
  }
  if (out.dumps.empty()) {
    std::fprintf(stderr, "FAIL: no flight-recorder dumps written\n");
    ++failures;
  }
  for (const std::string& path : out.dumps) {
    std::printf("flight dump: %s\n", path.c_str());
  }

  WriteMetricsSidecar("bench_watchdog");
  if (failures == 0) std::printf("all watchdog contracts held\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace desis::bench

int main() { return desis::bench::Main(); }
