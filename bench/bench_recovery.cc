// Crash-recovery suite (docs/FAULT_TOLERANCE.md, docs/EXPERIMENTS.md): runs
// the three canonical chaos schedules — intermediate crash, local crash with
// reattach, and a transient uplink partition — on the deterministic
// SimLinkTransport, each against an undisturbed baseline over byte-identical
// seeded input. The acceptance contract is exactness: the disturbed run must
// produce the byte-identical canonical window set (zero lost, zero
// duplicated windows), and the crash schedules must actually exercise the
// resend path (nonzero reattaches; replay for the dark-period local).
// Self-checking: exits non-zero on any violation, so CI runs it directly as
// the chaos smoke job.
//
// Recovery latency (virtual microseconds from fault injection to the last
// orphan's replay being flushed) comes from the recovery.reattach_latency_us
// histogram; it is an `_us`/latency series, so desis-inspect stable-only
// diffs skip it and the gate pins only the structural counters.

#include "harness.h"
#include "net/chaos.h"
#include "transport/sim_link_transport.h"

namespace desis::bench {
namespace {

std::vector<Query> RecoveryQueries() {
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

struct ChaosOutcome {
  std::string canonical;
  uint64_t reattaches = 0;
  uint64_t replayed = 0;
  uint64_t link_drops = 0;
  double latency_p50_us = 0;
  double latency_p95_us = 0;
};

ChaosOutcome RunSchedule(const std::string& label,
                         const ChaosSchedule& schedule,
                         const ChaosStreamConfig& cfg) {
  ClusterOptions options;
  options.recovery.enabled = true;
  Cluster cluster(ClusterSystem::kDesis, {4, 2, 1}, options);
  SimLinkConfig link;
  link.latency_us = 20;
  link.seed = 99;
  auto transport = std::make_unique<SimLinkTransport>(link);
  SimLinkTransport* sim = transport.get();
  cluster.set_transport(std::move(transport));
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(kSidecarTraceCapacity);
  cluster.AttachObs(&registry, &tracer);
  ChaosResultLog log;
  cluster.set_sink(log.Sink());
  auto status = cluster.Configure(RecoveryQueries());
  if (!status.ok()) {
    std::fprintf(stderr, "configure failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  ChaosRunner(&cluster, cfg).Run(schedule);

  ChaosOutcome out;
  out.canonical = log.Canonical();
  out.reattaches = cluster.recovery_reattaches();
  out.replayed = cluster.recovery_replayed();
  out.link_drops = sim->total_drops();
  if (const obs::Histogram* hist = registry.GetHistogram(
          "recovery.reattach_latency_us", {{"system", "Desis"}}, "us");
      hist->count() > 0) {
    out.latency_p50_us = hist->Quantile(0.50);
    out.latency_p95_us = hist->Quantile(0.95);
  }
  Sidecar::Instance().NoteTransport(cluster.transport()->name());
  Sidecar::Instance().RecordRun(label, cluster.StatsReport(), tracer.ToJson());
  return out;
}

struct Scenario {
  const char* name;
  ChaosSchedule schedule;
  bool expect_reattach = false;
  bool expect_replay = false;
};

int Main() {
  ChaosStreamConfig cfg;
  cfg.end = 20'000;

  // Fault times sit mid-stream so every schedule has live in-flight slices
  // before the fault and visible recovery after it (see ChaosRunner: faults
  // strike mid-round, at the point of maximum in-flight state).
  std::vector<Scenario> scenarios;
  scenarios.push_back({"intermediate crash",
                       {{{ChaosAction::Kind::kCrashIntermediate, 9'500, 0}}},
                       /*expect_reattach=*/true,
                       /*expect_replay=*/false});
  scenarios.push_back({"local crash + reattach",
                       {{{ChaosAction::Kind::kDeclareLocalDead, 8'000, 2},
                         {ChaosAction::Kind::kReattachLocal, 10'000, 2}}},
                       /*expect_reattach=*/true,
                       /*expect_replay=*/true});
  scenarios.push_back({"transient partition",
                       {{{ChaosAction::Kind::kPartitionLocal, 9'000, 1},
                         {ChaosAction::Kind::kHealLocal, 10'000, 1}}},
                       /*expect_reattach=*/false,
                       /*expect_replay=*/false});

  const ChaosOutcome baseline = RunSchedule("baseline", {}, cfg);
  if (baseline.canonical.empty()) {
    std::fprintf(stderr, "FAIL: baseline produced no windows\n");
    return 1;
  }

  PrintHeader("Crash recovery: disturbed vs undisturbed, topology {4,2,1}",
              {"reattaches", "replayed", "link_drops", "lat_p50_us",
               "lat_p95_us"});
  int failures = 0;
  for (Scenario& s : scenarios) {
    const ChaosOutcome out = RunSchedule(s.name, s.schedule, cfg);
    PrintRow(s.name, {static_cast<double>(out.reattaches),
                      static_cast<double>(out.replayed),
                      static_cast<double>(out.link_drops), out.latency_p50_us,
                      out.latency_p95_us});
    if (out.canonical != baseline.canonical) {
      std::fprintf(stderr,
                   "FAIL: '%s' diverged from the undisturbed run "
                   "(lost or duplicated windows)\n",
                   s.name);
      ++failures;
    }
    if (s.expect_reattach && out.reattaches == 0) {
      std::fprintf(stderr, "FAIL: '%s' never reattached an orphan\n", s.name);
      ++failures;
    }
    if (s.expect_replay && out.replayed == 0) {
      std::fprintf(stderr, "FAIL: '%s' never replayed a slice\n", s.name);
      ++failures;
    }
    if (!s.expect_reattach && out.reattaches != 0) {
      std::fprintf(stderr,
                   "FAIL: '%s' reattached %llu orphans — link-level "
                   "retransmission should have healed it alone\n",
                   s.name, static_cast<unsigned long long>(out.reattaches));
      ++failures;
    }
  }

  WriteMetricsSidecar("bench_recovery");
  if (failures == 0) std::printf("all recovery contracts held\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace desis::bench

int main() { return desis::bench::Main(); }
