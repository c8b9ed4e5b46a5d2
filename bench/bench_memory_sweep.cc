// Bounded-memory sweep (docs/EXPERIMENTS.md): the cluster-level companion
// to bench_memory_cap. For each key cardinality (1k / 10k / 100k) a
// holistic median/quantile workload runs once on a Desis cluster with an
// effectively unlimited per-local budget to meter the natural resident
// peak, then under per-local budgets of 1/2, 1/3 and 1/4 of that peak —
// nine governed cells in total. Acceptance, checked in-process (non-zero
// exit on violation): every governed run produces the byte-identical
// canonical window set of its uncapped sibling and actually spills.
//
// Unlike bench_memory_cap (engine level), peak <= budget is NOT asserted
// here: a local ships whole sealed slices upstream, so the seal-time k-way
// merge of open-lane spill runs re-residents the full lane and the peak
// floors at the per-slice footprint regardless of budget. The budget
// governs the open-slice buffers between seals (the long-lived state);
// the hard peak contract lives where windows assemble from cold records —
// bench_memory_cap.
//
// The spills also land in the per-node flight recorders (kSpill/kRestore
// events): the sweep dumps every ring at the end and requires at least one
// dump to carry a spill event, so `desis_inspect postmortem` over these
// dumps exercises the state-movement lane of the timeline, not just the
// recovery lane. Budgets derive from the metered peak, never fixed byte
// counts, so the contract holds at any DESIS_BENCH_SCALE.

#include <cstdio>

#include "harness.h"
#include "net/chaos.h"  // ChaosResultLog: canonical window-set comparison

namespace desis::bench {
namespace {

// Fixed event-time extent (density scales, slice layout does not), shared
// by every cell so only cardinality and budget vary across runs.
constexpr Timestamp kTicks = 16000;

std::vector<Query> SweepQueries() {
  std::vector<Query> queries(2);
  queries[0].id = 1;
  queries[0].window = WindowSpec::Tumbling(2000);
  queries[0].agg = {AggregationFunction::kQuantile, 0.9};
  queries[1].id = 2;
  queries[1].window = WindowSpec::Tumbling(8000);
  queries[1].agg = {AggregationFunction::kMedian, 0.5};
  return queries;
}

Event SweepEvent(size_t i, size_t n, uint32_t num_keys) {
  Event e;
  e.ts = static_cast<Timestamp>((i * static_cast<size_t>(kTicks)) / n);
  e.key = static_cast<uint32_t>(i % num_keys);
  e.value = static_cast<double>((i * 7919) % 10000) / 100.0;  // [0, 100)
  return e;
}

struct SweepOutcome {
  std::string canonical;
  uint64_t max_peak = 0;   // max per-local resident peak
  uint64_t spills = 0;     // summed over locals
  uint64_t spill_bytes = 0;
  uint64_t restores = 0;
  bool flight_spill_seen = false;
};

SweepOutcome RunCell(const std::string& label, uint32_t num_keys,
                     uint64_t budget_bytes, size_t num_events) {
  ClusterOptions options;
  options.memory.budget_bytes = budget_bytes;
  options.memory.min_spill_bytes = 256;
  options.memory.spill_dir = ".desis_spill";
  Cluster cluster(ClusterSystem::kDesis, {2, 1}, options);
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(kSidecarTraceCapacity);
  cluster.AttachObs(&registry, &tracer);
  ChaosResultLog log;
  cluster.set_sink(log.Sink());
  if (auto status = cluster.Configure(SweepQueries()); !status.ok()) {
    std::fprintf(stderr, "configure failed: %s\n", status.ToString().c_str());
    std::abort();
  }

  std::vector<Event> batch;
  batch.reserve(512);
  for (size_t i = 0; i < num_events; ++i) {
    batch.push_back(SweepEvent(i, num_events, num_keys));
    if (batch.size() == 512) {
      cluster.IngestAt(static_cast<int>(i / 512) % 2, batch.data(),
                       batch.size());
      cluster.Advance(batch.back().ts);
      batch.clear();
    }
  }
  if (!batch.empty()) cluster.IngestAt(0, batch.data(), batch.size());
  cluster.Advance(kTicks + 64000);
  cluster.Drain();

  SweepOutcome out;
  out.canonical = log.Canonical();
  for (int i = 0; i < cluster.num_locals(); ++i) {
    const mem::MemoryGovernor* gov = cluster.LocalMemoryGovernor(i);
    if (gov == nullptr) continue;
    out.max_peak = std::max(out.max_peak, gov->peak_resident());
    out.spills += gov->spills();
    out.spill_bytes += gov->spill_bytes();
    out.restores += gov->restores();
  }
  // The governed state movement must be visible to the black box too: any
  // local that spilled recorded kSpill events in its flight ring.
  const std::vector<std::string> dumps =
      cluster.DumpFlightRecorders(".", "on_demand");
  for (const std::string& path : dumps) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    std::string text;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      text.append(chunk, got);
    }
    std::fclose(f);
    if (text.find("\"kind\":\"spill\"") != std::string::npos) {
      out.flight_spill_seen = true;
    }
    std::remove(path.c_str());
  }
  Sidecar::Instance().NoteTransport(cluster.transport()->name());
  Sidecar::Instance().RecordRun(label, cluster.StatsReport(), tracer.ToJson());
  return out;
}

int Main() {
  const size_t num_events = Scaled(192 * 1024);
  int failures = 0;

  PrintHeader("Memory sweep: per-local budgets vs uncapped, cluster {2,1}",
              {"budget_kb", "peak_kb", "spills", "spill_kb", "restores"});

  for (const uint32_t num_keys : {1'000u, 10'000u, 100'000u}) {
    const std::string card = std::to_string(num_keys) + " keys";
    // Metering run: a budget far above any plausible footprint keeps
    // accounting on without ever triggering relief.
    const SweepOutcome uncapped = RunCell(
        card + " uncapped", num_keys, uint64_t{1} << 40, num_events);
    PrintRow(card + " uncapped",
             {0.0, static_cast<double>(uncapped.max_peak) / 1024.0, 0.0, 0.0,
              0.0});
    if (uncapped.canonical.empty()) {
      std::fprintf(stderr, "FAIL: '%s' uncapped produced no windows\n",
                   card.c_str());
      ++failures;
      continue;
    }
    if (uncapped.spills != 0) {
      std::fprintf(stderr, "FAIL: '%s' uncapped run spilled\n", card.c_str());
      ++failures;
    }

    for (const uint64_t divisor : {uint64_t{2}, uint64_t{3}, uint64_t{4}}) {
      const uint64_t budget = uncapped.max_peak / divisor;
      const std::string label = card + " capped 1/" + std::to_string(divisor);
      const SweepOutcome capped = RunCell(label, num_keys, budget, num_events);
      PrintRow(label, {static_cast<double>(budget) / 1024.0,
                       static_cast<double>(capped.max_peak) / 1024.0,
                       static_cast<double>(capped.spills),
                       static_cast<double>(capped.spill_bytes) / 1024.0,
                       static_cast<double>(capped.restores)});
      if (capped.canonical != uncapped.canonical) {
        std::fprintf(stderr,
                     "FAIL: '%s' diverged from the uncapped window set\n",
                     label.c_str());
        ++failures;
      }
      if (capped.spills == 0) {
        std::fprintf(stderr, "FAIL: '%s' never spilled\n", label.c_str());
        ++failures;
      }
      if (!capped.flight_spill_seen) {
        std::fprintf(stderr,
                     "FAIL: '%s' spilled but no flight recorder carries a "
                     "spill event\n",
                     label.c_str());
        ++failures;
      }
    }
  }

  WriteMetricsSidecar("bench_memory_sweep");
  if (failures == 0) std::printf("all memory-sweep contracts held\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace desis::bench

int main() { return desis::bench::Main(); }
