// Bounded-memory acceptance bench (docs/EXPERIMENTS.md): a median/quantile
// workload over 100k keys runs once with an effectively unlimited budget to
// meter its uncapped resident peak, then again under budgets of 1/2 and 1/3
// of that peak, and once more on the t-digest sketch lane. The acceptance
// contract is checked in-process and the bench exits non-zero on violation:
// every capped run must produce the byte-identical window set while its
// governor's resident peak stays at or under the budget (with real spill
// traffic, or none at all for the sketch lane, whose per-slice state is
// O(compression)).
//
// The budgets derive from the metered peak rather than fixed byte counts so
// the contract holds at any DESIS_BENCH_SCALE — the regression gate runs at
// scale 0.01 against a committed baseline of the deterministic counters
// (events, results, spills, spill bytes, restores; wall-clock series are
// auto-skipped by stable-only diffs).

#include "harness.h"
#include "mem/memory_governor.h"

namespace desis::bench {
namespace {

// Fixed event-time extent: scaling changes density, not the slice layout,
// so per-slice state shrinks with the event count and the derived budgets
// track it.
constexpr Timestamp kTicks = 32000;
constexpr uint32_t kKeys = 100000;

/// Ingest batch size: each batch is one governor charge delta, and relief
/// only guarantees peak <= budget when single deltas fit the quarter of
/// headroom above the soft limit — so scaled-down runs (whose derived
/// budgets shrink with the event count) use proportionally smaller batches.
size_t IngestBatchSize(size_t num_events) {
  return std::clamp<size_t>(num_events / 256, 64, 256);
}

std::vector<Query> MemoryQueries(bool approx) {
  std::vector<Query> queries(4);
  queries[0].id = 1;
  queries[0].window = WindowSpec::Tumbling(2000);
  queries[0].agg = {AggregationFunction::kQuantile, 0.9, approx};
  queries[0].predicate = Predicate::ValueRange(0.0, 50.0);
  queries[1].id = 2;
  queries[1].window = WindowSpec::Tumbling(16000);
  queries[1].agg = {AggregationFunction::kMedian, 0.5, approx};
  queries[1].predicate = Predicate::ValueRange(0.0, 50.0);
  queries[2].id = 3;
  queries[2].window = WindowSpec::Tumbling(2000);
  queries[2].agg = {AggregationFunction::kQuantile, 0.25, approx};
  queries[2].predicate = Predicate::ValueRange(50.0, 100.0);
  queries[3].id = 4;
  queries[3].window = WindowSpec::Tumbling(16000);
  queries[3].agg = {AggregationFunction::kMedian, 0.5, approx};
  queries[3].predicate = Predicate::ValueRange(50.0, 100.0);
  return queries;
}

Event WorkloadEvent(size_t i, size_t n) {
  Event e;
  e.ts = static_cast<Timestamp>((i * static_cast<size_t>(kTicks)) / n);
  e.key = static_cast<uint32_t>(i % kKeys);
  e.value = static_cast<double>((i * 7919) % 10000) / 100.0;  // [0, 100)
  return e;
}

uint64_t Fingerprint(const std::vector<WindowResult>& results) {
  uint64_t h = 0xCBF29CE484222325ull;
  const auto fold = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  };
  for (const WindowResult& r : results) {
    fold(&r.query_id, sizeof(r.query_id));
    fold(&r.window_start, sizeof(r.window_start));
    fold(&r.window_end, sizeof(r.window_end));
    fold(&r.value, sizeof(r.value));
    fold(&r.event_count, sizeof(r.event_count));
  }
  return h;
}

struct RunOutcome {
  std::vector<WindowResult> results;
  uint64_t fingerprint = 0;
  uint64_t peak_resident = 0;
  uint64_t spills = 0;
  uint64_t spill_bytes = 0;
  uint64_t restores = 0;
  double events_per_sec = 0;
};

RunOutcome RunGoverned(const std::string& label, uint64_t budget_bytes,
                       bool approx, size_t num_events) {
  mem::MemoryOptions options;
  options.budget_bytes = budget_bytes;
  // Scaled-down runs (the CI gate pins scale 0.01) have per-slice lanes of
  // a few KB; keep them spill-eligible so the contract is exercised there.
  options.min_spill_bytes = 256;
  options.spill_dir = ".desis_spill";

  DesisEngine engine;
  engine.EnableMemoryBudget(options);
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(kSidecarTraceCapacity);
  if (auto status = engine.Configure(MemoryQueries(approx)); !status.ok()) {
    std::fprintf(stderr, "configure failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  engine.set_metrics_registry(&registry);
  engine.set_tracer(&tracer);

  RunOutcome out;
  engine.set_sink(
      [&](const WindowResult& r) { out.results.push_back(r); });

  const size_t ingest_batch = IngestBatchSize(num_events);
  std::vector<Event> batch;
  batch.reserve(ingest_batch);
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < num_events; ++i) {
    batch.push_back(WorkloadEvent(i, num_events));
    if (batch.size() == ingest_batch) {
      engine.IngestBatch(batch.data(), batch.size());
      if ((i + 1) % (ingest_batch * 16) == 0) {
        engine.AdvanceTo(batch.back().ts);
      }
      batch.clear();
    }
  }
  if (!batch.empty()) engine.IngestBatch(batch.data(), batch.size());
  engine.Finish();
  const int64_t elapsed = NowNs() - t0;

  const mem::MemoryGovernor* gov = engine.memory_governor();
  out.fingerprint = Fingerprint(out.results);
  out.peak_resident = gov->peak_resident();
  out.spills = gov->spills();
  out.spill_bytes = gov->spill_bytes();
  out.restores = gov->restores();
  out.events_per_sec = elapsed > 0 ? static_cast<double>(num_events) * 1e9 /
                                         static_cast<double>(elapsed)
                                   : 0;

  char report[512];
  std::snprintf(
      report, sizeof(report),
      "{\"system\":\"Desis\",\"events\":%zu,\"results\":%zu,"
      "\"budget_bytes\":%llu,\"peak_resident\":%llu,\"spills\":%llu,"
      "\"spill_bytes\":%llu,\"restores\":%llu,\"sketch\":%d,"
      "\"events_per_sec\":%.1f,",
      num_events, out.results.size(),
      static_cast<unsigned long long>(budget_bytes),
      static_cast<unsigned long long>(out.peak_resident),
      static_cast<unsigned long long>(out.spills),
      static_cast<unsigned long long>(out.spill_bytes),
      static_cast<unsigned long long>(out.restores), approx ? 1 : 0,
      out.events_per_sec);
  std::string report_json = report;
  report_json += "\"engine\":" + EngineStatsJson(engine.stats());
  report_json += ",\"obs\":{\"metrics\":" + registry.ToJson() + "}}";
  Sidecar::Instance().RecordRun(label, report_json, tracer.ToJson());
  return out;
}

int Main() {
  const size_t num_events = Scaled(512 * 1024);

  // Meter the workload's natural peak first: a budget far above any
  // plausible footprint keeps accounting on without ever triggering
  // relief, so this run is governance-free in behaviour.
  const RunOutcome uncapped =
      RunGoverned("uncapped", uint64_t{1} << 40, /*approx=*/false,
                  num_events);

  int failures = 0;
  if (uncapped.results.empty()) {
    std::fprintf(stderr, "FAIL: uncapped run produced no windows\n");
    ++failures;
  }
  if (uncapped.spills != 0) {
    std::fprintf(stderr, "FAIL: uncapped run spilled\n");
    ++failures;
  }

  PrintHeader("Memory cap: governed vs uncapped, median/quantile @ 100k keys",
              {"budget_kb", "peak_kb", "spills", "spill_kb", "restores"});
  PrintRow("uncapped", {0.0,
                        static_cast<double>(uncapped.peak_resident) / 1024.0,
                        0.0, 0.0, 0.0});

  for (const uint64_t divisor : {uint64_t{2}, uint64_t{3}}) {
    const uint64_t budget = uncapped.peak_resident / divisor;
    const std::string label = "capped 1/" + std::to_string(divisor);
    const RunOutcome capped =
        RunGoverned(label, budget, /*approx=*/false, num_events);
    PrintRow(label,
             {static_cast<double>(budget) / 1024.0,
              static_cast<double>(capped.peak_resident) / 1024.0,
              static_cast<double>(capped.spills),
              static_cast<double>(capped.spill_bytes) / 1024.0,
              static_cast<double>(capped.restores)});
    if (capped.fingerprint != uncapped.fingerprint ||
        capped.results.size() != uncapped.results.size()) {
      std::fprintf(stderr,
                   "FAIL: '%s' diverged from the uncapped window set\n",
                   label.c_str());
      ++failures;
    }
    if (capped.spills == 0) {
      std::fprintf(stderr, "FAIL: '%s' never spilled\n", label.c_str());
      ++failures;
    }
    if (capped.restores == 0) {
      std::fprintf(stderr, "FAIL: '%s' never merged a cold run\n",
                   label.c_str());
      ++failures;
    }
    if (capped.peak_resident > budget) {
      std::fprintf(stderr,
                   "FAIL: '%s' peak resident %llu exceeded budget %llu\n",
                   label.c_str(),
                   static_cast<unsigned long long>(capped.peak_resident),
                   static_cast<unsigned long long>(budget));
      ++failures;
    }
  }

  // Sketch lane: constant per-slice state fits a budget the exact sort
  // buffers blow through, without any spilling; values are near-uniform on
  // [0,100), so the documented <1.6% rank error bounds the value error.
  // The floor covers the digests' fixed buffer capacity, which does not
  // shrink with the event count the way the sort buffers do.
  {
    const uint64_t budget = std::max<uint64_t>(
        uncapped.peak_resident / 8, uint64_t{192} * 1024);
    const RunOutcome sketch =
        RunGoverned("sketch", budget, /*approx=*/true, num_events);
    PrintRow("sketch",
             {static_cast<double>(budget) / 1024.0,
              static_cast<double>(sketch.peak_resident) / 1024.0,
              static_cast<double>(sketch.spills),
              static_cast<double>(sketch.spill_bytes) / 1024.0,
              static_cast<double>(sketch.restores)});
    if (sketch.results.size() != uncapped.results.size()) {
      std::fprintf(stderr, "FAIL: sketch run changed the window count\n");
      ++failures;
    } else {
      double worst = 0;
      for (size_t i = 0; i < sketch.results.size(); ++i) {
        worst = std::max(worst, std::abs(sketch.results[i].value -
                                         uncapped.results[i].value));
      }
      if (worst > 4.0) {
        std::fprintf(stderr,
                     "FAIL: sketch quantiles drifted %.2f from exact\n",
                     worst);
        ++failures;
      }
    }
    if (sketch.spills != 0) {
      std::fprintf(stderr, "FAIL: sketch lane spilled\n");
      ++failures;
    }
    if (sketch.peak_resident > budget) {
      std::fprintf(stderr, "FAIL: sketch peak exceeded its budget\n");
      ++failures;
    }
  }

  WriteMetricsSidecar("bench_memory_cap");
  if (failures == 0) std::printf("all memory-cap contracts held\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace desis::bench

int main() { return desis::bench::Main(); }
