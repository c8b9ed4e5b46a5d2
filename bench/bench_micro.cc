// Microbenchmarks (google-benchmark) for the engine's primitives: operator
// folds, partial merges, serialization, slicing, batched ingest and
// query-group formation.

#include <benchmark/benchmark.h>

#include <chrono>

#include "common/serde.h"
#include "core/engine.h"
#include "core/operators.h"
#include "core/query_analyzer.h"
#include "gen/data_generator.h"
#include "harness.h"

namespace desis {
namespace {

void BM_OperatorAdd(benchmark::State& state) {
  const OperatorMask mask = static_cast<OperatorMask>(state.range(0));
  PartialAggregate agg(mask);
  double v = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg.Add(v));
    v += 0.5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OperatorAdd)
    ->Arg(MaskOf(OperatorKind::kSum))
    ->Arg(MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount))
    ->Arg(MaskOf(OperatorKind::kDecomposableSort))
    ->Arg(MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
          MaskOf(OperatorKind::kMultiply) |
          MaskOf(OperatorKind::kDecomposableSort));

void BM_PartialMerge(benchmark::State& state) {
  const OperatorMask mask =
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kDecomposableSort);
  PartialAggregate a(mask);
  PartialAggregate b(mask);
  for (int i = 0; i < 100; ++i) {
    a.Add(i);
    b.Add(i * 2);
  }
  a.Seal();
  b.Seal();
  for (auto _ : state) {
    PartialAggregate acc = a;
    acc.Merge(b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PartialMerge);

void BM_SortedMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SortedState a;
  SortedState b;
  for (int i = 0; i < n; ++i) {
    a.Add(static_cast<double>((i * 7) % n));
    b.Add(static_cast<double>((i * 13) % n));
  }
  a.Seal();
  b.Seal();
  for (auto _ : state) {
    SortedState acc = a;
    acc.Merge(b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_SortedMerge)->Arg(100)->Arg(10000);

void BM_PartialSerialize(benchmark::State& state) {
  PartialAggregate agg(MaskOf(OperatorKind::kSum) |
                       MaskOf(OperatorKind::kCount) |
                       MaskOf(OperatorKind::kDecomposableSort));
  for (int i = 0; i < 16; ++i) agg.Add(i);
  agg.Seal();
  for (auto _ : state) {
    ByteWriter out;
    agg.SerializeTo(out);
    ByteReader in(out.bytes());
    benchmark::DoNotOptimize(PartialAggregate::DeserializeFrom(in));
  }
}
BENCHMARK(BM_PartialSerialize);

void BM_SlicerIngest(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));
  std::vector<Query> queries;
  for (int i = 0; i < num_queries; ++i) {
    Query q;
    q.id = static_cast<QueryId>(i + 1);
    q.window = WindowSpec::Tumbling(((i % 10) + 1) * kSecond);
    q.agg = {i % 2 == 0 ? AggregationFunction::kAverage
                        : AggregationFunction::kSum,
             0};
    queries.push_back(q);
  }
  DesisEngine engine;
  (void)engine.Configure(queries);
  DataGeneratorConfig cfg;
  auto events = DataGenerator(cfg).Take(1 << 16);
  size_t i = 0;
  for (auto _ : state) {
    engine.Ingest(events[i & (events.size() - 1)]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlicerIngest)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

// Multi-query tumbling+sliding time-window workload for the batched-ingest
// throughput comparison: all specs are fixed-size time windows, so the
// slicer's run-based fast path applies end to end.
std::vector<Query> ThroughputQueries() {
  std::vector<Query> queries;
  QueryId id = 1;
  for (int i = 0; i < 4; ++i) {
    Query q;
    q.id = id++;
    q.window = WindowSpec::Tumbling((i + 1) * kSecond);
    q.agg = {i % 2 == 0 ? AggregationFunction::kAverage
                        : AggregationFunction::kSum,
             0};
    queries.push_back(q);
  }
  for (int i = 0; i < 4; ++i) {
    Query q;
    q.id = id++;
    q.window = WindowSpec::Sliding(2 * (i + 1) * kSecond, 500 * kMillisecond);
    q.agg = {i % 2 == 0 ? AggregationFunction::kMax : AggregationFunction::kSum,
             0};
    queries.push_back(q);
  }
  return queries;
}

/// Accumulated batch-1024 ingest timings with and without a flight
/// recorder attached, for the recorder-overhead self-check (the recorder
/// only sees control-plane events — slice seals, watermark moves — so its
/// cost must vanish in the per-event noise; docs/METRICS.md).
struct RecorderOverheadSample {
  int64_t timed_ns = 0;
  int64_t events = 0;
};

RecorderOverheadSample& RecorderSample(bool with_recorder) {
  static RecorderOverheadSample samples[2];
  return samples[with_recorder ? 1 : 0];
}

constexpr size_t kOverheadProbeBatch = 1024;

// Feeds the same 128k-event stream through a fresh Desis engine per
// iteration; batch == 0 uses the per-event Ingest() path, otherwise
// IngestBatch() in `batch`-sized chunks. `with_recorder` attaches a
// per-iteration flight recorder (the overhead probe pair at batch 1024).
void IngestThroughput(benchmark::State& state, size_t batch,
                      bool with_recorder = false) {
  DataGeneratorConfig cfg;
  const std::vector<Event> events = DataGenerator(cfg).Take(1 << 17);
  const std::vector<Query> queries = ThroughputQueries();
  for (auto _ : state) {
    state.PauseTiming();
    DesisEngine engine;
    obs::FlightRecorder recorder;
    if (with_recorder) engine.set_flight_recorder(&recorder);
    (void)engine.Configure(queries);
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    if (batch == 0) {
      for (const Event& e : events) engine.Ingest(e);
    } else {
      for (size_t i = 0; i < events.size(); i += batch) {
        engine.IngestBatch(events.data() + i,
                           std::min(batch, events.size() - i));
      }
    }
    benchmark::DoNotOptimize(engine.stats().operator_executions);
    const auto t1 = std::chrono::steady_clock::now();
    if (batch == kOverheadProbeBatch) {
      RecorderOverheadSample& sample = RecorderSample(with_recorder);
      sample.timed_ns +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count();
      sample.events += static_cast<int64_t>(events.size());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}

void BM_IngestPerEvent(benchmark::State& state) { IngestThroughput(state, 0); }
BENCHMARK(BM_IngestPerEvent);

void BM_IngestBatch(benchmark::State& state) {
  IngestThroughput(state, static_cast<size_t>(state.range(0)));
}
// Batch-size sweep, up to a whole-stream batch.
BENCHMARK(BM_IngestBatch)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(1 << 17);

// The flight-recorder overhead probe: identical workload to
// BM_IngestBatch/1024, with a recorder attached. Its sidecar pair (see
// RecordRecorderOverhead) is the "recorder is free on the hot path" gate.
void BM_IngestBatchRecorded(benchmark::State& state) {
  IngestThroughput(state, kOverheadProbeBatch, /*with_recorder=*/true);
}
BENCHMARK(BM_IngestBatchRecorded);

// Predicated-lane workload: the fixed-window mix of ThroughputQueries()
// plus variance/stddev queries (three operator folds per event) and
// selection lanes (per-key and value-range predicates evaluated on every
// event).
std::vector<Query> PredicatedQueries() {
  std::vector<Query> queries = ThroughputQueries();
  QueryId id = static_cast<QueryId>(queries.size() + 1);
  for (int i = 0; i < 4; ++i) {
    Query q;
    q.id = id++;
    q.window = WindowSpec::Tumbling((i + 1) * kSecond);
    q.agg = {i % 2 == 0 ? AggregationFunction::kVariance
                        : AggregationFunction::kStdDev,
             0};
    queries.push_back(q);
  }
  for (int i = 0; i < 8; ++i) {
    Query q;
    q.id = id++;
    q.window = WindowSpec::Tumbling(((i % 4) + 1) * kSecond);
    q.agg = {i % 2 == 0 ? AggregationFunction::kSum
                        : AggregationFunction::kMax,
             0};
    q.predicate = Predicate::KeyEquals(static_cast<uint32_t>(i * 97));
    queries.push_back(q);
  }
  for (int i = 0; i < 2; ++i) {
    Query q;
    q.id = id++;
    q.window = WindowSpec::Sliding(3 * kSecond, 1 * kSecond);
    q.agg = {AggregationFunction::kAverage, 0};
    q.predicate = Predicate::ValueRange(i * 400.0, i * 400.0 + 500.0);
    queries.push_back(q);
  }
  return queries;
}

// ROADMAP item 2's predicated-lane workload, serial engine, batch 256 over
// 1024 keys, in three steps that are prefixes of PredicatedQueries():
// the 8 match-all queries (0), plus 4 variance/stddev queries (1), plus 8
// KeyEquals and 2 ValueRange lanes (2). Step 2 against step 0 is the price
// of predicated lanes on the batch path.
void BM_IngestPredicated(benchmark::State& state) {
  constexpr size_t kBatch = 256;
  constexpr size_t kStepQueries[] = {8, 12, 22};
  std::vector<Query> queries = PredicatedQueries();
  queries.resize(kStepQueries[state.range(0)]);
  DataGeneratorConfig cfg;
  cfg.num_keys = 1024;
  const std::vector<Event> events = DataGenerator(cfg).Take(1 << 17);
  for (auto _ : state) {
    state.PauseTiming();
    DesisEngine engine;
    (void)engine.Configure(queries);
    state.ResumeTiming();
    for (size_t i = 0; i < events.size(); i += kBatch) {
      engine.IngestBatch(events.data() + i,
                         std::min(kBatch, events.size() - i));
    }
    benchmark::DoNotOptimize(engine.stats().operator_executions);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_IngestPredicated)->Arg(0)->Arg(1)->Arg(2);

/// Folds the recorder on/off probe pair into the sidecar and self-checks
/// the overhead band: recorder-on throughput within 25% of recorder-off
/// (generous against scheduler noise; the recorder's per-event cost is a
/// handful of relaxed stores on control-plane events only). Returns true
/// on violation so main can exit non-zero. No-op (returns false) when the
/// probe pair did not run (--benchmark_filter).
bool RecordRecorderOverhead() {
  const RecorderOverheadSample& off = RecorderSample(false);
  const RecorderOverheadSample& on = RecorderSample(true);
  if (off.timed_ns <= 0 || on.timed_ns <= 0) return false;
  const double eps_off = static_cast<double>(off.events) * 1e9 /
                         static_cast<double>(off.timed_ns);
  const double eps_on = static_cast<double>(on.events) * 1e9 /
                        static_cast<double>(on.timed_ns);
  const double overhead = eps_on > 0 ? eps_off / eps_on - 1.0 : 0.0;
  for (const bool recorded : {false, true}) {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"system\":\"Desis\",\"batch\":%zu,\"recorder\":%s,"
                  "\"events_per_sec\":%g,\"recorder_overhead\":%g}",
                  kOverheadProbeBatch, recorded ? "true" : "false",
                  recorded ? eps_on : eps_off, recorded ? overhead : 0.0);
    char label[64];
    std::snprintf(label, sizeof(label), "IngestBatch1024 recorder=%s",
                  recorded ? "on" : "off");
    bench::Sidecar::Instance().RecordRun(label, head, "[]");
  }
  std::printf("flight-recorder overhead at batch %zu: %.1f%%\n",
              kOverheadProbeBatch, overhead * 100.0);
  if (overhead > 0.25) {
    std::fprintf(stderr,
                 "FAIL: flight recorder cost %.1f%% ingest throughput "
                 "(band: 25%%)\n",
                 overhead * 100.0);
    return true;
  }
  return false;
}

void BM_QueryAnalyzer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Query> queries;
  for (int i = 0; i < n; ++i) {
    Query q;
    q.id = static_cast<QueryId>(i + 1);
    q.window = WindowSpec::Tumbling((i % 1000 + 1) * 10 * kMillisecond);
    q.agg = {AggregationFunction::kAverage, 0};
    q.predicate = Predicate::KeyEquals(static_cast<uint32_t>(i % 10));
    queries.push_back(q);
  }
  QueryAnalyzer analyzer;
  for (auto _ : state) {
    auto groups = analyzer.Analyze(queries);
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QueryAnalyzer)->Arg(100)->Arg(10000);

}  // namespace
}  // namespace desis

// BENCHMARK_MAIN plus the recorder-overhead sidecar: the sidecar needs the
// accumulated probe timings, which only exist after the run loop.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const bool overhead_violated = desis::RecordRecorderOverhead();
  if (desis::bench::Sidecar::Instance().num_runs() > 0) {
    desis::bench::WriteMetricsSidecar("bench_micro");
  }
  return overhead_violated ? 1 : 0;
}
