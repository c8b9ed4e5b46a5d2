// The 10k-query correlated-window suite (docs/EXPERIMENTS.md): thousands
// of queries over correlated windows (1s feeders, 5s/10s mid-tiers, 60s
// coarse tumbling and sliding windows, all integer multiples of each
// other) on 100 key lanes, run twice on the same deterministic streams —
// once on the static analyzer plan, once under the cost-based optimizer
// (per-lane mask narrowing + factor-window rewriting).
//
// The acceptance contract this bench demonstrates:
//   - window results are byte-identical (integer-valued events, so sums /
//     counts / extrema are exactly representable and merge order cannot
//     change them) — checked via an order-independent fingerprint;
//   - group.operator_evals drops >= 2x under the optimized plan;
//   - the aggregate sharing ratio (queries x events / operator evals) is
//     reported per run and lands in the sidecar for desis-inspect.
//
// Scale: DESIS_BENCH_SCALE scales both the query count (default 10'000)
// and the per-local event count; the CI gate runs at 0.01 against
// bench/baselines/correlated_baseline.json.

#include <cstring>

#include "harness.h"

namespace desis::bench {
namespace {

std::vector<Query> CorrelatedQueries(size_t n) {
  std::vector<Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.id = static_cast<QueryId>(i + 1);
    switch (i % 5) {
      case 0: q.window = WindowSpec::Tumbling(1 * kSecond); break;
      case 1: q.window = WindowSpec::Tumbling(5 * kSecond); break;
      case 2: q.window = WindowSpec::Tumbling(60 * kSecond); break;
      case 3: q.window = WindowSpec::Sliding(60 * kSecond, 5 * kSecond); break;
      default: q.window = WindowSpec::Tumbling(10 * kSecond); break;
    }
    // Mostly sums, so most key lanes narrow to one operator; the sprinkled
    // averages and maxima keep the *group* mask wide (sum+count+dsort),
    // which is exactly what the static plan charges every lane for.
    const size_t r = i % 10;
    q.agg = {r < 8 ? AggregationFunction::kSum
                   : (r == 8 ? AggregationFunction::kAverage
                             : AggregationFunction::kMax),
             0.5};
    q.predicate = Predicate::KeyEquals(static_cast<uint32_t>(i % 100));
    queries.push_back(q);
  }
  return queries;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct CorrelatedRun {
  uint64_t results = 0;
  uint64_t fingerprint = 0;  // order-independent over all emitted windows
  uint64_t operator_evals = 0;
  double sharing_ratio = 0;
  uint32_t rewrites = 0;
  uint32_t dag_depth = 1;
};

CorrelatedRun RunCorrelated(const std::vector<Query>& queries, bool optimize,
                            size_t events_per_local) {
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(kSidecarTraceCapacity);
  ClusterOptions options;
  options.optimize_plans = optimize;
  Cluster cluster(ClusterSystem::kDesis, {2, 1}, options);
  auto status = cluster.Configure(queries);
  if (!status.ok()) {
    std::fprintf(stderr, "configure failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  cluster.AttachObs(&registry, &tracer);

  CorrelatedRun out;
  cluster.set_sink([&out](const WindowResult& r) {
    ++out.results;
    uint64_t bits = 0;
    std::memcpy(&bits, &r.value, sizeof(bits));
    uint64_t h = Mix64(r.query_id ^ Mix64(static_cast<uint64_t>(r.window_start)));
    h = Mix64(h ^ static_cast<uint64_t>(r.window_end));
    h = Mix64(h ^ bits) ^ Mix64(r.event_count);
    out.fingerprint += h;  // commutative: emission order may differ
  });

  // Deterministic integer-valued streams, one event per millisecond per
  // local: every aggregate in the query set is exactly representable.
  const Timestamp step = kMillisecond;
  std::vector<std::vector<Event>> streams(2);
  Timestamp max_ts = 0;
  for (uint32_t local = 0; local < 2; ++local) {
    streams[local].reserve(events_per_local);
    for (size_t j = 0; j < events_per_local; ++j) {
      const Timestamp ts = static_cast<Timestamp>(j + 1) * step + local * 7;
      streams[local].push_back(
          {ts, static_cast<uint32_t>((j * 13 + local * 37) % 100),
           static_cast<double>((j + local) % 10), kNoMarker});
      max_ts = std::max(max_ts, ts);
    }
  }
  std::vector<size_t> cursor(streams.size(), 0);
  const Timestamp round = 100 * kMillisecond;
  for (Timestamp t = 0; t <= max_ts + round; t += round) {
    for (size_t i = 0; i < streams.size(); ++i) {
      const size_t begin = cursor[i];
      while (cursor[i] < streams[i].size() &&
             streams[i][cursor[i]].ts < t + round) {
        ++cursor[i];
      }
      if (cursor[i] > begin) {
        cluster.IngestAt(static_cast<int>(i), streams[i].data() + begin,
                         cursor[i] - begin);
      }
    }
    cluster.Advance(t + round);
  }
  cluster.Advance(max_ts + 2 * kMinute);
  cluster.Drain();

  // Cost attribution out of the registry: total operator evaluations and
  // the fleet-wide sharing ratio (queries x events / evals).
  static const char* kOps[] = {"sum", "count", "mult", "dsort", "ndsort",
                               "sumsq"};
  double work = 0;
  for (const QueryGroup& g : cluster.QueryGroupsSnapshot()) {
    const obs::Labels labels = {{"group", std::to_string(g.id)}};
    const obs::Counter* events_in =
        registry.GetCounter("group.events_in", labels, "events");
    work += static_cast<double>(g.queries.size()) *
            static_cast<double>(events_in->value());
    for (const char* op : kOps) {
      obs::Labels op_labels = labels;
      op_labels.emplace_back("op", op);
      out.operator_evals +=
          registry.GetCounter("group.operator_evals", op_labels, "evals")
              ->value();
    }
    out.rewrites += g.plan.rewrites;
    out.dag_depth = std::max(out.dag_depth, g.plan.dag_depth);
  }
  if (out.operator_evals > 0) {
    out.sharing_ratio = work / static_cast<double>(out.operator_evals);
  }

  Sidecar::Instance().NoteTransport(cluster.transport()->name());
  char label[96];
  std::snprintf(label, sizeof(label), "%s queries=%zu events=%zu",
                optimize ? "optimized" : "static", queries.size(),
                events_per_local);
  Sidecar::Instance().RecordRun(label, cluster.StatsReport(), tracer.ToJson());
  return out;
}

int Main() {
  const size_t num_queries = Scaled(10'000);
  const size_t events_per_local = Scaled(200'000);
  const auto queries = CorrelatedQueries(num_queries);

  PrintHeader("Correlated windows: static plan vs cost-based optimizer",
              {"results", "op_evals", "sharing", "rewrites", "dag_depth"});
  const CorrelatedRun baseline =
      RunCorrelated(queries, /*optimize=*/false, events_per_local);
  PrintRow("static", {static_cast<double>(baseline.results),
                      static_cast<double>(baseline.operator_evals),
                      baseline.sharing_ratio,
                      static_cast<double>(baseline.rewrites),
                      static_cast<double>(baseline.dag_depth)});
  const CorrelatedRun optimized =
      RunCorrelated(queries, /*optimize=*/true, events_per_local);
  PrintRow("optimized", {static_cast<double>(optimized.results),
                         static_cast<double>(optimized.operator_evals),
                         optimized.sharing_ratio,
                         static_cast<double>(optimized.rewrites),
                         static_cast<double>(optimized.dag_depth)});

  int failures = 0;
  if (baseline.results != optimized.results ||
      baseline.fingerprint != optimized.fingerprint) {
    std::fprintf(stderr,
                 "FAIL: optimized results diverge from static plan "
                 "(results %llu vs %llu, fingerprint %016llx vs %016llx)\n",
                 static_cast<unsigned long long>(baseline.results),
                 static_cast<unsigned long long>(optimized.results),
                 static_cast<unsigned long long>(baseline.fingerprint),
                 static_cast<unsigned long long>(optimized.fingerprint));
    ++failures;
  } else {
    std::printf("results byte-identical: %llu windows, fingerprint %016llx\n",
                static_cast<unsigned long long>(baseline.results),
                static_cast<unsigned long long>(baseline.fingerprint));
  }
  const double ratio =
      optimized.operator_evals > 0
          ? static_cast<double>(baseline.operator_evals) /
                static_cast<double>(optimized.operator_evals)
          : 0.0;
  std::printf("operator_evals reduction: %.2fx (sharing ratio %.2f -> %.2f)\n",
              ratio, baseline.sharing_ratio, optimized.sharing_ratio);
  if (ratio < 2.0) {
    std::fprintf(stderr, "FAIL: operator_evals reduction %.2fx < 2x\n", ratio);
    ++failures;
  }
  if (optimized.rewrites == 0) {
    std::fprintf(stderr, "FAIL: optimizer installed no factor edges\n");
    ++failures;
  }
  WriteMetricsSidecar("bench_correlated");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace desis::bench

int main() { return desis::bench::Main(); }
