// AddQuery / RemoveQuery churn at scale (docs/EXPERIMENTS.md): with R
// resident queries deployed — half sharing one big key-partitioned group,
// half spread over R/100 value-range groups — a churn loop adds and
// removes queries at runtime while traffic flows. Incremental group
// maintenance (opt::GroupIndex) makes each operation O(affected group):
// the bench sweeps R and reports opt.group_churn_ns p50/p95 per resident
// count, which should stay flat as R grows (the acceptance contract of
// the 10k-query churn suite). The histograms land in the sidecar via
// Cluster::StatsReport(); they are `_ns` series, so desis-inspect's
// stable-only diffs skip them automatically and the CI gate only pins the
// structural series (groups, results, events).
//
// Scale: DESIS_BENCH_SCALE scales the resident counts and traffic; the CI
// gate runs at 0.01 against bench/baselines/query_churn_baseline.json.

#include "harness.h"

namespace desis::bench {
namespace {

constexpr QueryId kChurnIdBase = 1'000'000;

std::vector<Query> ResidentQueries(size_t r) {
  const size_t value_groups = std::max<size_t>(1, r / 100);
  std::vector<Query> queries;
  queries.reserve(r);
  for (size_t i = 0; i < r; ++i) {
    Query q;
    q.id = static_cast<QueryId>(i + 1);
    q.window = WindowSpec::Tumbling((1 + i % 3) * kSecond);
    q.agg = {i % 4 == 3 ? AggregationFunction::kAverage
                        : AggregationFunction::kSum,
             0.5};
    if (i % 2 == 0) {
      // Key-partitioned half: pairwise identical-or-disjoint predicates,
      // so the analyzer folds all of them into one big shared group.
      q.predicate = Predicate::KeyEquals(static_cast<uint32_t>(i % 100));
    } else {
      // Value-range half: [0, a) vs [0, b) overlap when a != b, forcing
      // exactly `value_groups` groups (identical ranges share).
      q.predicate =
          Predicate::ValueRange(0.0, 1.0 + static_cast<double>(i % value_groups));
    }
    queries.push_back(q);
  }
  return queries;
}

/// One churn operation's query: rotates through (a) bare-key adds that hit
/// the GroupIndex fast path into the big shared group, (b) value-range adds
/// that probe their way into an existing range group, and (c) overlapping
/// ranges that force a fresh group (created on add, torn down on remove).
Query ChurnQuery(size_t w, size_t value_groups) {
  Query q;
  q.id = kChurnIdBase + static_cast<QueryId>(w);
  q.window = WindowSpec::Tumbling((1 + w % 2) * kSecond);
  q.agg = {AggregationFunction::kSum, 0.5};
  switch (w % 4) {
    case 1:
      q.predicate = Predicate::ValueRange(
          0.0, 1.0 + static_cast<double>(w % value_groups));
      break;
    case 3:
      q.predicate =
          Predicate::ValueRange(0.5, 100.0 + static_cast<double>(w));
      break;
    default:
      q.predicate = Predicate::KeyEquals(static_cast<uint32_t>(w % 100));
      break;
  }
  return q;
}

struct ChurnPoint {
  size_t resident = 0;
  size_t groups = 0;
  double add_p50 = 0, add_p95 = 0;
  double remove_p50 = 0, remove_p95 = 0;
  uint64_t adds = 0, removes = 0;
};

ChurnPoint RunChurn(size_t resident, size_t churn_ops, size_t events_per_local) {
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(kSidecarTraceCapacity);
  ClusterOptions options;
  options.optimize_plans = true;
  Cluster cluster(ClusterSystem::kDesis, {2, 1}, options);
  const auto queries = ResidentQueries(resident);
  auto status = cluster.Configure(queries);
  if (!status.ok()) {
    std::fprintf(stderr, "configure failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  cluster.AttachObs(&registry, &tracer);
  uint64_t results = 0;
  cluster.set_sink([&results](const WindowResult&) { ++results; });

  // Background traffic: deterministic integer-valued events feeding both
  // halves of the resident set, interleaved with the churn waves below so
  // add/remove runs against live slices, not an idle cluster.
  const size_t value_groups = std::max<size_t>(1, resident / 100);
  Timestamp now = 0;
  size_t fed = 0;
  auto feed_round = [&](size_t budget) {
    std::vector<Event> batch;
    batch.reserve(budget);
    for (int local = 0; local < 2; ++local) {
      batch.clear();
      for (size_t j = 0; j < budget; ++j) {
        const Timestamp ts = now + static_cast<Timestamp>(j + 1) * kMillisecond;
        batch.push_back({ts, static_cast<uint32_t>((j * 13 + local) % 100),
                         static_cast<double>(j % 8), kNoMarker});
      }
      cluster.IngestAt(local, batch.data(), batch.size());
    }
    now += static_cast<Timestamp>(budget + 1) * kMillisecond;
    fed += budget;
    cluster.Advance(now);
  };

  const size_t warmup = std::min(events_per_local, size_t{2000});
  feed_round(warmup);
  cluster.Drain();

  const size_t bursts = churn_ops / 32 + 1;
  const size_t burst_budget =
      events_per_local > warmup ? (events_per_local - warmup) / bursts : 0;
  for (size_t w = 0; w < churn_ops; ++w) {
    const Query q = ChurnQuery(w, value_groups);
    auto add = cluster.AddQuery(q);
    if (!add.ok()) {
      std::fprintf(stderr, "AddQuery failed: %s\n", add.ToString().c_str());
      std::abort();
    }
    if (w % 32 == 31 && burst_budget > 0) feed_round(burst_budget);
    auto rm = cluster.RemoveQuery(q.id);
    if (!rm.ok()) {
      std::fprintf(stderr, "RemoveQuery failed: %s\n", rm.ToString().c_str());
      std::abort();
    }
  }
  cluster.Advance(now + 2 * kMinute);
  cluster.Drain();

  ChurnPoint out;
  out.resident = resident;
  out.groups = cluster.num_query_groups();
  const obs::Histogram* add_hist =
      registry.GetHistogram("opt.group_churn_ns", {{"op", "add"}}, "ns");
  const obs::Histogram* remove_hist =
      registry.GetHistogram("opt.group_churn_ns", {{"op", "remove"}}, "ns");
  out.adds = add_hist->count();
  out.add_p50 = add_hist->Quantile(0.50);
  out.add_p95 = add_hist->Quantile(0.95);
  out.removes = remove_hist->count();
  out.remove_p50 = remove_hist->Quantile(0.50);
  out.remove_p95 = remove_hist->Quantile(0.95);

  Sidecar::Instance().NoteTransport(cluster.transport()->name());
  char label[96];
  std::snprintf(label, sizeof(label), "churn resident=%zu ops=%zu events=%zu",
                resident, churn_ops, fed);
  Sidecar::Instance().RecordRun(label, cluster.StatsReport(), tracer.ToJson());
  return out;
}

int Main() {
  const size_t churn_ops = 200;
  const size_t events_per_local = Scaled(20'000);
  const size_t residents[] = {Scaled(2'500), Scaled(5'000), Scaled(10'000)};

  PrintHeader("Query churn: opt.group_churn_ns vs resident query count",
              {"groups", "add_p50", "add_p95", "rm_p50", "rm_p95"});
  std::vector<ChurnPoint> points;
  for (size_t r : residents) {
    points.push_back(RunChurn(r, churn_ops, events_per_local));
    const ChurnPoint& p = points.back();
    char label[32];
    std::snprintf(label, sizeof(label), "resident=%zu", p.resident);
    PrintRow(label, {static_cast<double>(p.groups), p.add_p50, p.add_p95,
                     p.remove_p50, p.remove_p95});
  }

  int failures = 0;
  for (const ChurnPoint& p : points) {
    if (p.adds != churn_ops || p.removes != churn_ops) {
      std::fprintf(stderr,
                   "FAIL: resident=%zu recorded %llu adds / %llu removes, "
                   "expected %zu each\n",
                   p.resident, static_cast<unsigned long long>(p.adds),
                   static_cast<unsigned long long>(p.removes), churn_ops);
      ++failures;
    }
    if (p.groups == 0) {
      std::fprintf(stderr, "FAIL: resident=%zu ended with no groups\n",
                   p.resident);
      ++failures;
    }
  }
  // The headline claim: churn latency tracks the affected group, not the
  // resident count. Print the spread for eyeballing / EXPERIMENTS.md; CI
  // does not gate on wall-clock (timing series are diff-skipped as noisy).
  if (points.size() >= 2 && points.front().add_p95 > 0) {
    std::printf("add p95 spread (largest/smallest resident): %.2fx\n",
                points.back().add_p95 / points.front().add_p95);
  }
  WriteMetricsSidecar("bench_query_churn");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace desis::bench

int main() { return desis::bench::Main(); }
