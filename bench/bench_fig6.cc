// Figure 6: end-to-end throughput and latency on a single node.
//  6a: latency of one tumbling 1s window (average, 10 keys).
//  6b: throughput of 1..1000 concurrent windows, lengths U[1,10] seconds.
//  6c: a small decentralized Desis run so the sidecar also carries the
//      per-node health gauges (watermark lag, backlog) next to the
//      per-group sharing-ratio series — one file feeds `desis-inspect
//      summary` with both views.

#include "harness.h"

namespace desis::bench {
namespace {

std::vector<Query> TumblingWindows(int n, AggregationFunction fn) {
  std::vector<Query> queries;
  for (int i = 0; i < n; ++i) {
    Query q;
    q.id = static_cast<QueryId>(i + 1);
    q.window = WindowSpec::Tumbling(((i % 10) + 1) * kSecond);
    q.agg = {fn, 0.5};
    queries.push_back(q);
  }
  return queries;
}

void Fig6a() {
  PrintHeader("Fig 6a: result latency, 1 tumbling 1s window, average (us)",
              {"avg_us", "max_us"});
  DataGeneratorConfig dcfg;
  dcfg.num_keys = 10;
  // At least 3.5 s of event time at any scale: the 1 s window fires three
  // times, the first fire warms up and the other two are timed.
  auto events =
      DataGenerator(dcfg).Take(std::max(Scaled(500'000), size_t{350'000}));

  for (const char* name : {"Desis", "DeSW", "Scotty", "DeBucket", "CeBuffer"}) {
    auto engine = MakeEngine(name);
    std::vector<Query> queries = {
        {1, WindowSpec::Tumbling(1 * kSecond), {AggregationFunction::kAverage, 0}, {}, false}};
    (void)engine->Configure(queries);
    auto lat = MeasureFireLatency(*engine, events);
    PrintRow(name, {lat.avg_us, lat.max_us});
  }
  // Disco is decentralized-only in this reproduction; its per-role
  // processing latency is reported in Fig 12 instead.
}

void Fig6b() {
  PrintHeader("Fig 6b: throughput vs concurrent windows (events/s)",
              {"Desis", "DeSW", "Scotty", "DeBucket", "CeBuffer"});
  DataGeneratorConfig dcfg;
  dcfg.num_keys = 10;
  const size_t base = Scaled(500'000);
  auto events = DataGenerator(dcfg).Take(base);

  for (int n : {1, 10, 100, 1000}) {
    std::vector<double> cells;
    auto queries = TumblingWindows(n, AggregationFunction::kAverage);
    for (const char* name : {"Desis", "DeSW", "Scotty", "DeBucket", "CeBuffer"}) {
      const bool per_window_cost =
          std::string(name) == "DeBucket" || std::string(name) == "CeBuffer";
      // Per-window-cost systems pay O(n) per event; sample fewer events so
      // the sweep stays tractable (throughput is a per-event-cost measure).
      const size_t count = std::min(
          events.size(),
          per_window_cost ? std::max<size_t>(base / std::max(1, n / 5), 50'000)
                          : base);
      std::vector<Event> sample(events.begin(),
                                events.begin() + std::min(count, events.size()));
      auto engine = MakeEngine(name);
      (void)engine->Configure(queries);
      cells.push_back(MeasureThroughput(*engine, sample).events_per_sec);
    }
    PrintRow(std::to_string(n), cells);
  }
}

void Fig6c() {
  PrintHeader("Fig 6c: decentralized Desis, 4 locals x 2 intermediates "
              "(pipeline events/s)",
              {"pipeline"});
  auto result = RunDecentralized(ClusterSystem::kDesis, {4, 2, 1},
                                 TumblingWindows(10, AggregationFunction::kSum),
                                 Scaled(100'000));
  PrintRow("Desis", {result.pipeline_events_per_sec});
}

}  // namespace
}  // namespace desis::bench

int main() {
  desis::bench::Fig6a();
  desis::bench::Fig6b();
  desis::bench::Fig6c();
  desis::bench::WriteMetricsSidecar("bench_fig6");
  return desis::bench::LatencyExitStatus();
}
