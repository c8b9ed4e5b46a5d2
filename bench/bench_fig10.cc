// Figure 10: effect of slice count and slice size (count-based windows).
//  10a/10b: vary slices per window (fixed slice size): throughput, latency.
//  10c/10d: vary slice size (fixed slices per window): throughput, latency.

#include "harness.h"

namespace desis::bench {
namespace {

const std::vector<const char*> kSystems = {"Desis", "DeSW", "DeBucket",
                                           "CeBuffer"};

// Count-sliding window: length = slices*slice_size, slide = slice_size —
// the slicer cuts exactly `slices` slices per window.
Query SlicedCountWindow(int64_t slices, int64_t slice_size) {
  Query q;
  q.id = 1;
  q.window = WindowSpec::CountSliding(slices * slice_size, slice_size);
  q.agg = {AggregationFunction::kAverage, 0};
  return q;
}

void Sweep(const char* thpt_title, const char* lat_title,
           const std::vector<std::pair<int64_t, int64_t>>& points,
           const char* label_suffix) {
  std::vector<std::vector<double>> thpt_rows;
  std::vector<std::vector<double>> lat_rows;
  for (auto [slices, slice_size] : points) {
    std::vector<double> thpt;
    std::vector<double> lat;
    const size_t window = static_cast<size_t>(slices * slice_size);
    const size_t count = std::max(Scaled(300'000), window * 2 + 100'000);
    DataGeneratorConfig dcfg;
    auto events = DataGenerator(dcfg).Take(count);
    for (const char* name : kSystems) {
      const bool per_window_cost =
          std::string(name) == "DeBucket" || std::string(name) == "CeBuffer";
      // These engines hold `slices` open windows and touch each per event.
      size_t n = count;
      if (per_window_cost && slices > 100) {
        n = std::max(window * 2 + 50'000, static_cast<size_t>(200'000));
      }
      std::vector<Event> sample(events.begin(), events.begin() + std::min(n, count));
      {
        auto engine = MakeEngine(name);
        (void)engine->Configure({SlicedCountWindow(slices, slice_size)});
        thpt.push_back(MeasureThroughput(*engine, sample).events_per_sec);
      }
      {
        auto engine = MakeEngine(name);
        (void)engine->Configure({SlicedCountWindow(slices, slice_size)});
        lat.push_back(MeasureFireLatency(*engine, sample).avg_us);
      }
    }
    thpt_rows.push_back(std::move(thpt));
    lat_rows.push_back(std::move(lat));
  }
  PrintHeader(thpt_title, {"Desis", "DeSW", "DeBucket", "CeBuffer"});
  for (size_t i = 0; i < points.size(); ++i) {
    PrintRow(std::to_string(points[i].first) + label_suffix, thpt_rows[i]);
  }
  PrintHeader(lat_title, {"Desis", "DeSW", "DeBucket", "CeBuffer"});
  for (size_t i = 0; i < points.size(); ++i) {
    PrintRow(std::to_string(points[i].first) + label_suffix, lat_rows[i]);
  }
}

}  // namespace
}  // namespace desis::bench

int main() {
  // 10a/b: slice size fixed at 1k events (paper: 10k; scaled for runtime),
  // slices per window 1..1000.
  desis::bench::Sweep(
      "Fig 10a: throughput vs slices per window (events/s)",
      "Fig 10b: result latency vs slices per window (us)",
      {{1, 1000}, {10, 1000}, {100, 1000}, {1000, 1000}}, " slices");
  // 10c/d: 100 slices per window (paper: 1k; scaled), slice size 10..10k.
  std::vector<std::pair<int64_t, int64_t>> size_points = {
      {100, 10}, {100, 100}, {100, 1000}, {100, 10000}};
  std::vector<std::vector<double>> thpt;
  // Reuse Sweep with labels on the slice size instead.
  desis::bench::PrintHeader(
      "Fig 10c/10d: throughput (events/s) and latency (us) vs slice size",
      {"thpt:Desis", "thpt:DeSW", "thpt:DeBucket", "thpt:CeBuffer",
       "lat:Desis", "lat:DeSW", "lat:DeBucket", "lat:CeBuffer"});
  for (auto [slices, slice_size] : size_points) {
    std::vector<double> cells;
    const size_t window = static_cast<size_t>(slices * slice_size);
    const size_t count =
        std::max(desis::bench::Scaled(300'000), window * 2 + 100'000);
    desis::DataGeneratorConfig dcfg;
    auto events = desis::DataGenerator(dcfg).Take(count);
    std::vector<double> lat_cells;
    for (const char* name : {"Desis", "DeSW", "DeBucket", "CeBuffer"}) {
      auto engine = desis::bench::MakeEngine(name);
      desis::Query q;
      q.id = 1;
      q.window = desis::WindowSpec::CountSliding(slices * slice_size, slice_size);
      q.agg = {desis::AggregationFunction::kAverage, 0};
      (void)engine->Configure({q});
      cells.push_back(
          desis::bench::MeasureThroughput(*engine, events).events_per_sec);
      auto engine2 = desis::bench::MakeEngine(name);
      (void)engine2->Configure({q});
      lat_cells.push_back(
          desis::bench::MeasureFireLatency(*engine2, events).avg_us);
    }
    cells.insert(cells.end(), lat_cells.begin(), lat_cells.end());
    desis::bench::PrintRow(std::to_string(slice_size) + " ev/slice", cells);
  }
  desis::bench::WriteMetricsSidecar("bench_fig10");
  return desis::bench::LatencyExitStatus();
}
