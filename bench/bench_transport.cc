// Transport runtime: inline vs threaded wall-clock throughput across the
// Fig-11 topologies. Inline runs the seed's single-driver lock-step loop;
// threaded runs one ingest thread per local node against the bounded-mailbox
// workers, which is the deployment the paper's edge clusters correspond to.
// Writes one JSON document (embedding Cluster::StatsReport() per run) to
// BENCH_transport.json, or --out=PATH, and records the same reports in the
// bench_transport metrics sidecar.
//
// Flags: --events-per-local=N (default 200k, scaled by DESIS_BENCH_SCALE),
//        --out=PATH.

#include <cinttypes>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gen/data_generator.h"
#include "harness.h"
#include "transport/threaded_transport.h"
#include "transport/transport.h"

namespace desis::bench {
namespace {

struct TopologyCase {
  const char* label;
  ClusterTopology topology;
};

// The Fig-11 shapes: the 3-node chain, its multi-hop variants (§6.4.1), and
// two fan-in shapes that give the threaded transport real concurrency.
const std::vector<TopologyCase> kTopologies = {
    {"1x1", {1, 1, 1}},   {"1x1x2", {1, 1, 2}}, {"1x1x4", {1, 1, 4}},
    {"4x2", {4, 2, 1}},   {"8x4", {8, 4, 1}},
};

std::vector<Query> QueryMix() {
  std::vector<Query> queries;
  Query avg;
  avg.id = 1;
  avg.window = WindowSpec::Tumbling(1 * kSecond);
  avg.agg = {AggregationFunction::kAverage, 0.5};
  queries.push_back(avg);
  Query sum;
  sum.id = 2;
  sum.window = WindowSpec::Sliding(2 * kSecond, 500 * kMillisecond);
  sum.agg = {AggregationFunction::kSum, 0.5};
  queries.push_back(sum);
  Query median;  // root-only group: raw events cross every link
  median.id = 3;
  median.window = WindowSpec::Tumbling(1 * kSecond);
  median.agg = {AggregationFunction::kMedian, 0.5};
  queries.push_back(median);
  return queries;
}

std::vector<std::vector<Event>> MakeStreams(int locals,
                                            size_t events_per_local) {
  std::vector<std::vector<Event>> streams(static_cast<size_t>(locals));
  for (size_t i = 0; i < streams.size(); ++i) {
    DataGeneratorConfig cfg;
    cfg.num_keys = 10;
    cfg.mean_interval = 10;
    cfg.seed = 1000 + i;
    streams[i] = DataGenerator(cfg).Take(events_per_local);
  }
  return streams;
}

struct RunOutcome {
  double wall_ms = 0;
  double events_per_sec = 0;
  uint64_t results = 0;
  std::string stats_json;
};

RunOutcome Run(ClusterTopology topology, bool threaded,
               const std::vector<std::vector<Event>>& streams,
               Timestamp round_us) {
  Cluster cluster(ClusterSystem::kDesis, topology);
  if (threaded) {
    cluster.set_transport(std::make_unique<ThreadedTransport>());
  }
  auto status = cluster.Configure(QueryMix());
  if (!status.ok()) {
    std::fprintf(stderr, "configure failed: %s\n", status.ToString().c_str());
    std::abort();
  }

  Timestamp max_ts = 0;
  for (const auto& s : streams) {
    if (!s.empty() && s.back().ts > max_ts) max_ts = s.back().ts;
  }
  const Timestamp end_ts = max_ts + round_us;

  auto drive_one = [&](int idx) {
    const std::vector<Event>& stream = streams[static_cast<size_t>(idx)];
    size_t cursor = 0;
    for (Timestamp t = 0; t <= end_ts; t += round_us) {
      const size_t begin = cursor;
      while (cursor < stream.size() && stream[cursor].ts < t + round_us) {
        ++cursor;
      }
      if (cursor > begin) {
        cluster.IngestAt(idx, stream.data() + begin, cursor - begin);
      }
      cluster.AdvanceAt(idx, t + round_us);
    }
    cluster.AdvanceAt(idx, max_ts + kMinute);
  };

  const int64_t t0 = NowNs();
  if (threaded) {
    std::vector<std::thread> drivers;
    for (size_t i = 0; i < streams.size(); ++i) {
      drivers.emplace_back(drive_one, static_cast<int>(i));
    }
    for (std::thread& t : drivers) t.join();
  } else {
    for (size_t i = 0; i < streams.size(); ++i) drive_one(static_cast<int>(i));
  }
  cluster.Drain();
  const int64_t dt = NowNs() - t0;

  RunOutcome out;
  out.wall_ms = static_cast<double>(dt) / 1e6;
  uint64_t total_events = 0;
  for (const auto& s : streams) total_events += s.size();
  out.events_per_sec =
      static_cast<double>(total_events) * 1e9 / static_cast<double>(dt);
  out.results = cluster.results();
  out.stats_json = cluster.StatsReport();
  return out;
}

int Main(int argc, char** argv) {
  size_t events_per_local = Scaled(200'000);
  std::string out_path = "BENCH_transport.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--events-per-local=", 19) == 0) {
      events_per_local = static_cast<size_t>(std::atoll(arg + 19));
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }
  if (events_per_local == 0) events_per_local = 1;

  std::string json = "{\"bench\":\"transport\",\"events_per_local\":" +
                     std::to_string(events_per_local) + ",\"runs\":[";
  bool first = true;

  PrintHeader("Transport: inline vs threaded (events/s, wall ms)",
              {"inline_eps", "threaded_eps", "inline_ms", "threaded_ms"});
  for (const TopologyCase& tc : kTopologies) {
    const auto streams =
        MakeStreams(tc.topology.num_locals, events_per_local);
    const RunOutcome inline_run =
        Run(tc.topology, /*threaded=*/false, streams, 100 * kMillisecond);
    const RunOutcome threaded_run =
        Run(tc.topology, /*threaded=*/true, streams, 100 * kMillisecond);
    if (inline_run.results != threaded_run.results) {
      std::fprintf(stderr, "%s: result mismatch inline=%" PRIu64
                           " threaded=%" PRIu64 "\n",
                   tc.label, inline_run.results, threaded_run.results);
      return 1;
    }
    PrintRow(tc.label, {inline_run.events_per_sec, threaded_run.events_per_sec,
                        inline_run.wall_ms, threaded_run.wall_ms});
    for (const auto* run : {&inline_run, &threaded_run}) {
      const char* transport = (run == &inline_run) ? "inline" : "threaded";
      Sidecar::Instance().NoteTransport(transport);
      Sidecar::Instance().RecordRun(
          std::string(tc.label) + " " + transport, run->stats_json, "[]");
      if (!first) json += ",";
      first = false;
      json += "{\"topology\":\"";
      json += tc.label;
      json += "\",\"transport\":\"";
      json += transport;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\",\"wall_ms\":%.3f,\"events_per_sec\":%.1f,"
                    "\"results\":%" PRIu64 ",\"stats\":",
                    run->wall_ms, run->events_per_sec, run->results);
      json += buf;
      json += run->stats_json;
      json += "}";
    }
  }
  json += "]}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  WriteMetricsSidecar("bench_transport");
  return 0;
}

}  // namespace
}  // namespace desis::bench

int main(int argc, char** argv) { return desis::bench::Main(argc, argv); }
