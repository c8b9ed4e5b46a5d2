#ifndef DESIS_BENCH_HARNESS_H_
#define DESIS_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>  // getpid: unique sidecar filenames

#include "baselines/ce_buffer.h"
#include "baselines/de_bucket.h"
#include "baselines/de_sw.h"
#include "core/engine.h"
#include "gen/data_generator.h"
#include "gen/query_generator.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/transport.h"

namespace desis::bench {

/// Global workload scale; DESIS_BENCH_SCALE=0.1 runs every bench on 10% of
/// its default event counts (useful on slow machines / CI).
inline double ScaleFactor() {
  static const double scale = [] {
    const char* env = std::getenv("DESIS_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return scale;
}

inline size_t Scaled(size_t base) {
  const double scaled = static_cast<double>(base) * ScaleFactor();
  return scaled < 1 ? 1 : static_cast<size_t>(scaled);
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-slice-span budget per bench run; bounds the sidecar of a bench with
/// dozens of runs to a few MB (the tracer keeps the newest spans).
inline constexpr size_t kSidecarTraceCapacity = 1024;

inline std::string EngineStatsJson(const EngineStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"events\":%llu,\"operator_executions\":%llu,"
                "\"slices_created\":%llu,\"windows_fired\":%llu,"
                "\"selection_evals\":%llu,\"merges\":%llu}",
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.operator_executions),
                static_cast<unsigned long long>(s.slices_created),
                static_cast<unsigned long long>(s.windows_fired),
                static_cast<unsigned long long>(s.selection_evals),
                static_cast<unsigned long long>(s.merges));
  return buf;
}

/// Process-wide accumulator for the machine-readable metrics sidecar:
/// every measured run appends one entry (run label, metrics snapshot,
/// slice-lifecycle spans); the bench main calls WriteMetricsSidecar() last.
/// Single-threaded by design — bench mains drive runs sequentially.
class Sidecar {
 public:
  static Sidecar& Instance() {
    static Sidecar instance;
    return instance;
  }

  /// Appends one run entry. `report_json` must be a complete JSON value
  /// (e.g. Cluster::StatsReport()); `spans_json` a JSON array (e.g.
  /// SliceTracer::ToJson() after quiescence).
  void RecordRun(const std::string& label, const std::string& report_json,
                 const std::string& spans_json) {
    entries_.push_back("{\"run\":\"" + obs::JsonEscape(label) +
                       "\",\"report\":" + report_json +
                       ",\"spans\":" + spans_json + "}");
  }

  /// Remembers a delivery channel used by some run ("inline", "threaded",
  /// "simlink"); the distinct names end up in the meta header so diffs can
  /// refuse to compare, say, an inline run against a lossy-link run.
  void NoteTransport(const std::string& name) {
    for (const std::string& have : transports_) {
      if (have == name) return;
    }
    transports_.push_back(name);
  }

  /// Remembers the health-watchdog configuration the runs used. A live
  /// watchdog thread samples alongside the workload, so desis-inspect
  /// refuses to diff a watchdog-on sidecar against a watchdog-off baseline
  /// (same contract as NoteTransport). Call once per bench main; any
  /// run with it enabled marks the whole sidecar.
  void NoteWatchdog(const obs::WatchdogOptions& watchdog) {
    watchdog_enabled_ = watchdog_enabled_ || watchdog.enabled;
    if (watchdog.enabled) watchdog_ = watchdog;
    watchdog_noted_ = true;
  }

  size_t num_runs() const { return entries_.size(); }

  /// Provenance header written ahead of the runs: code version, build
  /// type, wall-clock time of the write, and the transports used. This
  /// is what desis-inspect keys its "comparable runs?" checks on.
  std::string MetaJson() const {
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&now, &utc) != nullptr) {
      std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    }
    std::string out = "{\"git_sha\":\"";
#ifdef DESIS_GIT_SHA
    out += obs::JsonEscape(DESIS_GIT_SHA);
#else
    out += "unknown";
#endif
    out += "\",\"build_type\":\"";
#ifdef DESIS_BUILD_TYPE
    out += obs::JsonEscape(DESIS_BUILD_TYPE);
#else
    out += "unknown";
#endif
    out += "\",\"written_utc\":\"";
    out += stamp;
    out += "\",\"transports\":[";
    for (size_t i = 0; i < transports_.size(); ++i) {
      out += (i == 0 ? "\"" : ",\"") + obs::JsonEscape(transports_[i]) + "\"";
    }
    out += "],\"hw_threads\":";
    out += std::to_string(std::thread::hardware_concurrency());
    if (watchdog_noted_) {
      out += ",\"watchdog\":{\"enabled\":";
      out += watchdog_enabled_ ? "true" : "false";
      out += ",\"period_ms\":" + std::to_string(watchdog_.period_ms);
      out += ",\"silence_threshold\":" +
             std::to_string(watchdog_.silence_threshold);
      out += ",\"grace_us\":" + std::to_string(watchdog_.grace_us);
      out += ",\"auto_recover\":";
      out += watchdog_.auto_recover ? "true" : "false";
      out += "}";
    }
    out += "}";
    return out;
  }

  /// Writes `<bench>_metrics.json` (or $DESIS_METRICS_OUT) in the working
  /// directory; returns false (with a note on stderr) on I/O failure.
  /// DESIS_METRICS_UNIQUE=1 inserts a UTC timestamp + pid into the default
  /// filename so repeated runs archive side by side instead of overwriting
  /// each other (the fixed name stays the default: CI golden checks and
  /// plot scripts glob for it).
  bool Write(const std::string& bench_name) const {
    const char* env = std::getenv("DESIS_METRICS_OUT");
    std::string path;
    if (env != nullptr) {
      path = env;
    } else {
      path = bench_name + "_metrics";
      const char* unique = std::getenv("DESIS_METRICS_UNIQUE");
      if (unique != nullptr && unique[0] == '1') {
        char suffix[64];
        const std::time_t now = std::time(nullptr);
        std::tm utc{};
        char stamp[32] = "unknown";
        if (gmtime_r(&now, &utc) != nullptr) {
          std::strftime(stamp, sizeof(stamp), "%Y%m%dT%H%M%SZ", &utc);
        }
        std::snprintf(suffix, sizeof(suffix), ".%s.%d", stamp,
                      static_cast<int>(getpid()));
        path += suffix;
      }
      path += ".json";
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics sidecar %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"scale\":%g,",
                 obs::JsonEscape(bench_name).c_str(), ScaleFactor());
    std::fprintf(f, "\"meta\":%s,", MetaJson().c_str());
    std::fprintf(f, "\"runs\":[");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",", entries_[i].c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("metrics sidecar: %s (%zu runs)\n", path.c_str(),
                entries_.size());
    std::fflush(stdout);
    return true;
  }

 private:
  std::vector<std::string> entries_;
  std::vector<std::string> transports_;
  bool watchdog_noted_ = false;
  bool watchdog_enabled_ = false;
  obs::WatchdogOptions watchdog_;
};

/// Convenience for bench mains: dump everything recorded so far.
inline bool WriteMetricsSidecar(const std::string& bench_name) {
  return Sidecar::Instance().Write(bench_name);
}

/// Centralized engine factory (the single-node systems of §6.1.1).
inline std::unique_ptr<StreamEngine> MakeEngine(const std::string& name) {
  if (name == "Desis") return std::make_unique<DesisEngine>();
  if (name == "DeSW") return std::make_unique<DeSWEngine>();
  if (name == "Scotty") return std::make_unique<ScottyEngine>();
  if (name == "DeBucket") return std::make_unique<DeBucketEngine>();
  if (name == "CeBuffer") return std::make_unique<CeBufferEngine>();
  std::fprintf(stderr, "unknown engine %s\n", name.c_str());
  std::abort();
}

/// Single-node sustainable throughput: wall time to drain a pre-generated
/// event stream (results consumed by a counting sink).
struct ThroughputResult {
  double events_per_sec = 0;
  uint64_t results = 0;
  EngineStats stats;
};

inline ThroughputResult MeasureThroughput(StreamEngine& engine,
                                          const std::vector<Event>& events) {
  ThroughputResult out;
  obs::SliceTracer tracer(kSidecarTraceCapacity);
  // Per-query-group cost attribution (group.events_in / operator_evals —
  // the sharing-ratio inputs, docs/METRICS.md). Registration happens here,
  // outside the timed region; the hot path only pays the slicer's
  // per-sealed-slice flushes.
  obs::MetricsRegistry registry;
  engine.set_tracer(&tracer);
  engine.set_metrics_registry(&registry);
  engine.set_sink([&](const WindowResult&) { ++out.results; });
  const int64_t t0 = NowNs();
  for (const Event& e : events) engine.Ingest(e);
  engine.AdvanceTo(events.back().ts + kMinute);
  const int64_t dt = NowNs() - t0;
  out.events_per_sec =
      static_cast<double>(events.size()) * 1e9 / static_cast<double>(dt);
  out.stats = engine.stats();
  engine.set_tracer(nullptr);
  char report[256];
  std::snprintf(report, sizeof(report),
                "{\"system\":\"%s\",\"events\":%zu,\"events_per_sec\":%g,"
                "\"results\":%llu,\"stats\":",
                engine.name().c_str(), events.size(), out.events_per_sec,
                static_cast<unsigned long long>(out.results));
  std::string report_json = report + EngineStatsJson(out.stats);
  report_json += ",\"obs\":{\"metrics\":" + registry.ToJson() + "}}";
  Sidecar::Instance().RecordRun(engine.name(), report_json, tracer.ToJson());
  engine.set_metrics_registry(nullptr);  // registry dies with this frame
  return out;
}

/// Result-production latency: the mean / p99-ish max stall of the Ingest
/// call that fires a window. Incremental engines pay O(slices) there;
/// CeBuffer iterates the whole window buffer (§6.2.1). The event-time
/// latency of the paper additionally contains the window wait, which is
/// engine-independent; this isolates the engine-dependent part.
/// With no timed fire, avg_us and max_us are NaN (printed as n/a), never 0.
struct LatencyResult {
  double avg_us = std::numeric_limits<double>::quiet_NaN();
  double max_us = std::numeric_limits<double>::quiet_NaN();
  uint64_t samples = 0;
};

/// MeasureFireLatency calls that timed no fire in this process.
inline uint64_t& EmptyLatencyMeasurements() {
  static uint64_t count = 0;
  return count;
}

/// Exit status for a bench that prints fire latencies: non-zero when some
/// measurement timed no fire, so its n/a cell fails the run.
inline int LatencyExitStatus() {
  const uint64_t empty = EmptyLatencyMeasurements();
  if (empty == 0) return 0;
  std::fprintf(stderr,
               "%llu fire-latency measurement(s) timed no window fire "
               "(printed as n/a)\n",
               static_cast<unsigned long long>(empty));
  return 1;
}

inline LatencyResult MeasureFireLatency(StreamEngine& engine,
                                        const std::vector<Event>& events) {
  LatencyResult out;
  uint64_t fired = 0;
  engine.set_sink([&](const WindowResult&) { ++fired; });
  double total_us = 0;
  double max_us = 0;
  uint64_t warmup = 0;
  for (const Event& e : events) {
    const uint64_t before = fired;
    const int64_t t0 = NowNs();
    engine.Ingest(e);
    const int64_t dt = NowNs() - t0;
    if (fired > before) {
      if (warmup < 1) {  // the first fire hits cold allocators/caches
        ++warmup;
        continue;
      }
      const double us = static_cast<double>(dt) / 1000.0;
      total_us += us;
      max_us = std::max(max_us, us);
      ++out.samples;
    }
  }
  if (out.samples == 0) {
    ++EmptyLatencyMeasurements();
    return out;
  }
  out.avg_us = total_us / static_cast<double>(out.samples);
  out.max_us = max_us;
  return out;
}

/// One decentralized run, reduced to the pipeline model of DESIGN.md.
struct DecentralizedResult {
  uint64_t total_events = 0;
  uint64_t results = 0;
  /// events / max-node-busy-time: the throughput if all nodes ran
  /// concurrently (the slowest node binds the pipeline).
  double pipeline_events_per_sec = 0;
  /// Per-role throughput: events / busiest-node-of-role busy time.
  double local_events_per_sec = 0;
  double intermediate_events_per_sec = 0;
  double root_events_per_sec = 0;
  /// Per-role busy microseconds per emitted result (Fig 12's latency).
  double local_us_per_result = 0;
  double intermediate_us_per_result = 0;
  double root_us_per_result = 0;
  uint64_t local_bytes = 0;
  uint64_t intermediate_bytes = 0;
  /// Raw inputs for custom deployment models (e.g. the bandwidth-capped
  /// Raspberry Pi cluster of Fig 13).
  int64_t max_busy_ns = 0;
  uint64_t root_rx_bytes = 0;
};

/// Drives `events_per_local` generator events into every local node in
/// event-time rounds of `round_us`, then reads the meters.
inline DecentralizedResult RunDecentralized(
    ClusterSystem system, ClusterTopology topology,
    const std::vector<Query>& queries, size_t events_per_local,
    Timestamp mean_interval = 10, uint32_t data_keys = 10,
    Timestamp round_us = 100 * kMillisecond, double marker_probability = 0.0,
    ClusterOptions cluster_options = {}) {
  // Observability sinks for the metrics sidecar: per-node series + slice-
  // lifecycle spans. Declared before the cluster so they outlive its
  // destructor (transport shutdown still reports into node gauges).
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(kSidecarTraceCapacity);
  Cluster cluster(system, topology, cluster_options);
  auto status = cluster.Configure(queries);
  if (!status.ok()) {
    std::fprintf(stderr, "cluster config failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  cluster.AttachObs(&registry, &tracer);

  std::vector<std::vector<Event>> streams(
      static_cast<size_t>(topology.num_locals));
  Timestamp max_ts = 0;
  for (size_t i = 0; i < streams.size(); ++i) {
    DataGeneratorConfig cfg;
    cfg.num_keys = data_keys;
    cfg.mean_interval = mean_interval;
    cfg.marker_probability = marker_probability;
    cfg.seed = 1000 + i;
    streams[i] = DataGenerator(cfg).Take(events_per_local);
    if (streams[i].back().ts > max_ts) max_ts = streams[i].back().ts;
  }

  std::vector<size_t> cursor(streams.size(), 0);
  for (Timestamp t = 0; t <= max_ts + round_us; t += round_us) {
    for (size_t i = 0; i < streams.size(); ++i) {
      const size_t begin = cursor[i];
      while (cursor[i] < streams[i].size() &&
             streams[i][cursor[i]].ts < t + round_us) {
        ++cursor[i];
      }
      if (cursor[i] > begin) {
        cluster.IngestAt(static_cast<int>(i), streams[i].data() + begin,
                         cursor[i] - begin);
      }
    }
    cluster.Advance(t + round_us);
  }
  cluster.Advance(max_ts + kMinute);
  cluster.Drain();

  Sidecar::Instance().NoteTransport(cluster.transport()->name());
  char label[160];
  std::snprintf(label, sizeof(label),
                "%s locals=%d ints=%d layers=%d queries=%zu events=%zu",
                ToString(system).c_str(), topology.num_locals,
                topology.num_intermediates, topology.intermediate_layers,
                queries.size(), events_per_local);
  // Post-Drain: the transport is quiescent, so the full span payloads are
  // safe to export alongside the registry snapshot in StatsReport().
  Sidecar::Instance().RecordRun(label, cluster.StatsReport(), tracer.ToJson());

  DecentralizedResult out;
  out.total_events = events_per_local * streams.size();
  out.results = cluster.results();
  auto rate = [&](int64_t busy_ns) {
    return busy_ns <= 0 ? 0.0
                        : static_cast<double>(out.total_events) * 1e9 /
                              static_cast<double>(busy_ns);
  };
  out.pipeline_events_per_sec = rate(cluster.MaxBusyNs());
  out.local_events_per_sec = rate(cluster.MaxBusyNsByRole(NodeRole::kLocal) *
                                  topology.num_locals);
  out.intermediate_events_per_sec =
      rate(cluster.MaxBusyNsByRole(NodeRole::kIntermediate));
  out.root_events_per_sec = rate(cluster.MaxBusyNsByRole(NodeRole::kRoot));
  auto us_per_result = [&](int64_t busy_ns) {
    return out.results == 0 ? 0.0
                            : static_cast<double>(busy_ns) / 1000.0 /
                                  static_cast<double>(out.results);
  };
  out.local_us_per_result =
      us_per_result(cluster.MaxBusyNsByRole(NodeRole::kLocal));
  out.intermediate_us_per_result =
      us_per_result(cluster.MaxBusyNsByRole(NodeRole::kIntermediate));
  out.root_us_per_result =
      us_per_result(cluster.MaxBusyNsByRole(NodeRole::kRoot));
  out.local_bytes = cluster.BytesSentByRole(NodeRole::kLocal);
  out.intermediate_bytes = cluster.BytesSentByRole(NodeRole::kIntermediate);
  out.max_busy_ns = cluster.MaxBusyNs();
  out.root_rx_bytes = cluster.root_stats().bytes_received;
  return out;
}

/// Pretty-prints one table row of doubles after a label column.
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n%-16s", title.c_str(), "x");
  for (const auto& c : columns) std::printf(" %14s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

inline void PrintRow(const std::string& label,
                     const std::vector<double>& cells) {
  std::printf("%-16s", label.c_str());
  for (double v : cells) {
    if (std::isnan(v)) {
      std::printf(" %14s", "n/a");
    } else if (v < 0) {
      std::printf(" %14s", "-");
    } else if (v >= 1e6) {
      std::printf(" %13.2fM", v / 1e6);
    } else if (v >= 1e3) {
      std::printf(" %13.2fk", v / 1e3);
    } else {
      std::printf(" %14.2f", v);
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace desis::bench

#endif  // DESIS_BENCH_HARNESS_H_
