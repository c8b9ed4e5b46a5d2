// The repository benchmark: runs one workload on a threaded Desis cluster
// and prints its metrics; see perfbench/README.md. Usually started through
// perfbench/run.py, which builds this binary first.
//
//   desis_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--span-dir DIR] [--git-sha SHA] [--src-hash HASH]
//   desis_perfbench --self-test
//   desis_perfbench --list-metrics
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed self-check prints no
// result and exits with code 2.

#include <malloc.h>
#include <sched.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "oracle.h"
#include "phases.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  int trace;  // 0: end-to-end (untraced run), 1: per-layer (traced run)
};

// Every metric the benchmark reports; BENCHMARK.json lists the same names
// and units (run.py --self-test checks that).
const std::vector<MetricDef>& MetricDefs() {
  static const std::vector<MetricDef> defs = {
      {"events_per_s", "1/s", 0},
      {"serial_events_per_s", "1/s", 0},
      {"setup_s", "s", 0},
      {"peak_rss_mb", "MB", 0},
      {"core.ingest_self_ns_per_event", "ns", 1},
      {"core.advance_self_ns_per_slice", "ns", 1},
      {"core.engine_ns_per_event", "ns", 1},
      {"core.selection_evals_per_event", "count", 1},
      {"core.operator_execs_per_event", "count", 1},
      {"core.slices_per_event", "count", 1},
      {"net.local_busy_frac", "frac", 1},
      {"net.intermediate_busy_frac", "frac", 1},
      {"net.root_busy_frac", "frac", 1},
      {"net.intermediate_self_ns_per_msg", "ns", 1},
      {"net.root_self_ns_per_window", "ns", 1},
      {"net.bytes_per_event", "B", 1},
      {"net.msgs_per_event", "count", 1},
      {"net.encode_ns_per_byte", "ns", 1},
      {"net.decode_ns_per_byte", "ns", 1},
      {"net.model_events_per_s", "1/s", 1},
      {"transport.local_send_ns_p50", "ns", 1},
      {"transport.local_send_ns_p99", "ns", 1},
      {"transport.intermediate_send_ns_p50", "ns", 1},
      {"transport.intermediate_send_ns_p99", "ns", 1},
      {"transport.blocked_frac", "frac", 1},
      {"transport.intermediate_queue_hwm", "count", 1},
      {"transport.root_queue_hwm", "count", 1},
      {"transport.drain_ms", "ms", 1},
      {"transport.retransmits", "count", 1},
      {"transport.messages_dropped", "count", 1},
      {"setup.construct_ms", "ms", 1},
      {"setup.configure_ms", "ms", 1},
      {"setup.query_groups", "count", 1},
      {"gen.late_batches_frac", "frac", 1},
      {"gen.lateness_p99_us", "us", 1},
      {"window_latency_p50_us", "us", 1},
      {"window_latency_p99_us", "us", 1},
      {"latency.samples", "count", 1},
      {"ledger.gen_frac", "frac", 1},
      {"ledger.core_ingest_frac", "frac", 1},
      {"ledger.core_advance_frac", "frac", 1},
      {"ledger.net_intermediate_frac", "frac", 1},
      {"ledger.net_root_frac", "frac", 1},
      {"obs.trace_overhead_frac", "frac", 1},
      {"obs.span_coverage_frac", "frac", 1},
  };
  return defs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string span_dir;
  std::string git_sha = "unknown";
  std::string src_hash = "unknown";
  int cycles = 9;  // of the end-to-end run
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  bool correct() const { return failed == 0; }
};

/// Set-ups per cycle of the end-to-end run (see RunEndToEnd).
constexpr int kSetupsPerCycle = 4;
/// Set-ups of the traced run; the setup.* metrics are their medians.
constexpr int kTracedSetups = 21;
/// Rounds of the traced paced phase at the least, so the generator's
/// lateness (one sample per driver and round) has ten samples beyond its
/// p99 however short the run.
constexpr int64_t kMinTracedPacedRounds = 500;
/// Spans written per traced phase (the totals use every span).
constexpr size_t kMaxSpanRows = 200'000;
/// The serial traced phase's layers must cover this share of its wall time.
constexpr double kMinSpanCoverage = 0.9;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Peak resident set of the measured part of the run: the kernel's high-water
// mark is reset (clear_refs "5") once the inputs and the reference exist, so
// the oracle's own buffers do not count.
void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  Require(f.good(), "cannot reset the peak RSS through /proc/self/clear_refs");
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw CheckFailure("no VmHWM in /proc/self/status");
}

int CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

std::string Provenance(const Args& a, const Workload& w) {
  std::ostringstream o;
  o << "{\"git_sha\":\"" << a.git_sha << "\",\"src_hash\":\"" << a.src_hash
    << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
    << "\",\"hw_threads\":" << std::thread::hardware_concurrency()
    << ",\"nproc\":" << CpusAvailable() << ",\"seed\":" << a.seed
    << ",\"seconds\":" << Num(a.seconds) << ",\"trace\":" << a.trace
    << ",\"workload\":{\"name\":\"" << w.name << "\",\"locals\":" << kNumLocals
    << ",\"intermediates\":1,\"transport\":\"threaded\",\"queries\":"
    << w.queries.size() << ",\"num_keys\":" << w.num_keys
    << ",\"mean_interval_us\":" << w.mean_interval
    << ",\"period_us\":" << w.period << ",\"round_us\":" << w.round
    << ",\"paced_events_per_s\":" << Num(w.paced_events_per_s)
    << ",\"chunk_events\":[";
  for (size_t i = 0; i < w.chunks.size(); ++i) {
    o << (i ? "," : "") << w.chunks[i].events.size();
  }
  o << "]}}";
  return o.str();
}

void PrintPhase(const Workload& w, const PhaseResult& p) {
  std::printf(
      "phase %-8s %s: rounds=%" PRId64 " events=%" PRIu64
      " wall_s=%.3f events_per_s=%.4g windows=%" PRIu64 " expected=%" PRIu64
      " failed=%" PRIu64 " busy_frac{local=%.2f,intermediate=%.2f,root=%.2f}\n",
      PhaseName(p.phase), w.name.c_str(), p.rounds, p.events, p.wall_s,
      p.events_per_s(), p.check.emitted, p.check.expected, p.check.failed(),
      static_cast<double>(p.nodes.local_busy_ns) * 1e-9 / p.wall_s,
      static_cast<double>(p.nodes.intermediate_busy_ns) * 1e-9 / p.wall_s,
      static_cast<double>(p.nodes.root_busy_ns) * 1e-9 / p.wall_s);
}

void Account(Report& r, const PhaseResult& p) {
  r.attempted += p.check.expected;
  r.failed += p.check.failed();
}

SetupTimes MedianSetup(const Workload& w) {
  std::vector<double> construct, configure;
  SetupTimes median;
  for (int i = 0; i < kTracedSetups; ++i) {
    const SetupTimes t = MeasureSetup(w);
    construct.push_back(t.construct_s);
    configure.push_back(t.configure_s);
    median.query_groups = t.query_groups;
  }
  median.construct_s = Median(construct, "setup construct");
  median.configure_s = Median(configure, "setup configure");
  return median;
}

void PacedMetrics(const PhaseResult& paced, Report& r) {
  uint64_t late = 0;
  for (int64_t l : paced.lateness_ns) {
    if (l > paced.round_interval_ns) ++late;
  }
  r.metrics["gen.late_batches_frac"] =
      Ratio(static_cast<double>(late),
            static_cast<double>(paced.lateness_ns.size()), "paced batches");
  r.metrics["gen.lateness_p99_us"] =
      Percentile(paced.lateness_ns, 0.99, "generator lateness") * 1e-3;
  r.metrics["latency.samples"] = static_cast<double>(paced.latency_ns.size());
  r.metrics["window_latency_p50_us"] =
      Percentile(paced.latency_ns, 0.5, "window latency") * 1e-3;
  r.metrics["window_latency_p99_us"] =
      Percentile(paced.latency_ns, 0.99, "window latency") * 1e-3;
}

PhaseResult RunAndAccount(const Workload& w, const Reference& ref,
                          std::vector<Replay>& inputs, const PhaseOptions& opt,
                          Report& r) {
  PhaseResult p = RunPhase(w, ref, inputs, opt);
  PrintPhase(w, p);
  Account(r, p);
  return p;
}

// The end-to-end metrics, tracing off. The run is cut into a.cycles cycles of
// set-ups, one max-rate and one serial phase, each on a fresh cluster, and
// every metric is the median over the cycles: a stall of the host, or a
// drift between the two drivers, then moves one cycle rather than the
// reported figure. The paced phase's window latencies are per-layer
// metrics of the traced run: on a shared host their median spread between
// runs of the same code past any usable bound (see README.md).
void RunEndToEnd(const Workload& w, const Reference& ref,
                 std::vector<Replay>& inputs, const Args& a, Report& r) {
  std::vector<double> setup, rates, serial;
  const double cycle_s = a.seconds / a.cycles;
  for (int c = 0; c < a.cycles; ++c) {
    for (int i = 0; i < kSetupsPerCycle; ++i) {
      setup.push_back(MeasureSetup(w).total_s);
    }
    PhaseOptions opt;
    opt.phase = Phase::kMaxRate;
    opt.seconds = cycle_s * 0.6;
    rates.push_back(RunAndAccount(w, ref, inputs, opt, r).events_per_s());

    opt.phase = Phase::kSerial;
    opt.seconds = cycle_s * 0.4;
    serial.push_back(RunAndAccount(w, ref, inputs, opt, r).events_per_s());
  }
  r.metrics["setup_s"] = Median(setup, "set-ups");
  r.metrics["events_per_s"] = Median(rates, "max-rate phases");
  r.metrics["serial_events_per_s"] = Median(serial, "serial phases");
  r.metrics["peak_rss_mb"] = PeakRssMb();
}

double Frac(int64_t part_ns, double wall_s, const std::string& what) {
  return Ratio(static_cast<double>(part_ns) * 1e-9, wall_s, what);
}

// The per-layer metrics: every phase again with the Transport decorator
// and the benchmark's spans, plus one untraced max-rate phase for the
// busy fractions and the tracing overhead.
void RunTraced(const Workload& w, const Reference::Built& built,
               std::vector<Replay>& inputs, const Args& a, Report& r) {
  const Reference& ref = built.reference;
  const SetupTimes parts = MedianSetup(w);
  r.metrics["setup.construct_ms"] = parts.construct_s * 1e3;
  r.metrics["setup.configure_ms"] = parts.configure_s * 1e3;
  r.metrics["setup.query_groups"] = static_cast<double>(parts.query_groups);

  PhaseOptions opt;
  opt.phase = Phase::kMaxRate;
  opt.seconds = a.seconds * 0.15;
  const PhaseResult plain = RunAndAccount(w, ref, inputs, opt, r);
  const double wall = plain.wall_s;
  r.metrics["net.local_busy_frac"] =
      Frac(plain.nodes.local_busy_ns, wall, "local busy");
  r.metrics["net.intermediate_busy_frac"] =
      Frac(plain.nodes.intermediate_busy_ns, wall, "intermediate busy");
  r.metrics["net.root_busy_frac"] =
      Frac(plain.nodes.root_busy_ns, wall, "root busy");
  r.metrics["net.intermediate_self_ns_per_msg"] =
      Ratio(static_cast<double>(plain.nodes.intermediate_busy_ns),
            static_cast<double>(plain.nodes.intermediate_messages_received),
            "intermediate messages");
  r.metrics["net.root_self_ns_per_window"] =
      Ratio(static_cast<double>(plain.nodes.root_busy_ns),
            static_cast<double>(plain.check.emitted), "root windows");
  r.metrics["transport.drain_ms"] = plain.drain_ms;
  r.metrics["transport.intermediate_queue_hwm"] =
      static_cast<double>(plain.nodes.intermediate_queue_hwm);
  r.metrics["transport.root_queue_hwm"] =
      static_cast<double>(plain.nodes.root_queue_hwm);

  std::vector<std::pair<const char*, std::unique_ptr<SpanLog>>> logs;
  auto traced = [&](Phase phase, double share) {
    logs.emplace_back(PhaseName(phase), std::make_unique<SpanLog>());
    PhaseOptions o;
    o.phase = phase;
    o.seconds = a.seconds * share;
    o.min_paced_rounds = kMinTracedPacedRounds;
    o.decorate = true;
    o.spans = logs.back().second.get();
    PhaseResult p = RunAndAccount(w, ref, inputs, o, r);
    Require(logs.back().second->Totals().spans > 0,
            w.name + ": traced " + PhaseName(phase) + " phase recorded no spans");
    return p;
  };

  const PhaseResult max_rate = traced(Phase::kMaxRate, 0.15);
  const auto& by_role = max_rate.sends.ns_by_role;
  const auto local = static_cast<size_t>(desis::NodeRole::kLocal);
  const auto mid = static_cast<size_t>(desis::NodeRole::kIntermediate);
  r.metrics["transport.local_send_ns_p50"] =
      Percentile(by_role[local], 0.5, "local sends");
  r.metrics["transport.local_send_ns_p99"] =
      Percentile(by_role[local], 0.99, "local sends");
  r.metrics["transport.intermediate_send_ns_p50"] =
      Percentile(by_role[mid], 0.5, "intermediate sends");
  r.metrics["transport.intermediate_send_ns_p99"] =
      Percentile(by_role[mid], 0.99, "intermediate sends");
  int64_t blocked = 0, driver = 0;
  for (int64_t ns : by_role[local]) blocked += ns;
  for (int64_t ns : max_rate.driver_ns) driver += ns;
  r.metrics["transport.blocked_frac"] =
      Ratio(static_cast<double>(blocked), static_cast<double>(driver),
            "driver wall");
  r.metrics["transport.retransmits"] =
      static_cast<double>(max_rate.nodes.retransmits);
  r.metrics["transport.messages_dropped"] =
      static_cast<double>(max_rate.nodes.messages_dropped);
  r.metrics["obs.trace_overhead_frac"] =
      1.0 - max_rate.events_per_s() / plain.events_per_s();

  PacedMetrics(traced(Phase::kPaced, 0.35), r);

  const PhaseResult serial = traced(Phase::kSerial, 0.25);
  const SpanLog::LayerTotals t = logs.back().second->Totals();
  auto self = [&t](Layer l) { return t.self_ns[static_cast<size_t>(l)]; };
  const double serial_ns = serial.wall_s * 1e9;
  std::printf("ledger %s serial phase (inline transport, spans nest): "
              "wall_ms=%.3f\n", w.name.c_str(), serial_ns * 1e-6);
  std::printf("  %-18s %12s %8s %10s\n", "layer", "self_ms", "share", "calls");
  int64_t covered = 0;
  for (size_t l = 0; l < kNumLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    std::printf("  %-18s %12.3f %8.4f %10" PRIu64 "\n", LayerName(layer),
                static_cast<double>(t.self_ns[l]) * 1e-6,
                static_cast<double>(t.self_ns[l]) / serial_ns, t.calls[l]);
    if (layer != Layer::kPhase) covered += t.self_ns[l];
  }
  const double coverage = static_cast<double>(covered) / serial_ns;
  std::printf("  %-18s %12.3f %8.4f\n", "covered", covered * 1e-6, coverage);
  Require(coverage >= kMinSpanCoverage,
          w.name + ": the ledger covers only " + Num(coverage) +
              " of the serial driver's wall time");
  r.metrics["obs.span_coverage_frac"] = coverage;
  r.metrics["ledger.gen_frac"] = self(Layer::kGen) / serial_ns;
  r.metrics["ledger.core_ingest_frac"] = self(Layer::kIngest) / serial_ns;
  r.metrics["ledger.core_advance_frac"] = self(Layer::kAdvance) / serial_ns;
  r.metrics["ledger.net_intermediate_frac"] = self(Layer::kSendLocal) / serial_ns;
  r.metrics["ledger.net_root_frac"] = self(Layer::kSendIntermediate) / serial_ns;
  r.metrics["core.ingest_self_ns_per_event"] =
      Ratio(static_cast<double>(self(Layer::kIngest)),
            static_cast<double>(serial.events), "serial events");
  r.metrics["core.advance_self_ns_per_slice"] =
      Ratio(static_cast<double>(self(Layer::kAdvance)),
            static_cast<double>(serial.sends.local_slice_partials),
            "slices shipped by locals");
  r.metrics["net.model_events_per_s"] =
      Ratio(static_cast<double>(serial.events),
            static_cast<double>(std::max({serial.nodes.local_busy_ns,
                                          serial.nodes.intermediate_busy_ns,
                                          serial.nodes.root_busy_ns})) * 1e-9,
            "serial busy time");

  const EngineReplay engine = ReplayEngine(w, a.seconds * 0.05);
  r.metrics["core.engine_ns_per_event"] = engine.ns_per_event;
  r.metrics["core.selection_evals_per_event"] = engine.selection_evals_per_event;
  r.metrics["core.operator_execs_per_event"] = engine.operator_execs_per_event;
  r.metrics["core.slices_per_event"] = engine.slices_per_event;

  r.metrics["net.bytes_per_event"] =
      Ratio(static_cast<double>(built.bytes_sent),
            static_cast<double>(built.events), "reference events");
  r.metrics["net.msgs_per_event"] =
      static_cast<double>(built.messages_sent) /
      static_cast<double>(built.events);
  std::vector<desis::Message> sample = serial.sends.captured;
  const CodecTimes codec = TimeCodec(sample, a.seconds * 0.05);
  r.metrics["net.encode_ns_per_byte"] = codec.encode_ns_per_byte;
  r.metrics["net.decode_ns_per_byte"] = codec.decode_ns_per_byte;

  if (!a.span_dir.empty()) {
    // One file per workload, overwritten by its next traced run.
    const std::string path = a.span_dir + "/" + w.name + "-spans.tsv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    Require(f != nullptr, "cannot write " + path);
    std::fprintf(f, "# workload %s seed %" PRIu64 " seconds %s\n",
                 w.name.c_str(), a.seed, Num(a.seconds).c_str());
    std::fprintf(f, "phase\tthread\tindex\tparent\tlayer\tstart_ns\tend_ns\n");
    for (const auto& [phase, log] : logs) log->WriteTsv(f, phase, kMaxSpanRows);
    Require(std::fclose(f) == 0, "cannot write " + path);
    std::printf("spans written to %s\n", path.c_str());
  }
}

Report RunWorkload(const Args& a, bool print_provenance) {
  const Workload w = MakeWorkload(a.workload, a.seed);
  const Reference::Built built = Reference::Build(w);
  std::printf("reference %s: windows=%" PRIu64 " self_checked=%" PRIu64
              " cebuffer_checked=%" PRIu64 "\n",
              w.name.c_str(), built.windows, built.self_checked,
              built.cebuffer_checked);
  malloc_trim(0);  // hand the oracle's freed buffers back before the reset
  ResetPeakRss();
  if (print_provenance) {
    std::printf("provenance %s\n", Provenance(a, w).c_str());
  }
  std::vector<Replay> inputs = MakeInputs(w);
  Report r;
  if (a.trace == 0) {
    RunEndToEnd(w, built.reference, inputs, a, r);
  } else {
    RunTraced(w, built, inputs, a, r);
  }
  for (const auto& [name, value] : r.metrics) {
    Require(std::isfinite(value), w.name + ": metric " + name + " is not finite");
  }
  return r;
}

std::string ResultJson(const Report& r, int trace) {
  std::string json = std::string("{\"correct\": ") +
                     (r.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : MetricDefs()) {
    if (d.trace != trace) continue;
    json += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + Num(r.metrics.at(d.name)) + ", \"unit\": \"" +
            d.unit + "\"}";
    first = false;
  }
  return json + "}}";
}

// Checks a report holds exactly the metrics of its trace mode.
void CheckMetricSet(const Report& r, int trace, const std::string& label) {
  size_t want = 0;
  for (const MetricDef& d : MetricDefs()) {
    if (d.trace != trace) continue;
    ++want;
    auto it = r.metrics.find(d.name);
    Require(it != r.metrics.end(), label + ": metric " + d.name + " missing");
    Require(std::isfinite(it->second) && std::strlen(d.unit) > 0,
            label + ": metric " + d.name + " not finite or without unit");
  }
  Require(r.metrics.size() == want, label + ": unexpected extra metrics");
}

using WindowKey = std::pair<desis::QueryId, Timestamp>;

std::map<WindowKey, WindowResult> Keyed(const std::vector<WindowResult>& v) {
  std::map<WindowKey, WindowResult> out;
  for (const WindowResult& r : v) {
    Require(out.emplace(WindowKey{r.query_id, r.window_start}, r).second,
            "a window was emitted twice");
  }
  return out;
}

// The benchmark's own tests, at a tiny size.
int SelfTest() {
  for (const std::string& name : WorkloadNames()) {
    for (int trace : {0, 1}) {
      Args a;
      a.workload = name;
      a.seed = 7;
      a.seconds = 6.0;
      a.cycles = 1;
      a.trace = trace;
      const Report r = RunWorkload(a, /*print_provenance=*/false);
      const std::string label = name + " trace " + std::to_string(trace);
      CheckMetricSet(r, trace, label);
      Require(r.attempted > 0 && r.failed == 0,
              label + ": " + std::to_string(r.failed) + " of " +
                  std::to_string(r.attempted) + " windows failed");
      std::printf("self-test %s: %zu metrics, %" PRIu64 " windows, ok\n",
                  label.c_str(), r.metrics.size(), r.attempted);
    }
    // A threaded run through the Transport decorator emits the same window
    // set as an undecorated inline run of the same rounds.
    const Workload w = MakeWorkload(name, 11);
    const Reference::Built built = Reference::Build(w);
    const int64_t rounds = 2 * w.MaxLength() / w.round;
    std::vector<Replay> inputs = MakeInputs(w);
    std::vector<WindowResult> inline_windows, threaded_windows;
    PhaseOptions opt;
    opt.fixed_rounds = rounds;
    opt.phase = Phase::kSerial;
    opt.collect = &inline_windows;
    RunPhase(w, built.reference, inputs, opt);
    SpanLog spans;
    opt.phase = Phase::kMaxRate;
    opt.decorate = true;
    opt.spans = &spans;
    opt.collect = &threaded_windows;
    RunPhase(w, built.reference, inputs, opt);
    const auto want = Keyed(inline_windows);
    const auto got = Keyed(threaded_windows);
    Require(!want.empty() && got.size() == want.size(),
            name + ": decorated threaded run emitted " +
                std::to_string(got.size()) + " windows, inline " +
                std::to_string(want.size()));
    for (const auto& [key, result] : want) {
      auto it = got.find(key);
      Require(it != got.end() &&
                  SameResult(it->second.value, it->second.event_count,
                             result.value, result.event_count),
              name + ": decorated threaded run differs on query " +
                  std::to_string(key.first) + " window @" +
                  std::to_string(key.second));
    }
    std::printf("self-test %s decorator: %zu windows identical, ok\n",
                name.c_str(), want.size());
  }
  std::printf("self-test passed\n");
  return 0;
}

int ListMetrics() {
  std::printf("[");
  bool first = true;
  for (const MetricDef& d : MetricDefs()) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"trace\": %d}",
                first ? "" : ", ", d.name, d.unit, d.trace);
    first = false;
  }
  std::printf("]\n");
  return 0;
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return SelfTest();
    if (flag == "--list-metrics") return ListMetrics();
    if (flag == "--list-workloads") {
      for (const std::string& name : WorkloadNames()) std::printf("%s\n", name.c_str());
      return 0;
    }
    Require(i + 1 < argc, "flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--span-dir") {
      a.span_dir = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--src-hash") {
      a.src_hash = value;
    } else {
      throw CheckFailure("unknown flag " + flag);
    }
  }
  Require(!a.workload.empty(), "--workload is required");
  Require(a.seconds > 0, "--seconds must be positive");
  Require(a.trace == 0 || a.trace == 1, "--trace must be 0 or 1");
  const Report r = RunWorkload(a, /*print_provenance=*/true);
  for (const MetricDef& d : MetricDefs()) {
    if (d.trace != a.trace) continue;
    std::printf("metric %-36s %.6g %s\n", d.name, r.metrics.at(d.name), d.unit);
  }
  std::printf("windows attempted=%" PRIu64 " failed=%" PRIu64
              " failed_window_frac=%.6g\n",
              r.attempted, r.failed,
              static_cast<double>(r.failed) / static_cast<double>(r.attempted));
  std::printf("%s\n", ResultJson(r, a.trace).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
