#ifndef DESIS_TOOLS_INSPECT_LIB_H_
#define DESIS_TOOLS_INSPECT_LIB_H_

// desis-inspect core logic, header-only so tests/test_inspect.cc exercises
// exactly what the CLI runs. Consumes the metrics sidecars written by
// bench/harness.h (schema: docs/METRICS.md):
//
//   {"bench":..., "scale":..., "meta":{...},
//    "runs":[{"run":label, "report":{...}, "spans":[...]}, ...]}
//
// Three views: a health/cost summary (per-group sharing ratios, per-node
// watermark-lag/backlog gauges), a noise-aware diff of two sidecars (the CI
// perf-regression gate), and a merged cross-node Chrome trace.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "json_lite.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace desis::tools {

inline bool LoadJsonFile(const std::string& path, JsonValue* out,
                         std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  if (!JsonParser::Parse(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

/// The registry snapshot of a run: reports embed it as
/// report.obs.metrics.metrics (an array of series objects).
inline const JsonValue& MetricsOf(const JsonValue& run) {
  return run["report"]["obs"]["metrics"]["metrics"];
}

// ------------------------------------------------------- cost attribution --

/// Per-query-group cost attribution, reassembled from the group.* series.
struct GroupCost {
  std::string group;
  double queries = 0;
  double operators = 0;
  double events_in = 0;
  double operator_evals = 0;
  // Optimizer plan shape (opt.* series; 0 when the group runs the static
  // plan): factor edges installed and factor-DAG depth.
  double opt_rewrites = 0;
  double opt_dag_depth = 0;

  /// queries*events / operator_evals: how many per-query operator
  /// evaluations one shared evaluation replaced (the paper's sharing win,
  /// Figs 6-9). 1.0 means no sharing; <1 happens for a single query whose
  /// function decomposes into several operators (average = sum + count).
  double SharingRatio() const {
    return operator_evals > 0 ? queries * events_in / operator_evals : 0;
  }
};

inline std::vector<GroupCost> ExtractGroupCosts(const JsonValue& metrics) {
  std::map<std::string, GroupCost> by_group;
  for (const JsonValue& m : metrics.array) {
    const std::string name = m["name"].AsString();
    if (name.rfind("group.", 0) != 0 && name.rfind("opt.", 0) != 0) continue;
    const std::string group = m["labels"]["group"].AsString();
    if (group.empty()) continue;
    GroupCost& gc = by_group[group];
    gc.group = group;
    const double value = m["value"].AsNumber();
    if (name == "group.queries") gc.queries = value;
    if (name == "group.operators") gc.operators = value;
    if (name == "group.events_in") gc.events_in = value;
    if (name == "group.operator_evals") gc.operator_evals += value;
    if (name == "opt.rewrites") gc.opt_rewrites = value;
    if (name == "opt.dag_depth") gc.opt_dag_depth = value;
  }
  std::vector<GroupCost> out;
  for (auto& [key, gc] : by_group) out.push_back(gc);
  return out;
}

/// Fleet-wide sharing win: total per-query operator evaluations the shared
/// plans replaced, over the evaluations actually performed. The headline
/// number of the 10k-query experiments (EXPERIMENTS.md).
inline double AggregateSharingRatio(const std::vector<GroupCost>& groups) {
  double work = 0, evals = 0;
  for (const GroupCost& gc : groups) {
    work += gc.queries * gc.events_in;
    evals += gc.operator_evals;
  }
  return evals > 0 ? work / evals : 0;
}

/// Group membership churn latency, reassembled from the opt.group_churn_ns
/// histograms the cluster records around AddQuery / RemoveQuery.
struct ChurnStat {
  std::string op;  // "add" | "remove"
  double count = 0;
  double p50_ns = 0;
  double p95_ns = 0;
};

inline std::vector<ChurnStat> ExtractChurn(const JsonValue& metrics) {
  std::vector<ChurnStat> out;
  for (const JsonValue& m : metrics.array) {
    if (m["name"].AsString() != "opt.group_churn_ns") continue;
    ChurnStat cs;
    cs.op = m["labels"]["op"].AsString("?");
    cs.count = m["count"].AsNumber();
    cs.p50_ns = m["p50"].AsNumber();
    cs.p95_ns = m["p95"].AsNumber();
    out.push_back(cs);
  }
  std::sort(out.begin(), out.end(),
            [](const ChurnStat& a, const ChurnStat& b) { return a.op < b.op; });
  return out;
}

// --------------------------------------------------------- cluster health --

/// Per-node health gauges, reassembled from the health.* series.
struct NodeHealthRow {
  std::string node;
  std::string role;
  double watermark_lag_us = 0;
  double backlog = 0;
  double reorder_depth = 0;
  double mailbox_depth = 0;
  bool any = false;
};

inline std::vector<NodeHealthRow> ExtractHealth(const JsonValue& metrics) {
  std::map<std::string, NodeHealthRow> by_node;
  for (const JsonValue& m : metrics.array) {
    const std::string name = m["name"].AsString();
    if (name.rfind("health.", 0) != 0) continue;
    const std::string node = m["labels"]["node"].AsString();
    NodeHealthRow& row = by_node[node];
    row.node = node;
    row.role = m["labels"]["role"].AsString();
    row.any = true;
    const double value = m["value"].AsNumber();
    if (name == "health.watermark_lag_us") row.watermark_lag_us = value;
    if (name == "health.backlog") row.backlog = value;
    if (name == "health.reorder_depth") row.reorder_depth = value;
    if (name == "health.mailbox_depth") row.mailbox_depth = value;
  }
  std::vector<NodeHealthRow> out;
  for (auto& [key, row] : by_node) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const NodeHealthRow& a, const NodeHealthRow& b) {
              return std::atoi(a.node.c_str()) < std::atoi(b.node.c_str());
            });
  return out;
}

// --------------------------------------------------------- crash recovery --

/// Crash-recovery counters from the report's "recovery" section, present
/// iff the run had recovery enabled (schema: docs/FAULT_TOLERANCE.md).
/// Sourced from the report rather than the metrics registry.
struct RecoveryStat {
  bool present = false;
  double reattaches = 0;
  double replayed_slices = 0;
  double stale_dropped = 0;
  double resend_buffer_bytes = 0;
  double resend_overflow_drops = 0;
  double messages_dropped = 0;  // totals.messages_dropped, for Suspect()

  /// A lossy run that never replayed anything deserves a second look:
  /// frames were dropped on the wire yet no recovery traffic made up for
  /// them. Link-level retransmission can legitimately cover every drop
  /// (transient partitions heal below the resend buffer), but silent data
  /// loss looks exactly the same from the counters — so flag it.
  bool Suspect() const {
    return present && messages_dropped > 0 && replayed_slices == 0;
  }
};

inline RecoveryStat ExtractRecovery(const JsonValue& report) {
  RecoveryStat rs;
  const JsonValue& rec = report["recovery"];
  if (!rec.is_object()) return rs;
  rs.present = true;
  rs.reattaches = rec["reattaches"].AsNumber();
  rs.replayed_slices = rec["replayed_slices"].AsNumber();
  rs.stale_dropped = rec["stale_dropped"].AsNumber();
  rs.resend_buffer_bytes = rec["resend_buffer_bytes"].AsNumber();
  rs.resend_overflow_drops = rec["resend_overflow_drops"].AsNumber();
  rs.messages_dropped = report["totals"]["messages_dropped"].AsNumber();
  return rs;
}

// ------------------------------------------------------- memory governance --

/// Memory-governor counters summed over every engine.* series in the run's
/// metrics snapshot (one series per governed engine or node). Absent
/// unless the run had a memory budget (DESIGN.md §3, memory governance).
struct MemoryStat {
  bool present = false;
  double bytes_resident = 0;
  double spills = 0;
  double spill_bytes = 0;
  double restores = 0;
  double sketch_lanes = 0;

  /// Spill thrash: state is restored far more often than it is spilled —
  /// the same cold buffers bounce between disk and memory on every window
  /// close, so the budget is too tight for the live working set. Spilling
  /// itself is healthy; an order of magnitude more restores is not.
  bool Suspect() const { return spills > 0 && restores > 8 * spills; }
};

inline MemoryStat ExtractMemory(const JsonValue& metrics) {
  MemoryStat ms;
  for (const JsonValue& m : metrics.array) {
    const std::string name = m["name"].AsString();
    const double value = m["value"].AsNumber();
    if (name == "engine.bytes_resident") {
      ms.bytes_resident += value;
    } else if (name == "engine.spills") {
      ms.spills += value;
    } else if (name == "engine.spill_bytes") {
      ms.spill_bytes += value;
    } else if (name == "engine.spill_restores") {
      ms.restores += value;
    } else if (name == "engine.sketch_lanes") {
      ms.sketch_lanes += value;
    } else {
      continue;
    }
    ms.present = true;
  }
  return ms;
}

// ------------------------------------------------------------- span merge --

/// Rebuilds SliceSpans from one run's exported "spans" array (the inverse
/// of SliceTracer::ToJson). Unknown phases/roles are skipped.
inline std::vector<obs::SliceSpan> SpansFromJson(const JsonValue& spans) {
  std::vector<obs::SliceSpan> out;
  for (const JsonValue& s : spans.array) {
    obs::SliceSpan span;
    if (!obs::PhaseFromString(s["phase"].AsString(), &span.phase)) continue;
    if (!obs::SpanRoleFromName(s["role"].AsString(), &span.role)) continue;
    span.slice_id = static_cast<uint64_t>(s["slice_id"].AsNumber());
    span.group_id = static_cast<uint32_t>(s["group"].AsNumber());
    span.query_id = static_cast<uint64_t>(s["query"].AsNumber());
    span.node_id = static_cast<uint32_t>(s["node"].AsNumber());
    span.virtual_ts = static_cast<Timestamp>(s["virtual_ts"].AsNumber());
    span.real_ns = static_cast<int64_t>(s["real_ns"].AsNumber());
    out.push_back(span);
  }
  return out;
}

/// One Chrome trace over every span of every run in the sidecar — the
/// cross-node correlation view (a slice's life across local, intermediate
/// and root shares one global async id).
inline std::string MergedChromeTrace(const JsonValue& sidecar) {
  std::vector<obs::SliceSpan> all;
  for (const JsonValue& run : sidecar["runs"].array) {
    std::vector<obs::SliceSpan> spans = SpansFromJson(run["spans"]);
    all.insert(all.end(), spans.begin(), spans.end());
  }
  return obs::ChromeTraceFromSpans(std::move(all));
}

// ---------------------------------------------------------------- summary --

inline std::string FormatDouble(double v) {
  char buf[64];
  if (v == static_cast<int64_t>(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

inline std::string Summarize(const JsonValue& sidecar) {
  std::string out;
  out += "bench: " + sidecar["bench"].AsString("?") + "\n";
  const JsonValue& meta = sidecar["meta"];
  if (meta.is_object()) {
    out += "meta:  git=" + meta["git_sha"].AsString("?") +
           " build=" + meta["build_type"].AsString("?") +
           " written=" + meta["written_utc"].AsString("?") + " transports=[";
    const JsonValue& transports = meta["transports"];
    for (size_t i = 0; i < transports.array.size(); ++i) {
      out += (i == 0 ? "" : ",") + transports.array[i].AsString();
    }
    out += "]";
    if (meta["hw_threads"].is_number()) {
      out += " hw_threads=" + FormatDouble(meta["hw_threads"].AsNumber());
    }
    out += "\n";
  }
  for (const JsonValue& run : sidecar["runs"].array) {
    out += "\nrun: " + run["run"].AsString("?") + "\n";
    const JsonValue& report = run["report"];
    if (report["events_per_sec"].is_number()) {
      out += "  events_per_sec: " +
             FormatDouble(report["events_per_sec"].AsNumber()) + "\n";
    }
    const JsonValue& metrics = MetricsOf(run);
    const std::vector<GroupCost> groups = ExtractGroupCosts(metrics);
    for (const GroupCost& gc : groups) {
      out += "  group " + gc.group + ": queries=" + FormatDouble(gc.queries) +
             " operators=" + FormatDouble(gc.operators) +
             " events_in=" + FormatDouble(gc.events_in) +
             " operator_evals=" + FormatDouble(gc.operator_evals) +
             " sharing_ratio=" + FormatDouble(gc.SharingRatio());
      if (gc.opt_rewrites > 0 || gc.opt_dag_depth > 0) {
        out += " rewrites=" + FormatDouble(gc.opt_rewrites) +
               " dag_depth=" + FormatDouble(gc.opt_dag_depth);
      }
      out += "\n";
    }
    if (groups.size() > 1) {
      out += "  sharing_ratio (all groups): " +
             FormatDouble(AggregateSharingRatio(groups)) + "\n";
    }
    for (const ChurnStat& cs : ExtractChurn(metrics)) {
      out += "  churn " + cs.op + ": count=" + FormatDouble(cs.count) +
             " p50_ns=" + FormatDouble(cs.p50_ns) +
             " p95_ns=" + FormatDouble(cs.p95_ns) + "\n";
    }
    for (const NodeHealthRow& row : ExtractHealth(metrics)) {
      out += "  node " + row.node + " (" + row.role +
             "): watermark_lag_us=" + FormatDouble(row.watermark_lag_us) +
             " backlog=" + FormatDouble(row.backlog) +
             " reorder_depth=" + FormatDouble(row.reorder_depth) +
             " mailbox_depth=" + FormatDouble(row.mailbox_depth) + "\n";
    }
    const RecoveryStat rs = ExtractRecovery(report);
    if (rs.present) {
      out += "  recovery: reattaches=" + FormatDouble(rs.reattaches) +
             " replayed_slices=" + FormatDouble(rs.replayed_slices) +
             " stale_dropped=" + FormatDouble(rs.stale_dropped) +
             " resend_buffer_bytes=" + FormatDouble(rs.resend_buffer_bytes) +
             " overflow_drops=" + FormatDouble(rs.resend_overflow_drops) +
             "\n";
      if (rs.Suspect()) {
        out += "  SUSPECT: " + FormatDouble(rs.messages_dropped) +
               " messages dropped but 0 slices replayed — verify the drops "
               "were covered by link-level retransmission "
               "(docs/FAULT_TOLERANCE.md)\n";
      }
    }
    const MemoryStat ms = ExtractMemory(metrics);
    if (ms.present) {
      out += "  memory: bytes_resident=" + FormatDouble(ms.bytes_resident) +
             " spills=" + FormatDouble(ms.spills) +
             " spill_bytes=" + FormatDouble(ms.spill_bytes) +
             " restores=" + FormatDouble(ms.restores) +
             " sketch_lanes=" + FormatDouble(ms.sketch_lanes) + "\n";
      if (ms.Suspect()) {
        out += "  SUSPECT: " + FormatDouble(ms.restores) + " restores vs " +
               FormatDouble(ms.spills) +
               " spills — spill thrash; the memory budget is too tight for "
               "the live working set (DESIGN.md §3, memory governance)\n";
      }
    }
    const JsonValue& obs = report["obs"];
    if (obs["spans_recorded"].is_number()) {
      out += "  spans: recorded=" +
             FormatDouble(obs["spans_recorded"].AsNumber()) +
             " dropped=" + FormatDouble(obs["spans_dropped"].AsNumber()) +
             "\n";
    }
  }
  return out;
}

// ------------------------------------------------------------------- diff --

struct DiffOptions {
  /// Relative band; a worse-direction change beyond it is a regression.
  double threshold = 0.15;
  /// Compare only deterministic metrics (byte/event/slice counters);
  /// wall-clock-derived numbers (throughput, busy time, latencies) are
  /// skipped. For CI machines with unpredictable noise.
  bool stable_only = false;
};

struct DiffFinding {
  std::string run;
  std::string metric;
  double before = 0;
  double after = 0;
  bool regression = false;
};

struct DiffResult {
  std::vector<DiffFinding> findings;  // changed metrics, regressions first
  size_t compared = 0;
  bool comparable = true;  // same bench + obs setting on both sides

  bool HasRegression() const {
    for (const DiffFinding& f : findings) {
      if (f.regression) return true;
    }
    return false;
  }
};

/// Wall-clock-derived metric names: real on a quiet machine, noise in CI.
inline bool IsNoisyMetric(const std::string& name) {
  return name.find("events_per_sec") != std::string::npos ||
         name.find("busy_ns") != std::string::npos ||
         name.find("_ns") != std::string::npos ||
         name.find("us_per_result") != std::string::npos ||
         name.find("latency") != std::string::npos ||
         name.find("watermark_lag") != std::string::npos;
}

/// Direction of badness: for these, only a *decrease* is a regression; for
/// everything else any drift beyond the band is flagged.
inline bool HigherIsBetter(const std::string& name) {
  return name.find("events_per_sec") != std::string::npos ||
         name.find("sharing_ratio") != std::string::npos;
}

/// Flattens the numeric leaves of a report subtree into dotted paths
/// ("roles.local.bytes_sent"). The obs subtree is handled separately.
inline void FlattenNumbers(const JsonValue& v, const std::string& prefix,
                           std::map<std::string, double>* out) {
  if (v.is_number()) {
    (*out)[prefix] = v.number;
    return;
  }
  if (!v.is_object()) return;
  for (const auto& [key, child] : v.object) {
    if (key == "obs") continue;
    FlattenNumbers(child, prefix.empty() ? key : prefix + "." + key, out);
  }
}

/// One run's comparable scalar metrics: report leaves, obs counters, and
/// the derived per-group sharing ratio.
inline std::map<std::string, double> ComparableMetrics(const JsonValue& run) {
  std::map<std::string, double> out;
  FlattenNumbers(run["report"], "", &out);
  const JsonValue& metrics = MetricsOf(run);
  for (const JsonValue& m : metrics.array) {
    if (m["type"].AsString() != "counter") continue;  // gauges are moments
    std::string key = "obs." + m["name"].AsString();
    for (const auto& [k, v] : m["labels"].object) {
      key += "{" + k + "=" + v.AsString() + "}";
    }
    out[key] = m["value"].AsNumber();
  }
  for (const GroupCost& gc : ExtractGroupCosts(metrics)) {
    out["group." + gc.group + ".sharing_ratio"] = gc.SharingRatio();
  }
  return out;
}

/// Run keys, de-duplicated by occurrence: sweeps record the same label
/// several times ("Desis" at n=1,10,100,1000), and positional matching
/// would silently pair different sweep points.
inline std::vector<std::pair<std::string, const JsonValue*>> KeyedRuns(
    const JsonValue& sidecar) {
  std::vector<std::pair<std::string, const JsonValue*>> out;
  std::map<std::string, int> seen;
  for (const JsonValue& run : sidecar["runs"].array) {
    const std::string label = run["run"].AsString();
    const int n = seen[label]++;
    out.emplace_back(n == 0 ? label : label + "#" + std::to_string(n), &run);
  }
  return out;
}

/// Whether the sidecar's runs had the health watchdog thread live (meta
/// "watchdog" entry, written by Sidecar::NoteWatchdog). Sidecars predating
/// the watchdog have no entry and read as off.
inline bool MetaWatchdogEnabled(const JsonValue& sidecar) {
  return sidecar["meta"]["watchdog"]["enabled"].boolean;
}

inline DiffResult DiffSidecars(const JsonValue& before, const JsonValue& after,
                               const DiffOptions& options) {
  DiffResult result;
  if (before["bench"].AsString() != after["bench"].AsString() ||
      // A live watchdog thread samples (and locks) alongside the run;
      // comparing a watchdog-on run against a watchdog-off baseline would
      // report its overhead as a regression in the workload under test.
      MetaWatchdogEnabled(before) != MetaWatchdogEnabled(after)) {
    result.comparable = false;
    return result;
  }
  std::map<std::string, const JsonValue*> after_runs;
  for (const auto& [key, run] : KeyedRuns(after)) after_runs[key] = run;
  for (const auto& [label, run_ptr] : KeyedRuns(before)) {
    const JsonValue& run = *run_ptr;
    auto it = after_runs.find(label);
    if (it == after_runs.end()) continue;
    const std::map<std::string, double> a = ComparableMetrics(run);
    const std::map<std::string, double> b = ComparableMetrics(*it->second);
    for (const auto& [metric, before_v] : a) {
      auto bt = b.find(metric);
      if (bt == b.end()) continue;
      if (options.stable_only && IsNoisyMetric(metric)) continue;
      ++result.compared;
      const double after_v = bt->second;
      const double base = std::fabs(before_v);
      const double rel =
          base > 0 ? (after_v - before_v) / base : (after_v != 0 ? 1.0 : 0.0);
      if (std::fabs(rel) <= options.threshold) continue;
      DiffFinding finding;
      finding.run = label;
      finding.metric = metric;
      finding.before = before_v;
      finding.after = after_v;
      finding.regression = HigherIsBetter(metric) ? rel < 0 : true;
      result.findings.push_back(finding);
    }
  }
  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const DiffFinding& x, const DiffFinding& y) {
                     return x.regression > y.regression;
                   });
  return result;
}

inline std::string FormatDiff(const DiffResult& result,
                              const DiffOptions& options) {
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", options.threshold * 100);
  out += "compared " + std::to_string(result.compared) + " metrics, band +-" +
         buf + "%\n";
  for (const DiffFinding& f : result.findings) {
    out += std::string(f.regression ? "REGRESSION " : "change     ") + f.run +
           " :: " + f.metric + ": " + FormatDouble(f.before) + " -> " +
           FormatDouble(f.after) + "\n";
  }
  if (result.findings.empty()) out += "no changes beyond the band\n";
  return out;
}

// ---------------------------------------------------------------- history --

/// One JSONL line for BENCH_history.jsonl: bench + provenance + the headline
/// number of every run. Appended by the CI gate after each main-branch run.
inline std::string HistoryLine(const JsonValue& sidecar) {
  std::string out = "{\"bench\":\"" + sidecar["bench"].AsString("?") + "\"";
  const JsonValue& meta = sidecar["meta"];
  out += ",\"git_sha\":\"" + meta["git_sha"].AsString("unknown") + "\"";
  out += ",\"written_utc\":\"" + meta["written_utc"].AsString("unknown") + "\"";
  out += ",\"runs\":{";
  bool first = true;
  std::string sharing;  // runs that carry group.* series, label -> ratio
  for (const auto& [key, run_ptr] : KeyedRuns(sidecar)) {
    const JsonValue& report = (*run_ptr)["report"];
    double headline = 0;
    if (report["events_per_sec"].is_number()) {
      headline = report["events_per_sec"].AsNumber();
    } else if (report["results"].is_number()) {
      headline = report["results"].AsNumber();
    }
    if (!first) out += ",";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", headline);
    out += "\"" + obs::JsonEscape(key) + "\":" + buf;
    const std::vector<GroupCost> groups = ExtractGroupCosts(MetricsOf(*run_ptr));
    if (!groups.empty()) {
      std::snprintf(buf, sizeof(buf), "%.6g", AggregateSharingRatio(groups));
      sharing += (sharing.empty() ? "" : ",") + std::string("\"") +
                 obs::JsonEscape(key) + "\":" + buf;
    }
  }
  out += "}";
  if (!sharing.empty()) out += ",\"sharing_ratio\":{" + sharing + "}";
  out += "}";
  return out;
}

// ------------------------------------------------------------- postmortem --

/// One node's flight-recorder dump (Cluster::DumpFlightRecorders /
/// FlightRecorder::DumpJson): identity, why the dump fired, ring counters,
/// and the retained control-plane events.
struct FlightDump {
  uint32_t node = 0;
  std::string role;
  std::string reason;
  double capacity = 0;
  double recorded = 0;
  double dropped = 0;
  std::vector<obs::FlightEvent> events;
};

/// Rebuilds a FlightDump from a parsed dump document. Events with an
/// unknown kind name are skipped (forward compatibility); a document
/// without the recorder envelope is rejected.
inline bool FlightDumpFromJson(const JsonValue& doc, FlightDump* out) {
  if (!doc.is_object() || !doc["recorder"].is_object()) return false;
  out->node = static_cast<uint32_t>(doc["node"].AsNumber());
  out->role = doc["role"].AsString("?");
  out->reason = doc["reason"].AsString("?");
  out->capacity = doc["recorder"]["capacity"].AsNumber();
  out->recorded = doc["recorder"]["recorded"].AsNumber();
  out->dropped = doc["recorder"]["dropped"].AsNumber();
  for (const JsonValue& e : doc["events"].array) {
    obs::FlightEvent ev;
    if (!obs::FlightKindFromName(e["kind"].AsString(), &ev.kind)) continue;
    ev.node_id = static_cast<uint32_t>(e["node"].AsNumber());
    obs::SpanRoleFromName(e["role"].AsString(), &ev.role);
    ev.a = static_cast<uint64_t>(e["a"].AsNumber());
    ev.b = static_cast<uint64_t>(e["b"].AsNumber());
    ev.virtual_ts = static_cast<Timestamp>(e["virtual_ts"].AsNumber());
    ev.real_ns = static_cast<int64_t>(e["real_ns"].AsNumber());
    out->events.push_back(ev);
  }
  return true;
}

inline std::string FormatFlightEvent(const obs::FlightEvent& e) {
  char vts[32];
  if (e.virtual_ts == kNoTimestamp) {
    std::snprintf(vts, sizeof(vts), "-");
  } else {
    std::snprintf(vts, sizeof(vts), "%lld",
                  static_cast<long long>(e.virtual_ts));
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%14lld ns  node %-3u %-12s %-17s a=%llu b=%llu vts=%s",
                static_cast<long long>(e.real_ns), e.node_id,
                obs::SpanRoleName(e.role), obs::KindName(e.kind),
                static_cast<unsigned long long>(e.a),
                static_cast<unsigned long long>(e.b), vts);
  std::string out = buf;
  if (e.kind == obs::FlightEventKind::kAnomaly) {
    out += std::string("  !! ") +
           obs::AnomalyName(static_cast<obs::AnomalyKind>(e.a));
  }
  return out;
}

/// Merges per-node dumps into one causally ordered timeline. Events sort by
/// real (steady-clock) time — the dumps come from one process, so real time
/// is a causal order; virtual time breaks ties. With an anomaly in the
/// merged stream the view pivots around the first one: the last
/// `tail_per_node` pre-anomaly events of every node (what each node was
/// doing going into the fault), then the full anomaly window. Without one,
/// it is a plain merged tail.
inline std::string Postmortem(const std::vector<FlightDump>& dumps,
                              size_t tail_per_node = 12) {
  std::string out;
  size_t total = 0;
  out += "postmortem over " + std::to_string(dumps.size()) + " dump(s)\n";
  for (const FlightDump& d : dumps) {
    out += "  node " + std::to_string(d.node) + " (" + d.role +
           "): reason=" + d.reason + " recorded=" + FormatDouble(d.recorded) +
           " dropped=" + FormatDouble(d.dropped) + "\n";
    total += d.events.size();
  }
  if (total == 0) {
    out += "no events retained\n";
    return out;
  }
  std::vector<obs::FlightEvent> all;
  all.reserve(total);
  for (const FlightDump& d : dumps) {
    all.insert(all.end(), d.events.begin(), d.events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
                     if (a.real_ns != b.real_ns) return a.real_ns < b.real_ns;
                     return a.virtual_ts < b.virtual_ts;
                   });
  size_t first_anomaly = all.size();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].kind == obs::FlightEventKind::kAnomaly) {
      first_anomaly = i;
      break;
    }
  }
  if (first_anomaly < all.size()) {
    const obs::FlightEvent& a = all[first_anomaly];
    out += "\nfirst anomaly: " +
           std::string(obs::AnomalyName(static_cast<obs::AnomalyKind>(a.a))) +
           " against node " + std::to_string(a.node_id) + "\n";
    out += "\nlast " + std::to_string(tail_per_node) +
           " event(s) per node before the anomaly:\n";
    // Walk backwards from the anomaly keeping each node's most recent tail,
    // then re-emit in forward order.
    std::map<uint32_t, size_t> kept;
    std::vector<size_t> picked;
    for (size_t i = first_anomaly; i-- > 0;) {
      if (kept[all[i].node_id]++ < tail_per_node) picked.push_back(i);
    }
    for (size_t i = picked.size(); i-- > 0;) {
      out += FormatFlightEvent(all[picked[i]]) + "\n";
    }
    out += "\nanomaly window (every event from the first anomaly on):\n";
    for (size_t i = first_anomaly; i < all.size(); ++i) {
      out += FormatFlightEvent(all[i]) + "\n";
    }
  } else {
    out += "\nno anomaly recorded; merged tail (last " +
           std::to_string(tail_per_node) + " event(s) per node):\n";
    std::map<uint32_t, size_t> kept;
    std::vector<size_t> picked;
    for (size_t i = all.size(); i-- > 0;) {
      if (kept[all[i].node_id]++ < tail_per_node) picked.push_back(i);
    }
    for (size_t i = picked.size(); i-- > 0;) {
      out += FormatFlightEvent(all[picked[i]]) + "\n";
    }
  }
  return out;
}

/// Total retained events across dumps (the CLI's empty-timeline check).
inline size_t PostmortemEventCount(const std::vector<FlightDump>& dumps) {
  size_t total = 0;
  for (const FlightDump& d : dumps) total += d.events.size();
  return total;
}

}  // namespace desis::tools

#endif  // DESIS_TOOLS_INSPECT_LIB_H_
