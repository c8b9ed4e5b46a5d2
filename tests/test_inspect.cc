// The desis-inspect toolchain (tools/inspect_lib.h): JSON reader, group
// cost / sharing-ratio extraction, the noise-aware sidecar diff that gates
// CI perf regressions, run keying, history lines, and the span -> Chrome
// trace round trip.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "inspect_lib.h"

namespace desis::tools {
namespace {

JsonValue Parse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(JsonParser::Parse(text, &v, &error)) << error;
  return v;
}

// --------------------------------------------------------------- json_lite --

TEST(JsonLite, ParsesScalarsContainersAndEscapes) {
  JsonValue v = Parse(
      R"({"s":"a\"b\nA","n":-2.5e2,"t":true,"f":false,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":"v"}})");
  EXPECT_EQ(v["s"].AsString(), "a\"b\nA");
  EXPECT_DOUBLE_EQ(v["n"].AsNumber(), -250.0);
  EXPECT_TRUE(v["t"].boolean);
  EXPECT_FALSE(v["f"].boolean);
  EXPECT_TRUE(v["z"].is_null());
  ASSERT_EQ(v["arr"].array.size(), 3u);
  EXPECT_DOUBLE_EQ(v["arr"].array[2].AsNumber(), 3.0);
  EXPECT_EQ(v["obj"]["k"].AsString(), "v");
  // Missing keys chain to a shared null, never throw.
  EXPECT_TRUE(v["missing"]["deeper"]["still"].is_null());
}

TEST(JsonLite, RejectsMalformedInput) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonParser::Parse("{\"a\":1", &v, &error));    // unterminated
  EXPECT_FALSE(JsonParser::Parse("{\"a\" 1}", &v, &error));   // missing ':'
  EXPECT_FALSE(JsonParser::Parse("[1,2] x", &v, &error));     // trailing
  EXPECT_FALSE(JsonParser::Parse("\"abc", &v, &error));       // open string
  EXPECT_FALSE(JsonParser::Parse("", &v, &error));            // empty
}

// --------------------------------------------------------- cost extraction --

const char* kMetricsJson = R"([
  {"name":"group.queries","type":"gauge","unit":"queries",
   "labels":{"group":"0"},"value":10},
  {"name":"group.operators","type":"gauge","unit":"operators",
   "labels":{"group":"0"},"value":2},
  {"name":"group.events_in","type":"counter","unit":"events",
   "labels":{"group":"0"},"value":500},
  {"name":"group.operator_evals","type":"counter","unit":"evals",
   "labels":{"group":"0","op":"sum"},"value":500},
  {"name":"group.operator_evals","type":"counter","unit":"evals",
   "labels":{"group":"0","op":"count"},"value":500},
  {"name":"health.watermark_lag_us","type":"gauge","unit":"us",
   "labels":{"node":"2","role":"local"},"value":40},
  {"name":"health.backlog","type":"gauge","unit":"slices",
   "labels":{"node":"0","role":"root"},"value":3}
])";

TEST(InspectCosts, SharingRatioFromGroupSeries) {
  const std::vector<GroupCost> costs = ExtractGroupCosts(Parse(kMetricsJson));
  ASSERT_EQ(costs.size(), 1u);
  const GroupCost& gc = costs[0];
  EXPECT_EQ(gc.group, "0");
  EXPECT_DOUBLE_EQ(gc.queries, 10);
  EXPECT_DOUBLE_EQ(gc.events_in, 500);
  EXPECT_DOUBLE_EQ(gc.operator_evals, 1000);  // summed across op labels
  // 10 queries x 500 events over 1000 shared evals: ratio 5 (= n/2 for n
  // identical averages, the Fig 6b sharing win).
  EXPECT_DOUBLE_EQ(gc.SharingRatio(), 5.0);
}

TEST(InspectCosts, OptSeriesRideOnGroupRows) {
  const char* json = R"([
    {"name":"group.queries","type":"gauge","unit":"queries",
     "labels":{"group":"0"},"value":4},
    {"name":"group.events_in","type":"counter","unit":"events",
     "labels":{"group":"0"},"value":100},
    {"name":"group.operator_evals","type":"counter","unit":"evals",
     "labels":{"group":"0","op":"sum"},"value":100},
    {"name":"opt.rewrites","type":"gauge","unit":"edges",
     "labels":{"group":"0"},"value":2},
    {"name":"opt.dag_depth","type":"gauge","unit":"levels",
     "labels":{"group":"0"},"value":3},
    {"name":"group.queries","type":"gauge","unit":"queries",
     "labels":{"group":"1"},"value":1},
    {"name":"group.events_in","type":"counter","unit":"events",
     "labels":{"group":"1"},"value":100},
    {"name":"group.operator_evals","type":"counter","unit":"evals",
     "labels":{"group":"1","op":"max"},"value":100}
  ])";
  const std::vector<GroupCost> costs = ExtractGroupCosts(Parse(json));
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_DOUBLE_EQ(costs[0].opt_rewrites, 2);
  EXPECT_DOUBLE_EQ(costs[0].opt_dag_depth, 3);
  EXPECT_DOUBLE_EQ(costs[1].opt_rewrites, 0);  // static plan: no opt.* series
  // Aggregate: (4*100 + 1*100) / (100 + 100) = 2.5.
  EXPECT_DOUBLE_EQ(AggregateSharingRatio(costs), 2.5);
  EXPECT_DOUBLE_EQ(AggregateSharingRatio({}), 0);
}

TEST(InspectCosts, ChurnHistogramsSurfaceCountAndPercentiles) {
  const char* json = R"([
    {"name":"opt.group_churn_ns","type":"histogram","unit":"ns",
     "labels":{"op":"remove"},"count":3,"sum":900,"min":100,"max":500,
     "p50":300,"p95":500,"p99":500},
    {"name":"opt.group_churn_ns","type":"histogram","unit":"ns",
     "labels":{"op":"add"},"count":10,"sum":5000,"min":200,"max":900,
     "p50":450,"p95":880,"p99":900}
  ])";
  const std::vector<ChurnStat> churn = ExtractChurn(Parse(json));
  ASSERT_EQ(churn.size(), 2u);  // sorted by op: add before remove
  EXPECT_EQ(churn[0].op, "add");
  EXPECT_DOUBLE_EQ(churn[0].count, 10);
  EXPECT_DOUBLE_EQ(churn[0].p50_ns, 450);
  EXPECT_DOUBLE_EQ(churn[0].p95_ns, 880);
  EXPECT_EQ(churn[1].op, "remove");
  EXPECT_DOUBLE_EQ(churn[1].p95_ns, 500);
  EXPECT_TRUE(ExtractChurn(Parse(kMetricsJson)).empty());
}

TEST(InspectSummary, ShowsOptPlanShapeAndChurn) {
  const char* sidecar = R"({"bench":"churn","obs_enabled":true,"runs":[
    {"run":"Desis","report":{"obs":{"metrics":{"metrics":[
      {"name":"group.queries","type":"gauge","unit":"queries",
       "labels":{"group":"0"},"value":4},
      {"name":"group.events_in","type":"counter","unit":"events",
       "labels":{"group":"0"},"value":100},
      {"name":"group.operator_evals","type":"counter","unit":"evals",
       "labels":{"group":"0","op":"sum"},"value":100},
      {"name":"opt.rewrites","type":"gauge","unit":"edges",
       "labels":{"group":"0"},"value":1},
      {"name":"opt.dag_depth","type":"gauge","unit":"levels",
       "labels":{"group":"0"},"value":2},
      {"name":"opt.group_churn_ns","type":"histogram","unit":"ns",
       "labels":{"op":"add"},"count":7,"sum":700,"min":50,"max":200,
       "p50":90,"p95":180,"p99":200}
    ]}}}}]})";
  const std::string text = Summarize(Parse(sidecar));
  EXPECT_NE(text.find("rewrites=1"), std::string::npos);
  EXPECT_NE(text.find("dag_depth=2"), std::string::npos);
  EXPECT_NE(text.find("churn add: count=7 p50_ns=90 p95_ns=180"),
            std::string::npos);
  // A single group needs no aggregate line (it equals the group's own).
  EXPECT_EQ(text.find("sharing_ratio (all groups)"), std::string::npos);
}

TEST(InspectHealth, RowsSortedByNodeWithRoles) {
  const std::vector<NodeHealthRow> rows = ExtractHealth(Parse(kMetricsJson));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].node, "0");
  EXPECT_EQ(rows[0].role, "root");
  EXPECT_DOUBLE_EQ(rows[0].backlog, 3);
  EXPECT_EQ(rows[1].node, "2");
  EXPECT_EQ(rows[1].role, "local");
  EXPECT_DOUBLE_EQ(rows[1].watermark_lag_us, 40);
}

// --------------------------------------------------------- crash recovery --

TEST(InspectRecovery, CountersSurfaceInSummary) {
  const char* sidecar = R"({"bench":"chaos","obs_enabled":false,"runs":[
    {"run":"Desis","report":{
      "totals":{"messages_dropped":12},
      "recovery":{"reattaches":2,"replayed_slices":9,"stale_dropped":3,
                  "resend_buffer_bytes":4096,"resend_overflow_drops":0}}}]})";
  const JsonValue v = Parse(sidecar);
  const RecoveryStat rs = ExtractRecovery(v["runs"].array[0]["report"]);
  EXPECT_TRUE(rs.present);
  EXPECT_DOUBLE_EQ(rs.reattaches, 2);
  EXPECT_DOUBLE_EQ(rs.replayed_slices, 9);
  EXPECT_DOUBLE_EQ(rs.stale_dropped, 3);
  EXPECT_DOUBLE_EQ(rs.resend_buffer_bytes, 4096);
  EXPECT_FALSE(rs.Suspect());  // drops covered by replay traffic
  const std::string text = Summarize(v);
  EXPECT_NE(text.find("recovery: reattaches=2 replayed_slices=9 "
                      "stale_dropped=3 resend_buffer_bytes=4096 "
                      "overflow_drops=0"),
            std::string::npos);
  EXPECT_EQ(text.find("SUSPECT"), std::string::npos);
}

TEST(InspectRecovery, DropsWithoutReplayAreFlaggedSuspect) {
  const char* sidecar = R"({"bench":"chaos","obs_enabled":false,"runs":[
    {"run":"Desis","report":{
      "totals":{"messages_dropped":7},
      "recovery":{"reattaches":0,"replayed_slices":0,"stale_dropped":0,
                  "resend_buffer_bytes":0,"resend_overflow_drops":0}}}]})";
  const JsonValue v = Parse(sidecar);
  EXPECT_TRUE(ExtractRecovery(v["runs"].array[0]["report"]).Suspect());
  EXPECT_NE(Summarize(v).find("SUSPECT: 7 messages dropped"),
            std::string::npos);
}

// ------------------------------------------------------- memory governance --

TEST(InspectMemory, GovernorSeriesSumAcrossShardsIntoSummaryLine) {
  // Two local-node governors: the memory line aggregates them.
  const char* sidecar = R"({"bench":"memory_cap","obs_enabled":true,"runs":[
    {"run":"capped","report":{"obs":{"metrics":{"metrics":[
      {"name":"engine.bytes_resident","labels":{"node":"0"},"value":1000},
      {"name":"engine.bytes_resident","labels":{"node":"1"},"value":500},
      {"name":"engine.spills","labels":{"node":"0"},"value":4},
      {"name":"engine.spills","labels":{"node":"1"},"value":2},
      {"name":"engine.spill_bytes","labels":{"node":"0"},"value":65536},
      {"name":"engine.spill_restores","labels":{"node":"0"},"value":6},
      {"name":"engine.sketch_lanes","labels":{"group":"0"},"value":1}]}}}}]})";
  const JsonValue v = Parse(sidecar);
  const MemoryStat ms = ExtractMemory(MetricsOf(v["runs"].array[0]));
  EXPECT_TRUE(ms.present);
  EXPECT_DOUBLE_EQ(ms.bytes_resident, 1500);
  EXPECT_DOUBLE_EQ(ms.spills, 6);
  EXPECT_DOUBLE_EQ(ms.spill_bytes, 65536);
  EXPECT_DOUBLE_EQ(ms.restores, 6);
  EXPECT_DOUBLE_EQ(ms.sketch_lanes, 1);
  EXPECT_FALSE(ms.Suspect());  // restores on par with spills: healthy
  const std::string text = Summarize(v);
  EXPECT_NE(text.find("memory: bytes_resident=1500 spills=6 "
                      "spill_bytes=65536 restores=6 sketch_lanes=1"),
            std::string::npos);
  EXPECT_EQ(text.find("SUSPECT"), std::string::npos);
}

TEST(InspectMemory, RestoreStormIsFlaggedAsSpillThrash) {
  const char* sidecar = R"({"bench":"memory_cap","obs_enabled":true,"runs":[
    {"run":"capped","report":{"obs":{"metrics":{"metrics":[
      {"name":"engine.spills","labels":{},"value":3},
      {"name":"engine.spill_restores","labels":{},"value":100}]}}}}]})";
  const JsonValue v = Parse(sidecar);
  EXPECT_TRUE(ExtractMemory(MetricsOf(v["runs"].array[0])).Suspect());
  EXPECT_NE(Summarize(v).find("SUSPECT: 100 restores vs 3 spills"),
            std::string::npos);
}

TEST(InspectMemory, AbsentSeriesMeansUngoverned) {
  // Ungoverned runs export no engine.bytes_resident/spill series: no memory
  // line, and zero restores over zero spills is not thrash.
  const char* sidecar = R"({"bench":"fig6","obs_enabled":true,"runs":[
    {"run":"Desis","report":{"obs":{"metrics":{"metrics":[
      {"name":"group.events_in","labels":{"group":"0"},"value":10}]}}}}]})";
  const JsonValue v = Parse(sidecar);
  EXPECT_FALSE(ExtractMemory(MetricsOf(v["runs"].array[0])).present);
  EXPECT_FALSE(ExtractMemory(MetricsOf(v["runs"].array[0])).Suspect());
  const std::string text = Summarize(v);
  EXPECT_EQ(text.find("memory:"), std::string::npos);
  EXPECT_EQ(text.find("SUSPECT"), std::string::npos);
}

TEST(InspectRecovery, AbsentSectionMeansRecoveryOff) {
  // Runs without recovery enabled have no "recovery" object: nothing to
  // report, and a lossy run is *not* suspect (nothing promised recovery).
  const char* sidecar = R"({"bench":"fig6","obs_enabled":false,"runs":[
    {"run":"Desis","report":{"totals":{"messages_dropped":5}}}]})";
  const JsonValue v = Parse(sidecar);
  EXPECT_FALSE(ExtractRecovery(v["runs"].array[0]["report"]).present);
  EXPECT_FALSE(ExtractRecovery(v["runs"].array[0]["report"]).Suspect());
  const std::string text = Summarize(v);
  EXPECT_EQ(text.find("recovery:"), std::string::npos);
  EXPECT_EQ(text.find("SUSPECT"), std::string::npos);
}

// ------------------------------------------------------------------- diff --

std::string SidecarJson(double events_per_sec, double bytes,
                        double events_in = 500) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      R"({"bench":"fig6","scale":1,"obs_enabled":true,)"
      R"("meta":{"git_sha":"abc1234","written_utc":"2026-01-01T00:00:00Z"},)"
      R"("runs":[{"run":"Desis","report":{"events_per_sec":%f,)"
      R"("roles":{"local":{"bytes_sent":%f}},)"
      R"("obs":{"metrics":{"metrics":[)"
      R"({"name":"group.queries","type":"gauge","unit":"queries",)"
      R"("labels":{"group":"0"},"value":10},)"
      R"({"name":"group.events_in","type":"counter","unit":"events",)"
      R"("labels":{"group":"0"},"value":%f},)"
      R"({"name":"group.operator_evals","type":"counter","unit":"evals",)"
      R"("labels":{"group":"0","op":"sum"},"value":500}]}}}}]})",
      events_per_sec, bytes, events_in);
  return buf;
}

TEST(InspectDiff, IdenticalSidecarsHaveNoRegression) {
  const JsonValue a = Parse(SidecarJson(100000, 4096));
  const DiffResult r = DiffSidecars(a, a, DiffOptions{});
  EXPECT_TRUE(r.comparable);
  EXPECT_GT(r.compared, 0u);
  EXPECT_FALSE(r.HasRegression());
  EXPECT_TRUE(r.findings.empty());
}

TEST(InspectDiff, ThroughputDropBeyondBandIsARegression) {
  const JsonValue before = Parse(SidecarJson(100000, 4096));
  const JsonValue after = Parse(SidecarJson(80000, 4096));  // -20%
  const DiffResult r = DiffSidecars(before, after, DiffOptions{});
  ASSERT_TRUE(r.HasRegression());
  EXPECT_EQ(r.findings[0].metric, "events_per_sec");
  // Throughput is higher-is-better: the same 20% as an *increase* is a
  // change, not a regression.
  const DiffResult up = DiffSidecars(after, before, DiffOptions{});
  EXPECT_FALSE(up.HasRegression());
  ASSERT_EQ(up.findings.size(), 1u);
  EXPECT_FALSE(up.findings[0].regression);
}

TEST(InspectDiff, StableOnlySkipsWallClockMetrics) {
  const JsonValue before = Parse(SidecarJson(100000, 4096));
  const JsonValue after = Parse(SidecarJson(80000, 4096));
  DiffOptions options;
  options.stable_only = true;
  const DiffResult r = DiffSidecars(before, after, options);
  EXPECT_FALSE(r.HasRegression());
  EXPECT_TRUE(r.findings.empty());
}

TEST(InspectDiff, CounterDriftIsFlaggedEvenStableOnly) {
  // Deterministic counters (bytes on the wire, events counted) moving 20%
  // means behaviour changed, not noise — flagged in stable-only mode too.
  const JsonValue before = Parse(SidecarJson(100000, 4096, 500));
  const JsonValue after = Parse(SidecarJson(100000, 4915.2, 600));
  DiffOptions options;
  options.stable_only = true;
  const DiffResult r = DiffSidecars(before, after, options);
  ASSERT_TRUE(r.HasRegression());
  bool saw_bytes = false, saw_events_in = false;
  for (const DiffFinding& f : r.findings) {
    if (f.metric == "roles.local.bytes_sent") saw_bytes = true;
    if (f.metric.find("group.events_in") != std::string::npos) {
      saw_events_in = true;
    }
  }
  EXPECT_TRUE(saw_bytes);
  EXPECT_TRUE(saw_events_in);
}

TEST(InspectDiff, DifferentBenchesAreNotComparable) {
  JsonValue a = Parse(SidecarJson(100000, 4096));
  JsonValue b = Parse(SidecarJson(100000, 4096));
  b.object["bench"].str = "fig11";
  const DiffResult r = DiffSidecars(a, b, DiffOptions{});
  EXPECT_FALSE(r.comparable);
}

TEST(InspectDiff, LegacyEngineShardsMetaStaysComparable) {
  // Committed baselines still carry the meta.engine_shards list that
  // sidecars wrote while the key-sharded engine existed; a new sidecar
  // without it must diff against them.
  JsonValue baseline = Parse(SidecarJson(100000, 4096));
  JsonValue fresh = Parse(SidecarJson(100000, 4096));
  baseline.object["meta"] = Parse(R"({"engine_shards":[0],"hw_threads":8})");
  fresh.object["meta"] = Parse(R"({"hw_threads":8})");
  EXPECT_TRUE(DiffSidecars(baseline, fresh, DiffOptions{}).comparable);
  // Hardware thread counts are recorded for provenance but never gate the
  // diff, and sidecars without any meta header keep diffing.
  fresh.object["meta"] = Parse(R"({"hw_threads":128})");
  EXPECT_TRUE(DiffSidecars(baseline, fresh, DiffOptions{}).comparable);
  const JsonValue bare = Parse(SidecarJson(100000, 4096));
  EXPECT_TRUE(DiffSidecars(bare, bare, DiffOptions{}).comparable);
}

TEST(InspectDiff, LegacyObsEnabledMetaStaysComparable) {
  // Committed baselines still carry "obs_enabled":true, at the top level
  // and in meta, from when observability could be compiled out; a new
  // sidecar without either must diff against them.
  JsonValue baseline = Parse(SidecarJson(100000, 4096));
  JsonValue fresh = Parse(SidecarJson(100000, 4096));
  baseline.object["meta"] = Parse(R"({"obs_enabled":true,"hw_threads":8})");
  fresh.object.erase("obs_enabled");
  fresh.object["meta"] = Parse(R"({"hw_threads":8})");
  ASSERT_TRUE(baseline["obs_enabled"].boolean);
  const DiffResult r = DiffSidecars(baseline, fresh, DiffOptions{});
  EXPECT_TRUE(r.comparable);
  EXPECT_GT(r.compared, 0u);
  EXPECT_FALSE(r.HasRegression());
}

TEST(InspectDiff, DuplicateRunLabelsPairByOccurrence) {
  // Sweeps record the same label repeatedly (Fig 6b: "Desis" at each n);
  // keys must pair first-with-first, second-with-second.
  const char* sweep =
      R"({"bench":"fig6","obs_enabled":true,"runs":[)"
      R"({"run":"Desis","report":{"results":100}},)"
      R"({"run":"Desis","report":{"results":200}}]})";
  const JsonValue v = Parse(sweep);
  const auto keyed = KeyedRuns(v);
  ASSERT_EQ(keyed.size(), 2u);
  EXPECT_EQ(keyed[0].first, "Desis");
  EXPECT_EQ(keyed[1].first, "Desis#1");
  // Identical sweeps diff clean — positional pairing would cross 100/200.
  const DiffResult r = DiffSidecars(v, v, DiffOptions{});
  EXPECT_EQ(r.compared, 2u);
  EXPECT_FALSE(r.HasRegression());
}

// ---------------------------------------------------------------- history --

TEST(InspectHistory, LineCarriesProvenanceAndHeadlines) {
  const JsonValue v = Parse(SidecarJson(123456, 4096));
  const std::string line = HistoryLine(v);
  JsonValue parsed = Parse(line);  // the JSONL line is itself valid JSON
  EXPECT_EQ(parsed["bench"].AsString(), "fig6");
  EXPECT_EQ(parsed["git_sha"].AsString(), "abc1234");
  EXPECT_EQ(parsed["written_utc"].AsString(), "2026-01-01T00:00:00Z");
  EXPECT_NEAR(parsed["runs"]["Desis"].AsNumber(), 123456, 1);
  // Runs carrying group.* series also record the aggregate sharing ratio
  // (here one group: 10 queries x 500 events over 500 evals = 10).
  EXPECT_NEAR(parsed["sharing_ratio"]["Desis"].AsNumber(), 10, 1e-9);
  // Sidecars without group series (baseline-only runs) omit the object.
  const JsonValue bare =
      Parse(R"({"bench":"b","runs":[{"run":"X","report":{"results":7}}]})");
  EXPECT_TRUE(Parse(HistoryLine(bare))["sharing_ratio"].is_null());
}

// ------------------------------------------------------------ trace merge --

TEST(InspectTrace, SpansRoundTripIntoGlobalChromeTrace) {
  const char* sidecar =
      R"({"bench":"fig6","obs_enabled":true,"runs":[{"run":"Desis",)"
      R"("report":{},"spans":[)"
      R"({"phase":"slice_created","slice_id":5,"group":2,"query":0,)"
      R"("node":2,"role":"local","virtual_ts":100,"real_ns":1},)"
      R"({"phase":"merged","slice_id":5,"group":2,"query":0,)"
      R"("node":1,"role":"intermediate","virtual_ts":100,"real_ns":2},)"
      R"({"phase":"merged","slice_id":5,"group":2,"query":0,)"
      R"("node":0,"role":"root","virtual_ts":100,"real_ns":3},)"
      R"({"phase":"bogus_phase","slice_id":9,"group":0,"query":0,)"
      R"("node":0,"role":"root","virtual_ts":1,"real_ns":4}]}]})";
  const JsonValue v = Parse(sidecar);
  const std::vector<obs::SliceSpan> spans =
      SpansFromJson(v["runs"].array[0]["spans"]);
  ASSERT_EQ(spans.size(), 3u);  // the bogus phase is skipped
  EXPECT_EQ(spans[0].phase, obs::SlicePhase::kSliceCreated);
  EXPECT_EQ(spans[1].role, obs::kSpanRoleIntermediate);
  EXPECT_EQ(spans[2].node_id, 0u);

  const std::string trace = MergedChromeTrace(v);
  JsonValue parsed = Parse(trace);
  EXPECT_TRUE(parsed["traceEvents"].is_array());
  // One *global* async id ties the slice's life across the three node
  // processes — that is the cross-node correlation contract.
  EXPECT_NE(trace.find("\"id2\""), std::string::npos);
  EXPECT_NE(trace.find("g2.s5"), std::string::npos);
  EXPECT_NE(trace.find("process_name"), std::string::npos);
}

}  // namespace
}  // namespace desis::tools
