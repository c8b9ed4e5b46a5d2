// Batch/per-event equivalence: IngestBatch() must produce window results
// identical to Ingest() called once per event — including on the forced
// per-event fallback paths (session, count-measure, user-defined windows and
// dedup lanes) and in out-of-order mode — across batch sizes and engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ce_buffer.h"
#include "baselines/de_bucket.h"
#include "baselines/de_sw.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/engine.h"
#include "core/slicer.h"
#include "mem/memory_governor.h"

namespace desis {
namespace {

std::unique_ptr<StreamEngine> MakeEngine(const std::string& name) {
  if (name == "Desis") return std::make_unique<DesisEngine>();
  if (name == "DeSW") return std::make_unique<DeSWEngine>();
  if (name == "Scotty") return std::make_unique<ScottyEngine>();
  if (name == "DeBucket") return std::make_unique<DeBucketEngine>();
  return std::make_unique<CeBufferEngine>();
}

// A stream exercising every boundary kind: pauses close sessions, markers
// end user-defined windows, occasional exact duplicates feed dedup lanes.
std::vector<Event> MakeStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  Timestamp ts = 0;
  while (events.size() < n) {
    ts += rng.NextBool(0.03) ? rng.NextInRange(30, 60) : rng.NextInRange(1, 5);
    const uint32_t marker = rng.NextBool(0.02) ? kWindowEnd : kNoMarker;
    const Event e{ts, static_cast<uint32_t>(rng.NextBounded(5)),
                  1.0 + static_cast<double>(rng.NextBounded(99)), marker};
    events.push_back(e);
    if (rng.NextBool(0.1) && events.size() < n) events.push_back(e);  // dup
  }
  return events;
}

std::vector<WindowResult> RunStream(const std::string& engine_name,
                              const std::vector<Query>& queries,
                              const std::vector<Event>& events,
                              size_t batch_size) {
  auto engine = MakeEngine(engine_name);
  EXPECT_TRUE(engine->Configure(queries).ok());
  std::vector<WindowResult> results;
  engine->set_sink([&](const WindowResult& r) { results.push_back(r); });
  if (batch_size == 0) {
    for (const Event& e : events) engine->Ingest(e);
  } else {
    for (size_t i = 0; i < events.size(); i += batch_size) {
      engine->IngestBatch(events.data() + i,
                          std::min(batch_size, events.size() - i));
    }
  }
  engine->AdvanceTo(events.back().ts + 100 * kSecond);
  std::sort(results.begin(), results.end(),
            [](const WindowResult& a, const WindowResult& b) {
              return std::tie(a.query_id, a.window_start, a.window_end) <
                     std::tie(b.query_id, b.window_start, b.window_end);
            });
  return results;
}

void ExpectSameResults(const std::vector<WindowResult>& want,
                       const std::vector<WindowResult>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].query_id, got[i].query_id);
    EXPECT_EQ(want[i].window_start, got[i].window_start);
    EXPECT_EQ(want[i].window_end, got[i].window_end);
    EXPECT_EQ(want[i].event_count, got[i].event_count);
    EXPECT_DOUBLE_EQ(want[i].value, got[i].value);
  }
}

const size_t kStreamLen = 1500;
const size_t kBatchSizes[] = {1, 7, 256, kStreamLen};
const char* kEngines[] = {"Desis", "Scotty", "CeBuffer"};

struct NamedSpec {
  const char* name;
  WindowSpec spec;
};

std::vector<NamedSpec> AllWindowSpecs() {
  return {{"tumbling", WindowSpec::Tumbling(97)},
          {"sliding", WindowSpec::Sliding(120, 37)},
          {"session", WindowSpec::Session(23)},
          {"count_tumbling", WindowSpec::CountTumbling(50)},
          {"count_sliding", WindowSpec::CountSliding(64, 16)},
          {"user_defined", WindowSpec::UserDefined()}};
}

TEST(BatchIngestEquivalence, EveryWindowTypeMatchesPerEvent) {
  const auto events = MakeStream(kStreamLen, 7);
  for (const char* engine : kEngines) {
    for (const NamedSpec& ns : AllWindowSpecs()) {
      Query q;
      q.id = 1;
      q.window = ns.spec;
      q.agg = {AggregationFunction::kAverage, 0};
      const auto want = RunStream(engine, {q}, events, 0);
      ASSERT_FALSE(want.empty()) << engine << " " << ns.name;
      for (size_t batch : kBatchSizes) {
        SCOPED_TRACE(std::string(engine) + " " + ns.name + " batch=" +
                     std::to_string(batch));
        ExpectSameResults(want, RunStream(engine, {q}, events, batch));
      }
    }
  }
}

TEST(BatchIngestEquivalence, DedupLaneFallsBackAndMatches) {
  const auto events = MakeStream(kStreamLen, 11);  // ~10% exact duplicates
  for (const char* engine : {"Desis", "Scotty"}) {
    Query q;
    q.id = 1;
    q.window = WindowSpec::Tumbling(97);
    q.agg = {AggregationFunction::kCount, 0};
    q.deduplicate = true;
    const auto want = RunStream(engine, {q}, events, 0);
    ASSERT_FALSE(want.empty());
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE(std::string(engine) + " batch=" + std::to_string(batch));
      ExpectSameResults(want, RunStream(engine, {q}, events, batch));
    }
  }
}

// A mixed multi-query workload: fast-path groups (tumbling/sliding over
// several lanes and functions) alongside forced-fallback groups (session,
// count, user-defined, dedup), all fed from the same batches.
std::vector<Query> MixedQueries() {
  std::vector<Query> queries;
  QueryId id = 1;
  auto add = [&](WindowSpec w, AggregationFunction fn, Predicate p,
                 bool dedup = false) {
    Query q;
    q.id = id++;
    q.window = w;
    q.agg = {fn, 0.9};
    q.predicate = p;
    q.deduplicate = dedup;
    queries.push_back(q);
  };
  add(WindowSpec::Tumbling(97), AggregationFunction::kSum, Predicate::All());
  add(WindowSpec::Tumbling(200), AggregationFunction::kAverage,
      Predicate::KeyEquals(2));
  add(WindowSpec::Sliding(120, 37), AggregationFunction::kMax,
      Predicate::ValueRange(10.0, 80.0));
  add(WindowSpec::Sliding(300, 50), AggregationFunction::kQuantile,
      Predicate::All());
  add(WindowSpec::Session(23), AggregationFunction::kSum, Predicate::All());
  add(WindowSpec::CountTumbling(50), AggregationFunction::kAverage,
      Predicate::All());
  add(WindowSpec::UserDefined(), AggregationFunction::kCount,
      Predicate::All());
  add(WindowSpec::Tumbling(97), AggregationFunction::kCount,
      Predicate::KeyEquals(1), /*dedup=*/true);
  return queries;
}

TEST(BatchIngestEquivalence, MixedMultiQueryWorkloadMatches) {
  const auto events = MakeStream(kStreamLen, 13);
  const auto queries = MixedQueries();
  for (const char* engine : {"Desis", "DeSW", "Scotty", "CeBuffer"}) {
    const auto want = RunStream(engine, queries, events, 0);
    ASSERT_FALSE(want.empty()) << engine;
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE(std::string(engine) + " batch=" + std::to_string(batch));
      ExpectSameResults(want, RunStream(engine, queries, events, batch));
    }
  }
}

// Out-of-order mode: the reorder buffer must release — and drop — exactly
// the same events whether fed per event or in batches.
TEST(BatchIngestEquivalence, OutOfOrderModeMatches) {
  const auto ordered = MakeStream(kStreamLen, 17);
  Rng rng(19);
  std::vector<Event> arrival = ordered;
  for (Event& e : arrival) {
    // Jitter beyond the allowed lateness so some events get dropped.
    e.ts += static_cast<Timestamp>(rng.NextBounded(80));
  }
  const Timestamp lateness = 50;

  std::vector<Query> queries;
  Query q;
  q.id = 1;
  q.window = WindowSpec::Tumbling(97);
  q.agg = {AggregationFunction::kSum, 0};
  queries.push_back(q);
  q.id = 2;
  q.window = WindowSpec::Sliding(120, 37);
  q.agg = {AggregationFunction::kAverage, 0};
  queries.push_back(q);

  auto run = [&](size_t batch, uint64_t* dropped) {
    DesisEngine engine;
    engine.EnableOutOfOrderIngest(lateness);
    EXPECT_TRUE(engine.Configure(queries).ok());
    std::vector<WindowResult> results;
    engine.set_sink([&](const WindowResult& r) { results.push_back(r); });
    if (batch == 0) {
      for (const Event& e : arrival) engine.Ingest(e);
    } else {
      for (size_t i = 0; i < arrival.size(); i += batch) {
        engine.IngestBatch(arrival.data() + i,
                           std::min(batch, arrival.size() - i));
      }
    }
    engine.Finish();
    *dropped = engine.dropped_events();
    std::sort(results.begin(), results.end(),
              [](const WindowResult& a, const WindowResult& b) {
                return std::tie(a.query_id, a.window_start) <
                       std::tie(b.query_id, b.window_start);
              });
    return results;
  };

  uint64_t want_dropped = 0;
  const auto want = run(0, &want_dropped);
  ASSERT_FALSE(want.empty());
  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    uint64_t got_dropped = 0;
    ExpectSameResults(want, run(batch, &got_dropped));
    EXPECT_EQ(want_dropped, got_dropped);
  }
}

// The engine-level stats must agree too: the fast path performs the same
// logical work (selection evaluations, operator executions, slices) as the
// per-event path, it just amortizes the bookkeeping around it.
TEST(BatchIngestEquivalence, StatsMatchPerEventPath) {
  const auto events = MakeStream(kStreamLen, 23);
  Query q;
  q.id = 1;
  q.window = WindowSpec::Sliding(120, 37);
  q.agg = {AggregationFunction::kAverage, 0};

  DesisEngine per_event;
  ASSERT_TRUE(per_event.Configure({q}).ok());
  for (const Event& e : events) per_event.Ingest(e);
  per_event.Finish();

  DesisEngine batched;
  ASSERT_TRUE(batched.Configure({q}).ok());
  for (size_t i = 0; i < events.size(); i += 256) {
    batched.IngestBatch(events.data() + i, std::min<size_t>(256, events.size() - i));
  }
  batched.Finish();

  EXPECT_EQ(per_event.stats().events, batched.stats().events);
  EXPECT_EQ(per_event.stats().selection_evals, batched.stats().selection_evals);
  EXPECT_EQ(per_event.stats().operator_executions,
            batched.stats().operator_executions);
  EXPECT_EQ(per_event.stats().slices_created, batched.stats().slices_created);
  EXPECT_EQ(per_event.stats().windows_fired, batched.stats().windows_fired);
}

// --- The batch path's selection plan -----------------------------------
//
// Per-event Ingest(), IngestBatch() and the CeBuffer oracle run the same
// stream through match-all, key, key-and-range and range lanes. The two
// slicer paths must seal byte-identical slices; all three must emit the
// same windows.

constexpr double kInf = std::numeric_limits<double>::infinity();
// Past every window below; fires whatever is still open after the stream.
constexpr Timestamp kFlush = 10 * kMillisecond;

// Integer values around the range lanes' bounds, with the bounds themselves
// (10, 20, 40, 50, 0) hit exactly. `specials` mixes in -0.0, +-inf and NaN.
std::vector<Event> MakeSelectionStream(size_t n, uint64_t seed,
                                       bool specials) {
  const double kEdges[] = {0.0, 10.0, 20.0, 40.0, 50.0};
  const double kSpecials[] = {-0.0, kInf, -kInf,
                              std::numeric_limits<double>::quiet_NaN()};
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  Timestamp ts = 0;
  while (events.size() < n) {
    ts += static_cast<Timestamp>(rng.NextBounded(5));  // runs of equal ts
    double v = static_cast<double>(rng.NextBounded(111)) - 5.0;
    if (rng.NextBool(0.15)) v = kEdges[rng.NextBounded(5)];
    if (specials && rng.NextBool(0.05)) v = kSpecials[rng.NextBounded(4)];
    events.push_back({ts, static_cast<uint32_t>(rng.NextBounded(6)), v,
                      kNoMarker});
  }
  return events;
}

Query SelQuery(QueryId id, WindowSpec w, AggregationFunction fn,
               Predicate p) {
  Query q;
  q.id = id;
  q.window = w;
  q.agg = {fn, 0.5};
  q.predicate = p;
  return q;
}

// Three groups: match-all lanes; KeyEquals lanes beside two KeyAndRange
// lanes sharing key 3 with disjoint ranges; ValueRange lanes whose bounds
// the stream hits exactly, open at -inf and +inf.
std::vector<Query> SelectionQueries() {
  using F = AggregationFunction;
  const Predicate all = Predicate::All();
  return {
      SelQuery(1, WindowSpec::Tumbling(97), F::kSum, all),
      SelQuery(2, WindowSpec::Sliding(120, 37), F::kVariance, all),
      SelQuery(3, WindowSpec::Tumbling(200), F::kMax, all),
      SelQuery(4, WindowSpec::Tumbling(97), F::kSum, Predicate::KeyEquals(1)),
      SelQuery(5, WindowSpec::Sliding(120, 37), F::kCount,
               Predicate::KeyEquals(2)),
      SelQuery(6, WindowSpec::Tumbling(97), F::kAverage,
               Predicate::KeyAndRange(3, 0.0, 50.0)),
      SelQuery(7, WindowSpec::Tumbling(150), F::kMin,
               Predicate::KeyAndRange(3, 50.0, kInf)),
      SelQuery(8, WindowSpec::Tumbling(97), F::kSum,
               Predicate::ValueRange(10.0, 20.0)),
      SelQuery(9, WindowSpec::Sliding(120, 37), F::kCount,
               Predicate::ValueRange(20.0, 40.0)),
      SelQuery(10, WindowSpec::Tumbling(150), F::kStdDev,
               Predicate::ValueRange(40.0, kInf)),
      SelQuery(11, WindowSpec::Tumbling(97), F::kMax,
               Predicate::ValueRange(-kInf, 0.0)),
  };
}

// A sealed slice as bytes: every lane's serialized operator state, its
// event count and last matching timestamp.
struct SliceBytes {
  uint64_t id = 0;
  Timestamp start = 0;
  Timestamp end = 0;
  Timestamp last_event_ts = 0;
  std::vector<std::vector<uint8_t>> lanes;
  std::vector<uint64_t> lane_events;
  std::vector<Timestamp> lane_last_ts;

  friend bool operator==(const SliceBytes&, const SliceBytes&) = default;
};

SliceBytes ToBytes(const SliceRecord& rec) {
  SliceBytes out{rec.id, rec.start, rec.end, rec.last_event_ts, {},
                 rec.lane_events, rec.lane_last_ts};
  for (const PartialAggregate& lane : rec.lanes) {
    ByteWriter w;
    lane.SerializeTo(w);
    out.lanes.push_back(w.bytes());
  }
  return out;
}

// A query added to group `group` at stream position `at`, on a new lane.
struct RuntimeAdd {
  size_t group = 0;
  size_t at = 0;
  Query query;
};

struct SlicerRun {
  std::vector<std::vector<SliceBytes>> slices;  // per group
  std::vector<WindowResult> results;
  uint64_t spills = 0;
};

bool ByWindow(const WindowResult& a, const WindowResult& b) {
  return std::tie(a.query_id, a.window_start, a.window_end) <
         std::tie(b.query_id, b.window_start, b.window_end);
}

// One StreamSlicer per analyzed group, as the engine runs them, fed per
// event (batch 0) or in batches that never straddle `add->at`.
SlicerRun RunSlicers(const std::vector<Query>& queries,
                     const std::vector<Event>& events, size_t batch,
                     const RuntimeAdd* add = nullptr,
                     uint64_t budget_bytes = 0) {
  SlicerRun run;
  auto groups = QueryAnalyzer().Analyze(queries);
  EXPECT_TRUE(groups.ok());
  mem::MemoryOptions mem_options;
  mem_options.budget_bytes = budget_bytes;
  mem_options.min_spill_bytes = 64;
  mem::MemoryGovernor gov(mem_options);
  EngineStats stats;
  std::vector<std::unique_ptr<StreamSlicer>> slicers;
  run.slices.resize(groups.value().size());
  for (size_t g = 0; g < groups.value().size(); ++g) {
    slicers.push_back(
        std::make_unique<StreamSlicer>(groups.value()[g], SlicerOptions{},
                                       &stats));
    slicers[g]->set_window_sink(
        [&run](const WindowResult& r) { run.results.push_back(r); });
    slicers[g]->set_slice_sink([&run, g](const SliceRecord& rec) {
      run.slices[g].push_back(ToBytes(rec));
    });
    if (budget_bytes > 0) slicers[g]->set_memory(&gov);
  }
  const size_t step = batch == 0 ? 1 : batch;
  for (size_t i = 0; i < events.size();) {
    if (add != nullptr && i == add->at) {
      StreamSlicer& s = *slicers[add->group];
      const auto lane = static_cast<uint32_t>(s.group().lanes.size());
      s.ApplyQueryAdd(add->query, lane, {add->query.predicate, false},
                      events[i - 1].ts + 1);
    }
    size_t n = std::min(step, events.size() - i);
    if (add != nullptr && i < add->at) n = std::min(n, add->at - i);
    for (auto& s : slicers) {
      if (batch == 0) {
        s->Ingest(events[i]);
      } else {
        s->IngestBatch(events.data() + i, n);
      }
    }
    i += n;
  }
  for (auto& s : slicers) s->AdvanceTo(events.back().ts + kFlush);
  std::sort(run.results.begin(), run.results.end(), ByWindow);
  run.spills = gov.spills();
  return run;
}

std::vector<WindowResult> RunCeBuffer(const std::vector<Query>& queries,
                                      const std::vector<Event>& events) {
  CeBufferEngine engine;
  EXPECT_TRUE(engine.Configure(queries).ok());
  std::vector<WindowResult> results;
  engine.set_sink([&](const WindowResult& r) { results.push_back(r); });
  for (const Event& e : events) engine.Ingest(e);
  engine.AdvanceTo(events.back().ts + kFlush);
  std::sort(results.begin(), results.end(), ByWindow);
  return results;
}

void ExpectSameSlices(const SlicerRun& want, const SlicerRun& got) {
  ASSERT_EQ(want.slices.size(), got.slices.size());
  for (size_t g = 0; g < want.slices.size(); ++g) {
    ASSERT_EQ(want.slices[g].size(), got.slices[g].size()) << "group " << g;
    for (size_t i = 0; i < want.slices[g].size(); ++i) {
      EXPECT_TRUE(want.slices[g][i] == got.slices[g][i])
          << "group " << g << " slice " << want.slices[g][i].id;
    }
  }
  ASSERT_EQ(want.results.size(), got.results.size());
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(want.results[i].query_id, got.results[i].query_id);
    EXPECT_EQ(want.results[i].window_start, got.results[i].window_start);
    EXPECT_EQ(want.results[i].event_count, got.results[i].event_count);
    EXPECT_EQ(std::memcmp(&want.results[i].value, &got.results[i].value,
                          sizeof(double)),
              0)
        << "query " << want.results[i].query_id << " window "
        << want.results[i].window_start;
  }
}

// The values are integers (or +-inf / NaN), so every sum is exact in any
// order and the oracle must agree value for value; NaN matches NaN.
void ExpectOracleResults(const std::vector<WindowResult>& want,
                         const std::vector<WindowResult>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].query_id, got[i].query_id);
    EXPECT_EQ(want[i].window_start, got[i].window_start);
    EXPECT_EQ(want[i].window_end, got[i].window_end);
    EXPECT_EQ(want[i].event_count, got[i].event_count);
    const bool both_nan = std::isnan(want[i].value) && std::isnan(got[i].value);
    EXPECT_TRUE(both_nan || want[i].value == got[i].value)
        << "query " << want[i].query_id << " window " << want[i].window_start
        << ": " << want[i].value << " vs " << got[i].value;
  }
}

const size_t kSelectionLen = 3000;
const size_t kSelectionBatches[] = {1, 7, 256, kSelectionLen};

TEST(BatchIngestSelector, PlanMatchesPerEventAndOracle) {
  const auto events = MakeSelectionStream(kSelectionLen, 31, true);
  const auto queries = SelectionQueries();
  const SlicerRun per_event = RunSlicers(queries, events, 0);
  ASSERT_EQ(per_event.slices.size(), 3u);  // match-all, key, range groups
  ExpectOracleResults(RunCeBuffer(queries, events), per_event.results);
  for (size_t batch : kSelectionBatches) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ExpectSameSlices(per_event, RunSlicers(queries, events, batch));
  }
}

TEST(BatchIngestSelector, RangeEdgesInfinitiesAndNaN) {
  // Each special value alone, at a timestamp of its own, so the lanes it
  // lands in can be read off the slices directly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Query> queries = {
      SelQuery(1, WindowSpec::Tumbling(10), AggregationFunction::kCount,
               Predicate::ValueRange(10.0, 20.0)),
      SelQuery(2, WindowSpec::Tumbling(10), AggregationFunction::kCount,
               Predicate::ValueRange(20.0, kInf)),
      SelQuery(3, WindowSpec::Tumbling(10), AggregationFunction::kCount,
               Predicate::ValueRange(-kInf, 10.0))};
  const std::vector<std::pair<double, std::vector<uint64_t>>> cases = {
      {10.0, {1, 0, 0}},  {20.0, {0, 1, 0}}, {-0.0, {0, 0, 1}},
      {kInf, {0, 0, 0}},  {-kInf, {0, 0, 1}}, {nan, {1, 1, 1}},
      {19.999, {1, 0, 0}}};
  std::vector<Event> events;
  for (size_t i = 0; i < cases.size(); ++i) {
    events.push_back({static_cast<Timestamp>(10 * i), 0, cases[i].first,
                      kNoMarker});
  }
  for (size_t batch : {size_t{0}, events.size()}) {
    const SlicerRun run = RunSlicers(queries, events, batch);
    ASSERT_EQ(run.slices.size(), 1u);
    std::vector<std::vector<uint64_t>> got;
    for (const SliceBytes& s : run.slices[0]) got.push_back(s.lane_events);
    // Slices are sealed only when a lane matched; walk the cases in order.
    std::vector<std::vector<uint64_t>> want;
    for (const auto& c : cases) {
      if (c.second != std::vector<uint64_t>{0, 0, 0}) want.push_back(c.second);
    }
    EXPECT_EQ(want, got) << "batch=" << batch;
  }
}

TEST(BatchIngestSelector, RuntimeKeyLaneRebuildsPlan) {
  const auto events = MakeSelectionStream(kSelectionLen, 37, true);
  const auto queries = SelectionQueries();
  // Key 5 joins the key group as a new lane mid-stream (1792 = 7 * 256,
  // so every batch size reaches it at a batch boundary).
  const RuntimeAdd add{1, 1792,
                       SelQuery(12, WindowSpec::Tumbling(97),
                                AggregationFunction::kSum,
                                Predicate::KeyEquals(5))};
  const SlicerRun per_event = RunSlicers(queries, events, 0, &add);
  ASSERT_EQ(per_event.slices.size(), 3u);
  for (size_t batch : kSelectionBatches) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ExpectSameSlices(per_event, RunSlicers(queries, events, batch, &add));
  }
  // The oracle sees the added query from the start; from its activation
  // on, both must emit the same windows.
  auto all = queries;
  all.push_back(add.query);
  const Timestamp active_from = events[add.at - 1].ts + 1;
  std::vector<WindowResult> want;
  for (const WindowResult& r : RunCeBuffer(all, events)) {
    if (r.query_id != add.query.id || r.window_start >= active_from) {
      want.push_back(r);
    }
  }
  size_t added = 0;
  for (const WindowResult& r : per_event.results) {
    added += r.query_id == add.query.id ? 1 : 0;
  }
  EXPECT_GT(added, 0u);
  ExpectOracleResults(want, per_event.results);
}

TEST(BatchIngestSelector, GovernedPlanMatchesPerEventAndOracle) {
  // Sort buffers hold NaN and -0.0 in no defined order, and spilling
  // changes the order they are merged in, so this stream has neither.
  const auto events = MakeSelectionStream(kSelectionLen, 41, false);
  auto queries = SelectionQueries();
  queries.push_back(SelQuery(12, WindowSpec::Sliding(600, 150),
                             AggregationFunction::kMedian, Predicate::All()));
  queries.push_back(SelQuery(13, WindowSpec::Tumbling(300),
                             AggregationFunction::kMedian,
                             Predicate::KeyEquals(2)));
  const uint64_t budget = 4 * 1024;
  const SlicerRun per_event = RunSlicers(queries, events, 0, nullptr, budget);
  EXPECT_GT(per_event.spills, 0u);
  ExpectOracleResults(RunCeBuffer(queries, events), per_event.results);
  for (size_t batch : kSelectionBatches) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const SlicerRun got = RunSlicers(queries, events, batch, nullptr, budget);
    EXPECT_GT(got.spills, 0u);
    ExpectSameSlices(per_event, got);
  }
}

}  // namespace
}  // namespace desis
