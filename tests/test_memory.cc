// Bounded-memory engine: governor accounting, spill-file integrity, the
// t-digest sketch lane, and the core acceptance property — a governed
// median/quantile workload at >= 100k keys completes byte-identical to the
// ungoverned run while peak resident bytes stay at or under the budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "mem/memory_governor.h"
#include "mem/spill_file.h"
#include "mem/tdigest.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace desis {
namespace {

namespace fs = std::filesystem;

// Per-test scratch spill directory under the test working directory;
// removed (with any stray run files) when the guard leaves scope.
struct ScratchDir {
  explicit ScratchDir(const char* name)
      : path(std::string("mem_test_") + name) {}
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

size_t CountSpillFiles(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".spill") ++n;
  }
  return n;
}

// ------------------------------------------------------------ SpillFile --

std::vector<double> SortedValues(Rng& rng, size_t n) {
  std::vector<double> v;
  v.reserve(n);
  // Coarse quantization produces plenty of duplicates, exercising the
  // merge's deterministic tie-break.
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<double>(rng.NextBounded(1000)) / 8.0);
  }
  std::sort(v.begin(), v.end());
  return v;
}

TEST(SpillFile, RunRoundTripIsExact) {
  ScratchDir dir("roundtrip");
  auto file_or = mem::SpillFile::Create(dir.path);
  ASSERT_TRUE(file_or.ok());
  auto file = std::move(file_or).value();

  Rng rng(7);
  std::vector<std::vector<double>> runs;
  for (size_t n : {size_t{1}, size_t{100}, size_t{10000}}) {
    runs.push_back(SortedValues(rng, n));
    auto run_or = file->AppendRun(runs.back().data(), runs.back().size());
    ASSERT_TRUE(run_or.ok());
    EXPECT_EQ(run_or.value(), runs.size() - 1);
  }
  EXPECT_EQ(file->num_runs(), 3u);

  for (uint32_t r = 0; r < runs.size(); ++r) {
    std::vector<double> back;
    ASSERT_TRUE(file->ReadRun(r, &back).ok());
    EXPECT_EQ(back, runs[r]);  // element-wise; doubles round-trip exactly
  }
}

TEST(SpillFile, MergeRunsMatchesInMemorySortGolden) {
  ScratchDir dir("merge");
  auto file = std::move(mem::SpillFile::Create(dir.path)).value();

  Rng rng(11);
  std::vector<double> golden;
  std::vector<uint32_t> run_ids;
  for (size_t n : {size_t{5000}, size_t{1}, size_t{9000}, size_t{4096}}) {
    const std::vector<double> run = SortedValues(rng, n);
    golden.insert(golden.end(), run.begin(), run.end());
    run_ids.push_back(file->AppendRun(run.data(), run.size()).value());
  }
  std::vector<double> resident = SortedValues(rng, 777);
  golden.insert(golden.end(), resident.begin(), resident.end());
  std::sort(golden.begin(), golden.end());

  std::vector<double> merged;
  ASSERT_TRUE(file->MergeRuns(run_ids, resident, &merged).ok());
  EXPECT_EQ(merged, golden);

  // Empty-resident merge of a single run degenerates to a read.
  std::vector<double> single;
  ASSERT_TRUE(file->MergeRuns({run_ids[1]}, {}, &single).ok());
  EXPECT_EQ(single.size(), 1u);
}

TEST(SpillFile, TruncatedRunFileReturnsStatusError) {
  ScratchDir dir("truncate");
  auto file = std::move(mem::SpillFile::Create(dir.path)).value();

  Rng rng(3);
  const std::vector<double> run = SortedValues(rng, 256);
  const uint32_t id = file->AppendRun(run.data(), run.size()).value();

  // Chop the file behind the writer's back; reads must surface a Status
  // error (never UB, never a short silent result).
  std::error_code ec;
  fs::resize_file(file->path(), 64, ec);
  ASSERT_FALSE(ec);

  std::vector<double> back;
  const Status read = file->ReadRun(id, &back);
  EXPECT_FALSE(read.ok());
  EXPECT_NE(read.message().find("truncated"), std::string::npos)
      << read.message();
  std::vector<double> merged;
  EXPECT_FALSE(file->MergeRuns({id}, {}, &merged).ok());
}

TEST(SpillFile, CorruptedRunFileFailsChecksum) {
  ScratchDir dir("corrupt");
  auto file = std::move(mem::SpillFile::Create(dir.path)).value();

  Rng rng(5);
  const std::vector<double> run = SortedValues(rng, 512);
  const uint32_t id = file->AppendRun(run.data(), run.size()).value();

  // Flip one byte in the middle of the run.
  {
    std::fstream f(file->path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(1024);
    char c = 0;
    f.read(&c, 1);
    f.seekp(1024);
    c = static_cast<char>(~c);
    f.write(&c, 1);
  }

  std::vector<double> back;
  const Status read = file->ReadRun(id, &back);
  EXPECT_FALSE(read.ok());
  EXPECT_NE(read.message().find("checksum"), std::string::npos)
      << read.message();
}

TEST(SpillFile, ResetRecyclesSpaceAndKeepsFileUsable) {
  ScratchDir dir("reset");
  auto file = std::move(mem::SpillFile::Create(dir.path)).value();

  Rng rng(9);
  const std::vector<double> run = SortedValues(rng, 4096);
  ASSERT_TRUE(file->AppendRun(run.data(), run.size()).ok());
  ASSERT_TRUE(file->Reset().ok());
  EXPECT_EQ(file->num_runs(), 0u);
  EXPECT_EQ(file->bytes_written(), 0u);
  EXPECT_EQ(fs::file_size(file->path()), 0u);

  const std::vector<double> again = SortedValues(rng, 128);
  const uint32_t id = file->AppendRun(again.data(), again.size()).value();
  std::vector<double> back;
  ASSERT_TRUE(file->ReadRun(id, &back).ok());
  EXPECT_EQ(back, again);
}

TEST(SpillFile, UnlinkedOnDestruction) {
  ScratchDir dir("hygiene");
  std::string path;
  {
    auto file = std::move(mem::SpillFile::Create(dir.path)).value();
    path = file->path();
    const std::vector<double> run = {1.0, 2.0, 3.0};
    ASSERT_TRUE(file->AppendRun(run.data(), run.size()).ok());
    EXPECT_TRUE(fs::exists(path));
  }
  EXPECT_FALSE(fs::exists(path));
}

// -------------------------------------------------------------- TDigest --

TEST(TDigest, QuantileRankErrorBoundedAndExtremaExact) {
  mem::TDigest digest;
  Rng rng(17);
  double lo = 2.0, hi = -1.0;
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.NextDouble();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    digest.Add(v);
  }
  digest.Compress();
  ASSERT_TRUE(digest.compressed());
  EXPECT_EQ(digest.count(), 200000u);
  EXPECT_EQ(digest.min(), lo);
  EXPECT_EQ(digest.max(), hi);

  // Uniform [0,1): value == rank, so the documented rank-error bound
  // (~1.6% at the median for compression 200, tighter at the tails)
  // translates directly to value error.
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(digest.Quantile(q), q, 0.02) << "q=" << q;
  }
  // O(compression) state regardless of the 200k values folded.
  EXPECT_LT(digest.bytes(), size_t{32} * 1024);
}

TEST(TDigest, MergeAndSerializeRoundTrip) {
  mem::TDigest a, b;
  Rng rng(23);
  for (int i = 0; i < 50000; ++i) a.Add(rng.NextDouble() * 0.5);
  for (int i = 0; i < 50000; ++i) b.Add(0.5 + rng.NextDouble() * 0.5);
  a.Merge(b);
  a.Compress();
  EXPECT_EQ(a.count(), 100000u);
  EXPECT_NEAR(a.Quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(a.Quantile(0.25), 0.25, 0.02);

  ByteWriter out;
  a.SerializeTo(out);
  ByteReader in(out.bytes());
  const mem::TDigest restored = mem::TDigest::DeserializeFrom(in);
  EXPECT_EQ(restored.count(), a.count());
  EXPECT_EQ(restored.min(), a.min());
  EXPECT_EQ(restored.max(), a.max());
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(restored.Quantile(q), a.Quantile(q));
  }
}

// ------------------------------------------------------ MemoryGovernor --

struct FakeSpillClient : mem::SpillClient {
  mem::MemoryGovernor* gov = nullptr;
  uint64_t shed_per_call = 0;
  int calls = 0;
  uint64_t ShedBytes(uint64_t /*target*/) override {
    ++calls;
    if (shed_per_call == 0) return 0;
    gov->Discharge(shed_per_call);  // sheds re-enter the governor
    return shed_per_call;
  }
};

mem::MemoryOptions SmallBudget(uint64_t budget) {
  mem::MemoryOptions options;
  options.budget_bytes = budget;
  return options;
}

TEST(MemoryGovernor, AccountingTracksResidentAndPeak) {
  mem::MemoryGovernor gov(SmallBudget(1000));
  EXPECT_EQ(gov.soft_limit(), 750u);
  EXPECT_FALSE(gov.OverBudget());
  gov.Charge(600);
  gov.Charge(600);
  EXPECT_EQ(gov.resident(), 1200u);
  EXPECT_TRUE(gov.OverBudget());
  gov.Discharge(700);
  EXPECT_EQ(gov.resident(), 500u);
  EXPECT_EQ(gov.peak_resident(), 1200u);
  EXPECT_FALSE(gov.OverBudget());
  gov.Discharge(9999);  // clamps at zero
  EXPECT_EQ(gov.resident(), 0u);

  gov.NoteSpill(100);
  gov.NoteSpill(50);
  gov.NoteRestore(100);
  EXPECT_EQ(gov.spills(), 2u);
  EXPECT_EQ(gov.spill_bytes(), 150u);
  EXPECT_EQ(gov.restores(), 1u);
}

TEST(MemoryGovernor, RelieveShedsRoundRobinDownToSoftLimit) {
  mem::MemoryGovernor gov(SmallBudget(1000));
  FakeSpillClient c1, c2;
  c1.gov = c2.gov = &gov;
  c1.shed_per_call = c2.shed_per_call = 100;
  gov.Register(&c1);
  gov.Register(&c2);

  gov.Charge(1000);
  gov.Relieve();
  // 1000 -> 900 -> 800 -> 700: three sheds, alternating clients.
  EXPECT_EQ(gov.resident(), 700u);
  EXPECT_EQ(c1.calls + c2.calls, 3);
  EXPECT_EQ(gov.peak_resident(), 1000u);

  // Dry clients: one full pass, then stop rather than spin.
  c1.shed_per_call = c2.shed_per_call = 0;
  const int before = c1.calls + c2.calls;
  gov.Charge(300);
  gov.Relieve();
  EXPECT_EQ(gov.resident(), 1000u);
  EXPECT_EQ(c1.calls + c2.calls, before + 2);

  // Below the mark: no client is bothered.
  gov.Discharge(400);
  const int at_mark = c1.calls + c2.calls;
  gov.Relieve();
  EXPECT_EQ(c1.calls + c2.calls, at_mark);

  gov.Unregister(&c1);
  gov.Unregister(&c2);
}

TEST(MemoryGovernor, ZeroBudgetNeverRelieves) {
  mem::MemoryGovernor gov(mem::MemoryOptions{});
  FakeSpillClient c;
  c.gov = &gov;
  c.shed_per_call = 1;
  gov.Register(&c);
  gov.Charge(1 << 30);
  gov.Relieve();
  EXPECT_EQ(c.calls, 0);
  EXPECT_FALSE(gov.OverBudget());
  gov.Unregister(&c);
}

// --------------------------------------------- governed engine workload --

// Median/quantile workload over two disjoint value lanes; 120k distinct
// keys (the acceptance floor is 100k). ts advances one tick per 4 events,
// so slices cut every 2000 ticks hold ~8k buffered values across lanes.
constexpr size_t kEvents = 256 * 1024;
constexpr uint32_t kKeys = 120000;

Event MakeWorkloadEvent(size_t i) {
  Event e;
  e.ts = static_cast<Timestamp>(i / 4);
  e.key = static_cast<uint32_t>(i % kKeys);
  e.value = static_cast<double>((i * 7919) % 10000) / 100.0;  // [0, 100)
  return e;
}

std::vector<Query> HolisticQueries() {
  std::vector<Query> queries(4);
  queries[0].id = 1;
  queries[0].window = WindowSpec::Tumbling(2000);
  queries[0].agg = {AggregationFunction::kQuantile, 0.9};
  queries[0].predicate = Predicate::ValueRange(0.0, 50.0);
  queries[1].id = 2;
  queries[1].window = WindowSpec::Tumbling(32000);
  queries[1].agg = {AggregationFunction::kMedian, 0.5};
  queries[1].predicate = Predicate::ValueRange(0.0, 50.0);
  queries[2].id = 3;
  queries[2].window = WindowSpec::Tumbling(2000);
  queries[2].agg = {AggregationFunction::kQuantile, 0.25};
  queries[2].predicate = Predicate::ValueRange(50.0, 100.0);
  queries[3].id = 4;
  queries[3].window = WindowSpec::Tumbling(32000);
  queries[3].agg = {AggregationFunction::kMedian, 0.5};
  queries[3].predicate = Predicate::ValueRange(50.0, 100.0);
  return queries;
}

std::vector<WindowResult> RunWorkload(SlicingEngine& engine,
                                      size_t num_events = kEvents) {
  std::vector<WindowResult> results;
  engine.set_sink([&](const WindowResult& r) { results.push_back(r); });
  std::vector<Event> batch;
  batch.reserve(1024);
  for (size_t i = 0; i < num_events; ++i) {
    batch.push_back(MakeWorkloadEvent(i));
    if (batch.size() == 1024) {
      engine.IngestBatch(batch.data(), batch.size());
      if ((i + 1) % (32 * 1024) == 0) engine.AdvanceTo(batch.back().ts);
      batch.clear();
    }
  }
  if (!batch.empty()) engine.IngestBatch(batch.data(), batch.size());
  engine.Finish();
  return results;
}

void ExpectIdenticalResults(const std::vector<WindowResult>& golden,
                            const std::vector<WindowResult>& governed) {
  ASSERT_EQ(golden.size(), governed.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden[i].query_id, governed[i].query_id) << "result " << i;
    EXPECT_EQ(golden[i].window_start, governed[i].window_start) << i;
    EXPECT_EQ(golden[i].window_end, governed[i].window_end) << i;
    EXPECT_EQ(golden[i].event_count, governed[i].event_count) << i;
    // Byte-identical, not merely approximately equal: spilled runs
    // round-trip raw doubles and the k-way merge is deterministic.
    EXPECT_EQ(std::memcmp(&golden[i].value, &governed[i].value,
                          sizeof(double)),
              0)
        << "result " << i << ": " << golden[i].value << " vs "
        << governed[i].value;
  }
}

TEST(MemoryEngine, CappedRunIsByteIdenticalWithPeakUnderBudget) {
  ScratchDir dir("equiv");
  const std::vector<Query> queries = HolisticQueries();

  DesisEngine uncapped;
  ASSERT_TRUE(uncapped.Configure(queries).ok());
  EXPECT_EQ(uncapped.memory_governor(), nullptr);  // seed default: off
  const std::vector<WindowResult> golden = RunWorkload(uncapped);
  ASSERT_FALSE(golden.empty());

  mem::MemoryOptions options;
  options.budget_bytes = 512 * 1024;
  options.min_spill_bytes = 4096;
  options.spill_dir = dir.path;
  DesisEngine capped;
  capped.EnableMemoryBudget(options);
  ASSERT_TRUE(capped.Configure(queries).ok());
  const std::vector<WindowResult> governed = RunWorkload(capped);

  ExpectIdenticalResults(golden, governed);

  const mem::MemoryGovernor* gov = capped.memory_governor();
  ASSERT_NE(gov, nullptr);
  EXPECT_GT(gov->spills(), 0u) << "workload never exceeded the budget";
  EXPECT_GT(gov->restores(), 0u) << "no window assembled from cold runs";
  EXPECT_LE(gov->peak_resident(), options.budget_bytes);
}

TEST(MemoryEngine, SpillFilesRemovedOnEngineDestruction) {
  ScratchDir dir("engine_hygiene");
  mem::MemoryOptions options;
  options.budget_bytes = 256 * 1024;
  options.min_spill_bytes = 4096;
  options.spill_dir = dir.path;
  {
    DesisEngine capped;
    capped.EnableMemoryBudget(options);
    ASSERT_TRUE(capped.Configure(HolisticQueries()).ok());
    RunWorkload(capped, 128 * 1024);
    ASSERT_GT(capped.memory_governor()->spills(), 0u);
    EXPECT_GT(CountSpillFiles(dir.path), 0u);
  }
  EXPECT_EQ(CountSpillFiles(dir.path), 0u);
}

TEST(MemoryEngine, SketchLaneApproximatesQuantilesWithTinyState) {
  ScratchDir dir("sketch");
  std::vector<Query> exact(1);
  exact[0].id = 1;
  exact[0].window = WindowSpec::Tumbling(4000);
  exact[0].agg = {AggregationFunction::kMedian, 0.5};
  exact[0].predicate = Predicate::All();
  std::vector<Query> approx = exact;
  approx[0].agg.approx_quantile = true;

  DesisEngine exact_engine;
  ASSERT_TRUE(exact_engine.Configure(exact).ok());
  const std::vector<WindowResult> truth =
      RunWorkload(exact_engine, 128 * 1024);
  ASSERT_FALSE(truth.empty());

  // The sketch lane needs no spilling under a budget the exact sort
  // buffers (16k values per slice) would blow through.
  mem::MemoryOptions options;
  options.budget_bytes = 128 * 1024;
  options.min_spill_bytes = 4096;
  options.spill_dir = dir.path;
  DesisEngine sketch_engine;
  sketch_engine.EnableMemoryBudget(options);
  ASSERT_TRUE(sketch_engine.Configure(approx).ok());
  const std::vector<WindowResult> sketched =
      RunWorkload(sketch_engine, 128 * 1024);

  ASSERT_EQ(truth.size(), sketched.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(truth[i].window_start, sketched[i].window_start);
    EXPECT_EQ(truth[i].window_end, sketched[i].window_end);
    EXPECT_EQ(truth[i].event_count, sketched[i].event_count);
    // Values are near-uniform on [0,100): the documented <1.6% rank error
    // at the median maps to <~1.6 in value; 3.0 leaves slack for the
    // sliced merge of several digests.
    EXPECT_NEAR(truth[i].value, sketched[i].value, 3.0) << "window " << i;
  }
  const mem::MemoryGovernor* gov = sketch_engine.memory_governor();
  ASSERT_NE(gov, nullptr);
  EXPECT_EQ(gov->spills(), 0u) << "sketch lanes should never need to spill";
  EXPECT_LE(gov->peak_resident(), options.budget_bytes);
}

TEST(MemoryEngine, GovernedRunExportsMetricsAndSpans) {
  ScratchDir dir("obs");
  mem::MemoryOptions options;
  options.budget_bytes = 256 * 1024;
  options.min_spill_bytes = 4096;
  options.spill_dir = dir.path;

  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(1 << 16);
  DesisEngine capped;
  capped.EnableMemoryBudget(options);
  ASSERT_TRUE(capped.Configure(HolisticQueries()).ok());
  capped.set_metrics_registry(&registry);
  capped.set_tracer(&tracer);
  RunWorkload(capped, 128 * 1024);
  ASSERT_GT(capped.memory_governor()->spills(), 0u);

  const std::string json = registry.ToJson();
  for (const char* series :
       {"engine.bytes_resident", "engine.spills", "engine.spill_bytes",
        "engine.spill_restores"}) {
    EXPECT_NE(json.find(series), std::string::npos) << series;
  }

  bool saw_spill = false, saw_restore = false;
  for (const obs::SliceSpan& span : tracer.Snapshot()) {
    saw_spill = saw_spill || span.phase == obs::SlicePhase::kSpill;
    saw_restore = saw_restore || span.phase == obs::SlicePhase::kRestore;
  }
  EXPECT_TRUE(saw_spill);
  EXPECT_TRUE(saw_restore);
}

// -------------------------------------------------------------- cluster --

std::vector<WindowResult> RunCluster(Cluster& cluster, size_t num_events) {
  std::vector<WindowResult> results;
  cluster.set_sink([&](const WindowResult& r) { results.push_back(r); });
  std::vector<Event> batch;
  for (size_t i = 0; i < num_events; ++i) {
    batch.push_back(MakeWorkloadEvent(i));
    if (batch.size() == 512) {
      cluster.IngestAt(static_cast<int>(i / 512) % 2, batch.data(),
                       batch.size());
      cluster.Advance(batch.back().ts);
      batch.clear();
    }
  }
  if (!batch.empty()) cluster.IngestAt(0, batch.data(), batch.size());
  cluster.Advance(MakeWorkloadEvent(num_events - 1).ts + 64000);
  cluster.Drain();
  return results;
}

TEST(MemoryCluster, BaselinesRejectMemoryBudget) {
  ClusterOptions options;
  options.memory.budget_bytes = 1 << 20;
  for (const ClusterSystem system :
       {ClusterSystem::kScotty, ClusterSystem::kCeBuffer,
        ClusterSystem::kDisco}) {
    Cluster cluster(system, {2, 1}, options);
    const Status status = cluster.Configure(HolisticQueries());
    EXPECT_FALSE(status.ok()) << ToString(system);
  }
}

TEST(MemoryCluster, GovernedDesisClusterMatchesUngoverned) {
  ScratchDir dir("cluster");
  const std::vector<Query> queries = HolisticQueries();
  constexpr size_t kClusterEvents = 64 * 1024;

  Cluster plain(ClusterSystem::kDesis, {2, 1});
  ASSERT_TRUE(plain.Configure(queries).ok());
  const std::vector<WindowResult> golden = RunCluster(plain, kClusterEvents);
  ASSERT_FALSE(golden.empty());

  ClusterOptions options;
  options.memory.budget_bytes = 48 * 1024;  // per local node
  options.memory.min_spill_bytes = 4096;
  options.memory.spill_dir = dir.path;
  Cluster governed(ClusterSystem::kDesis, {2, 1}, options);
  obs::MetricsRegistry registry;
  obs::SliceTracer tracer(1 << 16);
  governed.AttachObs(&registry, &tracer);
  ASSERT_TRUE(governed.Configure(queries).ok());
  const std::vector<WindowResult> results =
      RunCluster(governed, kClusterEvents);
  ExpectIdenticalResults(golden, results);
  EXPECT_NE(registry.ToJson().find("engine.bytes_resident"),
            std::string::npos);
}

}  // namespace
}  // namespace desis
