// Refactor guard for window assembly. The single-node slicer and the
// cluster root close windows through one assembly path; this sweep runs a
// mixed query set (a factored sliding/tumbling pair, sessions, user-defined
// and count windows, sum and median/quantile, a runtime add and a removal)
// through both, with and without the factor-window optimizer and a memory
// budget that forces spills. Every window must match the CeBuffer oracle
// bit for bit, and the assembly work counters (merges, windows fired) are
// pinned so a change to how windows are assembled cannot go unnoticed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/ce_buffer.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/query_analyzer.h"
#include "net/desis_nodes.h"
#include "obs/metrics.h"
#include "opt/factor_planner.h"
#include "opt/group_index.h"

namespace desis {
namespace {

namespace fs = std::filesystem;

Query MakeQuery(QueryId id, WindowSpec window, AggregationFunction fn,
                Predicate pred = Predicate::All(), double quantile = 0.5) {
  Query q;
  q.id = id;
  q.window = window;
  q.agg = {fn, quantile};
  q.predicate = pred;
  return q;
}

/// Configured at the start. Selections that overlap cannot share a group,
/// so the match-all queries form one group and the key queries another.
/// The key group starts without a sort lane, which lets the optimizer
/// factor its Sliding(400, 200) windows out of Tumbling(100) composites,
/// until a median joins key 1 at runtime and widens that lane (and the
/// composites built from then on) to a sort lane.
std::vector<Query> StartQueries() {
  return {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum),
      MakeQuery(2, WindowSpec::Sliding(400, 200), AggregationFunction::kSum),
      MakeQuery(3, WindowSpec::Sliding(400, 200),
                AggregationFunction::kMedian),
      MakeQuery(4, WindowSpec::Tumbling(200), AggregationFunction::kQuantile,
                Predicate::All(), 0.9),
      MakeQuery(5, WindowSpec::Tumbling(100), AggregationFunction::kSum,
                Predicate::KeyEquals(1)),
      MakeQuery(6, WindowSpec::Sliding(400, 200), AggregationFunction::kSum,
                Predicate::KeyEquals(1)),
      MakeQuery(13, WindowSpec::Tumbling(50), AggregationFunction::kMax,
                Predicate::KeyEquals(1)),
      MakeQuery(7, WindowSpec::Session(40), AggregationFunction::kQuantile,
                Predicate::All(), 0.25),
      MakeQuery(8, WindowSpec::Session(40), AggregationFunction::kSum,
                Predicate::KeyEquals(1)),
      MakeQuery(9, WindowSpec::UserDefined(), AggregationFunction::kMax),
      MakeQuery(10, WindowSpec::UserDefined(), AggregationFunction::kMedian),
      MakeQuery(11, WindowSpec::CountTumbling(25), AggregationFunction::kSum),
      MakeQuery(12, WindowSpec::CountSliding(40, 20),
                AggregationFunction::kMax),
  };
}

/// Added once a third of the stream has been ingested.
const Query kAdded = MakeQuery(20, WindowSpec::Sliding(400, 200),
                               AggregationFunction::kMedian,
                               Predicate::KeyEquals(1));
constexpr QueryId kRemoved = 4;  // removed after two thirds of the stream

constexpr int kLocals = 2;
constexpr Timestamp kEnd = 6000;
constexpr Timestamp kStep = 50;
constexpr Timestamp kAddAt = kEnd / 3;
constexpr Timestamp kRemoveAt = 2 * kEnd / 3;

/// Per-local streams of small integers (so sums, medians and interpolated
/// quantiles are exact whatever the merge order). Local i only uses
/// timestamps of parity i, so the count windows see one global order; idle
/// gaps close sessions, and every local carries the same end markers
/// (user-defined windows are stream-global) followed by the same event one
/// microsecond later, so each local opens the next user-defined window at
/// the same time.
std::vector<std::vector<Event>> Streams() {
  std::vector<std::vector<Event>> streams(kLocals);
  Rng rng(17);
  for (int i = 0; i < kLocals; ++i) {
    Timestamp ts = i;
    while (ts < kEnd) {
      streams[i].push_back({ts, static_cast<uint32_t>(rng.NextBounded(3)),
                            static_cast<double>(rng.NextBounded(40)) - 10.0,
                            kNoMarker});
      ts += rng.NextBool(0.01) ? 2 * rng.NextInRange(30, 60) : 2;
    }
  }
  for (Timestamp marker = 350; marker < kEnd; marker += 350 + marker % 3) {
    for (auto& stream : streams) {
      stream.push_back({marker, 0, static_cast<double>(marker % 17),
                        kWindowEnd});
      stream.push_back({marker + 1, 0, 3.0, kNoMarker});
    }
  }
  for (auto& stream : streams) {
    std::stable_sort(
        stream.begin(), stream.end(),
        [](const Event& a, const Event& b) { return a.ts < b.ts; });
  }
  return streams;
}

/// One stream for the single-node engines: the locals' streams in ts order,
/// each broadcast marker kept once (on the last event at its timestamp, so
/// every event at the marker's time falls inside the window it closes).
std::vector<Event> Merged(const std::vector<std::vector<Event>>& streams) {
  std::vector<Event> merged;
  for (const auto& stream : streams) {
    merged.insert(merged.end(), stream.begin(), stream.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    if (merged[i + 1].ts == merged[i].ts &&
        (merged[i + 1].marker & kWindowEnd) != 0) {
      merged[i].marker &= ~kWindowEnd;
    }
  }
  return merged;
}

using WindowKey = std::tuple<QueryId, Timestamp, Timestamp>;
using Windows = std::map<WindowKey, WindowResult>;

WindowSink Into(Windows* windows) {
  return [windows](const WindowResult& r) {
    (*windows)[{r.query_id, r.window_start, r.window_end}] = r;
  };
}

/// Every query, the runtime one included, configured up front.
Windows RunOracle() {
  std::vector<Query> queries = StartQueries();
  queries.push_back(kAdded);
  CeBufferEngine engine;
  EXPECT_TRUE(engine.Configure(queries).ok());
  Windows windows;
  engine.set_sink(Into(&windows));
  for (const Event& e : Merged(Streams())) engine.Ingest(e);
  engine.Finish();
  engine.AdvanceTo(kEnd * 4);
  return windows;
}

enum class Assembly { kSlicer, kRoot };

struct Case {
  Assembly assembly;
  bool optimize;
  bool budget;
  // Assembly work on this exact input: partial merges, windows the
  // assembler fired, and windows emitted.
  uint64_t merges;
  uint64_t windows_fired;
  size_t windows;
};

std::string CaseName(const Case& c) {
  return std::string(c.assembly == Assembly::kSlicer ? "Slicer" : "Root") +
         (c.optimize ? "_Optimized" : "_Static") +
         (c.budget ? "_Budget" : "_Unbounded");
}
void PrintTo(const Case& c, std::ostream* os) { *os << CaseName(c); }

struct Outcome {
  Windows windows;
  uint64_t merges = 0;
  uint64_t windows_fired = 0;
  uint64_t spills = 0;
  uint64_t restores = 0;
};

std::vector<QueryGroup> Analyze(DeploymentMode mode, bool optimize) {
  QueryAnalyzer analyzer(mode, SharingPolicy::kCrossFunction);
  std::vector<QueryGroup> groups = analyzer.Analyze(StartQueries()).value();
  if (optimize) {
    opt::PlanGroups(groups);
    uint32_t rewrites = 0;
    for (const QueryGroup& g : groups) rewrites += g.plan.rewrites;
    EXPECT_GT(rewrites, 0u) << "no factor window planned";
  }
  return groups;
}

/// Lock-stepped rounds of kStep: ingest each local's events below the round
/// end, advance, and apply the runtime add and the removal on time.
template <class Ingest, class Advance, class Add, class Remove>
void Drive(const std::vector<std::vector<Event>>& streams, Ingest&& ingest,
           Advance&& advance, Add&& add, Remove&& remove) {
  std::vector<size_t> cursor(streams.size(), 0);
  for (Timestamp t = 0; t < kEnd; t += kStep) {
    if (t == kAddAt) add(kAdded);
    if (t == kRemoveAt) remove(kRemoved);
    for (size_t i = 0; i < streams.size(); ++i) {
      const size_t begin = cursor[i];
      while (cursor[i] < streams[i].size() &&
             streams[i][cursor[i]].ts < t + kStep) {
        ++cursor[i];
      }
      if (cursor[i] > begin) {
        ingest(i, streams[i].data() + begin, cursor[i] - begin);
      }
    }
    advance(t + kStep);
  }
  advance(kEnd * 4);
}

/// A single-node engine: the slicer assembles every window.
Outcome RunSlicer(bool optimize, const mem::MemoryOptions& memory) {
  DesisEngine engine;
  if (memory.budget_bytes > 0) engine.EnableMemoryBudget(memory);
  EXPECT_TRUE(
      engine.ConfigureGroups(Analyze(DeploymentMode::kCentralized, optimize))
          .ok());
  Outcome out;
  engine.set_sink(Into(&out.windows));
  const std::vector<std::vector<Event>> merged = {Merged(Streams())};
  Drive(
      merged,
      [&](size_t, const Event* events, size_t n) {
        engine.IngestBatch(events, n);
      },
      [&](Timestamp wm) { engine.AdvanceTo(wm); },
      [&](const Query& q) { EXPECT_TRUE(engine.AddQuery(q).ok()); },
      [&](QueryId id) { EXPECT_TRUE(engine.RemoveQuery(id).ok()); });
  out.merges = engine.stats().merges;
  out.windows_fired = engine.stats().windows_fired;
  if (const mem::MemoryGovernor* gov = engine.memory_governor()) {
    out.spills = gov->spills();
    out.restores = gov->restores();
  }
  return out;
}

/// Two Desis locals under one Desis root, delivering inline: the locals
/// ship slice partials and the root assembles the windows (count windows
/// run on a root slicer over forwarded events). Runtime queries follow the
/// cluster's protocol: locals first, then the root, activation-gated past
/// every event the locals have seen.
Outcome RunRoot(bool optimize, const mem::MemoryOptions& memory) {
  std::vector<QueryGroup> groups =
      Analyze(DeploymentMode::kDecentralized, optimize);
  opt::GroupIndex index;
  index.Seed(groups);
  obs::MetricsRegistry registry;
  DesisRootNode root(0, groups);
  std::vector<std::unique_ptr<DesisLocalNode>> locals;
  for (uint32_t i = 0; i < kLocals; ++i) {
    locals.push_back(
        std::make_unique<DesisLocalNode>(i + 1, groups, 512, memory));
    root.AttachChild(locals.back().get());
  }
  root.AttachObs(&registry, nullptr);
  for (auto& local : locals) local->AttachObs(&registry, nullptr);
  Outcome out;
  root.set_sink(Into(&out.windows));

  Drive(
      Streams(),
      [&](size_t i, const Event* events, size_t n) {
        locals[i]->IngestBatch(events, n);
      },
      [&](Timestamp wm) {
        for (auto& local : locals) local->Advance(wm);
      },
      [&](const Query& q) {
        const opt::QueryPlacement placement = index.AddQuery(q);
        ASSERT_FALSE(placement.new_group) << "query " << q.id;
        const SelectionLane lane_def =
            index.Find(placement.gid)->lanes[placement.lane];
        Timestamp seen = kNoTimestamp;
        for (auto& local : locals) {
          ASSERT_TRUE(local->AddQueryToGroup(placement.gid, q, placement.lane,
                                             lane_def, kNoTimestamp));
          seen = std::max(seen, local->last_event_ts());
        }
        ASSERT_TRUE(root.AddQueryToGroup(
            placement.gid, q, placement.lane, lane_def,
            seen == kNoTimestamp ? kNoTimestamp : seen + 1));
      },
      [&](QueryId id) {
        const auto removal = index.RemoveQuery(id);
        ASSERT_TRUE(removal.ok());
        ASSERT_FALSE(removal.value().group_empty);
        EXPECT_TRUE(root.SuppressQueryInGroup(removal.value().gid, id).ok());
      });
  out.merges = root.engine_stats().merges;
  out.windows_fired = root.engine_stats().windows_fired;
  for (auto& local : locals) {
    if (const mem::MemoryGovernor* gov = local->memory_governor()) {
      out.spills += gov->spills();
      out.restores += gov->restores();
    }
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class WindowAssemblyGuard : public ::testing::TestWithParam<Case> {};

TEST_P(WindowAssemblyGuard, MatchesCeBufferWithPinnedAssemblyWork) {
  const Case& c = GetParam();
  // One spill directory per case: ctest runs the cases in parallel.
  const std::string dir =
      (fs::path(::testing::TempDir()) / ("window_assembly_" + CaseName(c)))
          .string();
  mem::MemoryOptions memory;
  if (c.budget) {
    memory.budget_bytes = 128;
    memory.min_spill_bytes = 64;
    memory.spill_dir = dir;
  }
  const Outcome got = c.assembly == Assembly::kSlicer
                          ? RunSlicer(c.optimize, memory)
                          : RunRoot(c.optimize, memory);
  std::error_code ec;
  fs::remove_all(dir, ec);

  const Windows want = RunOracle();
  std::map<QueryId, size_t> per_query;
  for (const auto& [key, w] : got.windows) {
    const QueryId id = std::get<0>(key);
    ++per_query[id];
    // The single-node engine runs a runtime query as a new group from the
    // next event on, so its first window covers only part of its span.
    if (id == kAdded.id && std::get<1>(key) < kAddAt) continue;
    const auto it = want.find(key);
    ASSERT_NE(it, want.end()) << "query " << id << " window ["
                              << std::get<1>(key) << ", " << std::get<2>(key)
                              << ") is not an oracle window";
    EXPECT_TRUE(SameBits(w.value, it->second.value))
        << "query " << id << " window @" << std::get<1>(key) << ": "
        << w.value << " vs " << it->second.value;
    EXPECT_EQ(w.event_count, it->second.event_count)
        << "query " << id << " window @" << std::get<1>(key);
  }
  // Queries present throughout emit exactly the oracle's windows, the
  // removed one a prefix of them, and the added one every window that
  // starts after it joined.
  for (const auto& [key, w] : want) {
    const QueryId id = std::get<0>(key);
    if (id == kRemoved || (id == kAdded.id && std::get<1>(key) < kAddAt)) {
      continue;
    }
    EXPECT_TRUE(got.windows.contains(key))
        << "query " << id << " missed window @" << std::get<1>(key);
  }
  EXPECT_GT(per_query[kAdded.id], 0u);
  EXPECT_GT(per_query[kRemoved], 0u);

  if (c.budget) {
    EXPECT_GT(got.spills, 0u) << "the budget never forced a spill";
    if (c.assembly == Assembly::kSlicer) {
      EXPECT_GT(got.restores, 0u) << "no window merged a spilled slice";
    }
  }
  EXPECT_EQ(got.merges, c.merges);
  EXPECT_EQ(got.windows_fired, c.windows_fired);
  EXPECT_EQ(got.windows.size(), c.windows);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowAssemblyGuard,
    ::testing::Values(
        Case{Assembly::kSlicer, false, false, 4012, 785, 785},
        Case{Assembly::kSlicer, false, true, 4012, 785, 785},
        Case{Assembly::kSlicer, true, false, 3958, 785, 785},
        Case{Assembly::kSlicer, true, true, 3958, 785, 785},
        // The root fires no count window (a root slicer runs those), and
        // its merges include folding the two locals' partials together.
        Case{Assembly::kRoot, false, false, 2548, 422, 784},
        Case{Assembly::kRoot, false, true, 2548, 422, 784},
        Case{Assembly::kRoot, true, false, 2428, 422, 784},
        Case{Assembly::kRoot, true, true, 2428, 422, 784}),
    [](const auto& info) { return CaseName(info.param); });

}  // namespace
}  // namespace desis
