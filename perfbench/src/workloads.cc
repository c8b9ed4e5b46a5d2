#include "workloads.h"

#include <algorithm>

#include "bench.h"
#include "common/rng.h"
#include "gen/data_generator.h"
#include "gen/query_generator.h"

namespace perfbench {
namespace {

using desis::AggregationFunction;
using desis::kMillisecond;
using desis::kSecond;
using desis::Predicate;
using desis::WindowSpec;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return desis::Rng(seed * 0x9E3779B97F4A7C15ull + salt).NextU64();
}

Query MakeQuery(desis::QueryId id, WindowSpec window, AggregationFunction fn,
                Predicate predicate = Predicate::All(), double quantile = 0.5) {
  Query q;
  q.id = id;
  q.window = window;
  q.agg = {fn, quantile};
  q.predicate = predicate;
  return q;
}

Chunk MakeChunk(const Workload& w, uint64_t seed) {
  desis::DataGeneratorConfig cfg;
  cfg.num_keys = w.num_keys;
  cfg.mean_interval = w.mean_interval;
  cfg.seed = seed;
  desis::DataGenerator gen(cfg);
  Chunk chunk;
  for (Event e = gen.Next(); e.ts < w.period; e = gen.Next()) {
    chunk.events.push_back(e);
  }
  for (int64_t r = 0; r <= w.rounds_per_period(); ++r) {
    const Timestamp bound = r * w.round;
    chunk.round_begin.push_back(static_cast<size_t>(
        std::lower_bound(chunk.events.begin(), chunk.events.end(), bound,
                         [](const Event& e, Timestamp t) { return e.ts < t; }) -
        chunk.events.begin()));
  }
  return chunk;
}

// Local-fold/selection bound: 1024 keys; 8 match-all sum/avg/min/max
// queries, 4 variance/stddev queries, 8 `WHERE key = k` lanes and 2 value
// range lanes, all tumbling or sliding at 1-10 s. The keys of the keyed
// lanes are drawn from the seed.
Workload KeyedLanes(uint64_t seed) {
  Workload w;
  w.name = "keyed_lanes";
  w.num_keys = 1024;
  w.mean_interval = 20;
  w.period = 10 * kSecond;
  w.round = 200 * kMillisecond;
  w.paced_events_per_s = 20e6;
  using F = AggregationFunction;
  const auto T = [](Timestamp len) { return WindowSpec::Tumbling(len); };
  const auto S = [](Timestamp len, Timestamp slide) {
    return WindowSpec::Sliding(len, slide);
  };
  auto& q = w.queries;
  q.push_back(MakeQuery(1, T(1 * kSecond), F::kSum));
  q.push_back(MakeQuery(2, T(2 * kSecond), F::kAverage));
  q.push_back(MakeQuery(3, T(5 * kSecond), F::kMin));
  q.push_back(MakeQuery(4, T(10 * kSecond), F::kMax));
  q.push_back(MakeQuery(5, S(10 * kSecond, 2 * kSecond), F::kSum));
  q.push_back(MakeQuery(6, S(5 * kSecond, 1 * kSecond), F::kAverage));
  q.push_back(MakeQuery(7, S(2 * kSecond, 1 * kSecond), F::kMin));
  q.push_back(MakeQuery(8, S(10 * kSecond, 5 * kSecond), F::kMax));
  q.push_back(MakeQuery(9, T(1 * kSecond), F::kVariance));
  q.push_back(MakeQuery(10, T(5 * kSecond), F::kStdDev));
  q.push_back(MakeQuery(11, S(10 * kSecond, 5 * kSecond), F::kVariance));
  q.push_back(MakeQuery(12, S(2 * kSecond, 1 * kSecond), F::kStdDev));
  desis::Rng rng(Mix(seed, 11));
  std::vector<uint32_t> keys;
  while (keys.size() < 8) {
    const auto k = static_cast<uint32_t>(rng.NextBounded(w.num_keys));
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
  }
  const F keyed_fns[4] = {F::kSum, F::kAverage, F::kMax, F::kCount};
  for (size_t i = 0; i < keys.size(); ++i) {
    const Timestamp len = (i % 2 == 0 ? 1 : 2) * kSecond;
    q.push_back(MakeQuery(13 + i, T(len), keyed_fns[i % 4],
                          Predicate::KeyEquals(keys[i])));
  }
  q.push_back(MakeQuery(21, T(1 * kSecond), F::kCount,
                        Predicate::ValueRange(0.0, 25.0)));
  q.push_back(MakeQuery(22, S(2 * kSecond, 1 * kSecond), F::kSum,
                        Predicate::ValueRange(100.0, 200.0)));
  return w;
}

// Slice-shipping bound: 1000 match-all decomposable queries from
// QueryGenerator (fixed query seed), tumbling and sliding (slide = length /
// 5) at random 1-10 s lengths, so nearly every slice edge belongs to one
// window and the slices are fine. The lengths do not divide the replay
// period; the oracle checks these windows in closed form.
Workload FineSlices() {
  Workload w;
  w.name = "fine_slices";
  w.num_keys = 10;
  w.mean_interval = 10;
  w.period = 500 * kMillisecond;
  w.round = 20 * kMillisecond;
  w.paced_events_per_s = 1.0e6;
  desis::QueryGeneratorConfig cfg;
  cfg.min_length = 1 * kSecond;
  cfg.max_length = 10 * kSecond;
  cfg.window_types = {desis::WindowType::kTumbling,
                      desis::WindowType::kSliding};
  cfg.functions = {AggregationFunction::kSum, AggregationFunction::kCount,
                   AggregationFunction::kAverage, AggregationFunction::kMin,
                   AggregationFunction::kMax};
  cfg.slide_divisor = 5;
  cfg.seed = 21;
  w.queries = desis::QueryGenerator(cfg).Take(1000);
  return w;
}

// Holistic: median/quantile queries, whose slices carry every value, so raw
// values cross every link, the intermediate concatenates rather than
// folds, and the root sorts. One decomposable sum rides along. Every query
// fires once per 100 ms round, so every round does the same work and the
// paced latencies have one mode.
Workload RawHolistic(uint64_t /*seed*/) {
  Workload w;
  w.name = "raw_holistic";
  w.num_keys = 10;
  w.mean_interval = 40;
  w.period = 1 * kSecond;
  w.round = 100 * kMillisecond;
  w.paced_events_per_s = 1.2e6;
  using F = AggregationFunction;
  const Timestamp step = 100 * kMillisecond;
  auto& q = w.queries;
  q.push_back(MakeQuery(1, WindowSpec::Sliding(1 * kSecond, step), F::kMedian));
  q.push_back(MakeQuery(2, WindowSpec::Sliding(1 * kSecond, step), F::kQuantile,
                        Predicate::All(), 0.9));
  q.push_back(MakeQuery(3, WindowSpec::Sliding(500 * kMillisecond, step),
                        F::kQuantile, Predicate::All(), 0.99));
  q.push_back(MakeQuery(4, WindowSpec::Tumbling(step), F::kMedian));
  q.push_back(MakeQuery(5, WindowSpec::Tumbling(step), F::kSum));
  return w;
}

}  // namespace

Replay::Replay(const Workload& w, int local)
    : w_(w),
      chunk_(w.chunks[static_cast<size_t>(local)]),
      events_(chunk_.events) {}

void Replay::Shift(int64_t cycle) {
  if (cycle == cycle_) return;
  const Timestamp shift = (cycle - cycle_) * w_.period;
  for (Event& e : events_) e.ts += shift;
  cycle_ = cycle;
}

Replay::Batch Replay::Round(int64_t r) {
  const int64_t rpp = w_.rounds_per_period();
  Shift(r / rpp);
  const size_t begin = chunk_.round_begin[static_cast<size_t>(r % rpp)];
  const size_t end = chunk_.round_begin[static_cast<size_t>(r % rpp) + 1];
  return {events_.data() + begin, end - begin};
}

std::vector<Replay> MakeInputs(const Workload& w) {
  std::vector<Replay> inputs;
  for (int i = 0; i < kNumLocals; ++i) inputs.emplace_back(w, i);
  return inputs;
}

uint64_t Workload::EventsInRounds(int64_t rounds) const {
  const int64_t rpp = rounds_per_period();
  uint64_t total = 0;
  for (const Chunk& c : chunks) {
    total += static_cast<uint64_t>(rounds / rpp) * c.events.size() +
             c.round_begin[static_cast<size_t>(rounds % rpp)];
  }
  return total;
}

Timestamp Workload::MaxLength() const {
  Timestamp most = 0;
  for (const Query& q : queries) most = std::max(most, q.window.length);
  return most;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"keyed_lanes", "fine_slices",
                                                 "raw_holistic"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "keyed_lanes") {
    w = KeyedLanes(seed);
  } else if (name == "fine_slices") {
    w = FineSlices();
  } else if (name == "raw_holistic") {
    w = RawHolistic(seed);
  } else {
    throw CheckFailure("unknown workload '" + name + "'");
  }
  Require(w.period % w.round == 0, w.name + ": round must divide the period");
  for (const Query& q : w.queries) {
    Require(q.Validate().ok(), w.name + ": invalid query");
  }
  for (int i = 0; i < kNumLocals; ++i) {
    w.chunks.push_back(MakeChunk(w, Mix(seed, 100 + static_cast<uint64_t>(i))));
    Require(!w.chunks.back().events.empty(), w.name + ": empty input chunk");
  }
  return w;
}

}  // namespace perfbench
