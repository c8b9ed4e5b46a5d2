// Sort lanes as sorted-run lists: seeded differential checks of every rank
// read against the sequential stable merge the run list replaces, plus a
// cluster check that median, quantile, min and max windows sharing sort
// lanes stay byte-identical to the centralized CeBuffer oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "core/operators.h"
#include "net/cluster.h"
#include "transport/sim_link_transport.h"
#include "transport/threaded_transport.h"

namespace desis {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The single sorted vector a sort lane used to hold: every merge is one
/// stable std::inplace_merge of the incoming run behind the values so far.
struct MergedReference {
  std::vector<double> values;
  uint64_t represented = 0;

  void Merge(const MergedReference& other) {
    const auto mid = static_cast<std::ptrdiff_t>(values.size());
    values.insert(values.end(), other.values.begin(), other.values.end());
    std::inplace_merge(values.begin(), values.begin() + mid, values.end());
    represented += other.represented;
  }

  double Median() const {
    const size_t n = values.size();
    if (n % 2 == 1) return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }

  double Quantile(double q) const {
    if (q <= 0.0) return values.front();
    if (q >= 1.0) return values.back();
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= values.size()) return values[lo];
    return values[lo] + frac * (values[lo + 1] - values[lo]);
  }
};

constexpr double kQuantiles[] = {0.0, 1e-9, 0.1, 0.5, 0.9, 0.99, 1.0};

/// Which side of zero a trial draws from: both, or only one so that the
/// signed zeros are the extremes and decide the min or max ties.
enum class Sign { kMixed, kNonPositive, kNonNegative };

/// Heavy duplicates, mixed signed zeros, and a sprinkle of fractions.
double DrawValue(Rng& rng, Sign sign) {
  double v;
  switch (rng.NextBounded(8)) {
    case 0:
      return -0.0;
    case 1:
      return 0.0;
    case 2:
    case 3:
    case 4:
      v = static_cast<double>(rng.NextBounded(7)) - 3.0;
      break;
    default:
      v = static_cast<double>(rng.NextBounded(800)) / 8.0 - 50.0;
  }
  if ((sign == Sign::kNonPositive && v > 0) ||
      (sign == Sign::kNonNegative && v < 0)) {
    v = -v;
  }
  return v;
}

Sign SignFor(uint64_t seed) { return static_cast<Sign>(seed % 3); }

/// Empty, one-value and multi-value runs.
size_t DrawRunLength(Rng& rng) {
  switch (rng.NextBounded(8)) {
    case 0:
      return 0;
    case 1:
      return 1;
    default:
      return 2 + rng.NextBounded(90);
  }
}

/// One sealed sort-lane partial per run; the mask optionally carries a sum
/// so MergeCompatible can take its narrowing branch.
struct Item {
  PartialAggregate agg;
  MergedReference ref;
};

constexpr OperatorMask kNarrow = MaskOf(OperatorKind::kNonDecomposableSort);
constexpr OperatorMask kWide = kNarrow | MaskOf(OperatorKind::kSum);

Item MakeRun(Rng& rng, OperatorMask mask, Sign sign) {
  Item item{PartialAggregate(mask), {}};
  const size_t n = DrawRunLength(rng);
  for (size_t i = 0; i < n; ++i) item.agg.Add(DrawValue(rng, sign));
  item.agg.Seal();
  // The reference run is the sealed run itself: std::sort may order
  // -0.0/+0.0 either way within one run, and both sides share that order.
  const SortedState& s = item.agg.sorted_state();
  for (size_t i = 0; i < s.size(); ++i) item.ref.values.push_back(s.NthValue(i));
  item.ref.represented = s.represented();
  return item;
}

PartialAggregate RoundTrip(const PartialAggregate& agg) {
  ByteWriter out;
  agg.SerializeTo(out);
  ByteReader in(out.bytes());
  PartialAggregate back = PartialAggregate::DeserializeFrom(in);
  EXPECT_TRUE(in.AtEnd());
  return back;
}

void ExpectSameReads(const SortedState& got, const MergedReference& want,
                     bool every_rank, const std::string& where) {
  ASSERT_EQ(got.size(), want.values.size()) << where;
  EXPECT_EQ(got.represented(), want.represented) << where;
  EXPECT_LE(got.runs(), SortedState::kMaxRuns) << where;
  if (want.values.empty()) return;
  EXPECT_TRUE(SameBits(got.Median(), want.Median())) << where;
  for (double q : kQuantiles) {
    EXPECT_TRUE(SameBits(got.Quantile(q), want.Quantile(q)))
        << where << " q=" << q;
  }
  EXPECT_TRUE(SameBits(got.MinValue(), want.values.front())) << where;
  EXPECT_TRUE(SameBits(got.MaxValue(), want.values.back())) << where;
  if (!every_rank) return;
  for (size_t k = 0; k < want.values.size(); ++k) {
    ASSERT_TRUE(SameBits(got.NthValue(k), want.values[k]))
        << where << " rank " << k;
  }
}

TEST(SortedRuns, SequentialMergeMatchesStableMerge) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const size_t runs = 1 + rng.NextBounded(200);
    Item acc{PartialAggregate(kNarrow), {}};
    acc.agg.Seal();
    size_t max_runs_seen = 0;
    for (size_t r = 0; r < runs; ++r) {
      const Item run = MakeRun(rng, kNarrow, SignFor(seed));
      acc.agg.Merge(run.agg);
      acc.ref.Merge(run.ref);
      max_runs_seen = std::max(max_runs_seen, acc.agg.sorted_state().runs());
      ExpectSameReads(acc.agg.sorted_state(), acc.ref, /*every_rank=*/false,
                      "seed " + std::to_string(seed) + " run " +
                          std::to_string(r));
    }
    ExpectSameReads(acc.agg.sorted_state(), acc.ref, /*every_rank=*/true,
                    "seed " + std::to_string(seed));
    ExpectSameReads(RoundTrip(acc.agg).sorted_state(), acc.ref,
                    /*every_rank=*/true,
                    "round trip, seed " + std::to_string(seed));
    if (runs > 2 * SortedState::kMaxRuns) {
      EXPECT_EQ(max_runs_seen, SortedState::kMaxRuns) << "seed " << seed;
    }
  }
}

TEST(SortedRuns, MergeTreesMatchStableMerge) {
  // Random merge trees, as intermediates and window accumulators build
  // them: Merge, both MergeCompatible branches, and wire round trips.
  for (uint64_t seed = 100; seed < 116; ++seed) {
    Rng rng(seed);
    const size_t runs = 1 + rng.NextBounded(200);
    std::vector<Item> pool;
    for (size_t r = 0; r < runs; ++r) {
      pool.push_back(MakeRun(rng, rng.NextBool(0.5) ? kWide : kNarrow,
                              SignFor(seed)));
    }
    while (pool.size() > 1) {
      const size_t i = rng.NextBounded(pool.size());
      size_t j = rng.NextBounded(pool.size() - 1);
      if (j >= i) ++j;
      Item& dst = pool[i];
      Item src = std::move(pool[j]);
      if (rng.NextBool(0.3)) src.agg = RoundTrip(src.agg);
      // MergeCompatible merges src behind dst when dst's mask fits inside
      // src's, and dst behind src otherwise.
      const bool dst_first = (dst.agg.mask() & ~src.agg.mask()) == 0;
      if (dst_first && rng.NextBool(0.5)) {
        dst.agg.Merge(src.agg);
      } else {
        PartialAggregate::MergeCompatible(dst.agg, src.agg);
      }
      if (dst_first) {
        dst.ref.Merge(src.ref);
      } else {
        src.ref.Merge(dst.ref);
        dst.ref = std::move(src.ref);
      }
      ExpectSameReads(dst.agg.sorted_state(), dst.ref, /*every_rank=*/false,
                      "seed " + std::to_string(seed) + " pool " +
                          std::to_string(pool.size()));
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
    }
    ExpectSameReads(pool[0].agg.sorted_state(), pool[0].ref,
                    /*every_rank=*/true, "seed " + std::to_string(seed));
    ExpectSameReads(RoundTrip(pool[0].agg).sorted_state(), pool[0].ref,
                    /*every_rank=*/true,
                    "round trip, seed " + std::to_string(seed));
  }
}

TEST(SortedRuns, SignedZeroTiesFollowRunOrder) {
  // Rank ties between -0.0 and +0.0 resolve by run order, as the stable
  // merge placed them: the first run's zero is the minimum and the median.
  SortedState a;
  SortedState b;
  a.Add(0.0);
  b.Add(-0.0);
  a.Seal();
  b.Seal();
  SortedState ab = a;
  ab.Merge(b);
  SortedState ba = b;
  ba.Merge(a);
  EXPECT_FALSE(std::signbit(ab.MinValue()));
  EXPECT_TRUE(std::signbit(ab.MaxValue()));
  EXPECT_TRUE(std::signbit(ba.MinValue()));
  EXPECT_FALSE(std::signbit(ba.MaxValue()));
  EXPECT_FALSE(std::signbit(ab.NthValue(0)));
  EXPECT_TRUE(std::signbit(ba.NthValue(0)));
}

TEST(SortedRuns, WireCarriesRunLengthsAndBytesCountThem) {
  SortedState acc;
  acc.Seal();
  for (int r = 0; r < 5; ++r) {
    SortedState run;
    for (int i = 0; i < 10; ++i) run.Add(static_cast<double>((i * 7 + r) % 10));
    run.Seal();
    acc.Merge(run);
  }
  ASSERT_EQ(acc.runs(), 5u);
  EXPECT_GE(acc.bytes(), 50 * sizeof(double) + 5 * sizeof(size_t));
  ByteWriter out;
  acc.SerializeTo(out);
  // Mode byte, represented count, five u32 run lengths, fifty values.
  EXPECT_EQ(out.size(), 1 + 8 + (4 + 5 * 4) + (4 + 50 * sizeof(double)));
  ByteReader in(out.bytes());
  const SortedState back = SortedState::DeserializeFrom(in);
  EXPECT_EQ(back.runs(), 5u);
  for (size_t k = 0; k < 50; ++k) {
    EXPECT_TRUE(SameBits(back.NthValue(k), acc.NthValue(k))) << k;
  }
  // A single run ships no lengths.
  SortedState one;
  one.Add(1.0);
  one.Seal();
  ByteWriter single;
  one.SerializeTo(single);
  EXPECT_EQ(single.size(), 1 + 8 + 4 + (4 + sizeof(double)));
}

// Every rank read of `s`, so a read that cannot finish hangs the test.
void ReadEveryRank(const SortedState& s) {
  for (size_t k = 0; k < s.size(); ++k) (void)s.NthValue(k);
  for (double q : kQuantiles) (void)s.Quantile(q);
  (void)s.Median();
  (void)s.MinValue();
  (void)s.MaxValue();
}

TEST(SortedRuns, MalformedRunsStillReadEveryRank) {
  // Lengths that do not tile the values: the state re-sorts into one run.
  ByteWriter bad;
  bad.WriteU8(1);  // sealed, exact
  bad.WriteU64(5);
  bad.WritePodVector(std::vector<uint32_t>{3, 3});
  bad.WritePodVector(std::vector<double>{4.0, 5.0, 9.0, 1.0, 2.0});
  ByteReader bad_in(bad.bytes());
  const SortedState s = SortedState::DeserializeFrom(bad_in);
  EXPECT_EQ(s.runs(), 1u);
  for (size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(s.NthValue(k), std::vector<double>({1, 2, 4, 5, 9})[k]);
  }
  // Empty runs are dropped; the remaining ones are kept as written.
  ByteWriter sparse;
  sparse.WriteU8(1);
  sparse.WriteU64(4);
  sparse.WritePodVector(std::vector<uint32_t>{0, 2, 0, 2, 0});
  sparse.WritePodVector(std::vector<double>{3.0, 7.0, 1.0, 8.0});
  ByteReader sparse_in(sparse.bytes());
  const SortedState t = SortedState::DeserializeFrom(sparse_in);
  EXPECT_EQ(t.runs(), 2u);
  EXPECT_EQ(t.MinValue(), 1.0);
  EXPECT_EQ(t.MaxValue(), 8.0);
  EXPECT_EQ(t.Median(), 5.0);

  // Lengths that tile the values around a run that is out of order: the
  // run is sorted where it stands.
  ByteWriter unsorted;
  unsorted.WriteU8(1);
  unsorted.WriteU64(4);
  unsorted.WritePodVector(std::vector<uint32_t>{3, 1});
  unsorted.WritePodVector(std::vector<double>{5.0, 1.0, 2.0, 0.0});
  ByteReader unsorted_in(unsorted.bytes());
  const SortedState u = SortedState::DeserializeFrom(unsorted_in);
  EXPECT_EQ(u.runs(), 2u);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(u.NthValue(k), std::vector<double>({0, 1, 2, 5})[k]);
  }
  EXPECT_EQ(u.Median(), 1.5);

  // A NaN has no order, so a run holding one passes std::is_sorted while
  // its binary searches miss values; every read must still finish.
  const double nan = std::nan("");
  ByteWriter with_nan;
  with_nan.WriteU8(1);
  with_nan.WriteU64(9);
  with_nan.WritePodVector(std::vector<uint32_t>{7, 2});
  with_nan.WritePodVector(
      std::vector<double>{1.0, 5.0, 6.0, nan, 2.0, 3.0, 4.0, 0.0, 7.0});
  ByteReader nan_in(with_nan.bytes());
  const SortedState n = SortedState::DeserializeFrom(nan_in);
  EXPECT_EQ(n.runs(), 2u);
  ReadEveryRank(n);

  // The same through the engine's path: sealed slices holding NaN merged
  // into a run list.
  SortedState acc;
  acc.Seal();
  Rng rng(9);
  for (int r = 0; r < 50; ++r) {
    SortedState run;
    for (int i = 0; i < 12; ++i) {
      run.Add(rng.NextBounded(8) == 0 ? nan : DrawValue(rng, Sign::kMixed));
    }
    run.Seal();
    acc.Merge(run);
    ReadEveryRank(acc);
  }
}

TEST(SortedRuns, SpillTakeMergesRunsIntoOne) {
  SortedState acc;
  acc.Seal();
  MergedReference ref;
  Rng rng(5);
  for (int r = 0; r < 40; ++r) {
    SortedState run;
    MergedReference run_ref;
    for (int i = 0; i < 16; ++i) run.Add(DrawValue(rng, Sign::kMixed));
    run.Seal();
    for (size_t i = 0; i < run.size(); ++i) {
      run_ref.values.push_back(run.NthValue(i));
    }
    run_ref.represented = run.represented();
    acc.Merge(run);
    ref.Merge(run_ref);
  }
  const uint64_t represented = acc.represented();
  std::vector<double> values = acc.TakeSealedValues();
  ASSERT_EQ(values.size(), ref.values.size());
  EXPECT_EQ(std::memcmp(values.data(), ref.values.data(),
                        values.size() * sizeof(double)),
            0);
  EXPECT_EQ(acc.size(), 0u);
  acc.AdoptSorted(std::move(values), represented);
  EXPECT_EQ(acc.runs(), 1u);
  ExpectSameReads(acc, ref, /*every_rank=*/true, "adopted");
}

// ------------------------------------------------------------ cluster ----

Query MakeQuery(QueryId id, WindowSpec window, AggregationFunction fn,
                double quantile = 0.5) {
  Query q;
  q.id = id;
  q.window = window;
  q.agg = {fn, quantile};
  return q;
}

/// Median, quantile, min and max share each window's sort lane.
std::vector<Query> SortLaneQueries() {
  std::vector<Query> queries;
  QueryId id = 1;
  for (const WindowSpec& window :
       {WindowSpec::Sliding(300, 100), WindowSpec::Tumbling(200),
        WindowSpec::Session(30)}) {
    queries.push_back(MakeQuery(id++, window, AggregationFunction::kMedian));
    queries.push_back(
        MakeQuery(id++, window, AggregationFunction::kQuantile, 0.9));
    queries.push_back(
        MakeQuery(id++, window, AggregationFunction::kQuantile, 0.25));
    queries.push_back(MakeQuery(id++, window, AggregationFunction::kMin));
    queries.push_back(MakeQuery(id++, window, AggregationFunction::kMax));
  }
  return queries;
}

/// Integer values with many repeats, so medians and interpolated quantiles
/// are exact doubles whatever the merge order.
std::vector<std::vector<Event>> IntegerStreams(int locals, int per_local,
                                               Timestamp max_ts,
                                               uint64_t seed) {
  std::vector<std::vector<Event>> streams(static_cast<size_t>(locals));
  Rng rng(seed);
  for (auto& stream : streams) {
    Timestamp ts = 0;
    for (int i = 0; i < per_local; ++i) {
      ts += rng.NextInRange(1, std::max<int64_t>(1, 2 * max_ts / per_local));
      if (rng.NextBool(0.02)) ts += 60;  // gaps close sessions
      stream.push_back({ts, 0, static_cast<double>(rng.NextBounded(50)) - 20.0,
                        kNoMarker});
    }
  }
  return streams;
}

using WindowKey = std::tuple<QueryId, Timestamp, Timestamp>;

struct WindowLog {
  std::mutex mu;
  std::map<WindowKey, WindowResult> windows;

  WindowSink Sink() {
    return [this](const WindowResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      windows[{r.query_id, r.window_start, r.window_end}] = r;
    };
  }
};

std::map<WindowKey, WindowResult> RunCluster(
    ClusterSystem system, std::unique_ptr<Transport> transport,
    ClusterOptions options, const std::vector<std::vector<Event>>& streams,
    Timestamp end_ts) {
  Cluster cluster(system, {static_cast<int>(streams.size()), 2}, options);
  if (transport != nullptr) cluster.set_transport(std::move(transport));
  WindowLog log;
  cluster.set_sink(log.Sink());
  EXPECT_TRUE(cluster.Configure(SortLaneQueries()).ok());
  constexpr Timestamp kStep = 50;
  std::vector<size_t> cursor(streams.size(), 0);
  for (Timestamp t = 0; t <= end_ts; t += kStep) {
    for (size_t i = 0; i < streams.size(); ++i) {
      const size_t begin = cursor[i];
      while (cursor[i] < streams[i].size() &&
             streams[i][cursor[i]].ts < t + kStep) {
        ++cursor[i];
      }
      if (cursor[i] > begin) {
        cluster.IngestAt(static_cast<int>(i), streams[i].data() + begin,
                         cursor[i] - begin);
      }
    }
    cluster.Advance(t + kStep);
  }
  cluster.Advance(end_ts + 10 * kStep);
  cluster.Drain();
  return std::move(log.windows);
}

TEST(SortedRunsCluster, SortLaneWindowsMatchCeBufferOnEveryTransport) {
  const auto streams = IntegerStreams(4, 600, 3000, 41);
  const Timestamp end_ts = 3200;
  const auto want = RunCluster(ClusterSystem::kCeBuffer, nullptr, {}, streams,
                               end_ts);
  ASSERT_FALSE(want.empty());

  SimLinkConfig lossy;
  lossy.latency_us = 40;
  lossy.jitter_us = 10;
  lossy.drop_probability = 0.1;
  lossy.seed = 23;
  ClusterOptions recovery;
  recovery.recovery.enabled = true;

  struct Case {
    std::string name;
    std::unique_ptr<Transport> transport;
    ClusterOptions options;
  };
  std::vector<Case> cases;
  cases.push_back({"inline", nullptr, {}});
  cases.push_back({"threaded", std::make_unique<ThreadedTransport>(), {}});
  cases.push_back(
      {"simlink", std::make_unique<SimLinkTransport>(lossy), recovery});
  for (Case& c : cases) {
    const auto got = RunCluster(ClusterSystem::kDesis, std::move(c.transport),
                                c.options, streams, end_ts);
    ASSERT_EQ(got.size(), want.size()) << c.name;
    for (const auto& [key, w] : want) {
      const auto it = got.find(key);
      ASSERT_NE(it, got.end()) << c.name << " query " << std::get<0>(key)
                               << " window @" << std::get<1>(key);
      EXPECT_TRUE(SameBits(it->second.value, w.value))
          << c.name << " query " << std::get<0>(key) << " window @"
          << std::get<1>(key) << ": " << it->second.value << " vs "
          << w.value;
      EXPECT_EQ(it->second.event_count, w.event_count) << c.name;
    }
  }
}

}  // namespace
}  // namespace desis
