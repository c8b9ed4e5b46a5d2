#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/ce_buffer.h"
#include "bench.h"
#include "net/cluster.h"

namespace perfbench {
namespace {

using desis::AggregationFunction;

/// Queries cross-checked against CeBufferEngine, which buffers every event of
/// every open window.
constexpr size_t kCeBufferQueries = 16;

Timestamp FloorDiv(Timestamp a, Timestamp b) {
  Timestamp q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

Timestamp FloorMod(Timestamp a, Timestamp b) { return a - FloorDiv(a, b) * b; }

// Windows with a start on the query's grid and its length.
bool OnGrid(const WindowResult& r, Timestamp length, Timestamp slide) {
  return r.window_end - r.window_start == length &&
         FloorMod(r.window_start, slide) == 0;
}

/// Minimum or maximum over index ranges of a fixed array: a sparse table
/// over blocks of 64 values plus scans inside the two end blocks.
class RangeExtreme {
 public:
  RangeExtreme(const std::vector<double>& values, bool want_max)
      : values_(values), max_(want_max) {
    std::vector<double> blocks;
    for (size_t b = 0; b < values.size(); b += kBlock) {
      blocks.push_back(Scan(b, std::min(values.size(), b + kBlock)));
    }
    table_.push_back(blocks);
    for (size_t width = 1; 2 * width <= blocks.size(); width *= 2) {
      const std::vector<double>& prev = table_.back();
      std::vector<double> next(prev.size() - width);
      for (size_t i = 0; i < next.size(); ++i) {
        next[i] = Pick(prev[i], prev[i + width]);
      }
      table_.push_back(std::move(next));
    }
  }

  /// Extreme of values[lo, hi); lo < hi.
  double Query(size_t lo, size_t hi) const {
    const size_t bl = lo / kBlock;
    const size_t bh = (hi - 1) / kBlock;
    if (bl == bh) return Scan(lo, hi);
    double best = Pick(Scan(lo, (bl + 1) * kBlock), Scan(bh * kBlock, hi));
    if (bl + 1 < bh) {
      const size_t n = bh - bl - 1;
      size_t level = 0;
      while ((size_t{2} << level) <= n) ++level;
      best = Pick(best, Pick(table_[level][bl + 1],
                             table_[level][bh - (size_t{1} << level)]));
    }
    return best;
  }

 private:
  static constexpr size_t kBlock = 64;
  double Pick(double a, double b) const {
    return max_ ? std::max(a, b) : std::min(a, b);
  }
  double Scan(size_t lo, size_t hi) const {
    double best = values_[lo];
    for (size_t i = lo + 1; i < hi; ++i) best = Pick(best, values_[i]);
    return best;
  }

  std::vector<double> values_;
  bool max_;
  std::vector<std::vector<double>> table_;  // level l: blocks [i, i + 2^l)
};

}  // namespace

/// Count, sum and extremes of one local's replayed stream over any
/// event-time range: the chunk repeats every `period`.
class Reference::Series {
 public:
  Series(const Chunk& chunk, Timestamp period)
      : period_(period),
        min_(Values(chunk), /*want_max=*/false),
        max_(Values(chunk), /*want_max=*/true) {
    prefix_.push_back(0.0L);
    for (const Event& e : chunk.events) {
      ts_.push_back(e.ts);
      prefix_.push_back(prefix_.back() + static_cast<long double>(e.value));
    }
  }

  struct Agg {
    uint64_t count = 0;
    long double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  /// Adds the events with ts in [a, b) to `agg`.
  void Add(Timestamp a, Timestamp b, Agg& agg) const {
    a = std::max<Timestamp>(a, 0);
    if (b <= a) return;
    const uint64_t n = ts_.size();
    const Timestamp ca = a / period_, cb = b / period_;
    const size_t ia = Index(a % period_), ib = Index(b % period_);
    const uint64_t first = static_cast<uint64_t>(ca) * n + ia;
    const uint64_t last = static_cast<uint64_t>(cb) * n + ib;
    if (last == first) return;
    agg.count += last - first;
    agg.sum += static_cast<long double>(cb - ca) * prefix_.back() +
               prefix_[ib] - prefix_[ia];
    auto extremes = [&](size_t lo, size_t hi) {
      if (lo >= hi) return;
      agg.min = std::min(agg.min, min_.Query(lo, hi));
      agg.max = std::max(agg.max, max_.Query(lo, hi));
    };
    if (b - a >= period_) {
      extremes(0, n);  // a full period holds every event once
    } else if (ca == cb) {
      extremes(ia, ib);
    } else {
      extremes(ia, n);
      extremes(0, ib);
    }
  }

 private:
  static std::vector<double> Values(const Chunk& chunk) {
    std::vector<double> v;
    for (const Event& e : chunk.events) v.push_back(e.value);
    return v;
  }
  size_t Index(Timestamp offset) const {
    return static_cast<size_t>(
        std::lower_bound(ts_.begin(), ts_.end(), offset) - ts_.begin());
  }

  Timestamp period_;
  std::vector<Timestamp> ts_;
  std::vector<long double> prefix_;  // prefix_[i] = sum of the first i values
  RangeExtreme min_;
  RangeExtreme max_;
};

bool SameResult(double got_value, uint64_t got_count, double want_value,
                uint64_t want_count) {
  if (got_count != want_count) return false;
  if (std::isnan(want_value)) return std::isnan(got_value);
  return std::abs(got_value - want_value) <= 1e-6 * (1.0 + std::abs(want_value));
}

const Reference::Entry* Reference::FindPeriodic(const WindowResult& r) const {
  const PerQuery& q = queries_[r.query_id - 1];
  const Entry* e = nullptr;
  if (r.window_start < 0) {
    auto it = q.before_zero.find(r.window_start);
    if (it != q.before_zero.end()) e = &it->second;
  } else {
    e = &q.grid[static_cast<size_t>((r.window_start % period_) / q.slide)];
  }
  return (e != nullptr && e->present) ? e : nullptr;
}

Reference::Entry Reference::ClosedForm(const PerQuery& q, Timestamp start,
                                       Timestamp end) const {
  Series::Agg agg;
  for (const auto& s : series_) s->Add(start, end, agg);
  Entry e;
  e.count = agg.count;
  e.present = agg.count > 0;
  switch (q.fn) {
    case AggregationFunction::kSum: e.value = static_cast<double>(agg.sum); break;
    case AggregationFunction::kCount:
      e.value = static_cast<double>(agg.count);
      break;
    case AggregationFunction::kAverage:
      e.value = static_cast<double>(agg.sum / static_cast<long double>(agg.count));
      break;
    case AggregationFunction::kMin: e.value = agg.min; break;
    case AggregationFunction::kMax: e.value = agg.max; break;
    default: e.present = false; break;
  }
  return e;
}

Reference::Verdict Reference::Check(const WindowResult& r) const {
  if (r.query_id == 0 || r.query_id > queries_.size()) return Verdict::kExtra;
  const PerQuery& q = queries_[r.query_id - 1];
  if (!OnGrid(r, q.length, q.slide)) return Verdict::kExtra;
  Entry want;
  if (periodic_) {
    const Entry* e = FindPeriodic(r);
    if (e == nullptr) return Verdict::kExtra;
    want = *e;
  } else {
    if (FloorDiv(r.window_start, q.slide) < q.first_k) return Verdict::kExtra;
    want = ClosedForm(q, r.window_start, r.window_end);
    if (!want.present) return Verdict::kExtra;
  }
  return SameResult(r.value, r.event_count, want.value, want.count)
             ? Verdict::kMatch
             : Verdict::kMismatch;
}

uint64_t Reference::ExpectedUpTo(Timestamp watermark) const {
  uint64_t total = 0;
  for (const PerQuery& q : queries_) {
    if (!periodic_) {
      const int64_t last_k = FloorDiv(watermark - q.length, q.slide);
      if (last_k >= q.first_k) total += static_cast<uint64_t>(last_k - q.first_k + 1);
      continue;
    }
    for (const auto& [start, e] : q.before_zero) {
      if (e.present && start + q.length <= watermark) ++total;
    }
    for (size_t k = 0; k < q.grid.size(); ++k) {
      if (!q.grid[k].present) continue;
      const Timestamp end = static_cast<Timestamp>(k) * q.slide + q.length;
      if (end <= watermark) {
        total += static_cast<uint64_t>((watermark - end) / period_) + 1;
      }
    }
  }
  return total;
}

Reference::Built Reference::Build(const Workload& w) {
  Built built;
  Reference& ref = built.reference;
  ref.period_ = w.period;
  ref.periodic_ = true;
  for (const Query& q : w.queries) {
    ref.periodic_ = ref.periodic_ && w.period % q.window.slide == 0;
  }
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const Query& q = w.queries[i];
    Require(q.id == i + 1, w.name + ": query ids must be 1..n in order");
    Require(q.window.IsFixedSize() &&
                q.window.measure == desis::WindowMeasure::kTime,
            w.name + ": the oracle handles time-based tumbling/sliding windows");
    PerQuery pq;
    pq.length = q.window.length;
    pq.slide = q.window.slide;
    pq.fn = q.agg.fn;
    pq.first_k = std::numeric_limits<int64_t>::max();
    if (ref.periodic_) {
      pq.grid.resize(static_cast<size_t>(w.period / q.window.slide));
    } else {
      const bool closed = q.predicate == desis::Predicate::All() &&
                          !q.deduplicate &&
                          (pq.fn == AggregationFunction::kSum ||
                           pq.fn == AggregationFunction::kCount ||
                           pq.fn == AggregationFunction::kAverage ||
                           pq.fn == AggregationFunction::kMin ||
                           pq.fn == AggregationFunction::kMax);
      Require(closed, w.name + ": slides that do not divide the period need "
                               "match-all sum/count/avg/min/max queries");
    }
    ref.queries_.push_back(std::move(pq));
  }
  if (!ref.periodic_) {
    for (const Chunk& c : w.chunks) {
      ref.series_.push_back(std::make_shared<const Series>(c, w.period));
    }
  }

  // The serial reference run: one thread, inline transport.
  const Timestamp span = ref.periodic_ ? w.period + 2 * w.MaxLength()
                                       : 2 * w.MaxLength();
  const int64_t rounds = (span + w.round - 1) / w.round;
  const Timestamp horizon = rounds * w.round;
  std::vector<WindowResult> out;
  {
    desis::Cluster cluster(desis::ClusterSystem::kDesis, {kNumLocals, 1});
    cluster.set_sink([&out](const WindowResult& r) { out.push_back(r); });
    Require(cluster.Configure(w.queries).ok(), w.name + ": configure failed");
    std::vector<Replay> inputs = MakeInputs(w);
    for (int64_t r = 0; r < rounds; ++r) {
      for (int i = 0; i < kNumLocals; ++i) {
        const Replay::Batch b = inputs[static_cast<size_t>(i)].Round(r);
        if (b.count > 0) cluster.IngestAt(i, b.events, b.count);
        cluster.AdvanceAt(i, (r + 1) * w.round);
      }
    }
    cluster.Drain();
    built.events = w.EventsInRounds(rounds);
    for (auto role : {desis::NodeRole::kLocal, desis::NodeRole::kIntermediate,
                      desis::NodeRole::kRoot}) {
      built.bytes_sent += cluster.BytesSentByRole(role);
    }
    for (int i = 0; i < kNumLocals; ++i) {
      built.messages_sent += cluster.local_stats(i).messages_sent;
    }
    built.messages_sent += cluster.intermediate_stats(0).messages_sent;
    built.messages_sent += cluster.root_stats().messages_sent;
  }
  built.windows = out.size();
  Require(!out.empty(), w.name + ": the reference run fired no windows");

  std::vector<const WindowResult*> later;  // re-derived after the first pass
  for (const WindowResult& r : out) {
    Require(r.query_id >= 1 && r.query_id <= ref.queries_.size(),
            w.name + ": reference window of an unknown query");
    PerQuery& q = ref.queries_[r.query_id - 1];
    Require(OnGrid(r, q.length, q.slide),
            w.name + ": reference window off its query's grid");
    if (!ref.periodic_) {
      q.first_k = std::min(q.first_k, FloorDiv(r.window_start, q.slide));
      later.push_back(&r);
      continue;
    }
    Entry* e = nullptr;
    if (r.window_start < 0) {
      e = &q.before_zero[r.window_start];
    } else if (r.window_start < w.period) {
      e = &q.grid[static_cast<size_t>(r.window_start / q.slide)];
    } else {
      later.push_back(&r);
      continue;
    }
    Require(!e->present, w.name + ": reference run emitted a window twice");
    *e = {r.value, r.event_count, true};
  }
  for (const PerQuery& q : ref.queries_) {
    Require(ref.periodic_ || q.first_k != std::numeric_limits<int64_t>::max(),
            w.name + ": a query fired no window in the reference run");
  }
  for (const WindowResult* r : later) {
    Require(ref.Check(*r) == Verdict::kMatch,
            w.name + (ref.periodic_
                          ? ": window results are not periodic in the period"
                          : ": the serial run disagrees with the closed form") +
                " (query " + std::to_string(r->query_id) + " window @" +
                std::to_string(r->window_start) + ")");
  }
  built.self_checked = later.size();
  Require(built.self_checked > 0, w.name + ": no reference window re-derived");
  Require(ref.ExpectedUpTo(horizon) == out.size(),
          w.name + ": expected-window count disagrees with the reference run");

  // Cross-check against the naive CeBuffer engine on a prefix of the merged
  // stream, for up to kCeBufferQueries evenly spaced queries.
  std::vector<Query> subset;
  const size_t stride = std::max<size_t>(1, w.queries.size() / kCeBufferQueries);
  Timestamp longest = 0;
  for (size_t i = 0; i < w.queries.size(); i += stride) {
    subset.push_back(w.queries[i]);
    longest = std::max(longest, w.queries[i].window.length +
                                    w.queries[i].window.slide);
  }
  const int64_t prefix_rounds =
      std::min<int64_t>(rounds, (longest + w.round - 1) / w.round);
  const Timestamp prefix = prefix_rounds * w.round;
  std::vector<WindowResult> naive;
  {
    desis::CeBufferEngine ce;
    Require(ce.Configure(subset).ok(), w.name + ": CeBuffer configure failed");
    ce.set_sink([&naive](const WindowResult& r) { naive.push_back(r); });
    Replay first(w, 0), second(w, 1);
    std::vector<Event> merged;
    for (int64_t r = 0; r < prefix_rounds; ++r) {
      const Replay::Batch a = first.Round(r), b = second.Round(r);
      merged.resize(a.count + b.count);
      std::merge(a.events, a.events + a.count, b.events, b.events + b.count,
                 merged.begin(),
                 [](const Event& x, const Event& y) { return x.ts < y.ts; });
      ce.IngestBatch(merged.data(), merged.size());
    }
    ce.AdvanceTo(prefix);
  }
  uint64_t want = 0;
  for (const WindowResult& r : out) {
    if (r.window_end > prefix) continue;
    for (const Query& q : subset) {
      if (q.id == r.query_id) ++want;
    }
  }
  for (const WindowResult& r : naive) {
    Require(r.window_end <= prefix,
            w.name + ": CeBuffer fired a window past the prefix");
    Require(ref.Check(r) == Verdict::kMatch,
            w.name + ": reference disagrees with CeBuffer on query " +
                std::to_string(r.query_id) + " window @" +
                std::to_string(r.window_start));
  }
  Require(naive.size() == want,
          w.name + ": CeBuffer fired " + std::to_string(naive.size()) +
              " windows on the prefix, the reference " + std::to_string(want));
  built.cebuffer_checked = naive.size();
  Require(built.cebuffer_checked > 0, w.name + ": CeBuffer fired no windows");
  return built;
}

PhaseChecker::PhaseChecker(const Reference& ref, size_t num_queries)
    : ref_(ref),
      last_start_(num_queries, std::numeric_limits<Timestamp>::min()) {}

void PhaseChecker::Observe(const WindowResult& r) {
  ++counts_.emitted;
  if (r.query_id >= 1 && r.query_id <= last_start_.size()) {
    Timestamp& last = last_start_[r.query_id - 1];
    if (r.window_start <= last) {
      ++counts_.extra;
      return;
    }
    last = r.window_start;
  }
  switch (ref_.Check(r)) {
    case Reference::Verdict::kMatch: ++counts_.matched; break;
    case Reference::Verdict::kMismatch: ++counts_.mismatched; break;
    case Reference::Verdict::kExtra: ++counts_.extra; break;
  }
}

PhaseChecker::Counts PhaseChecker::Finish(Timestamp watermark) const {
  Counts c = counts_;
  c.expected = ref_.ExpectedUpTo(watermark);
  return c;
}

}  // namespace perfbench
