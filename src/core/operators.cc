#include "core/operators.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>

namespace desis {

SortedState::SortedState(const SortedState& other)
    : values_(other.values_),
      run_ends_(other.run_ends_),
      sealed_(other.sealed_),
      represented_(other.represented_),
      digest_(other.digest_ ? std::make_unique<mem::TDigest>(*other.digest_)
                            : nullptr) {}

SortedState& SortedState::operator=(const SortedState& other) {
  if (this != &other) *this = SortedState(other);
  return *this;
}

void SortedState::Add(double v) {
  assert(!sealed_);
  if (digest_) {
    digest_->Add(v);
    return;
  }
  values_.push_back(v);
}

void SortedState::AddN(const double* v, size_t n) {
  assert(!sealed_);
  if (digest_) {
    digest_->AddN(v, n);
    return;
  }
  values_.insert(values_.end(), v, v + n);
}

void SortedState::Seal() {
  if (!sealed_) {
    if (digest_) {
      digest_->Compress();
      represented_ = digest_->count();
      sealed_ = true;
      return;
    }
    std::sort(values_.begin(), values_.end());
    represented_ = values_.size();
    sealed_ = true;
  }
}

void SortedState::EnableSketch(double compression) {
  assert(!sealed_ && values_.empty());
  digest_ = std::make_unique<mem::TDigest>(compression);
}

void SortedState::Reserve(size_t additional) {
  if (digest_) return;
  values_.reserve(values_.size() + additional);
}

std::vector<double> SortedState::TakeSortedRun() {
  assert(!sealed_ && !digest_);
  std::sort(values_.begin(), values_.end());
  std::vector<double> run;
  run.swap(values_);  // swap (not move) guarantees the capacity is released
  return run;
}

std::vector<double> SortedState::TakeSealedValues() {
  assert(sealed_ && !digest_);
  Compact(1);
  std::vector<double> out;
  out.swap(values_);
  return out;
}

void SortedState::AdoptSorted(std::vector<double> sorted,
                              uint64_t represented) {
  assert(!digest_);
  values_ = std::move(sorted);
  run_ends_.clear();
  represented_ = represented;
  sealed_ = true;
}

void SortedState::Compact(size_t max_runs) {
  const auto at = [this](size_t offset) {
    return values_.begin() + static_cast<std::ptrdiff_t>(offset);
  };
  // The runs become a stack whose size tiers (bit widths of the run
  // lengths) strictly decrease: each run merges into the run below it
  // while that one is not in a higher tier. Every merge joins neighbours
  // stably, so the (value, run, position) order is unchanged.
  size_t top = 0;
  for (size_t i = 0; i < run_ends_.size(); ++i) {
    const size_t end = run_ends_[i];
    size_t begin = top == 0 ? 0 : run_ends_[top - 1];
    while (top > 0) {
      const size_t below = top == 1 ? 0 : run_ends_[top - 2];
      if (std::bit_width(begin - below) > std::bit_width(end - begin)) break;
      std::inplace_merge(at(below), at(begin), at(end));
      begin = below;
      --top;
    }
    run_ends_[top++] = end;
  }
  for (; top > max_runs; --top) {
    const size_t below = top == 2 ? 0 : run_ends_[top - 3];
    std::inplace_merge(at(below), at(run_ends_[top - 2]),
                       at(run_ends_[top - 1]));
    run_ends_[top - 2] = run_ends_[top - 1];
  }
  run_ends_.resize(top > 1 ? top : 0);
}

void SortedState::Merge(const SortedState& other) {
  assert(sealed_ && other.sealed_);
  represented_ += other.represented_;
  // Sketch infects the merge: once either side is a digest the exact ranks
  // are gone, so the result is a digest. Safe because sketch lanes are
  // per-group static — exact queries never assemble over sketch slices
  // (a sketch flip is a structural change, activation-gated like any other).
  // Exact values feed the digest in merged order, one run.
  if (digest_ || other.digest_) {
    if (!digest_) {
      Compact(1);
      mem::TDigest converted(other.digest_->compression());
      converted.AddN(values_.data(), values_.size());
      values_.clear();
      values_.shrink_to_fit();
      digest_ = std::make_unique<mem::TDigest>(std::move(converted));
    }
    if (other.digest_) {
      digest_->Merge(*other.digest_);
    } else {
      SortedState flat = other;
      flat.Compact(1);
      digest_->AddN(flat.values_.data(), flat.values_.size());
    }
    digest_->Compress();
    return;
  }
  if (other.values_.empty()) return;
  if (values_.empty()) {
    values_ = other.values_;
    run_ends_ = other.run_ends_;
    return;
  }
  const size_t mid = values_.size();
  if (run_ends_.empty()) run_ends_.push_back(mid);
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  if (other.run_ends_.empty()) {
    run_ends_.push_back(values_.size());
  } else {
    for (size_t end : other.run_ends_) run_ends_.push_back(mid + end);
  }
  if (run_ends_.size() > kMaxRuns) Compact(kMaxRuns);
}

double SortedState::Select(size_t rank, double* next) const {
  assert(sealed_ && !digest_ && rank < values_.size());
  assert(next == nullptr || rank + 1 < values_.size());
  const double* v = values_.data();
  if (run_ends_.empty()) {
    if (next != nullptr) *next = v[rank + 1];
    return v[rank];
  }
  // Candidate window [lo, hi) per run: everything before lo precedes the
  // answer in key order, everything from hi on follows it. Each round
  // takes a pivot from the widest window and narrows every window to one
  // side of it, until the pivot's equal range [below, upto) holds the
  // rank. Pivots alternate between the rank's proportional position,
  // which lands near the answer on well-mixed runs, and the middle, which
  // at least halves the widest window.
  const size_t wanted = rank;
  const size_t k = run_ends_.size();
  std::array<size_t, kMaxRuns> lo;
  std::array<size_t, kMaxRuns> hi;
  std::array<size_t, kMaxRuns> below;
  std::array<size_t, kMaxRuns> upto;
  for (size_t i = 0; i < k; ++i) {
    lo[i] = i == 0 ? 0 : run_ends_[i - 1];
    hi[i] = run_ends_[i];
  }
  for (bool middle = false;; middle = !middle) {
    size_t widest = 0;
    size_t candidates = hi[0] - lo[0];
    for (size_t i = 1; i < k; ++i) {
      candidates += hi[i] - lo[i];
      if (hi[i] - lo[i] > hi[widest] - lo[widest]) widest = i;
    }
    const size_t width = hi[widest] - lo[widest];
    const size_t offset =
        middle ? width / 2
               : static_cast<size_t>(static_cast<double>(width) *
                                     static_cast<double>(rank) /
                                     static_cast<double>(candidates));
    const double pivot = v[lo[widest] + std::min(offset, width - 1)];
    size_t less = 0;
    size_t equal = 0;
    for (size_t i = 0; i < k; ++i) {
      const double* last = v + hi[i];
      const double* b = std::lower_bound(v + lo[i], last, pivot);
      const double* u =
          b == last || pivot < *b ? b : std::upper_bound(b + 1, last, pivot);
      below[i] = static_cast<size_t>(b - v);
      upto[i] = static_cast<size_t>(u - v);
      less += below[i] - lo[i];
      equal += upto[i] - below[i];
    }
    if ((rank < less && less == candidates) ||
        (rank >= less + equal && less + equal == 0)) {
      // No window narrowed. Sorted runs always narrow one; a run that is
      // not sorted (a NaN has no order) may not, and is read from a stably
      // merged copy instead.
      SortedState merged = *this;
      merged.Compact(1);
      if (next != nullptr) *next = merged.values_[wanted + 1];
      return merged.values_[wanted];
    }
    if (rank < less) {
      std::copy_n(below.begin(), k, hi.begin());
      continue;
    }
    if (rank >= less + equal) {
      rank -= less + equal;
      std::copy_n(upto.begin(), k, lo.begin());
      continue;
    }
    // Values equal to the pivot order by run, then by position.
    rank -= less;
    size_t run = 0;
    for (; rank >= upto[run] - below[run]; ++run) {
      rank -= upto[run] - below[run];
    }
    const size_t at = below[run] + rank;
    if (next != nullptr) {
      // The successor is the next equal value in run order, else the
      // smallest value above the pivot (each run's first one sits at
      // upto), the earliest run on ties.
      const size_t none = values_.size();
      size_t succ = at + 1 < upto[run] ? at + 1 : none;
      for (size_t i = run + 1; succ == none && i < k; ++i) {
        if (upto[i] > below[i]) succ = below[i];
      }
      if (succ == none) {
        for (size_t i = 0; i < k; ++i) {
          if (upto[i] < run_ends_[i] && (succ == none || v[upto[i]] < v[succ])) {
            succ = upto[i];
          }
        }
      }
      // Sorted runs always hold a successor; unsorted ones from a corrupt
      // payload may not, and must still read in bounds.
      *next = v[succ == none ? at : succ];
    }
    return v[at];
  }
}

double SortedState::MinValue() const {
  if (digest_) return digest_->min();
  assert(sealed_ && !values_.empty());
  // Rank 0: the smallest run head, the earliest run on ties.
  double min = values_.front();
  for (size_t i = 0; i + 1 < run_ends_.size(); ++i) {
    if (values_[run_ends_[i]] < min) min = values_[run_ends_[i]];
  }
  return min;
}

double SortedState::MaxValue() const {
  if (digest_) return digest_->max();
  assert(sealed_ && !values_.empty());
  // Rank n-1: the largest run tail, the latest run on ties.
  double max = values_.back();
  for (size_t i = run_ends_.size(); i > 1; --i) {
    const double tail = values_[run_ends_[i - 2] - 1];
    if (tail > max) max = tail;
  }
  return max;
}

double SortedState::Median() const {
  assert(sealed_);
  if (digest_) return digest_->Quantile(0.5);
  assert(!values_.empty());
  const size_t n = values_.size();
  if (n % 2 == 1) return Select(n / 2);
  double upper;
  const double lower = Select(n / 2 - 1, &upper);
  return 0.5 * (lower + upper);
}

double SortedState::Quantile(double q) const {
  assert(sealed_);
  if (digest_) return digest_->Quantile(q);
  assert(!values_.empty());
  if (q <= 0.0) return MinValue();
  if (q >= 1.0) return MaxValue();
  // Linear interpolation between closest ranks (type-7 quantile).
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values_.size()) return Select(lo);
  double high;
  const double low = Select(lo, &high);
  return low + frac * (high - low);
}

void SortedState::SerializeTo(ByteWriter& out) const {
  // Mode byte: bit 0 = sealed, bit 1 = sketch. Exact states carry their
  // run lengths (none for a single run) ahead of the values.
  out.WriteU8(static_cast<uint8_t>((sealed_ ? 1 : 0) | (digest_ ? 2 : 0)));
  out.WriteU64(represented_);
  if (digest_) {
    digest_->SerializeTo(out);
    return;
  }
  std::vector<uint32_t> lengths(run_ends_.size());
  for (size_t i = 0; i < run_ends_.size(); ++i) {
    lengths[i] = static_cast<uint32_t>(run_ends_[i] -
                                       (i == 0 ? 0 : run_ends_[i - 1]));
  }
  out.WritePodVector(lengths);
  out.WritePodVector(values_);
}

SortedState SortedState::DeserializeFrom(ByteReader& in) {
  SortedState state;
  const uint8_t mode = in.ReadU8();
  state.sealed_ = (mode & 1) != 0;
  state.represented_ = in.ReadU64();
  if ((mode & 2) != 0) {
    state.digest_ =
        std::make_unique<mem::TDigest>(mem::TDigest::DeserializeFrom(in));
    return state;
  }
  const std::vector<uint32_t> lengths = in.ReadPodVector<uint32_t>();
  state.values_ = in.ReadPodVector<double>();
  // The lengths come from another node. Lengths that do not tile the values
  // would send rank reads out of bounds, so such a state is re-sorted into
  // one run, and a run that is out of order is sorted where it stands;
  // writers produce neither.
  size_t end = 0;
  for (uint32_t length : lengths) {
    if (length > 0) state.run_ends_.push_back(end += length);
  }
  // An unsealed buffer is one unsorted run by design; Seal sorts it.
  if (end != state.values_.size() || !state.sealed_) state.run_ends_.clear();
  if (state.sealed_) {
    if (state.run_ends_.empty()) {
      state.run_ends_.push_back(state.values_.size());
    }
    const auto at = [&state](size_t offset) {
      return state.values_.begin() + static_cast<std::ptrdiff_t>(offset);
    };
    size_t begin = 0;
    for (size_t stop : state.run_ends_) {
      if (!std::is_sorted(at(begin), at(stop))) std::sort(at(begin), at(stop));
      begin = stop;
    }
  }
  if (state.run_ends_.size() > kMaxRuns) state.Compact(kMaxRuns);
  if (state.run_ends_.size() == 1) state.run_ends_.clear();
  return state;
}

int PartialAggregate::Add(double v) {
  int executed = 0;
  if (MaskHas(mask_, OperatorKind::kSum)) {
    sum_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kCount)) {
    count_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kMultiply)) {
    multiply_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kDecomposableSort)) {
    minmax_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
    sorted_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kSumSquares)) {
    sum_squares_.Add(v);
    ++executed;
  }
  return executed;
}

namespace {

// The decomposable states one fused loop may touch.
struct FusedStates {
  SumState& sum;
  SumSquaresState& sum_squares;
  MultiplyState& multiply;
  MinMaxState& minmax;
};

// One pass over the run for the states selected at compile time. Every
// accumulator keeps its own chain in value order, the same operations
// Add() performs per value, so the bits match.
template <bool kSum, bool kSumSq, bool kMul, bool kMinMax>
void FoldFused(const double* v, size_t n, FusedStates st) {
  double sum = st.sum.sum;
  double sum_sq = st.sum_squares.sum_sq;
  double product = st.multiply.product;
  double lo = st.minmax.min;
  double hi = st.minmax.max;
  for (size_t i = 0; i < n; ++i) {
    const double x = v[i];
    if constexpr (kSum) sum += x;
    if constexpr (kSumSq) sum_sq += x * x;
    if constexpr (kMul) product *= x;
    if constexpr (kMinMax) {
      lo = x < lo ? x : lo;
      hi = x > hi ? x : hi;
    }
  }
  st.sum.sum = sum;
  st.sum_squares.sum_sq = sum_sq;
  st.multiply.product = product;
  st.minmax.min = lo;
  st.minmax.max = hi;
}

using FusedFold = void (*)(const double*, size_t, FusedStates);

// Indexed by bit 0 = sum, 1 = sum of squares, 2 = product, 3 = min/max.
template <size_t... I>
constexpr std::array<FusedFold, sizeof...(I)> MakeFusedFolds(
    std::index_sequence<I...>) {
  return {&FoldFused<(I & 1) != 0, (I & 2) != 0, (I & 4) != 0,
                     (I & 8) != 0>...};
}
constexpr auto kFusedFolds = MakeFusedFolds(std::make_index_sequence<16>{});

}  // namespace

uint64_t PartialAggregate::AddN(const double* values, size_t n) {
  const size_t fused =
      (MaskHas(mask_, OperatorKind::kSum) ? 1u : 0u) |
      (MaskHas(mask_, OperatorKind::kSumSquares) ? 2u : 0u) |
      (MaskHas(mask_, OperatorKind::kMultiply) ? 4u : 0u) |
      (MaskHas(mask_, OperatorKind::kDecomposableSort) ? 8u : 0u);
  if (fused != 0) {
    kFusedFolds[fused](values, n,
                       {sum_, sum_squares_, multiply_, minmax_});
  }
  if (MaskHas(mask_, OperatorKind::kCount)) count_.AddN(values, n);
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
    sorted_.AddN(values, n);
  }
  constexpr OperatorMask kKnown = (1u << kNumOperatorKinds) - 1;
  return static_cast<uint64_t>(OperatorCount(mask_ & kKnown)) * n;
}

void PartialAggregate::Seal() {
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) sorted_.Seal();
}

void PartialAggregate::Merge(const PartialAggregate& other) {
  assert((mask_ & ~other.mask_) == 0);
  if (MaskHas(mask_, OperatorKind::kSum)) sum_.Merge(other.sum_);
  if (MaskHas(mask_, OperatorKind::kCount)) count_.Merge(other.count_);
  if (MaskHas(mask_, OperatorKind::kMultiply)) {
    multiply_.Merge(other.multiply_);
  }
  if (MaskHas(mask_, OperatorKind::kDecomposableSort)) {
    minmax_.Merge(other.minmax_);
  }
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
    sorted_.Merge(other.sorted_);
  }
  if (MaskHas(mask_, OperatorKind::kSumSquares)) {
    sum_squares_.Merge(other.sum_squares_);
  }
}

double PartialAggregate::Finalize(const AggregationSpec& spec) const {
  assert((ResolveNeeded(OperatorsFor(spec.fn), mask_) & ~mask_) == 0);
  switch (spec.fn) {
    case AggregationFunction::kSum:
      return sum_.sum;
    case AggregationFunction::kCount:
      return static_cast<double>(count_.count);
    case AggregationFunction::kAverage:
      return count_.count == 0 ? 0.0
                               : sum_.sum / static_cast<double>(count_.count);
    case AggregationFunction::kProduct:
      return multiply_.product;
    case AggregationFunction::kGeometricMean:
      return count_.count == 0
                 ? 0.0
                 : std::pow(multiply_.product,
                            1.0 / static_cast<double>(count_.count));
    case AggregationFunction::kMin:
      // When a non-decomposable sort subsumed the decomposable one
      // (ReduceMask), extrema come from the sorted state.
      if (!MaskHas(mask_, OperatorKind::kDecomposableSort)) {
        return sorted_.size() == 0 ? 0.0 : sorted_.MinValue();
      }
      return minmax_.min;
    case AggregationFunction::kMax:
      if (!MaskHas(mask_, OperatorKind::kDecomposableSort)) {
        return sorted_.size() == 0 ? 0.0 : sorted_.MaxValue();
      }
      return minmax_.max;
    case AggregationFunction::kMedian:
      return sorted_.Median();
    case AggregationFunction::kQuantile:
      return sorted_.Quantile(spec.quantile);
    case AggregationFunction::kVariance:
    case AggregationFunction::kStdDev: {
      if (count_.count == 0) return 0.0;
      const double n = static_cast<double>(count_.count);
      const double mean = sum_.sum / n;
      const double variance =
          std::max(0.0, sum_squares_.sum_sq / n - mean * mean);
      return spec.fn == AggregationFunction::kVariance ? variance
                                                       : std::sqrt(variance);
    }
  }
  return 0.0;
}

void PartialAggregate::SerializeTo(ByteWriter& out) const {
  out.WriteU8(mask_);
  if (MaskHas(mask_, OperatorKind::kSum)) out.WriteDouble(sum_.sum);
  if (MaskHas(mask_, OperatorKind::kCount)) out.WriteU64(count_.count);
  if (MaskHas(mask_, OperatorKind::kMultiply)) {
    out.WriteDouble(multiply_.product);
  }
  if (MaskHas(mask_, OperatorKind::kDecomposableSort)) {
    out.WriteDouble(minmax_.min);
    out.WriteDouble(minmax_.max);
  }
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
    sorted_.SerializeTo(out);
  }
  if (MaskHas(mask_, OperatorKind::kSumSquares)) {
    out.WriteDouble(sum_squares_.sum_sq);
  }
}

PartialAggregate PartialAggregate::DeserializeFrom(ByteReader& in) {
  PartialAggregate agg(in.ReadU8());
  if (MaskHas(agg.mask_, OperatorKind::kSum)) {
    agg.sum_.sum = in.ReadDouble();
  }
  if (MaskHas(agg.mask_, OperatorKind::kCount)) {
    agg.count_.count = in.ReadU64();
  }
  if (MaskHas(agg.mask_, OperatorKind::kMultiply)) {
    agg.multiply_.product = in.ReadDouble();
  }
  if (MaskHas(agg.mask_, OperatorKind::kDecomposableSort)) {
    agg.minmax_.min = in.ReadDouble();
    agg.minmax_.max = in.ReadDouble();
  }
  if (MaskHas(agg.mask_, OperatorKind::kNonDecomposableSort)) {
    agg.sorted_ = SortedState::DeserializeFrom(in);
  }
  if (MaskHas(agg.mask_, OperatorKind::kSumSquares)) {
    agg.sum_squares_.sum_sq = in.ReadDouble();
  }
  return agg;
}

}  // namespace desis
