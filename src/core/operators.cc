#include "core/operators.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <utility>

namespace desis {

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
    ThinToCap();
  }
}

void SortedState::EnableSketch(double compression) {
  assert(!sealed_ && values_.empty());
  digest_.emplace(compression);
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
  std::vector<double> out;
  out.swap(values_);
  return out;
}

void SortedState::AdoptSorted(std::vector<double> sorted,
                              uint64_t represented) {
  assert(!digest_);
  values_ = std::move(sorted);
  represented_ = represented;
  sealed_ = true;
  ThinToCap();
}

void SortedState::ThinToCap() {
  if (sample_cap_ == 0 || values_.size() <= sample_cap_) return;
  // Stride-sample the sorted values: rank structure (and thus quantiles)
  // is preserved up to O(1/cap) rank error.
  std::vector<double> kept;
  kept.reserve(sample_cap_);
  const double stride = static_cast<double>(values_.size()) /
                        static_cast<double>(sample_cap_);
  for (size_t i = 0; i < sample_cap_; ++i) {
    kept.push_back(values_[static_cast<size_t>(
        (static_cast<double>(i) + 0.5) * stride)]);
  }
  values_ = std::move(kept);
}

void SortedState::Merge(const SortedState& other) {
  assert(sealed_ && other.sealed_);
  // Sketch infects the merge: once either side is a digest the exact ranks
  // are gone, so the result is a digest. Safe because sketch lanes are
  // per-group static — exact queries never assemble over sketch slices
  // (a sketch flip is a structural change, activation-gated like any other).
  if (digest_ || other.digest_) {
    if (!digest_) {
      mem::TDigest converted(other.digest_->compression());
      converted.AddN(values_.data(), values_.size());
      values_.clear();
      values_.shrink_to_fit();
      digest_ = std::move(converted);
    }
    if (other.digest_) {
      digest_->Merge(*other.digest_);
    } else {
      digest_->AddN(other.values_.data(), other.values_.size());
    }
    digest_->Compress();
    represented_ += other.represented_;
    return;
  }
  const size_t mid = values_.size();
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  std::inplace_merge(values_.begin(), values_.begin() + mid, values_.end());
  represented_ += other.represented_;
  ThinToCap();
}

double SortedState::Median() const {
  assert(sealed_);
  if (digest_) return digest_->Quantile(0.5);
  assert(!values_.empty());
  const size_t n = values_.size();
  if (n % 2 == 1) return values_[n / 2];
  return 0.5 * (values_[n / 2 - 1] + values_[n / 2]);
}

double SortedState::Quantile(double q) const {
  assert(sealed_);
  if (digest_) return digest_->Quantile(q);
  assert(!values_.empty());
  if (q <= 0.0) return values_.front();
  if (q >= 1.0) return values_.back();
  // Linear interpolation between closest ranks (type-7 quantile).
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values_.size()) return values_[lo];
  return values_[lo] + frac * (values_[lo + 1] - values_[lo]);
}

void SortedState::SerializeTo(ByteWriter& out) const {
  // Mode byte: bit 0 = sealed, bit 1 = sketch. Exact states keep writing
  // 0/1 exactly as before — the wire format (and thus bytes_sent baselines)
  // only changes for lanes that opted into the sketch.
  out.WriteU8(static_cast<uint8_t>((sealed_ ? 1 : 0) | (digest_ ? 2 : 0)));
  if (digest_) {
    out.WriteU64(represented_);
    digest_->SerializeTo(out);
    return;
  }
  out.WriteU64(represented_);
  out.WriteU64(sample_cap_);
  out.WritePodVector(values_);
}

SortedState SortedState::DeserializeFrom(ByteReader& in) {
  SortedState state;
  const uint8_t mode = in.ReadU8();
  state.sealed_ = (mode & 1) != 0;
  if ((mode & 2) != 0) {
    state.represented_ = in.ReadU64();
    state.digest_ = mem::TDigest::DeserializeFrom(in);
    return state;
  }
  state.represented_ = in.ReadU64();
  state.sample_cap_ = in.ReadU64();
  state.values_ = in.ReadPodVector<double>();
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
