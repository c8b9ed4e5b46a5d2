#ifndef DESIS_CORE_OPERATORS_H_
#define DESIS_CORE_OPERATORS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/serde.h"
#include "core/aggregation.h"
#include "mem/tdigest.h"

namespace desis {

// PartialAggregate::AddN folds a run of values through the decomposable
// states below in one fused loop; each state keeps its own sequential
// chain, so batched ingestion is bit-identical to per-event Add calls.

/// Running sum of event values.
struct SumState {
  double sum = 0.0;
  void Add(double v) { sum += v; }
  void Merge(const SumState& other) { sum += other.sum; }
};

/// Running event count.
struct CountState {
  uint64_t count = 0;
  void Add(double /*v*/) { ++count; }
  void AddN(const double* /*v*/, size_t n) { count += n; }
  void Merge(const CountState& other) { count += other.count; }
};

/// Sum of squared event values — the "user-defined operator" example of
/// §4.2.1: together with {sum, count} it decomposes variance and standard
/// deviation.
struct SumSquaresState {
  double sum_sq = 0.0;
  void Add(double v) { sum_sq += v * v; }
  void Merge(const SumSquaresState& other) { sum_sq += other.sum_sq; }
};

/// Running product of event values.
struct MultiplyState {
  double product = 1.0;
  void Add(double v) { product *= v; }
  void Merge(const MultiplyState& other) { product *= other.product; }
};

/// "Decomposable sort" (paper §4.2.1): sorts incrementally and drops
/// computed events — concretely only the running extrema survive. Shared
/// between min and max queries.
struct MinMaxState {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  void Add(double v) {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  void Merge(const MinMaxState& other) {
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
};

/// "Non-decomposable sort": keeps all events and performs one final sort
/// when the slice ends. Shared between max, min, median, and quantile.
///
/// A sealed exact state is a list of sorted runs: one value buffer plus the
/// run end offsets (none while there is a single run). Merging appends the
/// other state's runs instead of merging values, and rank reads select
/// across the runs. Ranks follow the key (value, run order, position in
/// run) — exactly the order a stable left-to-right merge of the runs
/// produces — so every read returns the same double, `-0.0`/`+0.0` ties
/// included. NaN has no sort order and is unsupported in exact lanes.
/// Past kMaxRuns runs, adjacent runs are merged by size tier, which keeps
/// the total merge work at O(n log runs).
///
/// Two optional modes layer on top of the exact buffer:
///  - sketch mode (EnableSketch): values are folded into a t-digest instead
///    of buffered — O(compression) state per slice, approximate quantiles,
///    exact extrema. The opt-in backing for AggregationSpec::approx_quantile.
///  - spill protocol (TakeSortedRun/TakeSealedValues/AdoptSorted): the
///    memory governor moves the buffer to a disk run and reinstates it
///    before any read — results stay byte-identical, only residency drops.
class SortedState {
 public:
  /// Run-list length past which Merge compacts adjacent runs.
  static constexpr size_t kMaxRuns = 32;

  SortedState() = default;
  SortedState(const SortedState& other);
  SortedState& operator=(const SortedState& other);
  SortedState(SortedState&&) noexcept = default;
  SortedState& operator=(SortedState&&) noexcept = default;

  void Add(double v);
  void AddN(const double* v, size_t n);
  /// Sorts the buffered values into one run; called once when the owning
  /// slice ends.
  void Seal();
  void Merge(const SortedState& other);

  /// Switches this (empty, unsealed) state to sketch mode: values feed a
  /// t-digest and the exact buffer stays empty forever.
  void EnableSketch(double compression);
  bool sketch() const { return digest_ != nullptr; }
  const mem::TDigest& digest() const { return *digest_; }

  /// Pre-grows the exact buffer (no-op in sketch mode); batched ingest
  /// passes its run length so governed buffers stop reallocating per event.
  void Reserve(size_t additional);

  /// Heap bytes held by this state — what the memory governor meters.
  size_t bytes() const {
    return values_.capacity() * sizeof(double) +
           run_ends_.capacity() * sizeof(size_t) +
           (digest_ ? digest_->bytes() : 0);
  }

  // --- Spill protocol (exact mode only; driven by StreamSlicer) ---------
  /// Unsealed: sorts and moves the buffer out (capacity released), leaving
  /// an empty buffer that keeps accepting Add/AddN. The caller appends the
  /// run to a SpillFile and k-way merges it back at seal time.
  std::vector<double> TakeSortedRun();
  /// Sealed: merges the runs into one and moves the values out, keeping
  /// sealed_ and represented_ so the record remains well-formed while cold
  /// on disk.
  std::vector<double> TakeSealedValues();
  /// Installs externally sorted values (spill merge or restore) and seals.
  void AdoptSorted(std::vector<double> sorted, uint64_t represented);
  /// Reinstalls values taken by TakeSortedRun after a failed spill write;
  /// the state stays unsealed and keeps accepting folds.
  void PutBackRun(std::vector<double> values) {
    values_ = std::move(values);
  }
  /// Raw values this state stands for (== size() unless spilled).
  uint64_t represented() const { return represented_; }

  bool sealed() const { return sealed_; }
  size_t size() const {
    return digest_ ? static_cast<size_t>(digest_->count()) : values_.size();
  }
  /// Sorted runs held by a sealed exact state (0 when it holds no values).
  size_t runs() const {
    return run_ends_.empty() ? (values_.empty() ? 0 : 1) : run_ends_.size();
  }
  /// Requires sealed(). k-th smallest value, k in [0, size). Exact mode.
  double NthValue(size_t k) const { return Select(k); }

  /// Exact extrema, valid in both modes (the digest tracks them exactly).
  /// Requires sealed() and size() > 0.
  double MinValue() const;
  double MaxValue() const;

  /// Median of the sealed values (mean of the middle two for even sizes).
  double Median() const;
  /// Nearest-rank-with-interpolation quantile, q in [0, 1], of sealed values.
  double Quantile(double q) const;

  void SerializeTo(ByteWriter& out) const;
  static SortedState DeserializeFrom(ByteReader& in);

 private:
  /// Merges adjacent runs, smaller size tiers into larger ones, then the
  /// newest runs, until at most `max_runs` (>= 1) remain.
  void Compact(size_t max_runs);
  /// Value at `rank` under the (value, run, position) key; with `next`,
  /// also the value at rank + 1 (which must exist).
  double Select(size_t rank, double* next = nullptr) const;

  std::vector<double> values_;
  /// End offset of each sorted run in values_; empty while one run or none.
  std::vector<size_t> run_ends_;
  bool sealed_ = false;
  /// Number of raw values this (possibly spilled) state represents.
  uint64_t represented_ = 0;
  /// Set iff sketch mode. Held by pointer so an exact lane stays small:
  /// every event folds into the head of one PartialAggregate per lane.
  std::unique_ptr<mem::TDigest> digest_;
};

/// The shared per-slice aggregate: one state per *operator* active in the
/// owning query-group. Adding an event touches each active operator exactly
/// once — this is the cross-function sharing at the heart of the paper.
class PartialAggregate {
 public:
  PartialAggregate() = default;
  explicit PartialAggregate(OperatorMask mask) : mask_(mask) {}

  OperatorMask mask() const { return mask_; }

  /// Folds one event value into every active operator. Returns the number
  /// of operator executions performed (for the Fig 9b/9d calculation count).
  int Add(double v);

  /// Folds `n` event values into every active operator, equivalent to (and
  /// bit-identical with) calling Add() per value. The mask picks one fused
  /// loop over sum, sum of squares, product and min/max per call; count
  /// and the sort buffer take the whole run at once. Returns the number of
  /// operator executions performed.
  uint64_t AddN(const double* values, size_t n);

  /// Finishes per-slice work (sorts the non-decomposable buffer).
  void Seal();

  /// Heap bytes of variable-size state (the sort buffer / digest) — the
  /// quantity the memory governor meters per lane.
  size_t bytes() const { return sorted_.bytes(); }

  /// Pre-grows the sort buffer for an incoming run of `n` values; no-op
  /// unless the mask holds a non-decomposable sort.
  void ReserveHint(size_t n) {
    if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
      sorted_.Reserve(n);
    }
  }

  /// Switches the (empty) sort state to the t-digest sketch lane.
  void EnableQuantileSketch(double compression) {
    if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
      sorted_.EnableSketch(compression);
    }
  }

  /// Merges another partial into this one, folding only this partial's
  /// active operators. `other` must carry at least this partial's operators
  /// (window assembly merges a query's needed subset out of the group's
  /// wider slice partials).
  void Merge(const PartialAggregate& other);

  /// Final value of `spec` computed from the shared operator states.
  /// Requires that OperatorsFor(spec.fn) is a subset of mask() and, for
  /// sort-based functions, that the state is sealed.
  double Finalize(const AggregationSpec& spec) const;

  uint64_t event_count() const { return count_.count; }

  const SumState& sum_state() const { return sum_; }
  const SumSquaresState& sum_squares_state() const { return sum_squares_; }
  const CountState& count_state() const { return count_; }
  const MultiplyState& multiply_state() const { return multiply_; }
  const MinMaxState& minmax_state() const { return minmax_; }
  const SortedState& sorted_state() const { return sorted_; }
  SortedState& mutable_sorted_state() { return sorted_; }

  void SerializeTo(ByteWriter& out) const;
  static PartialAggregate DeserializeFrom(ByteReader& in);

  /// Merges `src` into `dst` when the two masks may differ (runtime mask
  /// widening, §3.2 incremental maintenance): the normal Merge when dst's
  /// mask fits inside src's, otherwise the result is narrowed to src's
  /// mask. Narrowing is safe because a slice sealed under the old mask can
  /// only feed windows whose needed mask fits it — queries that forced the
  /// widening are activation-gated (active_from) past every such window.
  /// Runtime widening always grows masks (plain union, never ReduceMask),
  /// so the two masks are guaranteed comparable.
  static void MergeCompatible(PartialAggregate& dst,
                              const PartialAggregate& src) {
    if ((dst.mask_ & ~src.mask_) == 0) {
      dst.Merge(src);
      return;
    }
    PartialAggregate narrowed = src;
    narrowed.Merge(dst);
    dst = std::move(narrowed);
  }

 private:
  OperatorMask mask_ = 0;
  SumState sum_;
  SumSquaresState sum_squares_;
  CountState count_;
  MultiplyState multiply_;
  MinMaxState minmax_;
  SortedState sorted_;
};

}  // namespace desis

#endif  // DESIS_CORE_OPERATORS_H_
