#include "core/operators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/serde.h"
#include "core/aggregation.h"

namespace desis {
namespace {

TEST(AggregationTable, OperatorsForMatchesPaperTable1) {
  EXPECT_EQ(OperatorsFor(AggregationFunction::kSum),
            MaskOf(OperatorKind::kSum));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kCount),
            MaskOf(OperatorKind::kCount));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kAverage),
            MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kProduct),
            MaskOf(OperatorKind::kMultiply));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kGeometricMean),
            MaskOf(OperatorKind::kMultiply) | MaskOf(OperatorKind::kCount));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kMax),
            MaskOf(OperatorKind::kDecomposableSort));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kMin),
            MaskOf(OperatorKind::kDecomposableSort));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kMedian),
            MaskOf(OperatorKind::kNonDecomposableSort));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kQuantile),
            MaskOf(OperatorKind::kNonDecomposableSort));
}

TEST(AggregationTable, Decomposability) {
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kSum));
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kAverage));
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kMin));
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kGeometricMean));
  EXPECT_FALSE(IsDecomposable(AggregationFunction::kMedian));
  EXPECT_FALSE(IsDecomposable(AggregationFunction::kQuantile));
}

TEST(AggregationTable, SharedOperatorsReduceWork) {
  // avg + sum need only {sum, count}: 2 operator executions per event, not 3.
  OperatorMask mask = OperatorsFor(AggregationFunction::kAverage) |
                      OperatorsFor(AggregationFunction::kSum);
  EXPECT_EQ(OperatorCount(mask), 2);
  // quantile + max share nothing extra over quantile alone... they need
  // non-decomposable sort + decomposable sort = 2.
  mask = OperatorsFor(AggregationFunction::kQuantile) |
         OperatorsFor(AggregationFunction::kMax);
  EXPECT_EQ(OperatorCount(mask), 2);
  // median + quantile share a single non-decomposable sort.
  mask = OperatorsFor(AggregationFunction::kMedian) |
         OperatorsFor(AggregationFunction::kQuantile);
  EXPECT_EQ(OperatorCount(mask), 1);
}

TEST(Operators, SumCountMultiply) {
  SumState sum;
  CountState count;
  MultiplyState mult;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    sum.Add(v);
    count.Add(v);
    mult.Add(v);
  }
  EXPECT_DOUBLE_EQ(sum.sum, 10.0);
  EXPECT_EQ(count.count, 4u);
  EXPECT_DOUBLE_EQ(mult.product, 24.0);

  SumState sum2;
  sum2.Add(5.0);
  sum.Merge(sum2);
  EXPECT_DOUBLE_EQ(sum.sum, 15.0);
}

TEST(Operators, MinMaxSharedState) {
  MinMaxState mm;
  for (double v : {3.0, -1.0, 7.0, 2.0}) mm.Add(v);
  EXPECT_DOUBLE_EQ(mm.min, -1.0);
  EXPECT_DOUBLE_EQ(mm.max, 7.0);

  MinMaxState other;
  other.Add(-5.0);
  other.Add(100.0);
  mm.Merge(other);
  EXPECT_DOUBLE_EQ(mm.min, -5.0);
  EXPECT_DOUBLE_EQ(mm.max, 100.0);
}

TEST(Operators, SortedStateMedianOdd) {
  SortedState s;
  for (double v : {5.0, 1.0, 3.0}) s.Add(v);
  s.Seal();
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
}

TEST(Operators, SortedStateMedianEven) {
  SortedState s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.Add(v);
  s.Seal();
  EXPECT_DOUBLE_EQ(s.Median(), 2.5);
}

TEST(Operators, SortedStateQuantiles) {
  SortedState s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  s.Seal();
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 50.5);
  EXPECT_NEAR(s.Quantile(0.9), 90.1, 1e-9);
}

TEST(Operators, SortedStateMergeKeepsOrder) {
  SortedState a;
  SortedState b;
  for (double v : {9.0, 1.0, 5.0}) a.Add(v);
  for (double v : {2.0, 8.0}) b.Add(v);
  a.Seal();
  b.Seal();
  a.Merge(b);
  ASSERT_EQ(a.size(), 5u);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a.NthValue(i - 1), a.NthValue(i));
  }
}

TEST(PartialAggregate, AddReturnsExecutedOperatorCount) {
  PartialAggregate agg(OperatorsFor(AggregationFunction::kAverage) |
                       OperatorsFor(AggregationFunction::kSum));
  // avg+sum collapse to {sum, count}: exactly 2 executions per event.
  EXPECT_EQ(agg.Add(1.0), 2);

  PartialAggregate all(
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kMultiply) |
      MaskOf(OperatorKind::kDecomposableSort) |
      MaskOf(OperatorKind::kNonDecomposableSort));
  EXPECT_EQ(all.Add(2.0), 5);
}

// AddN's fused loop must leave every operator state bit-identical to
// per-value Add, for each of the 16 subsets of {sum, sum of squares,
// product, min/max}, with count and the sort buffer alongside or not.
// The values carry NaN, both zeros, both infinities and negatives, and the
// run is folded in uneven pieces so each chain also resumes across calls.
TEST(PartialAggregate, FusedAddNBitIdenticalToAdd) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {
      1.5,  -2.25, 0.0,  -0.0, 3.0,   nan,  -7.5, inf,  0.1,  -inf, 2.0,
      -0.0, 1e300, 1e-300, -3.0, 0.3, 5.0,  nan,  -1.0, 0.0,  4.75, -inf};
  const OperatorKind kFusable[] = {
      OperatorKind::kSum, OperatorKind::kSumSquares, OperatorKind::kMultiply,
      OperatorKind::kDecomposableSort};
  const size_t kPieces[] = {1, 4, 7, 10};  // cut points for the AddN calls
  auto bytes = [](PartialAggregate agg) {
    agg.Seal();
    ByteWriter out;
    agg.SerializeTo(out);
    return out.bytes();
  };
  for (unsigned subset = 0; subset < 16; ++subset) {
    for (unsigned extra = 0; extra < 4; ++extra) {
      OperatorMask mask = 0;
      for (unsigned b = 0; b < 4; ++b) {
        if ((subset >> b) & 1u) mask |= MaskOf(kFusable[b]);
      }
      if ((extra & 1u) != 0) mask |= MaskOf(OperatorKind::kCount);
      if ((extra & 2u) != 0) mask |= MaskOf(OperatorKind::kNonDecomposableSort);
      SCOPED_TRACE("mask=" + std::to_string(mask));

      PartialAggregate one_by_one(mask);
      uint64_t add_execs = 0;
      for (double v : values) add_execs += static_cast<uint64_t>(one_by_one.Add(v));

      PartialAggregate bulk(mask);
      uint64_t bulk_execs = 0;
      size_t begin = 0;
      for (size_t cut : kPieces) {
        bulk_execs += bulk.AddN(values.data() + begin, cut - begin);
        begin = cut;
      }
      bulk_execs += bulk.AddN(values.data() + begin, values.size() - begin);

      EXPECT_EQ(add_execs, bulk_execs);
      EXPECT_EQ(bytes(one_by_one), bytes(bulk));
    }
  }
}

TEST(PartialAggregate, FinalizeEveryFunctionFromSharedState) {
  PartialAggregate agg(
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kMultiply) |
      MaskOf(OperatorKind::kDecomposableSort) |
      MaskOf(OperatorKind::kNonDecomposableSort));
  for (double v : {2.0, 8.0, 4.0}) agg.Add(v);
  agg.Seal();

  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kSum, 0}), 14.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kCount, 0}), 3.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kAverage, 0}),
                   14.0 / 3.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kProduct, 0}), 64.0);
  EXPECT_NEAR(agg.Finalize({AggregationFunction::kGeometricMean, 0}),
              std::cbrt(64.0), 1e-9);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kMin, 0}), 2.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kMax, 0}), 8.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kMedian, 0}), 4.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kQuantile, 0.0}), 2.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kQuantile, 1.0}), 8.0);
}

TEST(PartialAggregate, MergeEqualsSingleShot) {
  // Property: F(X0..n) == G(F(X0..i), F(Xi..n)) for decomposable operators.
  const OperatorMask mask =
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kDecomposableSort) |
      MaskOf(OperatorKind::kNonDecomposableSort);
  PartialAggregate whole(mask);
  PartialAggregate left(mask);
  PartialAggregate right(mask);
  const double values[] = {5, 3, 9, 1, 7, 2, 8, 6};
  for (int i = 0; i < 8; ++i) {
    whole.Add(values[i]);
    (i < 4 ? left : right).Add(values[i]);
  }
  whole.Seal();
  left.Seal();
  right.Seal();
  left.Merge(right);

  for (AggregationFunction fn :
       {AggregationFunction::kSum, AggregationFunction::kCount,
        AggregationFunction::kAverage, AggregationFunction::kMin,
        AggregationFunction::kMax, AggregationFunction::kMedian}) {
    EXPECT_DOUBLE_EQ(whole.Finalize({fn, 0.5}), left.Finalize({fn, 0.5}))
        << ToString(fn);
  }
}

TEST(PartialAggregate, MergeSubsetMaskReadsOnlyNeededOperators) {
  // A slice partial carries the group's union mask; assembling a sum-only
  // window must not touch the (expensive) sorted state.
  const OperatorMask group_mask =
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kNonDecomposableSort);
  PartialAggregate slice(group_mask);
  for (double v : {1.0, 2.0, 3.0}) slice.Add(v);
  slice.Seal();

  PartialAggregate acc(MaskOf(OperatorKind::kSum));
  acc.Seal();
  acc.Merge(slice);
  EXPECT_DOUBLE_EQ(acc.Finalize({AggregationFunction::kSum, 0}), 6.0);
  EXPECT_EQ(acc.sorted_state().size(), 0u);
}

TEST(PartialAggregate, SerializeRoundTrip) {
  const OperatorMask mask =
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kMultiply) |
      MaskOf(OperatorKind::kDecomposableSort) |
      MaskOf(OperatorKind::kNonDecomposableSort);
  PartialAggregate agg(mask);
  for (double v : {3.0, 1.0, 4.0, 1.5}) agg.Add(v);
  agg.Seal();

  ByteWriter out;
  agg.SerializeTo(out);
  ByteReader in(out.bytes());
  PartialAggregate back = PartialAggregate::DeserializeFrom(in);
  EXPECT_TRUE(in.AtEnd());

  EXPECT_EQ(back.mask(), mask);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kSum, 0}), 9.5);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kCount, 0}), 4.0);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kMin, 0}), 1.0);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kMax, 0}), 4.0);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kMedian, 0}), 2.25);
}

TEST(PartialAggregate, EmptyPartialSerializeRoundTrip) {
  PartialAggregate agg(MaskOf(OperatorKind::kSum));
  ByteWriter out;
  agg.SerializeTo(out);
  ByteReader in(out.bytes());
  PartialAggregate back = PartialAggregate::DeserializeFrom(in);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kSum, 0}), 0.0);
}

// Property sweep: merged quantiles equal whole-set quantiles for any split.
class QuantileMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMergeProperty, SplitInvariant) {
  const int split = GetParam();
  const int n = 64;
  PartialAggregate whole(MaskOf(OperatorKind::kNonDecomposableSort));
  PartialAggregate left(MaskOf(OperatorKind::kNonDecomposableSort));
  PartialAggregate right(MaskOf(OperatorKind::kNonDecomposableSort));
  uint64_t state = 42;
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double v = static_cast<double>(state % 1000);
    whole.Add(v);
    (i < split ? left : right).Add(v);
  }
  whole.Seal();
  left.Seal();
  right.Seal();
  left.Merge(right);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(whole.Finalize({AggregationFunction::kQuantile, q}),
                     left.Finalize({AggregationFunction::kQuantile, q}))
        << "q=" << q << " split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, QuantileMergeProperty,
                         ::testing::Values(0, 1, 7, 16, 32, 48, 63, 64));

}  // namespace
}  // namespace desis
