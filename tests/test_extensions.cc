// Tests for the operator-framework extensions: the user-defined
// sum-of-squares operator (variance / stddev, §4.2.1) and the approximate
// quantile sampling mode.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "core/engine.h"
#include "core/query_parser.h"

namespace desis {
namespace {

TEST(VarianceExtension, Table1Mapping) {
  EXPECT_EQ(OperatorsFor(AggregationFunction::kVariance),
            MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
                MaskOf(OperatorKind::kSumSquares));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kStdDev),
            OperatorsFor(AggregationFunction::kVariance));
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kVariance));
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kStdDev));
}

TEST(VarianceExtension, FinalizeMatchesDefinition) {
  PartialAggregate agg(OperatorsFor(AggregationFunction::kVariance));
  const double values[] = {2, 4, 4, 4, 5, 5, 7, 9};  // classic example
  for (double v : values) agg.Add(v);
  agg.Seal();
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kVariance, 0}), 4.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kStdDev, 0}), 2.0);
}

TEST(VarianceExtension, MergeEqualsSingleShot) {
  const OperatorMask mask = OperatorsFor(AggregationFunction::kVariance);
  PartialAggregate whole(mask);
  PartialAggregate left(mask);
  PartialAggregate right(mask);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(rng.NextBounded(50));
    whole.Add(v);
    (i % 3 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_NEAR(whole.Finalize({AggregationFunction::kVariance, 0}),
              left.Finalize({AggregationFunction::kVariance, 0}), 1e-9);
}

TEST(VarianceExtension, SharesSumAndCountWithAverage) {
  // avg + variance + stddev share {sum, count, sum_sq}: 3 ops per event.
  DesisEngine engine;
  std::vector<Query> queries;
  for (QueryId id = 1; id <= 3; ++id) {
    Query q;
    q.id = id;
    q.window = WindowSpec::Tumbling(10);
    q.agg = {id == 1 ? AggregationFunction::kAverage
             : id == 2 ? AggregationFunction::kVariance
                       : AggregationFunction::kStdDev,
             0};
    queries.push_back(q);
  }
  ASSERT_TRUE(engine.Configure(queries).ok());
  EXPECT_EQ(engine.num_groups(), 1u);
  std::map<QueryId, double> results;
  engine.set_sink([&](const WindowResult& r) { results[r.query_id] = r.value; });
  engine.Ingest({0, 0, 1.0, 0});
  engine.Ingest({2, 0, 3.0, 0});
  engine.AdvanceTo(100);
  EXPECT_DOUBLE_EQ(results[1], 2.0);
  EXPECT_DOUBLE_EQ(results[2], 1.0);
  EXPECT_DOUBLE_EQ(results[3], 1.0);
  EXPECT_EQ(engine.stats().operator_executions, 2u * 3u);
}

TEST(VarianceExtension, ParserAccepts) {
  auto q = QueryParser::Parse(
      "SELECT VARIANCE(value) FROM stream WINDOW TUMBLING(SIZE 1s)", 1);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().agg.fn, AggregationFunction::kVariance);
  auto q2 = QueryParser::Parse(
      "SELECT STDDEV(value) FROM stream WINDOW SESSION(GAP 1s)", 2);
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2.value().agg.fn, AggregationFunction::kStdDev);
}

}  // namespace
}  // namespace desis
