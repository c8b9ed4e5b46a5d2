#ifndef DESIS_OPT_FACTOR_PLANNER_H_
#define DESIS_OPT_FACTOR_PLANNER_H_

#include <cstddef>
#include <vector>

#include "core/group_plan.h"
#include "core/query_analyzer.h"

namespace desis {
namespace opt {

/// Computes the cost-based execution plan for one query-group (§3.1 meets
/// §4.2): per-lane reduced operator masks (a lane folds only the operators
/// its own queries decompose into, not the whole group mask) and the
/// factor-window DAG (a coarse window whose slide and length tile exactly
/// into a finer tumbling window of the same group assembles from that
/// feeder's sealed composites instead of base slices). Every edge is gated
/// by the cost model (FactorGain > 0) and by the structural invariants
/// documented on GroupPlan::feeder. Groups carrying a non-decomposable
/// sort are left unfactored: their sealed states hold buffered values, and
/// composite chains would multiply the retained memory without reducing
/// operator work.
///
/// The returned plan leaves results byte-identical for exactly
/// representable aggregates; re-associated floating-point sums can differ
/// in final ULPs.
GroupPlan BuildGroupPlan(const QueryGroup& group);

/// Plans every group in place; returns how many came out optimized.
size_t PlanGroups(std::vector<QueryGroup>& groups);

}  // namespace opt
}  // namespace desis

#endif  // DESIS_OPT_FACTOR_PLANNER_H_
