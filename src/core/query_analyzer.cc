#include "core/query_analyzer.h"

#include <cstdint>
#include <map>
#include <tuple>

#include "core/grouping.h"

namespace desis {

Result<std::vector<QueryGroup>> QueryAnalyzer::Analyze(
    const std::vector<Query>& queries) const {
  std::map<QueryId, int> seen_ids;
  for (const Query& q : queries) {
    if (auto s = q.Validate(); !s.ok()) return s;
    if (++seen_ids[q.id] > 1) {
      return Status::InvalidArgument("duplicate query id");
    }
  }

  std::vector<QueryGroup> groups;
  // (root_only, sharing class) -> indices of candidate groups, probed in
  // order; a query opens a new group only if no compatible group exists.
  // The incremental opt::GroupIndex replays exactly this probe order, so a
  // runtime-added query lands in the same group a cold-start analyze would
  // pick.
  std::map<std::pair<bool, uint64_t>, std::vector<size_t>> buckets;

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    const bool root_only = grouping::RootOnly(mode_, q);
    const uint64_t cls = grouping::SharingClass(policy_, q, qi);

    bool placed = false;
    for (size_t gi : buckets[{root_only, cls}]) {
      uint32_t lane = 0;
      if (!grouping::FindLane(groups[gi].lanes, q, &lane)) continue;
      if (lane == groups[gi].lanes.size()) {
        groups[gi].lanes.push_back({q.predicate, q.deduplicate});
      }
      groups[gi].queries.push_back({q, lane});
      groups[gi].mask = ReduceMask(
          static_cast<OperatorMask>(groups[gi].mask | OperatorsFor(q.agg.fn)));
      placed = true;
      break;
    }
    if (!placed) {
      QueryGroup group;
      group.id = static_cast<uint32_t>(groups.size());
      group.root_only = root_only;
      group.lanes.push_back({q.predicate, q.deduplicate});
      group.queries.push_back({q, 0});
      group.mask = OperatorsFor(q.agg.fn);
      buckets[{root_only, cls}].push_back(groups.size());
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

void RegisterGroupMetrics(const QueryGroup& group,
                          obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const obs::Labels labels = {{"group", std::to_string(group.id)}};
  auto set = [&](const char* name, const char* unit, int64_t v) {
    registry->GetGauge(name, labels, unit)->Set(v);
  };
  set("group.queries", "queries", static_cast<int64_t>(group.queries.size()));
  set("group.operators", "operators", OperatorCount(group.mask));
  set("group.lanes", "lanes", static_cast<int64_t>(group.lanes.size()));
  set("group.root_only", "bool", group.root_only ? 1 : 0);
  if (group.plan.optimized) {
    set("opt.rewrites", "edges", static_cast<int64_t>(group.plan.rewrites));
    set("opt.dag_depth", "levels",
        static_cast<int64_t>(group.plan.dag_depth));
  }
}

}  // namespace desis
