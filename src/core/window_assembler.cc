#include "core/window_assembler.h"

namespace desis {

WindowAssembler::WindowAssembler(QueryGroup group, EngineStats* stats)
    : group_(std::move(group)),
      stats_(stats),
      specs_(DeriveSpecLayout(group_)),
      spec_is_feeder_(specs_.size(), false),
      active_from_(group_.queries.size(), kNoTimestamp) {
  if (!group_.plan.optimized) return;
  for (uint32_t si = 0; si < specs_.size(); ++si) {
    const int32_t f = group_.plan.FeederOf(si);
    if (f >= 0 && static_cast<size_t>(f) < specs_.size()) {
      spec_is_feeder_[static_cast<size_t>(f)] = true;
    }
  }
}

uint32_t WindowAssembler::FindSpec(const Query& q, uint32_t lane) const {
  const int lane_filter =
      SpecLaneScoped(q.window) ? static_cast<int>(lane) : -1;
  uint32_t si = 0;
  while (si < specs_.size() && !(specs_[si].spec == q.window &&
                                 specs_[si].lane_filter == lane_filter)) {
    ++si;
  }
  return si;
}

void WindowAssembler::WidenMasks(const Query& q, uint32_t lane, bool cold) {
  const OperatorMask q_ops = OperatorsFor(q.agg.fn);
  auto widen = [&](OperatorMask m) {
    const auto u = static_cast<OperatorMask>(m | q_ops);
    return cold ? ReduceMask(u) : u;
  };
  group_.mask = widen(group_.mask);
  if (!group_.plan.optimized) return;
  auto& lm = group_.plan.lane_masks;
  if (lm.size() < group_.lanes.size()) lm.resize(group_.lanes.size(), 0);
  if (lane >= group_.lanes.size()) {
    lm.push_back(ReduceMask(q_ops));
  } else if (lm[lane] != 0) {
    lm[lane] = widen(lm[lane]);
  }  // a zero entry falls through to the group mask, already widened
}

uint32_t WindowAssembler::AddQuery(const Query& q, uint32_t lane,
                                   const SelectionLane& lane_def,
                                   Timestamp active_from) {
  if (lane >= group_.lanes.size()) group_.lanes.push_back(lane_def);
  const uint32_t si = FindSpec(q, lane);
  if (si == specs_.size()) {
    specs_.push_back(
        {q.window, SpecLaneScoped(q.window) ? static_cast<int>(lane) : -1, {}});
    spec_is_feeder_.push_back(false);
  }
  specs_[si].query_idxs.push_back(
      static_cast<uint32_t>(group_.queries.size()));
  group_.queries.push_back({q, lane});
  active_from_.push_back(active_from);
  return si;
}

bool WindowAssembler::SuppressQuery(QueryId id) {
  for (const GroupedQuery& gq : group_.queries) {
    if (gq.query.id == id) return suppressed_.insert(id).second;
  }
  return false;
}

}  // namespace desis
