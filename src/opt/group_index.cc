#include "opt/group_index.h"

#include <algorithm>

#include "core/grouping.h"

namespace desis {
namespace opt {

namespace {

bool BareKeyLane(const Predicate& p, bool dedup) {
  return p.has_key && !p.has_range && !dedup;
}

}  // namespace

void GroupIndex::IndexLanes(IndexedGroup& ig) {
  ig.all_key_lanes = true;
  ig.key_to_lane.clear();
  for (uint32_t i = 0; i < ig.group.lanes.size(); ++i) {
    const SelectionLane& lane = ig.group.lanes[i];
    if (!BareKeyLane(lane.predicate, lane.deduplicate)) {
      ig.all_key_lanes = false;
      ig.key_to_lane.clear();
      return;
    }
    ig.key_to_lane.emplace(lane.predicate.key, i);
  }
}

void GroupIndex::Seed(const std::vector<QueryGroup>& groups) {
  for (const QueryGroup& group : groups) {
    IndexedGroup ig;
    ig.group = group;
    IndexLanes(ig);
    // A group's bucket is its creating query's: every member shares the
    // class by construction (per-query classes consume the arrival index,
    // which is fresh per seeded query, preserving "never shared" there).
    const Query& first = group.queries.front().query;
    ig.bucket = {group.root_only,
                 grouping::SharingClass(policy_, first, next_seq_)};
    buckets_[ig.bucket].push_back(group.id);
    for (const GroupedQuery& gq : group.queries) {
      owner_[gq.query.id] = group.id;
      ++next_seq_;
    }
    next_gid_ = std::max(next_gid_, group.id + 1);
    groups_.emplace(group.id, std::move(ig));
  }
}

QueryPlacement GroupIndex::PlaceInGroup(IndexedGroup& ig, const Query& q,
                                        uint32_t lane) {
  QueryPlacement placement;
  placement.gid = ig.group.id;
  placement.lane = lane;
  placement.new_lane = lane == ig.group.lanes.size();
  if (placement.new_lane) {
    ig.group.lanes.push_back({q.predicate, q.deduplicate});
    if (BareKeyLane(q.predicate, q.deduplicate)) {
      if (ig.all_key_lanes) ig.key_to_lane.emplace(q.predicate.key, lane);
    } else {
      ig.all_key_lanes = false;
      ig.key_to_lane.clear();
    }
  }
  ig.group.queries.push_back({q, lane});
  // Widen the operator masks exactly like the deployed slicer does for a
  // live group: plain union, never ReduceMask (see MergeCompatible's
  // contract — runtime mask chains must only grow).
  const OperatorMask ops = OperatorsFor(q.agg.fn);
  ig.group.mask |= ops;
  if (ig.group.plan.optimized) {
    auto& lm = ig.group.plan.lane_masks;
    if (lm.size() < ig.group.lanes.size()) {
      lm.resize(ig.group.lanes.size(), 0);
    }
    if (placement.new_lane) {
      lm[lane] = ReduceMask(ops);
    } else if (lm[lane] != 0) {
      lm[lane] |= ops;
    }
  }
  owner_[q.id] = ig.group.id;
  return placement;
}

QueryPlacement GroupIndex::CreateGroup(const Query& q, bool root_only) {
  IndexedGroup ig;
  ig.group.id = next_gid_++;
  ig.group.root_only = root_only;
  ig.group.lanes.push_back({q.predicate, q.deduplicate});
  ig.group.queries.push_back({q, 0});
  ig.group.mask = ReduceMask(OperatorsFor(q.agg.fn));
  IndexLanes(ig);

  QueryPlacement placement;
  placement.gid = ig.group.id;
  placement.lane = 0;
  placement.new_group = true;
  placement.new_lane = true;
  owner_[q.id] = ig.group.id;
  groups_.emplace(ig.group.id, std::move(ig));
  return placement;
}

QueryPlacement GroupIndex::AddQuery(const Query& q) {
  const bool root_only = grouping::RootOnly(mode_, q);
  const BucketKey key = {root_only,
                         grouping::SharingClass(policy_, q, next_seq_++)};
  auto bit = buckets_.find(key);
  if (bit != buckets_.end()) {
    for (uint32_t gid : bit->second) {
      IndexedGroup& ig = groups_.at(gid);
      // O(1) fast path: all lanes are bare key-equality selections, so a
      // bare key-equality query is identical to at most one lane and
      // disjoint from every other — FindLane's answer is a hash lookup.
      if (ig.all_key_lanes && BareKeyLane(q.predicate, q.deduplicate)) {
        auto kit = ig.key_to_lane.find(q.predicate.key);
        const uint32_t lane = kit != ig.key_to_lane.end()
                                  ? kit->second
                                  : static_cast<uint32_t>(
                                        ig.group.lanes.size());
        return PlaceInGroup(ig, q, lane);
      }
      uint32_t lane = 0;
      if (grouping::FindLane(ig.group.lanes, q, &lane)) {
        return PlaceInGroup(ig, q, lane);
      }
    }
  }
  QueryPlacement placement = CreateGroup(q, root_only);
  IndexedGroup& ig = groups_.at(placement.gid);
  ig.bucket = key;
  buckets_[key].push_back(placement.gid);
  return placement;
}

Result<QueryRemoval> GroupIndex::RemoveQuery(QueryId id) {
  auto it = owner_.find(id);
  if (it == owner_.end()) {
    return Status::NotFound("no indexed query with this id");
  }
  const uint32_t gid = it->second;
  owner_.erase(it);
  IndexedGroup& ig = groups_.at(gid);
  auto& qs = ig.group.queries;
  for (auto qit = qs.begin(); qit != qs.end(); ++qit) {
    if (qit->query.id == id) {
      qs.erase(qit);
      break;
    }
  }
  // Lanes and masks are deliberately left untouched while members remain:
  // the deployed slicers keep them too, and narrowing live masks would
  // break the grow-only contract of MergeCompatible.
  QueryRemoval removal;
  removal.gid = gid;
  removal.group_empty = qs.empty();
  if (removal.group_empty) {
    auto& vec = buckets_[ig.bucket];
    vec.erase(std::remove(vec.begin(), vec.end(), gid), vec.end());
    if (vec.empty()) buckets_.erase(ig.bucket);
    groups_.erase(gid);
  }
  return removal;
}

const QueryGroup* GroupIndex::Find(uint32_t gid) const {
  auto it = groups_.find(gid);
  return it == groups_.end() ? nullptr : &it->second.group;
}

QueryGroup* GroupIndex::MutableFind(uint32_t gid) {
  auto it = groups_.find(gid);
  return it == groups_.end() ? nullptr : &it->second.group;
}

std::vector<QueryGroup> GroupIndex::Snapshot() const {
  std::vector<QueryGroup> out;
  out.reserve(groups_.size());
  for (const auto& [gid, ig] : groups_) out.push_back(ig.group);
  return out;
}

}  // namespace opt
}  // namespace desis
