#ifndef DESIS_OPT_GROUP_INDEX_H_
#define DESIS_OPT_GROUP_INDEX_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/query_analyzer.h"

namespace desis {
namespace opt {

/// Where AddQuery placed a query.
struct QueryPlacement {
  uint32_t gid = 0;
  uint32_t lane = 0;
  bool new_group = false;
  bool new_lane = false;
};

/// What RemoveQuery found.
struct QueryRemoval {
  uint32_t gid = 0;
  /// The query was its group's last member; the group was retired.
  bool group_empty = false;
};

/// Incrementally maintained query-group membership (§3.2 at 10k+ queries):
/// the runtime counterpart of QueryAnalyzer::Analyze. Placement replays
/// Analyze's exact probe order — sharing-class buckets, group creation
/// order within a bucket, FindLane per group — so a query added at runtime
/// joins the very group a cold start would have put it in, and add/remove
/// cost is O(affected group), independent of the resident query count.
///
/// Groups whose lanes are all plain key-equality selections (the dominant
/// shape at scale) get an O(1) lane lookup; everything else falls back to
/// the linear lane scan, still touching only one bucket.
class GroupIndex {
 public:
  explicit GroupIndex(DeploymentMode mode = DeploymentMode::kCentralized,
                      SharingPolicy policy = SharingPolicy::kCrossFunction)
      : mode_(mode), policy_(policy) {}

  /// Seeds the index from a cold-start analysis. Group ids must be unique;
  /// plans (if any) ride along untouched.
  void Seed(const std::vector<QueryGroup>& groups);

  /// Places `q`, updating the owning group in place: joins a compatible
  /// existing group (possibly opening a lane) or creates a new one. The
  /// group's operator masks are widened exactly like the deployed slicer
  /// widens its own (plain union on live groups — see
  /// PartialAggregate::MergeCompatible), so index and engine state agree.
  QueryPlacement AddQuery(const Query& q);

  /// Removes `q` from its group; retires the group when it was the last
  /// member. O(owning group).
  Result<QueryRemoval> RemoveQuery(QueryId id);

  const QueryGroup* Find(uint32_t gid) const;
  QueryGroup* MutableFind(uint32_t gid);
  bool ContainsQuery(QueryId id) const { return owner_.count(id) > 0; }
  size_t num_groups() const { return groups_.size(); }
  size_t num_queries() const { return owner_.size(); }

  /// Snapshot of every live group, in group-id order (testing/inspection).
  std::vector<QueryGroup> Snapshot() const;

 private:
  struct IndexedGroup {
    QueryGroup group;
    /// Fast-path eligibility: every lane is a bare key-equality predicate
    /// without dedup. Maintained on lane insertion, never re-derived.
    bool all_key_lanes = true;
    /// key -> lane for the fast path (meaningless when !all_key_lanes).
    std::unordered_map<uint32_t, uint32_t> key_to_lane;
    /// Owning bucket, for O(log) retirement.
    std::pair<bool, uint64_t> bucket{false, 0};
  };
  using BucketKey = std::pair<bool, uint64_t>;  // (root_only, sharing class)

  QueryPlacement PlaceInGroup(IndexedGroup& ig, const Query& q,
                              uint32_t lane);
  QueryPlacement CreateGroup(const Query& q, bool root_only);
  void IndexLanes(IndexedGroup& ig);

  DeploymentMode mode_;
  SharingPolicy policy_;
  std::map<uint32_t, IndexedGroup> groups_;
  /// Bucket -> group ids in creation order (Analyze's probe order).
  std::map<BucketKey, std::vector<uint32_t>> buckets_;
  std::unordered_map<QueryId, uint32_t> owner_;
  uint64_t next_seq_ = 0;  // arrival index (per-query sharing class)
  uint32_t next_gid_ = 0;
};

}  // namespace opt
}  // namespace desis

#endif  // DESIS_OPT_GROUP_INDEX_H_
