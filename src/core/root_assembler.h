#ifndef DESIS_CORE_ROOT_ASSEMBLER_H_
#define DESIS_CORE_ROOT_ASSEMBLER_H_

#include <deque>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/query_analyzer.h"
#include "core/slicer.h"
#include "core/stats.h"

namespace desis {

/// Window assembly over slice partials for one pushed-down query-group
/// (§5.1): merges partials arriving from children into root slices and
/// terminates windows from window attributes (fixed windows), global gap
/// tracking (session windows), and shipped end punctuations (user-defined
/// windows). Everything is watermark-driven: a window [ws, we) closes only
/// once every child's watermark passed `we`, so out-of-order arrival across
/// children is safe. It consumes plain SliceRecords: the net layer converts
/// wire SlicePartialMsgs before handing them over.
class RootAssembler {
 public:
  RootAssembler(QueryGroup group, EngineStats* stats, WindowSink sink);

  /// Folds one child slice partial into the matching root slice; a new
  /// root slice takes the record's lanes without copying them.
  void AddPartial(SliceRecord&& msg);

  /// Closes every window ending at or before `watermark` (use the minimum
  /// over all children's watermarks).
  void AdvanceTo(Timestamp watermark);

  const QueryGroup& group() const { return group_; }
  size_t pending_entries() const { return entries_.size(); }

  /// Registers one query at runtime (incremental group maintenance, §3.2);
  /// mirrors StreamSlicer::ApplyQueryAdd. `active_from` additionally gets
  /// raised past the last advanced watermark so the new query never sees a
  /// window whose entries were already (partially) garbage collected.
  void ApplyQueryAdd(const Query& q, uint32_t lane,
                     const SelectionLane& lane_def, Timestamp active_from);

  /// Stops emitting results for `id` (runtime query removal, §3.2).
  bool SuppressQuery(QueryId id);

 private:
  struct Entry {
    Timestamp start;
    Timestamp end;
    Timestamp last_event_ts;
    std::vector<PartialAggregate> lanes;
    std::vector<uint64_t> lane_events;
    std::vector<Timestamp> lane_last_ts;
    int reports = 0;

    uint64_t TotalEvents() const {
      uint64_t total = 0;
      for (uint64_t n : lane_events) total += n;
      return total;
    }
  };
  struct SpecState {
    WindowSpec spec;
    std::vector<uint32_t> query_idxs;
    // Mirrors the slicer's lane scoping for dynamic/count windows.
    int lane_filter = -1;
    // Fixed time windows: next scheduled window end.
    Timestamp next_ep = kNoTimestamp;
    // Session windows: global gap tracking (§5.1.2).
    bool active = false;
    Timestamp session_start = kNoTimestamp;
    Timestamp global_last = kNoTimestamp;
    // User-defined windows: end punctuations shipped from children.
    std::deque<EpInfo> pending_eps;
    Timestamp last_closed_end = kNoTimestamp;
  };
  using EntryKey = std::pair<Timestamp, Timestamp>;

  void InitializeSchedules(Timestamp first_start);
  // Merges entries covered by [ws, we] and emits one result per query.
  void AssembleWindow(uint32_t spec_idx, Timestamp ws, Timestamp we);
  // Feeds completed entries to the session trackers in global time order.
  void ScanSessionsUpTo(Timestamp watermark);
  void CollectGarbage(Timestamp watermark);

  /// Effective lane mask under the group plan (group mask when static).
  OperatorMask LaneMask(uint32_t lane) const {
    const auto& lm = group_.plan.lane_masks;
    return (group_.plan.optimized && lane < lm.size() && lm[lane] != 0)
               ? lm[lane]
               : group_.mask;
  }
  bool ActiveFor(uint32_t qi, Timestamp ws) const {
    const Timestamp af =
        qi < active_from_.size() ? active_from_[qi] : kNoTimestamp;
    return af == kNoTimestamp || ws >= af;
  }

  QueryGroup group_;
  EngineStats* stats_;
  WindowSink sink_;
  std::vector<SpecState> specs_;
  std::vector<uint32_t> session_specs_;
  std::vector<uint32_t> ud_specs_;
  /// Fixed-spec firing order: DAG depth first (factor feeders assemble
  /// before dependents at each watermark), spec index second. Identical to
  /// plain index order when no plan is active.
  std::vector<uint32_t> fixed_order_;
  std::map<EntryKey, Entry> entries_;
  EntryKey session_cursor_{kNoTimestamp, kNoTimestamp};
  bool initialized_ = false;
  bool any_closed_ = false;
  Timestamp first_start_ = kMaxTimestamp;
  Timestamp last_advanced_ = kNoTimestamp;
  std::unordered_set<QueryId> suppressed_;
  std::vector<Timestamp> active_from_;
  /// Factor-window execution at the root: closed feeder windows' per-lane
  /// states (under the lane masks), keyed by (start, end); dependents merge
  /// one composite per covered feeder range instead of every entry in it.
  struct FactorComposite {
    std::vector<PartialAggregate> lanes;
    std::vector<uint64_t> lane_events;
  };
  std::map<EntryKey, FactorComposite> composites_;
  std::vector<bool> spec_is_feeder_;
};

}  // namespace desis

#endif  // DESIS_CORE_ROOT_ASSEMBLER_H_
