#ifndef DESIS_CORE_ROOT_ASSEMBLER_H_
#define DESIS_CORE_ROOT_ASSEMBLER_H_

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/query_analyzer.h"
#include "core/slicer.h"
#include "core/stats.h"
#include "core/window_assembler.h"

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

  const QueryGroup& group() const { return assembler_.group(); }
  size_t pending_entries() const { return entries_.size(); }

  /// Registers one query at runtime (incremental group maintenance, §3.2),
  /// like StreamSlicer::ApplyQueryAdd. `active_from` additionally gets
  /// raised past the last advanced watermark so the new query never sees a
  /// window whose entries were already (partially) garbage collected.
  void ApplyQueryAdd(const Query& q, uint32_t lane,
                     const SelectionLane& lane_def, Timestamp active_from);

  /// Stops emitting results for `id` (runtime query removal, §3.2).
  bool SuppressQuery(QueryId id) { return assembler_.SuppressQuery(id); }

 private:
  struct SpecState {
    WindowSpec spec;
    // The slicer's lane scoping for session windows.
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

  void AddSpec(uint32_t si);
  void InitializeSchedules(Timestamp first_start);
  // Merges the entries inside [ws, we) and emits one result per query.
  void AssembleWindow(uint32_t spec_idx, Timestamp ws, Timestamp we);
  // Feeds completed entries to the session trackers in global time order.
  void ScanSessionsUpTo(Timestamp watermark);
  void CollectGarbage(Timestamp watermark);

  WindowAssembler assembler_;
  EngineStats* stats_;
  WindowSink sink_;
  std::vector<SpecState> specs_;
  std::vector<uint32_t> session_specs_;
  std::vector<uint32_t> ud_specs_;
  /// Fixed-spec firing order: DAG depth first (factor feeders assemble
  /// before dependents at each watermark), spec index second. Identical to
  /// plain index order when no plan is active.
  std::vector<uint32_t> fixed_order_;
  /// Root slices: every child's partial for one (start, end) merged into
  /// one record.
  std::map<EntryKey, SliceRecord> entries_;
  EntryKey session_cursor_{kNoTimestamp, kNoTimestamp};
  bool initialized_ = false;
  bool any_closed_ = false;
  Timestamp first_start_ = kMaxTimestamp;
  Timestamp last_advanced_ = kNoTimestamp;
};

}  // namespace desis

#endif  // DESIS_CORE_ROOT_ASSEMBLER_H_
