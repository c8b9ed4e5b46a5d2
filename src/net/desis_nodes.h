#ifndef DESIS_NET_DESIS_NODES_H_
#define DESIS_NET_DESIS_NODES_H_

#include <map>
#include <set>
#include <memory>
#include <utility>
#include <vector>

#include "core/query_analyzer.h"
#include "core/root_assembler.h"
#include "core/slicer.h"
#include "core/stats.h"
#include "mem/memory_governor.h"
#include "net/node.h"

namespace desis {

/// Desis local node (§5.1): runs the aggregation engine in slicing-only
/// mode. Every sealed slice's partial results are shipped to the parent
/// instead of raw events; for root-only query-groups (count-based measures)
/// matching raw events are batched and forwarded.
class DesisLocalNode : public Node, public LocalIngest {
 public:
  /// `memory` (budget_bytes > 0) puts this node's slice state under a
  /// mem::MemoryGovernor shared by every slicer. A zero budget keeps the
  /// ungoverned seed path.
  DesisLocalNode(uint32_t id, const std::vector<QueryGroup>& groups,
                 size_t forward_batch_size = 512,
                 const mem::MemoryOptions& memory = {});

  /// Feeds a batch of events (non-decreasing ts); CPU time is metered.
  /// Pushed-down groups run the slicer's batched fast path — punctuation
  /// checks and operator folds are amortized over runs of events within
  /// the current slice.
  void IngestBatch(const Event* events, size_t count) override;

  /// Flushes punctuations/batches up to `watermark` and ships a watermark.
  void Advance(Timestamp watermark) override;

  /// Deploys additional query-groups at runtime (§3.2); windowing starts
  /// with the next event.
  void AddGroups(const std::vector<QueryGroup>& groups);

  /// Joins one query into an already-deployed group (incremental group
  /// maintenance): dispatches to the slicer or the forward-group lane
  /// list, whichever hosts `group_id`. Returns false if
  /// the group is not deployed here.
  bool AddQueryToGroup(uint32_t group_id, const Query& q, uint32_t lane,
                       const SelectionLane& lane_def, Timestamp active_from);

  /// Tears down one deployed group (last member query removed). Slices
  /// already shipped stay valid at the root until it drops the group too.
  bool RemoveGroup(uint32_t group_id);

  /// Timestamp of the last ingested event (kNoTimestamp before any event);
  /// the cluster reads this under its ingest lock to derive the activation
  /// watermark for runtime-added queries.
  Timestamp last_event_ts() const { return last_ts_; }

  const EngineStats& engine_stats() const { return stats_; }

  /// Governor of the slicers; null when ungoverned.
  const mem::MemoryGovernor* memory_governor() const { return gov_.get(); }

  /// Re-sends the last advertised watermark so a new parent learns this
  /// subtree's progress immediately after a reattach.
  void ReAdvertiseWatermark() override;

 protected:
  void HandleMessage(const Message& message, int child_index) override;
  /// Forwards the tracer to every slicer (slice-created spans at locals).
  void OnObsAttached() override;
  /// Forwards the flight recorder to every slicer.
  void OnFlightAttached() override;

 private:
  void ShipSlice(uint32_t group_id, const SliceRecord& rec);
  void FlushForwardBatch(uint32_t group_id);

  EngineStats stats_;
  /// Memory governance: the slicers' shared governor. Declared before
  /// slicers_ so they deregister before it dies.
  std::unique_ptr<mem::MemoryGovernor> gov_;
  // Pushed-down groups: group id -> slicer.
  std::vector<std::pair<uint32_t, std::unique_ptr<StreamSlicer>>> slicers_;
  // Root-only groups: group id -> (group, pending forward batch).
  struct ForwardGroup {
    QueryGroup group;
    std::vector<Event> pending;
    // Monotone forward-batch chunk id: the provenance unit for kEventBatch
    // messages under crash recovery (slice ids play this role for partials).
    uint64_t next_chunk = 0;
  };
  std::vector<ForwardGroup> forward_groups_;
  size_t forward_batch_size_;
  Timestamp last_ts_ = kNoTimestamp;
};

/// Desis intermediate node (§5.1.1): builds intermediate slices of length
/// = number of children by merging child partials with matching slice
/// ranges; complete or watermark-expired intermediate slices are forwarded.
class DesisIntermediateNode : public Node {
 public:
  explicit DesisIntermediateNode(uint32_t id) : Node(id, NodeRole::kIntermediate) {}

  const EngineStats& engine_stats() const { return stats_; }

  /// Crash recovery: forwards every held (incomplete) entry upstream right
  /// away, regardless of watermarks, without advancing `sent_wm_`. Called
  /// by the cluster before a root frontier snapshot so replay trimming sees
  /// an authoritative picture (docs/FAULT_TOLERANCE.md).
  void ForceFlushHeld();

  /// Re-sends the last advertised watermark to the (new) parent.
  void ReAdvertiseWatermark() override;

 protected:
  void HandleMessage(const Message& message, int child_index) override;
  void OnChildDetached(int child_index) override;

 private:
  // A partially merged intermediate slice. `origins` concatenates the
  // provenance of every merged child partial (empty unless recovery is on).
  struct Entry {
    SlicePartialMsg msg;
    int reports = 0;
    std::vector<ProvenanceEntry> origins;
  };

  void NoteChildWatermark(int child_index, Timestamp wm);
  Timestamp MinChildWatermark() const;
  void FlushUpTo(Timestamp watermark);
  void ForwardEntry(uint32_t group_id, SlicePartialMsg&& msg,
                    std::vector<ProvenanceEntry>&& origins);

  EngineStats stats_;
  // (group, start, end) -> partially merged slice + report count.
  std::map<std::tuple<uint32_t, Timestamp, Timestamp>, Entry> entries_;
  std::vector<Timestamp> child_wms_;
  Timestamp sent_wm_ = kNoTimestamp;
};

/// Desis root node (§5.1): assembles final windows from slice partials via
/// RootAssembler; root-only groups run a full local slicer over forwarded
/// raw events (reordered across children up to the watermark).
class DesisRootNode : public Node {
 public:
  DesisRootNode(uint32_t id, const std::vector<QueryGroup>& groups);

  void set_sink(WindowSink sink) { sink_ = std::move(sink); }
  const EngineStats& engine_stats() const { return stats_; }

  /// Deploys additional query-groups at runtime (§3.2).
  void AddGroups(const std::vector<QueryGroup>& groups);
  /// Stops emitting results for a query (§3.2).
  Status SuppressQuery(QueryId id);
  /// Like SuppressQuery but with the owning group known: O(log groups)
  /// instead of a scan over every assembler (10k-query churn path).
  Status SuppressQueryInGroup(uint32_t group_id, QueryId id);
  /// Joins one query into an already-deployed group; `active_from` is
  /// raised past the root's advanced watermark inside the assembler.
  bool AddQueryToGroup(uint32_t group_id, const Query& q, uint32_t lane,
                       const SelectionLane& lane_def, Timestamp active_from);
  /// Tears down one group (last member query removed).
  bool RemoveGroup(uint32_t group_id);

  /// Crash recovery: per-(group, origin) lowest-unapplied units, taken
  /// after quiescence so orphans can trim their replay to data the root
  /// may not have consumed. Units above a hole replay conservatively; the
  /// root's exact applied-tracking drops the true duplicates.
  ReplayFrontiers FrontierSnapshot() const;
  /// Messages dropped whole because every origin was already applied
  /// (recovery.stale_dropped); requires recovery.
  uint64_t stale_dropped() const { return stale_counter_->value(); }

 protected:
  void HandleMessage(const Message& message, int child_index) override;
  void OnChildDetached(int child_index) override;
  /// Forwards the tracer to the root-only groups' local slicers.
  void OnObsAttached() override;
  /// Forwards the flight recorder to the root-only groups' slicers.
  void OnFlightAttached() override;

 private:
  void NoteChildWatermark(int child_index, Timestamp wm);
  Timestamp MinChildWatermark() const;
  void AdvanceAll(Timestamp watermark);
  void EmitResult(const WindowResult& result);
  /// Recomputes the health gauges and cells (assembler backlog,
  /// reorder-buffer occupancy, advanced watermark) after handling a message.
  void UpdateHealthCells();

  EngineStats stats_;
  WindowSink sink_;
  std::map<uint32_t, std::unique_ptr<RootAssembler>> assemblers_;
  struct RootOnlyGroup {
    std::unique_ptr<StreamSlicer> slicer;
    std::vector<Event> pending;  // reorder buffer across children
    Timestamp fed_up_to = kNoTimestamp;
  };
  std::map<uint32_t, RootOnlyGroup> root_only_;
  std::vector<Timestamp> child_wms_;
  Timestamp advanced_wm_ = kNoTimestamp;

  // Crash recovery: exact per-(group, origin) applied-unit tracking.
  // Units can reach the root out of order after a reattach (a replayed
  // range held at the new parent flushes later than newer complete
  // entries), so a monotone frontier alone would mis-judge the late
  // message stale. `next` is the lowest unapplied unit; `ahead` holds
  // applied units above it and compacts as the hole fills, so the set
  // stays bounded by the reorder window.
  struct OriginProgress {
    uint64_t next = 0;
    std::set<uint64_t> ahead;
    bool Applied(uint64_t unit) const {
      return unit < next || ahead.count(unit) != 0;
    }
    void Apply(uint64_t unit) {
      if (unit < next) return;
      ahead.insert(unit);
      while (!ahead.empty() && *ahead.begin() == next) {
        ahead.erase(ahead.begin());
        ++next;
      }
    }
  };
  std::map<std::pair<uint32_t, uint32_t>, OriginProgress> frontiers_;
  obs::Counter* stale_counter_ = nullptr;  // recovery.stale_dropped
};

}  // namespace desis

#endif  // DESIS_NET_DESIS_NODES_H_
