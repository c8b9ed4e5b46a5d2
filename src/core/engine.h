#ifndef DESIS_CORE_ENGINE_H_
#define DESIS_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine_iface.h"
#include "core/query_analyzer.h"
#include "core/reorder_buffer.h"
#include "core/slicer.h"

namespace desis {

/// Single-node slicing engine: the query analyzer partitions queries into
/// query-groups and every group runs a StreamSlicer. With the default
/// cross-function sharing policy and precomputed punctuations this *is* the
/// Desis aggregation engine (§4); the DeSW and Scotty baselines reuse it
/// with per-function sharing and per-event boundary scans (§6.1.1).
class SlicingEngine : public StreamEngine {
 public:
  SlicingEngine(std::string name, SharingPolicy policy,
                PunctuationStrategy punctuation,
                DeploymentMode mode = DeploymentMode::kCentralized);

  Status Configure(const std::vector<Query>& queries) override;

  /// Configures from pre-analyzed (and possibly optimizer-planned) groups
  /// instead of raw queries: the caller runs QueryAnalyzer — and optionally
  /// opt::PlanGroups — itself and hands the result over. Group plans ride
  /// along into the slicers; core stays independent of the optimizer.
  Status ConfigureGroups(std::vector<QueryGroup> groups);
  void Ingest(const Event& event) override;
  /// Batched ingestion fast path: runs of events inside the current slice
  /// are folded with one boundary check and one bulk operator fold per lane
  /// (see StreamSlicer::IngestBatch for the safety conditions). In
  /// out-of-order mode the reorder buffer is batch-drained so released runs
  /// still take the fast path.
  void IngestBatch(const Event* events, size_t count) override;
  void AdvanceTo(Timestamp watermark) override;
  std::string name() const override { return name_; }

  /// Fires every fixed-size window still pending after the last event by
  /// advancing the watermark past the largest window extent.
  void Finish();

  /// Accepts out-of-order events up to `allowed_lateness` late: Ingest()
  /// buffers and reorders before slicing; older events are dropped and
  /// counted in dropped_events(). Call before the first Ingest().
  void EnableOutOfOrderIngest(Timestamp allowed_lateness) {
    reorder_.emplace(allowed_lateness);
  }
  uint64_t dropped_events() const {
    return reorder_.has_value() ? reorder_->dropped() : 0;
  }

  /// Puts the engine under a memory budget: slice state is byte-accounted
  /// by an engine-owned mem::MemoryGovernor, and oversized sort buffers
  /// spill to disk runs (DESIGN.md §3, memory governance). A zero budget
  /// removes governance. Call before the first Ingest().
  void EnableMemoryBudget(const mem::MemoryOptions& options);

  /// The active governor; null when ungoverned.
  mem::MemoryGovernor* memory_governor() const { return gov_.get(); }

  /// Registers a new query at runtime (§3.2). The query starts windowing
  /// with the next event; existing groups are not re-partitioned.
  Status AddQuery(const Query& query);

  /// Stops a running query's result emission (§3.2).
  Status RemoveQuery(QueryId id);

  size_t num_groups() const { return slicers_.size(); }
  const QueryGroup& group(size_t i) const { return slicers_[i]->group(); }

  /// Installs a per-slice callback on every group (decentralized local
  /// nodes ship these partials instead of assembling windows locally).
  void SetSliceSink(SliceSink sink);

  /// Per-group cost-attribution series are registered for at most this
  /// many groups (no-sharing policies can create one group per query; the
  /// overflow count is exported as group.metrics_truncated).
  static constexpr size_t kMaxInstrumentedGroups = 256;

 protected:
  /// Forwards the tracer to every slicer (slice-created spans).
  void OnTracerAttached() override;
  /// Forwards the metrics registry to every slicer (group cost series).
  void OnRegistryAttached() override;
  /// Forwards the flight recorder to every slicer (seal/spill events).
  void OnFlightRecorderAttached() override;

 private:
  std::unique_ptr<StreamSlicer> MakeSlicer(QueryGroup group);

  std::string name_;
  SharingPolicy policy_;
  PunctuationStrategy punctuation_;
  DeploymentMode mode_;
  bool assemble_windows_ = true;
  bool keep_slices_ = true;
  void IngestOrdered(const Event& event);
  void IngestOrderedBatch(const Event* events, size_t count);

  /// Governor (EnableMemoryBudget), null = off; declared before slicers_
  /// so the slicers (which deregister from it) are destroyed first.
  std::unique_ptr<mem::MemoryGovernor> gov_;
  std::vector<std::unique_ptr<StreamSlicer>> slicers_;
  SliceSink slice_sink_;
  std::optional<ReorderBuffer> reorder_;
  std::vector<Event> release_scratch_;  // reorder-buffer batch drains
  Timestamp last_ts_ = kNoTimestamp;
  uint64_t next_query_seq_ = 0;

  friend class LocalNodeEngineAccess;

 public:
  /// Disables local window assembly and slice retention (decentralized
  /// local nodes only ship slice partials, §5.1). Call before Configure().
  void ConfigureForLocalNode() {
    assemble_windows_ = false;
    keep_slices_ = false;
  }

  Timestamp last_event_ts() const { return last_ts_; }
};

/// The Desis aggregation engine: cross-function operator sharing and
/// precomputed punctuations.
class DesisEngine : public SlicingEngine {
 public:
  explicit DesisEngine(DeploymentMode mode = DeploymentMode::kCentralized)
      : SlicingEngine("Desis", SharingPolicy::kCrossFunction,
                      PunctuationStrategy::kPrecomputed, mode) {}
};

}  // namespace desis

#endif  // DESIS_CORE_ENGINE_H_
