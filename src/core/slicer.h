#ifndef DESIS_CORE_SLICER_H_
#define DESIS_CORE_SLICER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/event.h"
#include "core/operators.h"
#include "core/query_analyzer.h"
#include "core/stats.h"
#include "core/window_assembler.h"
#include "mem/memory_governor.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace desis {

/// Marks a window that ended exactly at the end of a slice; shipped with
/// slice partials so downstream nodes can terminate windows (§5.1).
struct EpInfo {
  uint32_t spec_idx = 0;
  Timestamp window_start = 0;
  Timestamp window_end = 0;
};

/// A sealed slice: the shared partial results of all events between two
/// punctuations, one PartialAggregate per selection lane (§4.1).
struct SliceRecord {
  /// Auto-incrementing slice id (§5.1.1); ids are dense over non-empty
  /// slices and used to match partials across nodes for fixed windows.
  uint64_t id = 0;
  Timestamp start = 0;
  Timestamp end = 0;
  /// Timestamp of the last event folded into this slice (kNoTimestamp when
  /// empty); carried for distributed session-gap tracking (§5.1.2).
  Timestamp last_event_ts = kNoTimestamp;
  std::vector<PartialAggregate> lanes;
  std::vector<uint64_t> lane_events;
  /// Per-lane timestamp of the last matching event (session windows are
  /// lane-scoped: a query's gap is measured on its own selection).
  std::vector<Timestamp> lane_last_ts;
  /// Windows that ended at `end` (used by user-defined windows downstream).
  std::vector<EpInfo> eps;
};

using SliceSink = std::function<void(const SliceRecord&)>;
using WindowSink = std::function<void(const WindowResult&)>;
/// Receives the merged (not yet finalized) operator states of a closing
/// window; used by systems that ship per-window partial results upstream
/// (the Disco baseline, §5).
using WindowPartialSink =
    std::function<void(QueryId, Timestamp window_start, Timestamp window_end,
                       const PartialAggregate&, uint64_t events)>;

/// How window boundaries are detected. Desis precomputes upcoming
/// punctuations in a priority queue ("calculate window ends in advance",
/// §6.2.1); the DeSW/Scotty baselines re-check every window spec on each
/// arriving event.
enum class PunctuationStrategy : uint8_t {
  kPrecomputed = 0,
  kPerEventScan,
};

struct SlicerOptions {
  PunctuationStrategy punctuation = PunctuationStrategy::kPrecomputed;
  /// Assemble and emit final window results on this node. Disabled on
  /// decentralized local/intermediate nodes, which only ship slice partials.
  bool assemble_windows = true;
  /// Retain sealed slices for window assembly. Disabled together with
  /// assemble_windows so local nodes keep no slice history.
  bool keep_slices = true;
};

/// Stream slicer + window merger for one query-group: cuts the stream into
/// slices at start/end punctuations, folds each event into the group's
/// shared operators once per matching lane, and assembles window results
/// from slice partials when end punctuations fire (§4).
class StreamSlicer : public mem::SpillClient {
 public:
  StreamSlicer(QueryGroup group, SlicerOptions options, EngineStats* stats);
  ~StreamSlicer() override;

  StreamSlicer(const StreamSlicer&) = delete;
  StreamSlicer& operator=(const StreamSlicer&) = delete;

  void set_window_sink(WindowSink sink) { window_sink_ = std::move(sink); }
  void set_slice_sink(SliceSink sink) { slice_sink_ = std::move(sink); }
  /// When set, closing windows emit merged partials through this sink
  /// instead of finalized results.
  void set_window_partial_sink(WindowPartialSink sink) {
    window_partial_sink_ = std::move(sink);
  }

  /// Attaches a slice tracer: every sealed slice records a kSliceCreated
  /// span tagged with the owning node's id/role (obs::kSpanRoleEngine for
  /// single-node engines). Null detaches. Per-slice cost, never per-event.
  void set_obs(obs::SliceTracer* tracer, uint32_t node_id, uint8_t role) {
    tracer_ = tracer;
    obs_node_id_ = node_id;
    obs_role_ = role;
  }

  /// Attaches the owning node's flight recorder: slice seals and
  /// spill/restore transitions land on the node's black-box ring
  /// (kSliceSeal / kSpill / kRestore). Null detaches. Same per-slice (not
  /// per-event) cost discipline as set_obs.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  /// Attaches cost-attribution metrics (labels {group}, docs/METRICS.md):
  /// group.events_in counts ingested events, group.operator_evals{op} one
  /// series per active operator in the group's mask. Evals are flushed per
  /// *sealed slice* (each fold pays every mask operator once), so the hot
  /// path stays allocation- and atomic-free; events_in accumulates in a
  /// plain integer and flushes at seal/advance/batch boundaries. Several
  /// slicers of the same group (one per cluster local) share the series —
  /// the handles are relaxed atomics. Null detaches.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches this slicer to a memory governor: live slice state (open
  /// sort buffers, sealed records, dedup sets) is byte-accounted against
  /// the governor's budget, and the governor may call back ShedBytes() to
  /// spill cold non-decomposable sort buffers to disk runs. Null detaches
  /// (discharging everything). With no governor attached — the default —
  /// the ingest path performs zero accounting (seed-identical behaviour).
  void set_memory(mem::MemoryGovernor* gov);

  /// SpillClient: sheds resident bytes by spilling, preferring the coldest
  /// state first — sealed (already shipped) slice records oldest-first,
  /// then the open slice's largest sort buffers. Returns bytes released.
  uint64_t ShedBytes(uint64_t target) override;

  /// Processes one event (non-decreasing ts order).
  void Ingest(const Event& event);

  /// Processes a batch of events (non-decreasing ts order, within the batch
  /// and relative to earlier calls), producing results identical to calling
  /// Ingest() per event. Groups whose boundaries are all precomputable time
  /// punctuations (no session, user-defined, or count-measure specs) and
  /// that have no dedup lanes take a run-based fast path: the batch is split
  /// into maximal runs that fall strictly inside the current slice, each
  /// run's end found by a galloping search on ts, and each run is folded by
  /// FoldRun. Everything else falls back to the per-event path
  /// automatically.
  void IngestBatch(const Event* events, size_t count);

  /// Advances event time, firing punctuations at or before `watermark`.
  void AdvanceTo(Timestamp watermark);

  const QueryGroup& group() const { return assembler_.group(); }

  /// Registers one query into the running slicer (incremental group
  /// maintenance, §3.2): `lane` is the lane the query binds to (==
  /// group().lanes.size() to open the new lane `lane_def`). Structural
  /// changes (new lane, widened operator mask, new window spec) seal the
  /// open slice first, so earlier slices keep their shape and downstream
  /// nodes never see a mixed-width slice. Windows starting before
  /// `active_from` are not emitted for the new query (kNoTimestamp =
  /// active from the beginning; pre-ingest adds then match a cold-start
  /// configuration exactly).
  void ApplyQueryAdd(const Query& q, uint32_t lane,
                     const SelectionLane& lane_def, Timestamp active_from);

  /// Marks a query's results as suppressed (runtime query removal, §3.2).
  /// Returns false if the id is not in this group.
  bool SuppressQuery(QueryId id);
  /// Number of queries still active (not suppressed).
  size_t active_queries() const { return assembler_.active_queries(); }

  /// Largest window extent over the group's fixed-size windows, in
  /// microseconds; used by callers to pick a final flush watermark.
  Timestamp MaxFixedWindowExtent() const;

  /// The timestamp up to which everything has been sealed (and shipped via
  /// the slice sink): decentralized nodes must advertise this — not the raw
  /// processed timestamp — as their watermark, or the root would terminate
  /// windows while events still sit in an unsealed slice (§5.1.2).
  /// O(1): `current_slice_events_` tracks the open slice's fold count.
  Timestamp SafeWatermark() const {
    return current_slice_events_ == 0 ? last_seen_ts_ : current_slice_start_;
  }

 private:
  // One distinct WindowSpec in the group. Queries with identical specs
  // share punctuations, open-window bookkeeping, and assembly.
  struct SpecState {
    WindowSpec spec;
    // Session, user-defined and count windows are scoped to one selection
    // lane (their boundaries depend on which events match); fixed time
    // windows are lane-independent (-1).
    int lane_filter = -1;
    struct OpenWindow {
      Timestamp start_ts;
      uint64_t first_slice_id;
    };
    std::deque<OpenWindow> open;
    // Time-based fixed windows: next scheduled punctuations.
    Timestamp next_sp = kNoTimestamp;
    Timestamp next_ep = kNoTimestamp;
    // Session / user-defined window state.
    bool active = false;
  };

  // All session specs selecting the same lane share that lane's activity:
  // their deadlines are `lane_last_event + gap`, so keeping the specs
  // sorted by gap gives O(1) next-deadline lookups regardless of how many
  // session queries run (the inactive ones form the sorted prefix).
  struct SessionLane {
    uint32_t lane = 0;
    std::vector<uint32_t> specs_by_gap;  // ascending gap
    size_t num_inactive = 0;             // prefix [0, num_inactive) closed
    Timestamp last_event = kNoTimestamp;
  };

  struct CountBoundary {
    uint64_t count;
    uint8_t kind;  // 0 = ep, 1 = sp
    uint32_t spec_idx;
    bool operator>(const CountBoundary& other) const {
      if (count != other.count) return count > other.count;
      return kind > other.kind;
    }
  };

  struct Boundary {
    Timestamp ts;
    uint8_t kind;  // 0 = ep, 1 = sp (eps processed first at equal ts)
    uint32_t spec_idx;
    // Factor-window DAG depth: at equal (ts, kind), feeder specs fire
    // before dependents so their window composites exist when consumed.
    // 0 for every spec when no plan is active (ordering unchanged).
    uint8_t rank = 0;
    bool operator>(const Boundary& other) const {
      if (ts != other.ts) return ts > other.ts;
      if (kind != other.kind) return kind > other.kind;
      return rank > other.rank;
    }
  };

  /// How the batch path selects each lane's events from a run. Lanes split
  /// by predicate shape: match-all lanes, range-only lanes, and key lanes,
  /// which sit in an open-addressing key -> lane-chain table. A chain lists
  /// every lane on that key in lane order, each with its residual range
  /// (KeyAndRange lanes), so lanes sharing a key cost one lookup.
  struct SelectionPlan {
    struct RangeLane {
      uint32_t lane;
      double lo;
      double hi;
    };
    struct KeyLane {
      uint32_t lane;
      bool has_range;
      double lo;
      double hi;
      int32_t next;  // next chain entry on the same key, -1 at the end
    };
    struct KeySlot {
      uint32_t key = 0;
      int32_t head = -1;  // first chain entry, -1 for an empty slot
    };

    std::vector<uint32_t> all_lanes;
    std::vector<RangeLane> range_lanes;
    std::vector<KeyLane> key_lanes;
    std::vector<KeySlot> key_slots;  // power-of-two size; empty: no keys
    int key_shift = 0;               // 64 - log2(key_slots.size())
    size_t max_chain = 0;            // most lanes on one key

    void Build(const std::vector<SelectionLane>& lanes);
    /// Home slot of `key` (Fibonacci hashing), where its probe starts.
    static size_t Slot(uint32_t key, int shift) {
      return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
    }
  };
  struct KeyHit {
    uint32_t lane;
    uint32_t index;  // position in the run
  };

  void Initialize(Timestamp first_ts);
  void ScheduleInitial(uint32_t spec_idx, Timestamp first_ts,
                       uint64_t first_slice_id = 0);
  // Fires all time-based punctuations (incl. session deadlines) <= limit.
  void ProcessBoundariesUpTo(Timestamp limit);
  // Earliest pending time punctuation (kMaxTimestamp when none). Only valid
  // on the batch fast path, where no session deadlines exist.
  Timestamp NextBoundaryTs() const;
  // Folds a run of events known to fall strictly before the next
  // punctuation through the selection plan: the match-all lanes share one
  // value column, each range lane compacts it branchlessly, and one pass
  // over the run scatters the key lanes' values. Every lane that matched
  // then makes one AddN, in event order. selection_evals still counts
  // lanes x events, the per-event path's predicate evaluations.
  void FoldRun(const Event* run, size_t n);
  // FoldRun's key-lane pass: table lookups, then a counting sort of the
  // hits by lane so each lane folds its values in event order.
  void FoldKeyLanes(const Event* run, size_t n);
  // Folds `m` selected values into `lane`; `last_ts` is the timestamp of
  // the last of them.
  void FoldLane(uint32_t lane, const double* values, size_t m,
                Timestamp last_ts);
  // Recomputes batch_fast_path_ and rebuilds plan_ from the current lanes.
  void RebuildBatchPlan();
  void ProcessEp(uint32_t spec_idx, Timestamp ts);
  void ProcessSp(uint32_t spec_idx, Timestamp ts);
  void ProcessSessionEnd(uint32_t spec_idx, Timestamp deadline);
  void ProcessCountBoundaries(Timestamp now, uint32_t lane);
  // Seals the current slice at `end_ts`; returns the id of the last sealed
  // slice (the fresh current slice gets the next id). Empty slices leave no
  // record.
  uint64_t SealCurrentSlice(Timestamp end_ts);
  void CloseWindow(uint32_t spec_idx, SpecState::OpenWindow window,
                   uint64_t last_slice_id, Timestamp end_ts);
  void FlushShippableSlice();
  void CollectGarbage();

  // --- Memory governance (all no-ops while gov_ == nullptr) -------------
  /// Builds the fold state for `lane`: the lane mask, plus the t-digest
  /// sketch when every median/quantile query on the lane opted in.
  PartialAggregate MakeLanePartial(uint32_t lane) const;
  /// Whether `lane` should fold quantile state into a sketch; `extra`
  /// (binding to `extra_lane`) is a query about to be added, so structural
  /// detection can evaluate the post-add shape before mutating the group.
  bool LaneWantsSketch(uint32_t lane, const Query* extra,
                       uint32_t extra_lane) const;
  void RecomputeLaneSketch();
  /// Delta-charges the governor with the lane's current buffer bytes.
  void UpdateLaneCharge(uint32_t lane);
  /// Delta-charges the estimated dedup-set footprint.
  void UpdateDedupCharge();
  /// Lazily creates the spill run file; false once creation failed.
  bool EnsureSpillFile();
  /// Spills an open-slice sort buffer to a run (merged back at seal time).
  uint64_t SpillOpenLane(uint32_t lane);
  /// Spills a sealed record's sorted values whole (read back on demand).
  uint64_t SpillSealedLane(SliceRecord& rec, uint32_t lane);
  /// Window assembly's merge of one record lane into `acc`: resident lanes
  /// merge directly; spilled lanes are read from their run into a sealed
  /// temporary and merged from there, leaving the record cold on disk (no
  /// governor charge — peak residency stays at the budget, not the window
  /// footprint).
  void MergeRecordLane(PartialAggregate& acc, const SliceRecord& rec,
                       uint32_t lane);
  /// Total bytes currently charged to the governor by this slicer.
  uint64_t ChargedBytes() const;
  void WarnSpillError(const Status& status);

  // Flushes pending_events_in_ into the group.events_in counter; called at
  // slice seals, watermark advances, and batch boundaries.
  void FlushEventsInCounter() {
    if (pending_events_in_ != 0 && events_in_counter_ != nullptr) {
      events_in_counter_->Add(pending_events_in_);
    }
    pending_events_in_ = 0;
  }

  /// The group, its spec layout and window assembly (§4.3).
  WindowAssembler assembler_;
  SlicerOptions options_;
  EngineStats* stats_;
  obs::SliceTracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  uint32_t obs_node_id_ = 0;
  uint8_t obs_role_ = obs::kSpanRoleEngine;
  // Cost-attribution handles (null when detached); indexed
  // by OperatorKind, null for operators outside the group mask.
  obs::Counter* events_in_counter_ = nullptr;
  obs::Counter* op_eval_counters_[kNumOperatorKinds] = {};
  obs::Gauge* queries_gauge_ = nullptr;
  obs::MetricsRegistry* registry_ = nullptr;
  uint64_t pending_events_in_ = 0;
  WindowSink window_sink_;
  SliceSink slice_sink_;
  WindowPartialSink window_partial_sink_;

  std::vector<SpecState> specs_;
  std::vector<SessionLane> session_lanes_;
  std::vector<int> lane_session_idx_;  // lane -> session_lanes_ index or -1
  std::vector<uint32_t> ud_specs_;
  // Per-lane count-window trigger heaps (lane-local event counts).
  std::vector<
      std::priority_queue<CountBoundary, std::vector<CountBoundary>,
                          std::greater<CountBoundary>>>
      count_heaps_;
  uint64_t gc_tick_ = 0;
  std::vector<uint32_t> count_specs_;  // spec indices with count measure
  bool initialized_ = false;

  // Precomputed-punctuation heap (Desis) — unused under kPerEventScan.
  std::priority_queue<Boundary, std::vector<Boundary>, std::greater<Boundary>>
      boundary_heap_;

  // Current (open) slice.
  uint64_t current_slice_id_ = 0;
  Timestamp current_slice_start_ = kNoTimestamp;
  Timestamp current_last_event_ = kNoTimestamp;
  std::vector<PartialAggregate> current_lanes_;
  std::vector<uint64_t> current_lane_events_;
  // Events folded into the open slice, summed over lanes; keeps
  // SafeWatermark() and the empty-slice check O(1) instead of O(lanes).
  uint64_t current_slice_events_ = 0;
  std::vector<std::unordered_set<uint64_t>> dedup_sets_;
  bool any_dedup_ = false;
  // True when every spec is a fixed-size time window and no lane dedups:
  // batch ingestion may then split runs at precomputed punctuations.
  bool batch_fast_path_ = false;
  SelectionPlan plan_;

  // Sealed slices retained for assembly; front().id is the base id.
  std::deque<SliceRecord> records_;
  bool have_unshipped_ = false;

  std::vector<uint64_t> lane_total_events_;
  std::vector<Timestamp> current_lane_last_ts_;
  Timestamp last_seen_ts_ = kNoTimestamp;
  std::vector<uint8_t> spec_rank_;  // plan DAG depth per spec
  std::vector<uint32_t> matched_lanes_scratch_;
  // FoldRun scratch: the run's value column, the selected values of the
  // lane being folded (or of all key lanes, grouped by lane), the key
  // lanes' hits, and per-lane counters for the key hits' counting sort.
  std::vector<double> run_values_;
  std::vector<double> lane_values_;
  std::vector<KeyHit> key_hits_;
  std::vector<uint32_t> touched_lanes_;
  std::vector<uint32_t> lane_cursor_;
  std::vector<uint32_t> lane_last_hit_;

  // --- Memory governance state ------------------------------------------
  mem::MemoryGovernor* gov_ = nullptr;
  std::unique_ptr<mem::SpillFile> spill_;
  bool spill_failed_ = false;  // run-file creation/IO failed; stop trying
  bool spill_warned_ = false;  // one stderr warning per slicer
  /// Bytes charged for each open-slice lane buffer (parallel to lanes).
  std::vector<uint64_t> lane_charged_;
  /// Open-slice spill runs per lane, merged back at seal time.
  std::vector<std::vector<uint32_t>> lane_runs_;
  /// Values spilled out of the open slice per lane (for `represented`).
  std::vector<uint64_t> lane_spilled_count_;
  /// Lanes whose quantile state is a t-digest sketch (see LaneWantsSketch).
  std::vector<uint8_t> lane_sketch_;
  obs::Gauge* sketch_gauge_ = nullptr;
  /// Sealed-record lanes currently cold on disk: (slice id, lane) -> run.
  struct SealedSpill {
    uint32_t run;
    uint64_t represented;
  };
  std::map<std::pair<uint64_t, uint32_t>, SealedSpill> sealed_spills_;
  /// Elements across all dedup sets; footprint is estimated from it.
  uint64_t dedup_inserted_ = 0;
  uint64_t dedup_charged_ = 0;
};

}  // namespace desis

#endif  // DESIS_CORE_SLICER_H_
