#ifndef DESIS_SRC_OBS_TRACE_H_
#define DESIS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/event.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"

namespace desis::obs {

/// Lifecycle phase of a slice as it moves through the decentralized
/// pipeline (§5.1): sealed on a local node, shipped upstream as a partial,
/// merged on an intermediate node, and finally consumed by a window
/// emission at the root.
enum class SlicePhase : uint8_t {
  kSliceCreated = 0,
  kPartialShipped,
  kMerged,
  kWindowEmitted,
  /// A transport retransmitted the partial after a loss/timeout
  /// (SimLinkTransport); same slice identity, so the merged trace shows the
  /// extra hop on the slice's own track.
  kRetransmit,
  /// Crash recovery: an orphaned node re-attached to a new parent
  /// (docs/FAULT_TOLERANCE.md); one span per orphan, on the orphan's lane.
  kReattach,
  /// Crash recovery: a buffered message was re-sent to the (new) parent
  /// after a reattach; same slice identity as the original shipment.
  kReplay,
  /// Memory governance: a slice's sort buffer was shed to a spill run file
  /// (src/mem/); the slice stays live, only its residency changes.
  kSpill,
  /// Memory governance: a spilled slice was read back from its run file
  /// because a window assembly needed it.
  kRestore,
};

const char* ToString(SlicePhase phase);
/// Inverse of ToString; returns false on an unknown name. Used by tools
/// that reconstruct spans from exported JSON.
bool PhaseFromString(const std::string& name, SlicePhase* out);

/// Role byte carried in spans; mirrors net/NodeRole without depending on
/// src/net (obs sits below core). kEngine marks single-node engines that
/// run outside any cluster topology.
inline constexpr uint8_t kSpanRoleLocal = 0;
inline constexpr uint8_t kSpanRoleIntermediate = 1;
inline constexpr uint8_t kSpanRoleRoot = 2;
inline constexpr uint8_t kSpanRoleEngine = 255;

const char* SpanRoleName(uint8_t role);
/// Inverse of SpanRoleName; returns false on an unknown name.
bool SpanRoleFromName(const std::string& name, uint8_t* out);

/// One recorded span event. `virtual_ts` is event time (µs, the slice/
/// window end); `real_ns` is the steady-clock instant the phase happened.
/// Slice phases fill slice_id/group_id; kWindowEmitted fills query_id and
/// uses virtual_ts = window end (see docs/METRICS.md for the contract).
struct SliceSpan {
  uint64_t slice_id = 0;
  uint32_t group_id = 0;
  uint64_t query_id = 0;
  uint32_t node_id = 0;
  uint8_t role = kSpanRoleEngine;
  SlicePhase phase = SlicePhase::kSliceCreated;
  Timestamp virtual_ts = 0;
  int64_t real_ns = 0;
};

/// Chrome trace_event JSON over an explicit span set — the cross-node
/// correlation view. Unlike SliceTracer::ToChromeTrace (one tracer, plain
/// per-pid async ids), this emits process_name metadata per node and keys
/// every slice phase with a *global* async id ("g<group>.s<slice>") so one
/// slice's life lines up across local -> intermediate -> root processes,
/// retransmits included. A pure data transform: desis-inspect uses it on
/// parsed sidecar spans.
std::string ChromeTraceFromSpans(std::vector<SliceSpan> spans);

/// Bounded lock-free ring of slice-lifecycle spans (an EventRing): Record()
/// is safe from any thread, takes no lock and allocates nothing; once full,
/// the oldest spans are overwritten (`dropped()` counts them).
/// Snapshot()/exporters must only run when no Record() is in flight (after
/// `Cluster::Drain()` / engine quiescence); the aggregate counters
/// (`recorded()`, `dropped()`) are always safe to read.
class SliceTracer {
 public:
  static constexpr size_t kDefaultCapacity = 16384;

  explicit SliceTracer(size_t capacity = kDefaultCapacity) : ring_(capacity) {}

  void Record(SlicePhase phase, uint64_t slice_id, uint32_t group_id,
              uint64_t query_id, uint32_t node_id, uint8_t role,
              Timestamp virtual_ts);

  /// Mirrors ring overwrites into a registry counter (trace.dropped_spans)
  /// so monitors see span loss without polling the tracer. Null detaches.
  /// One extra null-check + relaxed Add per overflowing Record().
  void set_drop_counter(Counter* counter) {
    ring_.set_counters(nullptr, counter);
  }

  size_t capacity() const { return ring_.capacity(); }
  /// Spans ever recorded / overwritten by ring wrap-around.
  uint64_t recorded() const { return ring_.recorded(); }
  uint64_t dropped() const { return ring_.dropped(); }

  /// The retained spans, oldest first. Quiescence required (see above).
  std::vector<SliceSpan> Snapshot() const;

  /// JSON array of span objects, oldest first (schema: docs/METRICS.md).
  std::string ToJson() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}): loadable in
  /// chrome://tracing / Perfetto. Spans map to async events keyed by slice
  /// id ("b" at slice_created, "e" at window_emitted, "n" in between);
  /// pid = node id, ts = virtual (event-time) µs.
  std::string ToChromeTrace() const;

 private:
  /// A span packed into six words; small fields share a word.
  struct PackedSpan {
    uint64_t slice_id;
    uint64_t query_id;
    uint64_t group_and_node;  // group_id << 32 | node_id
    uint64_t role_and_phase;  // role << 8 | phase
    int64_t virtual_ts;
    int64_t real_ns;
  };
  static_assert(EventRing<PackedSpan>::kSlotBytes <= 56,
                "a tracer slot is seven words");

  EventRing<PackedSpan> ring_;
};

}  // namespace desis::obs

#endif  // DESIS_SRC_OBS_TRACE_H_
