#ifndef DESIS_SRC_OBS_FLIGHT_RECORDER_H_
#define DESIS_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/event.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"

namespace desis::obs {

/// Control-plane event classes captured by the per-node flight recorder.
/// Unlike SlicePhase (data-plane slice lifecycle), these are the decisions
/// and protocol transitions an operator needs when reconstructing *why* a
/// node stalled: watermark motion, state movement, recovery actions, and
/// watchdog anomalies.
enum class FlightEventKind : uint8_t {
  /// Node advanced its outbound watermark. a = new watermark (µs).
  kWatermarkAdvance = 0,
  /// Slicer sealed a slice. a = slice id, b = group id; virtual_ts = end.
  kSliceSeal,
  /// Local shipped a partial upstream. a = slice id, b = group id.
  kPartialShip,
  /// Cumulative stable-ack frontier moved. a = stable watermark (µs).
  kAckFrontier,
  /// Memory governor shed a lane to disk. a = slice id, b = group id.
  kSpill,
  /// A spilled lane was merged back for window assembly. a/b as kSpill.
  kRestore,
  /// Transport retransmitted a partial. a = slice id.
  kRetransmit,
  /// Crash recovery: this node re-attached to a new parent. a = new
  /// parent id, b = dead parent id.
  kReattach,
  /// Crash recovery: a buffered slice was replayed. a = slice id,
  /// b = group id.
  kReplay,
  /// Query registered at runtime. a = query id.
  kQueryAdd,
  /// Query removed at runtime. a = query id.
  kQueryRemove,
  /// Watchdog anomaly raised against this node. a = AnomalyKind,
  /// b = detecting sample index.
  kAnomaly,
};

const char* KindName(FlightEventKind kind);
/// Inverse of KindName; returns false on an unknown name. Used by
/// desis-inspect postmortem when reconstructing events from dump files.
bool FlightKindFromName(const std::string& name, FlightEventKind* out);

/// Typed anomaly classes the health watchdog can raise (health.anomalies
/// counter labels and kAnomaly payloads).
enum class AnomalyKind : uint8_t {
  /// Node watermark frozen while the rest of the topology advanced past
  /// the grace window.
  kWatermarkStall = 0,
  /// Mailbox depth strictly increased over N consecutive samples.
  kMailboxGrowth,
  /// Spill restores observed in each of N consecutive samples (state
  /// bouncing between disk and memory).
  kSpillThrash,
  /// Heartbeats frozen for N samples *and* watermark lagging: the node is
  /// not merely idle, it stopped participating. Triggers auto-recovery.
  kSilentNode,
};

const char* AnomalyName(AnomalyKind kind);

/// One recorded control-plane event. `a`/`b` are kind-specific payloads
/// (see FlightEventKind); `virtual_ts` is event time (µs) where the event
/// has one, kNoTimestamp otherwise; `real_ns` is the steady-clock instant.
struct FlightEvent {
  FlightEventKind kind = FlightEventKind::kWatermarkAdvance;
  uint32_t node_id = 0;
  uint8_t role = 255;  // kSpanRoleEngine when not owned by a cluster node
  uint64_t a = 0;
  uint64_t b = 0;
  Timestamp virtual_ts = kNoTimestamp;
  int64_t real_ns = 0;
};

/// Process-wide failure hook: chaos-harness violations, RootAssembler
/// invariant breaks, and SUSPECT-grade watchdog anomalies call
/// NotifyFlightFailure(reason); whoever owns the recorders (Cluster)
/// registers a hook that dumps every ring to disk; pass nullptr to clear.
/// The hook is copied out under a mutex and invoked outside it, so a hook
/// may itself log or take cluster locks.
void SetFlightFailureHook(std::function<void(const std::string&)> hook);
void NotifyFlightFailure(const std::string& reason);

/// Per-node black-box ring of FlightEvents on an EventRing (the same
/// lock-free ticket ring as SliceTracer), sized small enough to stay hot in
/// cache but deep enough to hold the minutes leading up to a fault. The
/// node identity is fixed once at wiring time and kept per ring, not per
/// slot, so Record() stays a three-word call on the ingest path. Aggregate
/// counters are always safe to read; payload snapshots want quiescence,
/// but a torn slot degrades to a skipped event, never UB — good enough for
/// a post-crash dump.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  /// Fixes the owning node's identity stamped on every event. Call once
  /// at wiring time, before any Record().
  void set_identity(uint32_t node_id, uint8_t role) {
    node_id_ = node_id;
    role_ = role;
  }
  uint32_t node_id() const { return node_id_; }
  uint8_t role() const { return role_; }

  /// Mirrors Record()s / ring overwrites into registry counters
  /// (recorder.events / recorder.dropped). Null detaches either.
  void set_counters(Counter* events, Counter* dropped) {
    ring_.set_counters(events, dropped);
  }

  void Record(FlightEventKind kind, uint64_t a, uint64_t b,
              Timestamp virtual_ts);

  size_t capacity() const { return ring_.capacity(); }
  uint64_t recorded() const { return ring_.recorded(); }
  uint64_t dropped() const { return ring_.dropped(); }

  /// The retained events, oldest first (see class comment on tearing).
  std::vector<FlightEvent> Snapshot() const;

  /// JSON array of event objects, oldest first (schema: docs/METRICS.md).
  std::string ToJson() const;

  /// Full dump document for one node:
  /// {"node":N,"role":"...","reason":"...","recorder":{...},"events":[...]}.
  /// `reason` is why the dump happened ("on_demand", "chaos_violation",
  /// "silent_node", ...). desis-inspect postmortem merges these.
  std::string DumpJson(const std::string& reason) const;

 private:
  /// An event without its node identity, packed into five words.
  struct PackedEvent {
    uint64_t kind;
    uint64_t a;
    uint64_t b;
    int64_t virtual_ts;
    int64_t real_ns;
  };
  static_assert(EventRing<PackedEvent>::kSlotBytes <= 48,
                "a recorder slot is six words");

  EventRing<PackedEvent> ring_;
  uint32_t node_id_ = 0;
  uint8_t role_ = 255;
};

}  // namespace desis::obs

#endif  // DESIS_SRC_OBS_FLIGHT_RECORDER_H_
