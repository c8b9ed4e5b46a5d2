#ifndef DESIS_NET_NODE_H_
#define DESIS_NET_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "net/message.h"
#include "net/resend_buffer.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace desis {

class Transport;

/// Role of a node in the decentralized topology (§2.4).
enum class NodeRole : uint8_t {
  kLocal = 0,
  kIntermediate,
  kRoot,
};

std::string ToString(NodeRole role);

/// Interface implemented by every system's local node so drivers can feed
/// per-node data streams uniformly.
class LocalIngest {
 public:
  virtual ~LocalIngest() = default;
  /// Feeds a batch of events (non-decreasing ts); CPU time is metered.
  virtual void IngestBatch(const Event* events, size_t count) = 0;
  /// Flushes punctuations/batches and ships a watermark upstream.
  virtual void Advance(Timestamp watermark) = 0;
};

/// A plain-integer snapshot of one node's counters: network bytes (the
/// paper's network-overhead metric, Fig 11), metered CPU busy time
/// (backing the pipeline throughput model described in DESIGN.md), and
/// transport-level queue/loss counters. `bytes_sent`/`messages_sent` count
/// logical sends exactly once, whatever the transport does underneath;
/// retransmissions and drops on a lossy link are accounted separately so
/// inline runs stay byte-identical.
///
/// Node::net_stats() reads each fact from its one store: the node's
/// registry series (node.queue_hwm, node.retransmits,
/// node.messages_dropped) or, for facts without a series (bytes, messages,
/// busy time), the node's own relaxed-atomic cell. Every store is written
/// from transport workers and read lock-free, so a snapshot may be taken
/// mid-run; exact totals are only guaranteed after `Cluster::Drain()`.
struct NodeStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  int64_t busy_ns = 0;
  /// High-water mark of inbound queue depth (threaded mailbox occupancy or
  /// a lossy link's out-of-order reassembly buffer); 0 for inline delivery.
  uint64_t queue_hwm = 0;
  /// Transmissions re-sent on this node's uplink after a loss or timeout.
  uint64_t retransmits = 0;
  /// Transmissions the link dropped on this node's uplink (each one is
  /// eventually covered by a retransmit).
  uint64_t messages_dropped = 0;
};

/// Per-node health cells the registry cannot hold: the two ends of the
/// watermark-lag interval (health.watermark_lag_us is derived from them at
/// sample time) and the liveness counter, which has no series. Updated by
/// the node's own handler/driver thread at message or batch granularity
/// and read race-free by the watchdog probe (relaxed atomics — statistics,
/// not synchronization). Occupancy facts (mailbox depth, backlog, reorder
/// depth) live only in their health.* gauges. kNoTimestamp marks "nothing
/// seen yet".
struct NodeHealth {
  /// Newest event-time this node has seen (ingested locally or carried by
  /// child partials/watermarks).
  obs::RelaxedI64 last_event_ts{kNoTimestamp};
  /// The node's own output watermark: what it has advertised upstream (or,
  /// at the root, advanced to). last_event_ts - watermark is the node's
  /// watermark lag.
  obs::RelaxedI64 watermark{kNoTimestamp};
  /// Monotonic liveness counter: any received message or outbound
  /// watermark advance bumps it. The health watchdog treats a frozen
  /// value (while the node's watermark lags the live frontier) as
  /// silence — see obs::HealthMonitor.
  obs::RelaxedU64 heartbeats{0};
};

/// A node in the simulated decentralized network. SendToParent() counts
/// the serialized bytes on both ends and hands the message to the node's
/// `Transport` for delivery — synchronously inline by default (bit-exact
/// with the seed behaviour), or via a threaded / simulated-lossy channel
/// (src/transport/). CPU time spent in each node's handlers is metered,
/// with nested upstream handling subtracted, so per-node busy time is
/// attributed as if nodes ran on separate machines.
class Node {
 public:
  Node(uint32_t id, NodeRole role);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  uint32_t id() const { return id_; }
  NodeRole role() const { return role_; }
  /// Snapshot of this node's counters (see NodeStats). Valid once the
  /// node has a registry (AttachObs).
  NodeStats net_stats() const;
  const NodeHealth& health() const { return health_; }
  int64_t busy_ns() const { return busy_ns_; }
  /// Momentary inbound mailbox occupancy (the health.mailbox_depth gauge).
  int64_t mailbox_depth() const { return mailbox_depth_gauge_->value(); }
  /// Messages this node re-sent after a reattach (recovery.replayed_slices);
  /// requires recovery.
  uint64_t replayed_slices() const { return replayed_counter_->value(); }

  /// Registers `child` as a child of this node; messages the child sends
  /// travel to this node. Returns the child's index.
  int AttachChild(Node* child);

  /// Removes a child from the membership (§3.2: node removal / connection
  /// timeout). Messages from a detached child are dropped, and completeness
  /// checks stop waiting for it.
  void DetachChild(int child_index);

  /// Entry point for messages from child `child_index`; metered.
  void Receive(const Message& message, int child_index);

  /// Total child slots ever attached (indices are stable).
  size_t num_children() const { return static_cast<size_t>(children_); }
  /// Children still in the membership.
  size_t num_active_children() const {
    return static_cast<size_t>(children_ - detached_);
  }
  bool child_detached(int child_index) const {
    return detached_flags_.size() > static_cast<size_t>(child_index) &&
           detached_flags_[static_cast<size_t>(child_index)];
  }

  int child_index_at_parent() const { return child_index_at_parent_; }
  Node* parent() const { return parent_; }
  /// The child attached at `child_index` (null for out-of-range slots;
  /// detached children keep their pointer — callers check child_detached()).
  Node* child_node(int child_index) const {
    const size_t i = static_cast<size_t>(child_index);
    return i < child_nodes_.size() ? child_nodes_[i] : nullptr;
  }

  // --- Crash recovery (docs/FAULT_TOLERANCE.md) --------------------------

  /// Arms the resend buffer and ack handling on this node. Idempotent;
  /// no-op when `options.enabled` is false. Call before AttachObs, which
  /// registers the recovery series of a recovering node.
  void EnableRecovery(const RecoveryOptions& options);
  bool recovery_enabled() const { return resend_buffer_ != nullptr; }
  ResendBuffer* resend_buffer() const { return resend_buffer_.get(); }

  /// Root-side per-(group_id, origin node) next-expected provenance unit.
  /// A buffered message is stale — already consumed by the root — iff every
  /// one of its origin entries sits below its frontier.
  using ReplayFrontiers = std::map<std::pair<uint32_t, uint32_t>, uint64_t>;

  /// Replays every buffered message not yet covered by `frontiers` to the
  /// (possibly new) parent, recording kReplay spans and the
  /// recovery.replayed_slices counter. Entries stay buffered until a
  /// stable ack covers them.
  void ReplayUnacked(const ReplayFrontiers& frontiers);

  /// Re-advertises this node's current output watermark upstream so a new
  /// parent immediately learns the subtree's progress after a reattach.
  virtual void ReAdvertiseWatermark() {}

  /// Routes this node's upstream sends through `transport` (never null;
  /// defaults to the process-wide inline transport).
  void set_transport(Transport* transport) { transport_ = transport; }
  Transport* transport() const { return transport_; }

  /// Attaches observability sinks: per-node series are registered in
  /// `registry` (labels: node id + role; never null — the registry is the
  /// only store of those facts) and slice-lifecycle spans go to `tracer`
  /// (may be null). Attaching again moves the series to the new registry;
  /// counts are not carried over. Subclasses extend via OnObsAttached().
  /// Call before traffic flows; handles live as long as the registry.
  void AttachObs(obs::MetricsRegistry* registry, obs::SliceTracer* tracer);
  obs::SliceTracer* tracer() const { return tracer_; }

  /// Attaches this node's black-box flight recorder (owned by the
  /// Cluster): stamps the node identity on it, mirrors its counters into
  /// the registry (recorder.events / recorder.dropped; AttachObs must have
  /// run), and lets subclasses forward it to slicers/engines via
  /// OnFlightAttached(). Null detaches.
  void AttachFlight(obs::FlightRecorder* flight);
  obs::FlightRecorder* flight() const { return flight_; }

  /// Publishes the derived health.watermark_lag_us gauge from the health
  /// cells (docs/METRICS.md); every other health.* gauge is written where
  /// the fact changes. Safe from any thread (relaxed reads, gauge store).
  /// Called by Cluster::SampleHealth().
  void PublishHealth() const;

  // --- Transport accounting hooks (see NodeStats) ------------------------

  /// Records an inbound queue-depth observation: keeps the maximum in
  /// node.queue_hwm and the momentary occupancy in health.mailbox_depth.
  /// Called live per enqueue by queue-based transports, so the gauge tracks
  /// occupancy mid-run — not only at Flush.
  void NoteQueueDepth(uint64_t depth) {
    queue_hwm_gauge_->StoreMax(static_cast<int64_t>(depth));
    mailbox_depth_gauge_->Set(static_cast<int64_t>(depth));
  }
  /// Marks the inbound queue quiesced (occupancy gauge back to zero; the
  /// high-water mark is preserved). Called by transports after Flush.
  void NoteQueueDrained() { mailbox_depth_gauge_->Set(0); }
  /// Records one retransmission on this node's uplink; with the in-flight
  /// message supplied, slice partials additionally record a kRetransmit
  /// span so the merged trace shows the repeated hop.
  void NoteRetransmit(const Message* message = nullptr);
  /// Records one dropped transmission on this node's uplink.
  void NoteDrop() { drops_counter_->Add(); }

 protected:
  virtual void HandleMessage(const Message& message, int child_index) = 0;

  /// Subclass hook: membership changed (e.g. stop waiting for the child's
  /// watermark).
  virtual void OnChildDetached(int /*child_index*/) {}

  /// Subclass hook: obs sinks attached (obs_registry_/tracer_ are set).
  /// Subclasses register their own series and forward the tracer to any
  /// engines/slicers they own.
  virtual void OnObsAttached() {}

  /// Subclass hook: flight recorder attached (flight_ is set). Subclasses
  /// forward it to any slicers/engines they own so seal/spill/restore
  /// events land on this node's ring.
  virtual void OnFlightAttached() {}

  /// Work parked waiting for completion (health.backlog): pending
  /// intermediate slices, root-assembler slice backlog, or unflushed
  /// forward batches.
  void SetBacklog(int64_t backlog) { backlog_gauge_->Set(backlog); }
  /// Occupancy of a reorder buffer (health.reorder_depth): root-only raw
  /// events held back for cross-child ordering.
  void SetReorderDepth(int64_t depth) { reorder_depth_gauge_->Set(depth); }

  /// Publishes this node's output watermark into the health cells, and —
  /// on an actual advance — bumps the heartbeat and records a
  /// kWatermarkAdvance flight event. Subclasses call this wherever they
  /// previously stored health_.watermark directly.
  void NoteWatermarkAdvance(Timestamp watermark) {
    const Timestamp previous = health_.watermark.load();
    health_.watermark.store(watermark);
    if (watermark != previous) {
      ++health_.heartbeats;
      if (flight_ != nullptr) {
        flight_->Record(obs::FlightEventKind::kWatermarkAdvance,
                        static_cast<uint64_t>(watermark), 0, watermark);
      }
    }
  }

  /// Ships a message to the parent (no-op without a parent — the root).
  void SendToParent(const Message& message);

  /// Ships a data message and, when recovery is armed, retains a copy in
  /// the resend buffer until a stable ack at or past `end_ts` arrives.
  void SendToParentBuffered(const Message& message, Timestamp end_ts);

  /// Sends a cumulative stable-watermark ack downstream to every active
  /// child (the root calls this when its advanced watermark moves).
  void SendAckToChildren(Timestamp stable);

  /// Runs `fn` attributing its wall time (minus nested upstream work) to
  /// this node's busy counter; returns the attributed nanoseconds. Used by
  /// local nodes for event ingestion.
  template <typename Fn>
  int64_t Metered(Fn&& fn) {
    const int64_t saved = ExchangeNested(0);
    const int64_t t0 = NowNs();
    fn();
    const int64_t dt = NowNs() - t0;
    const int64_t attributed = dt - ExchangeNested(saved + dt);
    busy_ns_ += attributed;
    return attributed;
  }

  /// Health cells; subclasses store into these from their own handler
  /// thread (see NodeHealth).
  NodeHealth health_;
  obs::MetricsRegistry* obs_registry_ = nullptr;
  obs::SliceTracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;

 private:
  static int64_t NowNs();
  static int64_t ExchangeNested(int64_t value);

  /// Evicts the resend buffer up to `stable` and forwards the ack to this
  /// node's own children (cumulative acks cascade root -> leaves).
  void HandleStableAck(Timestamp stable);
  void UpdateResendGauge();
  void RecordReplaySpan(const Message& message);

  uint32_t id_;
  NodeRole role_;
  Transport* transport_;
  // Facts without a registry series: one relaxed cell each (NodeStats).
  obs::RelaxedU64 bytes_sent_;
  obs::RelaxedU64 bytes_received_;
  obs::RelaxedU64 messages_sent_;
  obs::RelaxedU64 messages_received_;
  obs::RelaxedI64 busy_ns_;
  // Registry handles, set by AttachObs (the cluster wires every node).
  obs::Histogram* handler_latency_ = nullptr;   // node.handler_latency_ns
  obs::Gauge* queue_hwm_gauge_ = nullptr;       // node.queue_hwm
  obs::Gauge* mailbox_depth_gauge_ = nullptr;   // health.mailbox_depth
  obs::Gauge* wm_lag_gauge_ = nullptr;          // health.watermark_lag_us
  obs::Gauge* backlog_gauge_ = nullptr;         // health.backlog
  obs::Gauge* reorder_depth_gauge_ = nullptr;   // health.reorder_depth
  obs::Counter* retransmits_counter_ = nullptr;  // node.retransmits
  obs::Counter* drops_counter_ = nullptr;        // node.messages_dropped

  Node* parent_ = nullptr;
  int child_index_at_parent_ = -1;
  int children_ = 0;
  int detached_ = 0;
  std::vector<bool> detached_flags_;
  std::vector<Node*> child_nodes_;

  // Crash recovery (null/unset unless EnableRecovery ran; the handles are
  // set by AttachObs on a recovering node).
  std::unique_ptr<ResendBuffer> resend_buffer_;
  obs::Counter* replayed_counter_ = nullptr;     // recovery.replayed_slices
  obs::Gauge* resend_bytes_gauge_ = nullptr;     // recovery.resend_buffer_bytes
  Timestamp ack_forwarded_ = kNoTimestamp;
};

}  // namespace desis

#endif  // DESIS_NET_NODE_H_
