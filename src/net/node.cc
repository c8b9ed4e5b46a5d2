#include "net/node.h"

#include <algorithm>
#include <chrono>

#include "transport/transport.h"

namespace desis {
namespace {

// Nested-time accumulator for busy-time attribution: when node A's handler
// synchronously triggers node B's handler, B's time must not count as A's.
thread_local int64_t g_nested_ns = 0;

}  // namespace

std::string ToString(NodeRole role) {
  switch (role) {
    case NodeRole::kLocal: return "local";
    case NodeRole::kIntermediate: return "intermediate";
    case NodeRole::kRoot: return "root";
  }
  return "unknown";
}

Node::Node(uint32_t id, NodeRole role)
    : id_(id), role_(role), transport_(&DefaultInlineTransport()) {}

int64_t Node::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Node::ExchangeNested(int64_t value) {
  const int64_t old = g_nested_ns;
  g_nested_ns = value;
  return old;
}

int Node::AttachChild(Node* child) {
  child->parent_ = this;
  child->child_index_at_parent_ = children_;
  detached_flags_.push_back(false);
  child_nodes_.push_back(child);
  return children_++;
}

void Node::DetachChild(int child_index) {
  if (child_index < 0 || child_index >= children_ ||
      detached_flags_[static_cast<size_t>(child_index)]) {
    return;
  }
  detached_flags_[static_cast<size_t>(child_index)] = true;
  ++detached_;
  Metered([&] { OnChildDetached(child_index); });
}

void Node::AttachObs(obs::MetricsRegistry* registry,
                     obs::SliceTracer* tracer) {
  obs_registry_ = registry;
  tracer_ = tracer;
  const obs::Labels labels = {{"node", std::to_string(id_)},
                              {"role", ToString(role_)}};
  handler_latency_ =
      registry->GetHistogram("node.handler_latency_ns", labels, "ns");
  queue_hwm_gauge_ = registry->GetGauge("node.queue_hwm", labels, "messages");
  mailbox_depth_gauge_ =
      registry->GetGauge("health.mailbox_depth", labels, "messages");
  wm_lag_gauge_ = registry->GetGauge("health.watermark_lag_us", labels, "us");
  backlog_gauge_ = registry->GetGauge("health.backlog", labels, "slices");
  reorder_depth_gauge_ =
      registry->GetGauge("health.reorder_depth", labels, "events");
  retransmits_counter_ =
      registry->GetCounter("node.retransmits", labels, "messages");
  drops_counter_ =
      registry->GetCounter("node.messages_dropped", labels, "messages");
  if (resend_buffer_ != nullptr) {
    replayed_counter_ = registry->GetCounter("recovery.replayed_slices",
                                             labels, "messages");
    resend_bytes_gauge_ =
        registry->GetGauge("recovery.resend_buffer_bytes", labels, "bytes");
  }
  OnObsAttached();
}

void Node::AttachFlight(obs::FlightRecorder* flight) {
  flight_ = flight;
  if (flight_ == nullptr) return;
  flight_->set_identity(id_, static_cast<uint8_t>(role_));
  const obs::Labels labels = {{"node", std::to_string(id_)},
                              {"role", ToString(role_)}};
  flight_->set_counters(
      obs_registry_->GetCounter("recorder.events", labels, "events"),
      obs_registry_->GetCounter("recorder.dropped", labels, "events"));
  OnFlightAttached();
}

NodeStats Node::net_stats() const {
  NodeStats s;
  s.bytes_sent = bytes_sent_;
  s.bytes_received = bytes_received_;
  s.messages_sent = messages_sent_;
  s.messages_received = messages_received_;
  s.busy_ns = busy_ns_;
  s.queue_hwm = static_cast<uint64_t>(queue_hwm_gauge_->value());
  s.retransmits = retransmits_counter_->value();
  s.messages_dropped = drops_counter_->value();
  return s;
}

void Node::PublishHealth() const {
  // Lag is only meaningful once both ends of the interval exist; before
  // traffic flows the gauge stays at its initial 0.
  const int64_t seen = health_.last_event_ts;
  if (seen == kNoTimestamp) return;
  const int64_t wm = health_.watermark;
  wm_lag_gauge_->Set(wm == kNoTimestamp ? seen
                                        : std::max<int64_t>(0, seen - wm));
}

void Node::NoteRetransmit(const Message* message) {
  retransmits_counter_->Add();
  // A retransmitted slice partial keeps its slice identity, so the span
  // lands on the same async track as the original shipment. The id and
  // time range are the first three payload fields (see SlicePartialMsg).
  if (message != nullptr && message->type == MessageType::kSlicePartial &&
      message->payload.size() >= sizeof(uint64_t) + 2 * sizeof(int64_t)) {
    ByteReader reader(message->payload);
    const uint64_t slice_id = reader.ReadU64();
    reader.ReadI64();  // start
    const Timestamp end = reader.ReadI64();
    if (tracer_ != nullptr) {
      tracer_->Record(obs::SlicePhase::kRetransmit, slice_id,
                      message->group_id, /*query_id=*/0, id_,
                      static_cast<uint8_t>(role_), end);
    }
    if (flight_ != nullptr) {
      flight_->Record(obs::FlightEventKind::kRetransmit, slice_id,
                      message->group_id, end);
    }
  }
}

void Node::Receive(const Message& message, int child_index) {
  ++health_.heartbeats;  // any inbound traffic is a liveness signal
  if (message.type == MessageType::kAck) {
    // Downstream traffic (parent -> child, child_index = -1): evict the
    // resend buffer and cascade toward the leaves. Never reaches the
    // subclass HandleMessage.
    bytes_received_ += message.WireBytes();
    ++messages_received_;
    Metered([&] { HandleStableAck(DecodeWatermark(message.payload)); });
    return;
  }
  if (child_detached(child_index)) return;  // stale traffic from a removed node
  bytes_received_ += message.WireBytes();
  ++messages_received_;
  handler_latency_->Record(
      Metered([&] { HandleMessage(message, child_index); }));
}

void Node::SendToParent(const Message& message) {
  if (parent_ == nullptr) return;
  bytes_sent_ += message.WireBytes();
  ++messages_sent_;
  transport_->Send(this, parent_, child_index_at_parent_, message);
}

void Node::SendToParentBuffered(const Message& message, Timestamp end_ts) {
  if (resend_buffer_ != nullptr) {
    resend_buffer_->Add(message, end_ts);
    UpdateResendGauge();
  }
  SendToParent(message);
}

void Node::EnableRecovery(const RecoveryOptions& options) {
  if (!options.enabled || resend_buffer_ != nullptr) return;
  resend_buffer_ =
      std::make_unique<ResendBuffer>(options.resend_buffer_max_bytes);
}

void Node::UpdateResendGauge() {
  resend_bytes_gauge_->Set(static_cast<int64_t>(resend_buffer_->bytes()));
}

void Node::HandleStableAck(Timestamp stable) {
  if (resend_buffer_ != nullptr) {
    resend_buffer_->EvictStable(stable);
    UpdateResendGauge();
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kAckFrontier,
                    static_cast<uint64_t>(stable), 0, stable);
  }
  SendAckToChildren(stable);
}

void Node::SendAckToChildren(Timestamp stable) {
  if (stable <= ack_forwarded_) return;  // cumulative: only forward advances
  ack_forwarded_ = stable;
  Message ack;
  ack.type = MessageType::kAck;
  ack.payload = EncodeWatermark(stable);
  for (int i = 0; i < children_; ++i) {
    if (child_detached(i)) continue;
    Node* child = child_nodes_[static_cast<size_t>(i)];
    if (child == nullptr || !child->recovery_enabled()) continue;
    bytes_sent_ += ack.WireBytes();
    ++messages_sent_;
    transport_->Send(this, child, /*child_index=*/-1, ack);
  }
}

void Node::ReplayUnacked(const ReplayFrontiers& frontiers) {
  if (resend_buffer_ == nullptr || parent_ == nullptr) return;
  for (const Message& message : resend_buffer_->UnackedSnapshot()) {
    // Stale iff every origin unit was already applied at the root. Messages
    // without provenance can't be deduplicated, so they are always resent.
    bool fresh = message.origins.empty();
    for (const ProvenanceEntry& p : message.origins) {
      const auto it = frontiers.find({message.group_id, p.origin});
      if (it == frontiers.end() || p.unit >= it->second) {
        fresh = true;
        break;
      }
    }
    if (!fresh) continue;
    bytes_sent_ += message.WireBytes();
    ++messages_sent_;
    transport_->Send(this, parent_, child_index_at_parent_, message);
    replayed_counter_->Add();
    RecordReplaySpan(message);
  }
}

void Node::RecordReplaySpan(const Message& message) {
  if (tracer_ == nullptr && flight_ == nullptr) return;
  uint64_t slice_id =
      message.origins.empty() ? 0 : message.origins.front().unit;
  Timestamp ts = health_.watermark;
  if (message.type == MessageType::kSlicePartial &&
      message.payload.size() >= sizeof(uint64_t) + 2 * sizeof(int64_t)) {
    ByteReader reader(message.payload);
    slice_id = reader.ReadU64();
    reader.ReadI64();  // start
    ts = reader.ReadI64();
  }
  if (tracer_ != nullptr) {
    tracer_->Record(obs::SlicePhase::kReplay, slice_id, message.group_id,
                    /*query_id=*/0, id_, static_cast<uint8_t>(role_), ts);
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kReplay, slice_id, message.group_id,
                    ts);
  }
}

}  // namespace desis
