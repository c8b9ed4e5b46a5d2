#include "transport/sim_link_transport.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace desis {

SimLinkTransport::SimLinkTransport(SimLinkConfig config)
    : config_(config), rng_(config.seed) {
  config_.drop_probability = std::clamp(config_.drop_probability, 0.0, 0.9);
  if (config_.latency_us < 0) config_.latency_us = 0;
  if (config_.jitter_us < 0) config_.jitter_us = 0;
}

int64_t SimLinkTransport::JitterSample() {
  return config_.jitter_us == 0 ? 0 : rng_.NextInRange(0, config_.jitter_us);
}

void SimLinkTransport::Schedule(int64_t at, EventKind kind, Link* link,
                                uint64_t seq) {
  events_.push({at, next_order_++, kind, link, seq});
}

void SimLinkTransport::Transmit(Link& link, uint64_t seq) {
  const Message& message = link.unacked.at(seq);
  int64_t transmit_us = 0;
  if (config_.bytes_per_us > 0) {
    transmit_us = static_cast<int64_t>(std::ceil(
        static_cast<double>(message.WireBytes()) / config_.bytes_per_us));
  }
  const int64_t start = std::max(now_us_, link.free_at);
  link.free_at = start + transmit_us;
  const int64_t arrives = link.free_at + config_.latency_us + JitterSample();
  Schedule(arrives, EventKind::kDataArrives, &link, seq);
  // The ack for an undropped round trip lands no later than
  // arrives + latency + jitter; time out strictly after that.
  int64_t rto = config_.retransmit_timeout_us;
  if (rto <= 0) rto = config_.latency_us + config_.jitter_us + 1;
  Schedule(arrives + rto, EventKind::kRtoFires, &link, seq);
}

void SimLinkTransport::Send(Node* from, Node* to, int child_index,
                            const Message& message) {
  if (dead_.count(from) != 0 || dead_.count(to) != 0) return;  // crashed
  Link& link = links_[{from, to}];
  if (link.from == nullptr) {
    link.from = from;
    link.to = to;
  }
  // Refreshed every send: a reattached child keeps its link endpoints but
  // registers under a new child index at the (new) parent.
  link.child_index = child_index;
  const uint64_t seq = link.next_seq++;
  link.unacked.emplace(seq, message);
  Transmit(link, seq);
}

void SimLinkTransport::KillNode(Node* node) {
  dead_.insert(node);
  for (auto& [key, link] : links_) {
    if (link.from != node && link.to != node) continue;
    link.unacked.clear();
    link.reassembly.clear();
    link.parked.clear();
  }
}

bool SimLinkTransport::SetLinkDown(Node* a, Node* b, bool down) {
  const auto key = NormalizedPair(a, b);
  if (down) {
    down_.insert(key);
    return true;
  }
  down_.erase(key);
  // Heal: everything parked while the link was dark goes back on the wire,
  // in sequence order, as ordinary retransmissions.
  for (auto& [lk, link] : links_) {
    if (NormalizedPair(link.from, link.to) != key) continue;
    for (uint64_t seq : link.parked) {
      if (link.unacked.count(seq) == 0) continue;
      ++retransmits_;
      link.from->NoteRetransmit(&link.unacked.at(seq));
      Transmit(link, seq);
    }
    link.parked.clear();
  }
  return true;
}

void SimLinkTransport::ResetLink(Node* a, Node* b) {
  const auto key = NormalizedPair(a, b);
  down_.erase(key);
  for (auto& [lk, link] : links_) {
    if (NormalizedPair(link.from, link.to) != key) continue;
    link.unacked.clear();
    link.reassembly.clear();
    link.parked.clear();
    // Abandon the undelivered sequence window: the gap would otherwise
    // stall in-order delivery of everything sent after the reset.
    link.next_deliver = link.next_seq;
  }
}

void SimLinkTransport::Pump() {
  while (!events_.empty()) {
    const SimEvent ev = events_.top();
    events_.pop();
    now_us_ = std::max(now_us_, ev.at);
    Link& link = *ev.link;
    switch (ev.kind) {
      case EventKind::kDataArrives: {
        if (IsDead(link)) break;  // crashed endpoint: discard silently
        // Payload gone from the sender window (link reset on a reattach):
        // nothing to deliver, and no ack wanted.
        if (link.unacked.count(ev.seq) == 0 && ev.seq >= link.next_deliver) {
          break;
        }
        if (IsDown(link)) {
          ++drops_;
          link.from->NoteDrop();
          break;  // the pending RTO parks this seq until the link heals
        }
        if (rng_.NextBool(config_.drop_probability)) {
          ++drops_;
          link.from->NoteDrop();
          break;  // the pending RTO covers this loss
        }
        const bool duplicate = ev.seq < link.next_deliver ||
                               link.reassembly.count(ev.seq) != 0;
        if (!duplicate) {
          // Still unacked at the sender (acks trail delivery), so the
          // payload is available for the reassembly buffer.
          link.reassembly.emplace(ev.seq, link.unacked.at(ev.seq));
          link.reassembly_hwm =
              std::max(link.reassembly_hwm,
                       static_cast<uint64_t>(link.reassembly.size()));
          // Deliver the in-order prefix; handlers may Send() more traffic,
          // which lands in this same event loop at the current time.
          auto it = link.reassembly.find(link.next_deliver);
          while (it != link.reassembly.end()) {
            Message message = std::move(it->second);
            link.reassembly.erase(it);
            ++link.next_deliver;
            link.to->Receive(message, link.child_index);
            it = link.reassembly.find(link.next_deliver);
          }
        }
        Schedule(now_us_ + config_.latency_us + JitterSample(),
                 EventKind::kAckArrives, &link, ev.seq);
        break;
      }
      case EventKind::kAckArrives:
        if (IsDead(link) || IsDown(link)) break;  // resolve via retransmit
        if (!rng_.NextBool(config_.drop_probability)) {
          link.unacked.erase(ev.seq);  // lost acks resolve via retransmit
        }
        break;
      case EventKind::kRtoFires:
        if (IsDead(link)) break;
        if (link.unacked.count(ev.seq) != 0) {
          if (IsDown(link)) {
            // Partitioned: park instead of spinning the timer — the heal
            // retransmits everything parked.
            link.parked.insert(ev.seq);
            break;
          }
          ++retransmits_;
          // Handing over the message lets slice partials record a
          // kRetransmit span on the slice's own trace track.
          link.from->NoteRetransmit(&link.unacked.at(ev.seq));
          Transmit(link, ev.seq);
        }
        break;
    }
  }
  for (auto& [key, link] : links_) {
    if (link.to != nullptr && !IsDead(link)) {
      link.to->NoteQueueDepth(link.reassembly_hwm);
      link.to->NoteQueueDrained();  // every queue is empty after the flush
    }
  }
}

}  // namespace desis
