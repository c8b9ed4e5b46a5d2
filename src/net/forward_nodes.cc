#include "net/forward_nodes.h"

#include <algorithm>

namespace desis {

void ForwardingLocalNode::IngestBatch(const Event* events, size_t count) {
  Metered([&] {
    // Bulk-append in flush-sized chunks instead of pushing one event at a
    // time; the wire batches stay capped at batch_size_.
    size_t i = 0;
    while (i < count) {
      const size_t take = std::min(batch_size_ - pending_.size(), count - i);
      pending_.insert(pending_.end(), events + i, events + i + take);
      i += take;
      if (pending_.size() >= batch_size_) Flush();
    }
    if (count > 0) health_.last_event_ts = events[count - 1].ts;
    SetBacklog(static_cast<int64_t>(pending_.size()));
  });
}

void ForwardingLocalNode::Flush() {
  if (pending_.empty()) return;
  SendToParent({MessageType::kEventBatch, 0, EncodeEventBatch(pending_)});
  pending_.clear();
}

void ForwardingLocalNode::Advance(Timestamp watermark) {
  Metered([&] {
    Flush();
    SendToParent({MessageType::kWatermark, 0, EncodeWatermark(watermark)});
    NoteWatermarkAdvance(watermark);
    SetBacklog(0);
  });
}

void ForwardingLocalNode::HandleMessage(const Message& /*message*/,
                                        int /*child_index*/) {}

void RelayIntermediateNode::HandleMessage(const Message& message,
                                          int child_index) {
  if (message.type == MessageType::kWatermark) {
    if (child_wms_.size() < num_children()) {
      child_wms_.resize(num_children(), kNoTimestamp);
    }
    child_wms_[static_cast<size_t>(child_index)] =
        std::max(child_wms_[static_cast<size_t>(child_index)],
                 DecodeWatermark(message.payload));
    Timestamp min_wm = kMaxTimestamp;
    for (Timestamp wm : child_wms_) {
      if (wm == kNoTimestamp) return;
      min_wm = std::min(min_wm, wm);
    }
    health_.last_event_ts.StoreMax(min_wm);
    NoteWatermarkAdvance(min_wm);
    SendToParent({MessageType::kWatermark, 0, EncodeWatermark(min_wm)});
    return;
  }
  SendToParent(message);
}

Timestamp EngineRootNode::MinChildWatermark() const {
  if (child_wms_.size() < num_children()) return kNoTimestamp;
  Timestamp min_wm = kMaxTimestamp;
  for (Timestamp wm : child_wms_) {
    if (wm == kNoTimestamp) return kNoTimestamp;
    min_wm = std::min(min_wm, wm);
  }
  return min_wm;
}

void EngineRootNode::HandleMessage(const Message& message, int child_index) {
  switch (message.type) {
    case MessageType::kEventBatch: {
      std::vector<Event> events = DecodeEventBatch(message.payload);
      if (!events.empty()) health_.last_event_ts.StoreMax(events.back().ts);
      pending_.insert(pending_.end(), events.begin(), events.end());
      break;
    }
    case MessageType::kWatermark: {
      if (child_wms_.size() < num_children()) {
        child_wms_.resize(num_children(), kNoTimestamp);
      }
      child_wms_[static_cast<size_t>(child_index)] =
          std::max(child_wms_[static_cast<size_t>(child_index)],
                   DecodeWatermark(message.payload));
      const Timestamp wm = MinChildWatermark();
      if (wm == kNoTimestamp || wm <= released_wm_) break;
      released_wm_ = wm;
      std::sort(pending_.begin(), pending_.end(),
                [](const Event& a, const Event& b) { return a.ts < b.ts; });
      size_t released = 0;
      while (released < pending_.size() && pending_[released].ts <= wm) {
        ++released;
      }
      // The sorted prefix is one ordered run: hand it to the engine's
      // batched fast path in a single call.
      engine_->IngestBatch(pending_.data(), released);
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<int64_t>(released));
      engine_->AdvanceTo(wm);
      break;
    }
    default:
      break;
  }
  // The root's reorder buffer doubles as its backlog: raw events held back
  // until every child's watermark passes them.
  SetBacklog(static_cast<int64_t>(pending_.size()));
  SetReorderDepth(static_cast<int64_t>(pending_.size()));
  NoteWatermarkAdvance(released_wm_);
}

}  // namespace desis
