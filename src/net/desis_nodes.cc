#include "net/desis_nodes.h"

#include <algorithm>

#include "core/engine.h"  // SlicingEngine::kMaxInstrumentedGroups

namespace desis {

namespace {

// Event-time upper bound of an encoded event batch (payload layout: u32
// count + 24B/event, ts first): the resend-buffer eviction key for
// kEventBatch messages. kNoTimestamp for an empty batch.
Timestamp EventBatchEndTs(const std::vector<uint8_t>& payload) {
  constexpr size_t kPerEvent =
      sizeof(int64_t) + sizeof(uint32_t) + sizeof(double) + sizeof(uint32_t);
  ByteReader in(payload);
  const uint32_t n = in.ReadU32();
  if (n == 0) return kNoTimestamp;
  ByteReader tail(payload.data() + sizeof(uint32_t) + (n - 1) * kPerEvent,
                  sizeof(int64_t));
  return tail.ReadI64();
}

}  // namespace

// ---------------------------------------------------------------- local --

DesisLocalNode::DesisLocalNode(uint32_t id,
                               const std::vector<QueryGroup>& groups,
                               size_t forward_batch_size,
                               const mem::MemoryOptions& memory)
    : Node(id, NodeRole::kLocal), forward_batch_size_(forward_batch_size) {
  if (memory.budget_bytes > 0) {
    gov_ = std::make_unique<mem::MemoryGovernor>(memory);
  }
  AddGroups(groups);
}

void DesisLocalNode::AddGroups(const std::vector<QueryGroup>& groups) {
  for (const QueryGroup& group : groups) {
    if (group.root_only) {
      forward_groups_.push_back({group, {}});
      continue;
    }
    SlicerOptions options;
    options.punctuation = PunctuationStrategy::kPrecomputed;
    options.assemble_windows = false;  // the root assembles (§5.1)
    options.keep_slices = false;
    auto slicer = std::make_unique<StreamSlicer>(group, options, &stats_);
    const uint32_t gid = group.id;
    slicer->set_slice_sink(
        [this, gid](const SliceRecord& rec) { ShipSlice(gid, rec); });
    slicer->set_obs(tracer_, id(), obs::kSpanRoleLocal);
    // Group cost series are shared across locals (same labels -> same
    // handles), so events_in/operator_evals accumulate cluster-wide; the
    // instrumentation cap mirrors the single-node engine's.
    if (gid < SlicingEngine::kMaxInstrumentedGroups) {
      slicer->set_metrics(obs_registry_);
    }
    if (gov_ != nullptr) slicer->set_memory(gov_.get());
    slicers_.emplace_back(gid, std::move(slicer));
  }
}

bool DesisLocalNode::AddQueryToGroup(uint32_t group_id, const Query& q,
                                     uint32_t lane,
                                     const SelectionLane& lane_def,
                                     Timestamp active_from) {
  for (auto& [gid, slicer] : slicers_) {
    if (gid != group_id) continue;
    slicer->ApplyQueryAdd(q, lane, lane_def, active_from);
    return true;
  }
  for (ForwardGroup& fg : forward_groups_) {
    if (fg.group.id != group_id) continue;
    // Root-only groups only filter and forward raw events here; joining a
    // query just has to make the lane list cover its predicate. The root's
    // slicer applies the activation gate.
    if (lane >= fg.group.lanes.size()) fg.group.lanes.push_back(lane_def);
    fg.group.queries.push_back({q, lane});
    return true;
  }
  return false;
}

bool DesisLocalNode::RemoveGroup(uint32_t group_id) {
  for (auto it = slicers_.begin(); it != slicers_.end(); ++it) {
    if (it->first != group_id) continue;
    slicers_.erase(it);
    return true;
  }
  for (auto it = forward_groups_.begin(); it != forward_groups_.end(); ++it) {
    if (it->group.id != group_id) continue;
    forward_groups_.erase(it);
    return true;
  }
  return false;
}

void DesisLocalNode::OnObsAttached() {
  for (auto& [gid, slicer] : slicers_) {
    slicer->set_obs(tracer_, id(), obs::kSpanRoleLocal);
    if (gid < SlicingEngine::kMaxInstrumentedGroups) {
      slicer->set_metrics(obs_registry_);
    }
  }
  if (gov_ != nullptr) {
    gov_->AttachMetrics(obs_registry_, {{"node", std::to_string(id())}});
  }
}

void DesisLocalNode::OnFlightAttached() {
  for (auto& [gid, slicer] : slicers_) slicer->set_flight(flight_);
}

void DesisLocalNode::IngestBatch(const Event* events, size_t count) {
  if (count == 0) return;
  Metered([&] {
    stats_.events += count;
    last_ts_ = events[count - 1].ts;
    // Pushed-down groups take the slicer's run-based fast path; groups with
    // dynamic or count-measure specs fall back per event inside the slicer.
    for (auto& [gid, slicer] : slicers_) slicer->IngestBatch(events, count);
    for (ForwardGroup& fg : forward_groups_) {
      for (size_t i = 0; i < count; ++i) {
        for (const SelectionLane& lane : fg.group.lanes) {
          ++stats_.selection_evals;
          if (lane.predicate.Matches(events[i])) {
            fg.pending.push_back(events[i]);
            break;  // forwarded once; the root re-evaluates lanes
          }
        }
        if (fg.pending.size() >= forward_batch_size_) {
          FlushForwardBatch(fg.group.id);
        }
      }
    }
    health_.last_event_ts = last_ts_;
    int64_t parked = 0;
    for (const ForwardGroup& fg : forward_groups_) {
      parked += static_cast<int64_t>(fg.pending.size());
    }
    SetBacklog(parked);
  });
}

void DesisLocalNode::ShipSlice(uint32_t group_id, const SliceRecord& rec) {
  SlicePartialMsg msg = SlicePartialMsg::FromRecord(rec, last_ts_);
  ByteWriter out;
  msg.SerializeTo(out);
  Message wire{MessageType::kSlicePartial, group_id, out.TakeBytes()};
  if (recovery_enabled()) {
    // Slice ids are monotone per (local, group): the natural replay unit.
    wire.origins = {{id(), rec.id}};
  }
  SendToParentBuffered(wire, rec.end);
  if (tracer_ != nullptr) {
    tracer_->Record(obs::SlicePhase::kPartialShipped, rec.id, group_id,
                    /*query_id=*/0, id(), obs::kSpanRoleLocal, rec.end);
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kPartialShip, rec.id, group_id,
                    rec.end);
  }
}

void DesisLocalNode::FlushForwardBatch(uint32_t group_id) {
  for (ForwardGroup& fg : forward_groups_) {
    if (fg.group.id != group_id || fg.pending.empty()) continue;
    Message wire{MessageType::kEventBatch, group_id,
                 EncodeEventBatch(fg.pending)};
    if (recovery_enabled()) wire.origins = {{id(), fg.next_chunk++}};
    SendToParentBuffered(wire, fg.pending.back().ts);
    fg.pending.clear();
  }
}

void DesisLocalNode::ReAdvertiseWatermark() {
  const Timestamp wm = health_.watermark;
  if (wm == kNoTimestamp) return;
  SendToParent({MessageType::kWatermark, 0, EncodeWatermark(wm)});
}

void DesisLocalNode::Advance(Timestamp watermark) {
  Metered([&] {
    Timestamp safe = watermark;
    for (auto& [gid, slicer] : slicers_) {
      slicer->AdvanceTo(watermark);
      // Advertise only what has been sealed and shipped: events in an
      // unsealed slice (e.g. a running session) are not upstream yet.
      const Timestamp slicer_safe = slicer->SafeWatermark();
      if (slicer_safe != kNoTimestamp) safe = std::min(safe, slicer_safe);
    }
    for (ForwardGroup& fg : forward_groups_) FlushForwardBatch(fg.group.id);
    SendToParent({MessageType::kWatermark, 0, EncodeWatermark(safe)});
    NoteWatermarkAdvance(safe);
    SetBacklog(0);  // forward batches flushed
  });
}

void DesisLocalNode::HandleMessage(const Message& /*message*/,
                                   int /*child_index*/) {
  // Local nodes have no children in this topology.
}

// --------------------------------------------------------- intermediate --

void DesisIntermediateNode::NoteChildWatermark(int child_index, Timestamp wm) {
  if (child_wms_.size() < num_children()) {
    child_wms_.resize(num_children(), kNoTimestamp);
  }
  child_wms_[static_cast<size_t>(child_index)] =
      std::max(child_wms_[static_cast<size_t>(child_index)], wm);
}

Timestamp DesisIntermediateNode::MinChildWatermark() const {
  if (child_wms_.size() < num_children()) return kNoTimestamp;
  Timestamp min_wm = kMaxTimestamp;
  for (size_t i = 0; i < child_wms_.size(); ++i) {
    if (child_detached(static_cast<int>(i))) continue;
    if (child_wms_[i] == kNoTimestamp) return kNoTimestamp;
    min_wm = std::min(min_wm, child_wms_[i]);
  }
  return min_wm;
}

void DesisIntermediateNode::OnChildDetached(int child_index) {
  if (child_wms_.size() < num_children()) {
    child_wms_.resize(num_children(), kNoTimestamp);
  }
  child_wms_[static_cast<size_t>(child_index)] = kMaxTimestamp;
  FlushUpTo(MinChildWatermark());
}

void DesisIntermediateNode::ForwardEntry(
    uint32_t group_id, SlicePartialMsg&& msg,
    std::vector<ProvenanceEntry>&& origins) {
  if (tracer_ != nullptr) {
    tracer_->Record(obs::SlicePhase::kMerged, msg.slice_id, group_id,
                    /*query_id=*/0, id(), obs::kSpanRoleIntermediate, msg.end);
  }
  const Timestamp end = msg.end;
  ByteWriter out;
  msg.SerializeTo(out);
  Message wire{MessageType::kSlicePartial, group_id, out.TakeBytes()};
  if (recovery_enabled()) wire.origins = std::move(origins);
  SendToParentBuffered(wire, end);
}

void DesisIntermediateNode::ForceFlushHeld() {
  // Early data is safe — the parent's assembler holds partials until its
  // own watermark passes — so everything held here can go upstream now.
  // sent_wm_ stays put: the pinning invariant keeps protecting in-flight
  // data on the wire above us.
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto& [key, value] = *it;
    ForwardEntry(std::get<0>(key), std::move(value.msg),
                 std::move(value.origins));
    it = entries_.erase(it);
  }
  SetBacklog(0);
}

void DesisIntermediateNode::ReAdvertiseWatermark() {
  if (sent_wm_ == kNoTimestamp) return;
  SendToParent({MessageType::kWatermark, 0, EncodeWatermark(sent_wm_)});
}

void DesisIntermediateNode::FlushUpTo(Timestamp watermark) {
  if (watermark == kNoTimestamp) return;
  // Forward intermediate slices that can no longer grow (children's
  // watermarks passed their end), even if not every child contributed —
  // dynamic windows punctuate at different times on different children.
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto& [key, value] = *it;
    if (std::get<2>(key) <= watermark) {
      ForwardEntry(std::get<0>(key), std::move(value.msg),
                   std::move(value.origins));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  // Pin the forwarded watermark to the earliest still-held slice: the
  // parent must not sweep past activity that is in flight here, or a slice
  // flushed later (its end punctuates later than a shorter, later-starting
  // sibling's) would land behind the root's session scan and its events
  // would silently vanish from session tracking. The flush above still
  // uses the raw child watermark, so nothing is forwarded any later than
  // before — the parent just cannot consume ahead of the in-flight data.
  Timestamp send = watermark;
  for (const auto& [key, value] : entries_) {
    send = std::min(send, std::get<1>(key));
  }
  if (send <= sent_wm_) return;
  sent_wm_ = send;
  SendToParent({MessageType::kWatermark, 0, EncodeWatermark(send)});
}

void DesisIntermediateNode::HandleMessage(const Message& message,
                                          int child_index) {
  switch (message.type) {
    case MessageType::kSlicePartial: {
      ByteReader in(message.payload);
      SlicePartialMsg msg = SlicePartialMsg::DeserializeFrom(in);
      health_.last_event_ts.StoreMax(msg.last_event_ts);
      auto key = std::make_tuple(message.group_id, msg.start, msg.end);
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        ++stats_.slices_created;  // a new intermediate slice
        it = entries_.emplace(key, Entry{std::move(msg), 1, message.origins})
                 .first;
      } else {
        it->second.origins.insert(it->second.origins.end(),
                                  message.origins.begin(),
                                  message.origins.end());
        SlicePartialMsg& entry = it->second.msg;
        // Children racing a runtime query add may report the same slice
        // range with different lane counts / operator masks for one
        // watermark round: merge the shared prefix mask-compatibly and
        // append the wider child's extra lanes.
        const size_t shared = std::min(entry.lanes.size(), msg.lanes.size());
        for (size_t i = 0; i < shared; ++i) {
          if (msg.lane_events[i] == 0) continue;
          PartialAggregate::MergeCompatible(entry.lanes[i], msg.lanes[i]);
          entry.lane_events[i] += msg.lane_events[i];
          entry.lane_last_ts[i] =
              std::max(entry.lane_last_ts[i], msg.lane_last_ts[i]);
          ++stats_.merges;
        }
        for (size_t i = shared; i < msg.lanes.size(); ++i) {
          entry.lanes.push_back(msg.lanes[i]);
          entry.lane_events.push_back(msg.lane_events[i]);
          entry.lane_last_ts.push_back(msg.lane_last_ts[i]);
        }
        entry.last_event_ts = std::max(entry.last_event_ts, msg.last_event_ts);
        entry.watermark = std::min(entry.watermark, msg.watermark);
        for (const EpInfo& ep : msg.eps) {
          bool known = false;
          for (const EpInfo& have : entry.eps) {
            known = known || (have.spec_idx == ep.spec_idx &&
                              have.window_end == ep.window_end);
          }
          if (!known) entry.eps.push_back(ep);
        }
        ++it->second.reports;
      }
      // An intermediate slice is complete when every child reported (its
      // "length" equals the number of children, §5.1.1).
      if (it->second.reports >= static_cast<int>(num_active_children())) {
        SlicePartialMsg complete = std::move(it->second.msg);
        std::vector<ProvenanceEntry> origins = std::move(it->second.origins);
        entries_.erase(it);
        ForwardEntry(message.group_id, std::move(complete),
                     std::move(origins));
      }
      FlushUpTo(MinChildWatermark());
      break;
    }
    case MessageType::kEventBatch:
      // Root-only groups: pass raw batches through unchanged (provenance
      // included — the copy keeps `origins`); buffered for replay.
      SendToParentBuffered(message, EventBatchEndTs(message.payload));
      break;
    case MessageType::kWatermark: {
      const Timestamp wm = DecodeWatermark(message.payload);
      health_.last_event_ts.StoreMax(wm);
      NoteChildWatermark(child_index, wm);
      FlushUpTo(MinChildWatermark());
      break;
    }
    case MessageType::kText:
      SendToParent(message);
      break;
    case MessageType::kAck:
      break;  // Node::Receive consumes acks before HandleMessage.
  }
  NoteWatermarkAdvance(sent_wm_);
  SetBacklog(static_cast<int64_t>(entries_.size()));
}

// ----------------------------------------------------------------- root --

DesisRootNode::DesisRootNode(uint32_t id,
                             const std::vector<QueryGroup>& groups)
    : Node(id, NodeRole::kRoot) {
  AddGroups(groups);
}

Status DesisRootNode::SuppressQuery(QueryId id) {
  for (auto& [gid, assembler] : assemblers_) {
    if (assembler->SuppressQuery(id)) return Status::OK();
  }
  for (auto& [gid, rg] : root_only_) {
    if (rg.slicer->SuppressQuery(id)) return Status::OK();
  }
  return Status::NotFound("no running query with this id");
}

Status DesisRootNode::SuppressQueryInGroup(uint32_t group_id, QueryId id) {
  auto it = assemblers_.find(group_id);
  if (it != assemblers_.end() && it->second->SuppressQuery(id)) {
    return Status::OK();
  }
  auto rit = root_only_.find(group_id);
  if (rit != root_only_.end() && rit->second.slicer->SuppressQuery(id)) {
    return Status::OK();
  }
  return Status::NotFound("no running query with this id in this group");
}

bool DesisRootNode::AddQueryToGroup(uint32_t group_id, const Query& q,
                                    uint32_t lane,
                                    const SelectionLane& lane_def,
                                    Timestamp active_from) {
  auto it = assemblers_.find(group_id);
  if (it != assemblers_.end()) {
    it->second->ApplyQueryAdd(q, lane, lane_def, active_from);
    return true;
  }
  auto rit = root_only_.find(group_id);
  if (rit != root_only_.end()) {
    rit->second.slicer->ApplyQueryAdd(q, lane, lane_def, active_from);
    return true;
  }
  return false;
}

bool DesisRootNode::RemoveGroup(uint32_t group_id) {
  return assemblers_.erase(group_id) > 0 || root_only_.erase(group_id) > 0;
}

void DesisRootNode::OnObsAttached() {
  for (auto& [gid, rg] : root_only_) {
    rg.slicer->set_obs(tracer_, id(), obs::kSpanRoleRoot);
    if (gid < SlicingEngine::kMaxInstrumentedGroups) {
      rg.slicer->set_metrics(obs_registry_);
    }
  }
  if (recovery_enabled()) {
    stale_counter_ = obs_registry_->GetCounter(
        "recovery.stale_dropped",
        {{"node", std::to_string(id())}, {"role", ToString(role())}},
        "messages");
  }
}

void DesisRootNode::OnFlightAttached() {
  for (auto& [gid, rg] : root_only_) rg.slicer->set_flight(flight_);
}

void DesisRootNode::AddGroups(const std::vector<QueryGroup>& groups) {
  for (const QueryGroup& group : groups) {
    if (group.root_only) {
      SlicerOptions options;  // full local evaluation at the root
      auto slicer = std::make_unique<StreamSlicer>(group, options, &stats_);
      slicer->set_window_sink(
          [this](const WindowResult& r) { EmitResult(r); });
      slicer->set_obs(tracer_, id(), obs::kSpanRoleRoot);
      if (group.id < SlicingEngine::kMaxInstrumentedGroups) {
        slicer->set_metrics(obs_registry_);
      }
      root_only_.emplace(group.id,
                         RootOnlyGroup{std::move(slicer), {}, kNoTimestamp});
    } else {
      assemblers_.emplace(
          group.id,
          std::make_unique<RootAssembler>(
              group, &stats_,
              [this](const WindowResult& r) { EmitResult(r); }));
    }
  }
}

void DesisRootNode::EmitResult(const WindowResult& result) {
  if (sink_) sink_(result);
}

void DesisRootNode::NoteChildWatermark(int child_index, Timestamp wm) {
  if (child_wms_.size() < num_children()) {
    child_wms_.resize(num_children(), kNoTimestamp);
  }
  child_wms_[static_cast<size_t>(child_index)] =
      std::max(child_wms_[static_cast<size_t>(child_index)], wm);
}

Timestamp DesisRootNode::MinChildWatermark() const {
  if (child_wms_.size() < num_children()) return kNoTimestamp;
  Timestamp min_wm = kMaxTimestamp;
  for (size_t i = 0; i < child_wms_.size(); ++i) {
    if (child_detached(static_cast<int>(i))) continue;
    if (child_wms_[i] == kNoTimestamp) return kNoTimestamp;
    min_wm = std::min(min_wm, child_wms_[i]);
  }
  return min_wm;
}

void DesisRootNode::OnChildDetached(int child_index) {
  if (child_wms_.size() < num_children()) {
    child_wms_.resize(num_children(), kNoTimestamp);
  }
  child_wms_[static_cast<size_t>(child_index)] = kMaxTimestamp;
  AdvanceAll(MinChildWatermark());
}

void DesisRootNode::AdvanceAll(Timestamp watermark) {
  if (watermark == kNoTimestamp || watermark <= advanced_wm_) return;
  advanced_wm_ = watermark;
  // Everything at or below the new watermark is consumed (the pinning
  // invariant guarantees no partial for it is still in flight), so the
  // advance doubles as the cumulative ack cascaded toward the leaves.
  if (recovery_enabled()) SendAckToChildren(advanced_wm_);
  for (auto& [gid, assembler] : assemblers_) assembler->AdvanceTo(watermark);
  for (auto& [gid, rg] : root_only_) {
    // Release reordered events up to the watermark into the root slicer as
    // one batch (count-measure groups fall back per event inside).
    std::sort(rg.pending.begin(), rg.pending.end(),
              [](const Event& a, const Event& b) { return a.ts < b.ts; });
    size_t released = 0;
    while (released < rg.pending.size() &&
           rg.pending[released].ts <= watermark) {
      ++released;
    }
    rg.slicer->IngestBatch(rg.pending.data(), released);
    stats_.events += released;
    rg.pending.erase(rg.pending.begin(),
                     rg.pending.begin() + static_cast<int64_t>(released));
    rg.slicer->AdvanceTo(watermark);
    rg.fed_up_to = watermark;
  }
}

void DesisRootNode::UpdateHealthCells() {
  int64_t backlog = 0;
  int64_t reorder = 0;
  for (const auto& [gid, assembler] : assemblers_) {
    backlog += static_cast<int64_t>(assembler->pending_entries());
  }
  for (const auto& [gid, rg] : root_only_) {
    backlog += static_cast<int64_t>(rg.pending.size());
    reorder += static_cast<int64_t>(rg.pending.size());
  }
  SetBacklog(backlog);
  SetReorderDepth(reorder);
  NoteWatermarkAdvance(advanced_wm_);
}

Node::ReplayFrontiers DesisRootNode::FrontierSnapshot() const {
  // Export the lowest-unapplied unit per (group, origin). Applied units
  // above a hole are deliberately omitted: they make replay conservative
  // (re-sent, then dropped whole by the exact Applied() check) rather
  // than risk trimming data the root never consumed.
  ReplayFrontiers snapshot;
  for (const auto& [key, progress] : frontiers_) snapshot[key] = progress.next;
  return snapshot;
}

void DesisRootNode::HandleMessage(const Message& message, int child_index) {
  if (recovery_enabled() && !message.origins.empty()) {
    // Replay dedup: a message whose origin units were ALL applied already
    // is a replayed duplicate — drop it whole. Mixed stale/fresh cannot
    // occur: the cluster force-flushes held entries on the dead parent's
    // ancestor chain before snapshotting frontiers, so replayed merges are
    // wholly new (docs/FAULT_TOLERANCE.md "Exactness of replay trimming").
    // Applied-ness is tracked exactly (OriginProgress): after a reattach a
    // replayed range can flush from the new parent *behind* newer complete
    // entries, so units arrive out of order and a monotone high-water mark
    // would wrongly judge the late message stale.
    bool any_fresh = false;
    for (const ProvenanceEntry& p : message.origins) {
      const auto it = frontiers_.find({message.group_id, p.origin});
      if (it == frontiers_.end() || !it->second.Applied(p.unit)) {
        any_fresh = true;
        break;
      }
    }
    if (!any_fresh) {
      stale_counter_->Add();
      return;
    }
    for (const ProvenanceEntry& p : message.origins) {
      frontiers_[{message.group_id, p.origin}].Apply(p.unit);
    }
  }
  switch (message.type) {
    case MessageType::kSlicePartial: {
      ByteReader in(message.payload);
      SlicePartialMsg msg = SlicePartialMsg::DeserializeFrom(in);
      health_.last_event_ts.StoreMax(msg.last_event_ts);
      if (tracer_ != nullptr) {
        tracer_->Record(obs::SlicePhase::kMerged, msg.slice_id,
                        message.group_id, /*query_id=*/0, id(),
                        obs::kSpanRoleRoot, msg.end);
      }
      auto it = assemblers_.find(message.group_id);
      if (it != assemblers_.end()) {
        it->second->AddPartial(std::move(msg).ToRecord());
      }
      break;
    }
    case MessageType::kEventBatch: {
      auto it = root_only_.find(message.group_id);
      if (it != root_only_.end()) {
        std::vector<Event> events = DecodeEventBatch(message.payload);
        if (!events.empty()) {
          health_.last_event_ts.StoreMax(events.back().ts);
        }
        it->second.pending.insert(it->second.pending.end(), events.begin(),
                                  events.end());
      }
      break;
    }
    case MessageType::kWatermark: {
      const Timestamp wm = DecodeWatermark(message.payload);
      health_.last_event_ts.StoreMax(wm);
      NoteChildWatermark(child_index, wm);
      AdvanceAll(MinChildWatermark());
      break;
    }
    case MessageType::kText:
      break;  // Desis clusters never carry text payloads.
    case MessageType::kAck:
      break;  // Node::Receive consumes acks before HandleMessage.
  }
  UpdateHealthCells();
}

}  // namespace desis
