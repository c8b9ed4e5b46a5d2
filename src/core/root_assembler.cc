#include "core/root_assembler.h"

#include <algorithm>
#include <cassert>

#include "obs/flight_recorder.h"

namespace desis {

RootAssembler::RootAssembler(QueryGroup group, EngineStats* stats,
                             WindowSink sink)
    : assembler_(std::move(group), stats),
      stats_(stats),
      sink_(std::move(sink)) {
  // The canonical spec layout (core/spec_layout.h) keeps EpInfo::spec_idx
  // values and factor-plan edges consistent between local slicers, the
  // planner, and this assembler.
  for (uint32_t si = 0; si < assembler_.specs().size(); ++si) AddSpec(si);
  const GroupPlan& plan = assembler_.group().plan;
  std::stable_sort(fixed_order_.begin(), fixed_order_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return plan.DepthOf(a) < plan.DepthOf(b);
                   });
}

void RootAssembler::AddSpec(uint32_t si) {
  const SpecLayoutEntry& entry = assembler_.specs()[si];
  SpecState st;
  st.spec = entry.spec;
  st.lane_filter = entry.lane_filter;
  specs_.push_back(std::move(st));
  fixed_order_.push_back(si);  // runtime specs join the DAG unfactored
  if (entry.spec.type == WindowType::kSession) {
    session_specs_.push_back(si);
  } else if (entry.spec.type == WindowType::kUserDefined) {
    ud_specs_.push_back(si);
  }
}

void RootAssembler::ApplyQueryAdd(const Query& q, uint32_t lane,
                                  const SelectionLane& lane_def,
                                  Timestamp active_from) {
  // Plain union once entries exist (see WindowAssembler::WidenMasks).
  assembler_.WidenMasks(q, lane, /*cold=*/!initialized_);
  // Never emit a window that was already (even partially) closed or whose
  // entries were garbage collected before this query arrived.
  if (last_advanced_ != kNoTimestamp) {
    active_from = active_from == kNoTimestamp
                      ? last_advanced_
                      : std::max(active_from, last_advanced_);
  }
  const uint32_t si = assembler_.AddQuery(q, lane, lane_def, active_from);
  if (si < specs_.size()) return;
  AddSpec(si);
  const WindowSpec& spec = specs_[si].spec;
  if (spec.measure == WindowMeasure::kTime && spec.IsFixedSize() &&
      initialized_) {
    const Timestamp base =
        last_advanced_ == kNoTimestamp ? first_start_ : last_advanced_;
    specs_[si].next_ep =
        (FloorDiv(base - spec.length, spec.slide) + 1) * spec.slide +
        spec.length;
  }
}

void RootAssembler::InitializeSchedules(Timestamp first_start) {
  first_start_ = first_start;
  for (SpecState& st : specs_) {
    if (st.spec.measure == WindowMeasure::kTime && st.spec.IsFixedSize()) {
      const int64_t l = st.spec.length;
      const int64_t s = st.spec.slide;
      st.next_ep = (FloorDiv(first_start - l, s) + 1) * s + l;
    }
  }
  initialized_ = true;
}

void RootAssembler::AddPartial(SliceRecord&& msg) {
  if (!initialized_) {
    InitializeSchedules(msg.start);
  } else if (!any_closed_ && msg.start < first_start_) {
    // A child joined with an earlier stream prefix before any window
    // closed: rewind the schedules.
    InitializeSchedules(msg.start);
  }

  // Senders pin their advertised watermark to the earliest slice they still
  // hold (DesisLocalNode::Advance, DesisIntermediateNode::FlushUpTo), so a
  // partial can never arrive at or behind the session scan's cursor — the
  // scan consumes each entry exactly once, and activity merged in behind it
  // would silently vanish from session tracking.
#ifndef NDEBUG
  if (!(session_specs_.empty() || session_cursor_.first == kNoTimestamp ||
        EntryKey{msg.start, msg.end} > session_cursor_)) {
    // Flush every flight recorder before the abort: the rings hold the
    // control-plane events that led here (docs/FAULT_TOLERANCE.md).
    obs::NotifyFlightFailure("root_assembler_session_cursor");
  }
#endif
  assert((session_specs_.empty() || session_cursor_.first == kNoTimestamp ||
          EntryKey{msg.start, msg.end} > session_cursor_));
  // User-defined end punctuations: children that saw the delimiting marker
  // ship an ep; deduplicate by window end (markers are stream-global).
  for (const EpInfo& ep : msg.eps) {
    if (ep.spec_idx >= specs_.size()) continue;
    SpecState& st = specs_[ep.spec_idx];
    if (st.spec.type != WindowType::kUserDefined) continue;
    bool known = false;
    for (const EpInfo& pending : st.pending_eps) {
      if (pending.window_end == ep.window_end) {
        known = true;
        break;
      }
    }
    if (!known) {
      st.pending_eps.push_back(ep);
      // Keep eps ordered by window end.
      std::sort(st.pending_eps.begin(), st.pending_eps.end(),
                [](const EpInfo& a, const EpInfo& b) {
                  return a.window_end < b.window_end;
                });
    }
  }

  auto [it, inserted] = entries_.try_emplace(EntryKey{msg.start, msg.end});
  SliceRecord& entry = it->second;
  if (inserted) {
    entry = std::move(msg);
    ++stats_->slices_created;  // a new root slice
    return;
  }
  // Lane counts may disagree transiently while a runtime query add rolls
  // through the cluster (a local that already grew ships wider slices than
  // one that hasn't); merge the shared prefix and adopt any lanes this
  // entry hasn't seen yet.
  const size_t shared = std::min(entry.lanes.size(), msg.lanes.size());
  for (size_t i = 0; i < shared; ++i) {
    if (msg.lane_events[i] == 0) continue;
    PartialAggregate::MergeCompatible(entry.lanes[i], msg.lanes[i]);
    entry.lane_events[i] += msg.lane_events[i];
    entry.lane_last_ts[i] =
        std::max(entry.lane_last_ts[i], msg.lane_last_ts[i]);
    ++stats_->merges;
  }
  for (size_t i = entry.lanes.size(); i < msg.lanes.size(); ++i) {
    entry.lanes.push_back(std::move(msg.lanes[i]));
    entry.lane_events.push_back(msg.lane_events[i]);
    entry.lane_last_ts.push_back(msg.lane_last_ts[i]);
  }
  entry.last_event_ts = std::max(entry.last_event_ts, msg.last_event_ts);
}

void RootAssembler::AssembleWindow(uint32_t spec_idx, Timestamp ws,
                                   Timestamp we) {
  any_closed_ = true;
  // The window's slices are the entries inside [ws, we). A user-defined
  // window ends on its marker, inclusively: a slice a child sealed at the
  // marker's own timestamp (a session that opened on the marker) starts at
  // `we` and still belongs to it.
  const bool on_marker =
      specs_[spec_idx].spec.type == WindowType::kUserDefined;
  auto source = [&](Timestamp from, Timestamp to, auto&& fn) {
    from = std::max(from, ws);
    to = std::min(to, we);
    for (auto it = entries_.lower_bound(EntryKey{from, kNoTimestamp});
         it != entries_.end() &&
         (it->second.start < to || (on_marker && it->second.start == to));
         ++it) {
      if (it->second.end <= to) fn(it->second);
    }
  };
  assembler_.Assemble(
      spec_idx, ws, we, source, ResidentLanes{},
      [&](const Query& q, const PartialAggregate& acc, uint64_t events) {
        if (sink_) sink_({q.id, ws, we, acc.Finalize(q.agg), events});
        ++stats_->windows_fired;
      });
}

void RootAssembler::ScanSessionsUpTo(Timestamp watermark) {
  if (session_specs_.empty()) return;
  // Consume completed entries in global time order; an entry with events
  // either extends the running session or — if it starts after the gap
  // deadline — closes it and opens the next (§5.1.2).
  auto it = session_cursor_.first == kNoTimestamp
                ? entries_.begin()
                : entries_.upper_bound(session_cursor_);
  for (; it != entries_.end() && it->second.end <= watermark; ++it) {
    const SliceRecord& entry = it->second;
    session_cursor_ = it->first;
    for (uint32_t si : session_specs_) {
      SpecState& st = specs_[si];
      const size_t lane = static_cast<size_t>(st.lane_filter);
      if (entry.lane_events[lane] == 0) continue;
      const Timestamp lane_last = entry.lane_last_ts[lane];
      if (!st.active) {
        st.active = true;
        st.session_start = entry.start;
        st.global_last = lane_last;
      } else if (entry.start >= st.global_last + st.spec.gap) {
        AssembleWindow(si, st.session_start, st.global_last + st.spec.gap);
        st.session_start = entry.start;
        st.global_last = lane_last;
      } else {
        st.global_last = std::max(st.global_last, lane_last);
      }
    }
  }
  // Unconsumed entries (end beyond the watermark) may still carry events
  // before the watermark — the earliest such start bounds how far the
  // trailing gap check may reach, or a cross-child session would be cut
  // while one child's long slice is still in flight (§5.1.2).
  const Timestamp unconsumed_start =
      it != entries_.end() ? it->second.start : kMaxTimestamp;
  const Timestamp close_limit = std::min(watermark, unconsumed_start);
  for (uint32_t si : session_specs_) {
    SpecState& st = specs_[si];
    if (st.active && st.global_last + st.spec.gap <= close_limit) {
      AssembleWindow(si, st.session_start, st.global_last + st.spec.gap);
      st.active = false;
      st.session_start = kNoTimestamp;
      st.global_last = kNoTimestamp;
    }
  }
}

void RootAssembler::AdvanceTo(Timestamp watermark) {
  if (!initialized_ || watermark == kNoTimestamp) return;
  last_advanced_ = std::max(last_advanced_, watermark);

  // Depth order: factor feeders assemble (and record their composites)
  // before dependents consume them; plain index order when no plan.
  for (uint32_t si : fixed_order_) {
    SpecState& st = specs_[si];
    if (st.spec.measure != WindowMeasure::kTime || !st.spec.IsFixedSize()) {
      continue;
    }
    while (st.next_ep <= watermark) {
      AssembleWindow(si, st.next_ep - st.spec.length, st.next_ep);
      st.next_ep += st.spec.slide;
    }
  }

  ScanSessionsUpTo(watermark);

  for (uint32_t si : ud_specs_) {
    SpecState& st = specs_[si];
    while (!st.pending_eps.empty() &&
           st.pending_eps.front().window_end <= watermark) {
      const EpInfo ep = st.pending_eps.front();
      st.pending_eps.pop_front();
      AssembleWindow(si, ep.window_start, ep.window_end);
      st.last_closed_end = ep.window_end;
    }
  }

  CollectGarbage(watermark);
}

void RootAssembler::CollectGarbage(Timestamp watermark) {
  Timestamp keep_from = watermark;
  for (const SpecState& st : specs_) {
    if (st.spec.measure == WindowMeasure::kTime && st.spec.IsFixedSize()) {
      keep_from = std::min(keep_from, st.next_ep - st.spec.length);
    } else if (st.spec.type == WindowType::kSession) {
      if (st.active) keep_from = std::min(keep_from, st.session_start);
    } else if (st.spec.type == WindowType::kUserDefined) {
      // The root only learns a user-defined window's start from its ep, so
      // keep everything after the last closed window.
      keep_from = std::min(keep_from, st.last_closed_end == kNoTimestamp
                                          ? first_start_
                                          : st.last_closed_end);
      if (!st.pending_eps.empty()) {
        keep_from = std::min(keep_from, st.pending_eps.front().window_start);
      }
    }
  }
  while (!entries_.empty()) {
    const auto& [key, entry] = *entries_.begin();
    if (entry.end > keep_from) break;
    // Entries not yet consumed by the session scan must survive.
    if (!session_specs_.empty() &&
        (session_cursor_.first == kNoTimestamp || key > session_cursor_)) {
      break;
    }
    entries_.erase(entries_.begin());
  }
  assembler_.CollectComposites(
      [&](uint32_t si) { return specs_[si].next_ep; });
}

}  // namespace desis
