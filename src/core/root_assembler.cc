#include "core/root_assembler.h"

#include <algorithm>
#include <cassert>

#include "core/spec_layout.h"
#include "obs/flight_recorder.h"

namespace desis {
namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

RootAssembler::RootAssembler(QueryGroup group, EngineStats* stats,
                             WindowSink sink)
    : group_(std::move(group)), stats_(stats), sink_(std::move(sink)) {
  // The canonical spec layout (core/spec_layout.h) keeps EpInfo::spec_idx
  // values and factor-plan edges consistent between local slicers, the
  // planner, and this assembler.
  for (SpecLayoutEntry& entry : DeriveSpecLayout(group_)) {
    const auto si = static_cast<uint32_t>(specs_.size());
    SpecState st;
    st.spec = entry.spec;
    st.lane_filter = entry.lane_filter;
    st.query_idxs = std::move(entry.query_idxs);
    specs_.push_back(std::move(st));
    if (entry.spec.type == WindowType::kSession) {
      session_specs_.push_back(si);
    } else if (entry.spec.type == WindowType::kUserDefined) {
      ud_specs_.push_back(si);
    }
  }
  spec_is_feeder_.assign(specs_.size(), false);
  if (group_.plan.optimized) {
    for (uint32_t si = 0; si < specs_.size(); ++si) {
      const int32_t f = group_.plan.FeederOf(si);
      if (f >= 0 && static_cast<size_t>(f) < specs_.size()) {
        spec_is_feeder_[static_cast<size_t>(f)] = true;
      }
    }
  }
  for (uint32_t si = 0; si < specs_.size(); ++si) fixed_order_.push_back(si);
  std::stable_sort(fixed_order_.begin(), fixed_order_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return group_.plan.DepthOf(a) < group_.plan.DepthOf(b);
                   });
  active_from_.assign(group_.queries.size(), kNoTimestamp);
}

void RootAssembler::ApplyQueryAdd(const Query& q, uint32_t lane,
                                  const SelectionLane& lane_def,
                                  Timestamp active_from) {
  const OperatorMask q_ops = OperatorsFor(q.agg.fn);
  const bool new_lane = lane >= group_.lanes.size();
  if (new_lane) group_.lanes.push_back(lane_def);
  // Plain union once entries exist (see StreamSlicer::ApplyQueryAdd).
  const bool cold = !initialized_;
  auto widen = [&](OperatorMask m) {
    const auto u = static_cast<OperatorMask>(m | q_ops);
    return cold ? ReduceMask(u) : u;
  };
  group_.mask = widen(group_.mask);
  if (group_.plan.optimized) {
    auto& lm = group_.plan.lane_masks;
    if (lm.size() < group_.lanes.size()) lm.resize(group_.lanes.size(), 0);
    if (new_lane) {
      lm.back() = ReduceMask(q_ops);
    } else if (lm[lane] != 0) {
      lm[lane] = widen(lm[lane]);
    }
  }

  // Never emit a window that was already (even partially) closed or whose
  // entries were garbage collected before this query arrived.
  if (last_advanced_ != kNoTimestamp) {
    active_from = active_from == kNoTimestamp
                      ? last_advanced_
                      : std::max(active_from, last_advanced_);
  }
  const auto qi = static_cast<uint32_t>(group_.queries.size());
  group_.queries.push_back({q, lane});
  active_from_.resize(group_.queries.size(), kNoTimestamp);
  active_from_.back() = active_from;

  const int lane_filter =
      SpecLaneScoped(q.window) ? static_cast<int>(lane) : -1;
  uint32_t si = 0;
  for (; si < specs_.size(); ++si) {
    if (specs_[si].spec == q.window && specs_[si].lane_filter == lane_filter) {
      break;
    }
  }
  if (si == specs_.size()) {
    SpecState st;
    st.spec = q.window;
    st.lane_filter = lane_filter;
    specs_.push_back(std::move(st));
    spec_is_feeder_.push_back(false);
    fixed_order_.push_back(si);  // runtime specs join the DAG unfactored
    if (q.window.type == WindowType::kSession) {
      session_specs_.push_back(si);
    } else if (q.window.type == WindowType::kUserDefined) {
      ud_specs_.push_back(si);
    } else if (q.window.measure == WindowMeasure::kTime &&
               q.window.IsFixedSize() && initialized_) {
      const int64_t l = q.window.length;
      const int64_t s = q.window.slide;
      const Timestamp base =
          last_advanced_ == kNoTimestamp ? first_start_ : last_advanced_;
      specs_[si].next_ep = (FloorDiv(base - l, s) + 1) * s + l;
    }
  }
  specs_[si].query_idxs.push_back(qi);
}

bool RootAssembler::SuppressQuery(QueryId id) {
  for (const GroupedQuery& gq : group_.queries) {
    if (gq.query.id == id && !suppressed_.contains(id)) {
      suppressed_.insert(id);
      return true;
    }
  }
  return false;
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
  auto [it, inserted] = entries_.try_emplace(EntryKey{msg.start, msg.end});
  Entry& entry = it->second;
  if (inserted) {
    entry.start = msg.start;
    entry.end = msg.end;
    entry.last_event_ts = msg.last_event_ts;
    entry.lanes = std::move(msg.lanes);
    entry.lane_events = std::move(msg.lane_events);
    entry.lane_last_ts = std::move(msg.lane_last_ts);
    entry.reports = 1;
    ++stats_->slices_created;  // a new root slice
  } else {
    // Lane counts may disagree transiently while a runtime query add rolls
    // through the cluster (a local that already grew ships wider slices
    // than one that hasn't); merge the shared prefix and adopt any lanes
    // this entry hasn't seen yet.
    const size_t shared = std::min(entry.lanes.size(), msg.lanes.size());
    for (size_t i = 0; i < shared; ++i) {
      if (msg.lane_events[i] == 0) continue;
      PartialAggregate::MergeCompatible(entry.lanes[i], msg.lanes[i]);
      entry.lane_events[i] += msg.lane_events[i];
      entry.lane_last_ts[i] = std::max(entry.lane_last_ts[i], msg.lane_last_ts[i]);
      ++stats_->merges;
    }
    for (size_t i = entry.lanes.size(); i < msg.lanes.size(); ++i) {
      entry.lanes.push_back(std::move(msg.lanes[i]));
      entry.lane_events.push_back(msg.lane_events[i]);
      entry.lane_last_ts.push_back(msg.lane_last_ts[i]);
    }
    entry.last_event_ts = std::max(entry.last_event_ts, msg.last_event_ts);
    ++entry.reports;
  }

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
}

void RootAssembler::AssembleWindow(uint32_t spec_idx, Timestamp ws,
                                   Timestamp we) {
  any_closed_ = true;
  const SpecState& st = specs_[spec_idx];

  // Factor-window execution mirrors StreamSlicer::CloseWindow: feeder
  // windows keep their merged per-lane states (under the lane masks) and
  // dependents merge one composite per covered feeder range, falling back
  // to the entry scan for uncovered ranges.
  const bool is_feeder =
      spec_idx < spec_is_feeder_.size() && spec_is_feeder_[spec_idx];
  const FactorComposite* own_composite = nullptr;
  if (is_feeder) {
    FactorComposite composite;
    composite.lanes.reserve(group_.lanes.size());
    composite.lane_events.assign(group_.lanes.size(), 0);
    for (uint32_t lane = 0; lane < group_.lanes.size(); ++lane) {
      PartialAggregate acc(LaneMask(lane));
      acc.Seal();
      for (auto it = entries_.lower_bound(EntryKey{ws, kNoTimestamp});
           it != entries_.end() && it->second.start < we; ++it) {
        const Entry& entry = it->second;
        if (entry.end > we || lane >= entry.lane_events.size() ||
            entry.lane_events[lane] == 0) {
          continue;
        }
        PartialAggregate::MergeCompatible(acc, entry.lanes[lane]);
        composite.lane_events[lane] += entry.lane_events[lane];
        ++stats_->merges;
      }
      composite.lanes.push_back(std::move(acc));
    }
    own_composite = &(composites_[{ws, we}] = std::move(composite));
  }
  const int32_t feeder =
      group_.plan.optimized ? group_.plan.FeederOf(spec_idx) : -1;
  const Timestamp feeder_len =
      feeder >= 0 && static_cast<size_t>(feeder) < specs_.size()
          ? specs_[static_cast<size_t>(feeder)].spec.length
          : 0;

  for (uint32_t lane = 0; lane < group_.lanes.size(); ++lane) {
    OperatorMask needed = 0;
    for (uint32_t qi : st.query_idxs) {
      if (group_.queries[qi].lane == lane &&
          !suppressed_.contains(group_.queries[qi].query.id) &&
          ActiveFor(qi, ws)) {
        needed |= OperatorsFor(group_.queries[qi].query.agg.fn);
      }
    }
    if (needed == 0) continue;
    needed = ResolveNeeded(needed, LaneMask(lane));

    PartialAggregate acc(needed);
    acc.Seal();
    uint64_t events = 0;
    // Entries inside [lo, hi) with events on this lane, in start order.
    auto for_each_entry_in = [&](Timestamp lo, Timestamp hi, auto&& fn) {
      for (auto it = entries_.lower_bound(EntryKey{lo, kNoTimestamp});
           it != entries_.end() && it->second.start < hi; ++it) {
        const Entry& entry = it->second;
        if (entry.end <= hi && lane < entry.lane_events.size() &&
            entry.lane_events[lane] != 0) {
          fn(entry);
        }
      }
    };
    auto merge_entries_in = [&](Timestamp lo, Timestamp hi) {
      for_each_entry_in(lo, hi, [&](const Entry& entry) {
        PartialAggregate::MergeCompatible(acc, entry.lanes[lane]);
        events += entry.lane_events[lane];
        ++stats_->merges;
      });
    };
    if (own_composite != nullptr) {
      if (own_composite->lane_events[lane] != 0) {
        acc.Merge(own_composite->lanes[lane]);
        events = own_composite->lane_events[lane];
        ++stats_->merges;
      }
    } else if (feeder_len > 0) {
      for (Timestamp sub = ws; sub < we; sub += feeder_len) {
        const Timestamp sub_end = std::min(sub + feeder_len, we);
        auto cit = composites_.find({sub, sub_end});
        if (cit != composites_.end()) {
          const FactorComposite& c = cit->second;
          if (lane < c.lanes.size() && c.lane_events[lane] != 0) {
            PartialAggregate::MergeCompatible(acc, c.lanes[lane]);
            events += c.lane_events[lane];
            ++stats_->merges;
          }
        } else {
          merge_entries_in(sub, sub_end);
        }
      }
    } else {
      if (MaskHas(needed, OperatorKind::kNonDecomposableSort)) {
        // A sort lane appends every entry's runs: reserve them in one step
        // rather than through a chain of doubling reallocations.
        size_t sort_values = 0;
        for_each_entry_in(ws, we, [&](const Entry& entry) {
          const SortedState& s = entry.lanes[lane].sorted_state();
          if (!s.sketch()) sort_values += s.size();
        });
        acc.ReserveHint(sort_values);
      }
      merge_entries_in(ws, we);
    }
    if (events == 0) continue;

    for (uint32_t qi : st.query_idxs) {
      const GroupedQuery& gq = group_.queries[qi];
      if (gq.lane != lane || suppressed_.contains(gq.query.id) ||
          !ActiveFor(qi, ws)) {
        continue;
      }
      if (sink_) {
        sink_({gq.query.id, ws, we, acc.Finalize(gq.query.agg), events});
      }
      ++stats_->windows_fired;
    }
  }
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
    const Entry& entry = it->second;
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
  if (!composites_.empty()) {
    Timestamp comp_keep = kMaxTimestamp;
    bool any_dependent = false;
    for (uint32_t si = 0; si < specs_.size(); ++si) {
      if (!group_.plan.optimized || group_.plan.FeederOf(si) < 0) continue;
      any_dependent = true;
      const SpecState& st = specs_[si];
      if (st.next_ep != kNoTimestamp) {
        comp_keep = std::min(comp_keep, st.next_ep - st.spec.length);
      }
    }
    if (!any_dependent) {
      composites_.clear();
    } else {
      while (!composites_.empty() &&
             composites_.begin()->first.second <= comp_keep) {
        composites_.erase(composites_.begin());
      }
    }
  }
}

}  // namespace desis
