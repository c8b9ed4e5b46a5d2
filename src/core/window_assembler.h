#ifndef DESIS_CORE_WINDOW_ASSEMBLER_H_
#define DESIS_CORE_WINDOW_ASSEMBLER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/operators.h"
#include "core/query_analyzer.h"
#include "core/spec_layout.h"
#include "core/stats.h"

namespace desis {

/// Floor division for possibly-negative numerators.
inline int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// Lane merge over resident slice states: the root's entries and every
/// feeder composite. A part is anything with `lanes` and `lane_events`.
struct ResidentLanes {
  template <class Part>
  static void Merge(PartialAggregate& acc, const Part& part, uint32_t lane) {
    PartialAggregate::MergeCompatible(acc, part.lanes[lane]);
  }
  /// Exact values the part's sort lane appends to a merge.
  template <class Part>
  static size_t SortValues(const Part& part, uint32_t lane) {
    const SortedState& s = part.lanes[lane].sorted_state();
    return s.sketch() ? 0 : s.size();
  }
};

/// Window assembly for one query-group (§4.3, §5.1), shared by the local
/// StreamSlicer and the RootAssembler: a closing window is merged once per
/// selection lane and finalized once per query. The two differ only in
/// where a window's slices come from, so each passes its own slice-range
/// source and lane merge to Assemble().
///
/// It owns the group (queries, lanes, operator masks and plan), the
/// canonical spec layout (core/spec_layout.h) with each spec's queries,
/// query suppression and activation, and factor-window execution: a feeder
/// spec's closed windows keep their merged per-lane states (under the lane
/// masks, so any dependent's needed mask fits), and each dependent window
/// merges one composite per covered feeder range instead of every base
/// slice in it, falling back to base slices for ranges without a composite
/// (stream head, runtime-added specs).
class WindowAssembler {
 public:
  WindowAssembler(QueryGroup group, EngineStats* stats);

  const QueryGroup& group() const { return group_; }
  const std::vector<SpecLayoutEntry>& specs() const { return specs_; }
  /// Number of queries still active (not suppressed).
  size_t active_queries() const {
    return group_.queries.size() - suppressed_.size();
  }

  /// Effective fold mask for a lane: the plan's reduced per-lane mask when
  /// a plan is active, else the group mask (static behaviour).
  OperatorMask LaneMask(uint32_t lane) const {
    const auto& lm = group_.plan.lane_masks;
    return (group_.plan.optimized && lane < lm.size() && lm[lane] != 0)
               ? lm[lane]
               : group_.mask;
  }

  /// Index of the spec `q` joins when bound to `lane`; specs().size() when
  /// it needs a new one (same keying as DeriveSpecLayout).
  uint32_t FindSpec(const Query& q, uint32_t lane) const;

  /// Widens the group and lane masks for `q` binding to `lane` (==
  /// group().lanes.size() for a new lane). Runtime widening uses the plain
  /// union (never ReduceMask): dropping the decomposable-sort bit when a
  /// non-decomposable query joins would orphan the min/max state already
  /// sealed into earlier slices. `cold` (no slice exists yet) reduces,
  /// matching a cold-start configuration exactly.
  void WidenMasks(const Query& q, uint32_t lane, bool cold);

  /// Binds `q` to `lane`, opening `lane_def` as a new lane when `lane` ==
  /// group().lanes.size(), and registers it with its spec. Windows starting
  /// before `active_from` are not emitted for it (kNoTimestamp = active
  /// from the beginning). Returns the spec index (== the old specs().size()
  /// when the spec is new; runtime specs join the factor DAG unfactored).
  uint32_t AddQuery(const Query& q, uint32_t lane,
                    const SelectionLane& lane_def, Timestamp active_from);

  /// Stops emitting results for `id` (runtime query removal, §3.2).
  /// Returns false if the id is not in this group or already suppressed.
  bool SuppressQuery(QueryId id);

  /// Assembles window [ws, we) of spec `si` and calls `emit(query, acc,
  /// events)` once per active query with events on its lane; queries
  /// sharing a lane share the merged operator states.
  ///
  /// `source(from, to, fn)` calls `fn(slice)` for each of the window's
  /// slices that starts inside [from, to), in order; the whole window is
  /// asked for as [kNoTimestamp, kMaxTimestamp), so a source whose window
  /// bounds are not timestamps (slice ids) keeps them. `lanes` merges one
  /// slice lane into an accumulator (`Merge`) and tells how many exact
  /// values its sort lane holds (`SortValues`), like ResidentLanes.
  template <class Source, class Lanes, class Emit>
  void Assemble(uint32_t si, Timestamp ws, Timestamp we, Source&& source,
                const Lanes& lanes, Emit&& emit);

  /// Drops the composites no dependent can read any more: `next_end(si)`
  /// is the end of spec si's next window to close (kNoTimestamp when it
  /// has none scheduled).
  template <class NextEnd>
  void CollectComposites(NextEnd&& next_end);

 private:
  /// Sealed per-lane states of one closed feeder window.
  struct FactorComposite {
    std::vector<PartialAggregate> lanes;
    std::vector<uint64_t> lane_events;
  };
  /// What one lane of a window merges from: the window's own composite
  /// when it is a feeder, else feeder composites every `feeder_len` when it
  /// is a dependent, else base slices.
  struct Parts {
    Timestamp ws;
    Timestamp we;
    const FactorComposite* own = nullptr;
    Timestamp feeder_len = 0;
  };

  /// Whether query `qi` reads lane `lane` of a window starting at `ws`.
  bool ActiveFor(uint32_t qi, uint32_t lane, Timestamp ws) const {
    const GroupedQuery& gq = group_.queries[qi];
    return gq.lane == lane && !suppressed_.contains(gq.query.id) &&
           (active_from_[qi] == kNoTimestamp || ws >= active_from_[qi]);
  }

  /// Calls `fn(part, merge)` for each part of `parts` with events on
  /// `lane`, in order; `merge` is the lane merge that reads it.
  template <class Source, class Lanes, class Fn>
  void ForEachPart(const Parts& parts, uint32_t lane, Source& source,
                   const Lanes& lanes, Fn&& fn) const;

  /// Merges lane `lane` of `parts` into `acc`; returns its event count.
  template <class Source, class Lanes>
  uint64_t MergeLane(PartialAggregate& acc, uint32_t lane, const Parts& parts,
                     Source& source, const Lanes& lanes);

  QueryGroup group_;
  EngineStats* stats_;
  std::vector<SpecLayoutEntry> specs_;
  std::vector<bool> spec_is_feeder_;  // spec feeds at least one dependent
  std::unordered_set<QueryId> suppressed_;
  /// Per-query activation watermark (parallel to group_.queries).
  std::vector<Timestamp> active_from_;
  /// Closed feeder windows keyed by (start, end).
  std::map<std::pair<Timestamp, Timestamp>, FactorComposite> composites_;
};

template <class Source, class Lanes, class Fn>
void WindowAssembler::ForEachPart(const Parts& parts, uint32_t lane,
                                  Source& source, const Lanes& lanes,
                                  Fn&& fn) const {
  const auto part = [&](const auto& p, const auto& merge) {
    if (lane < p.lane_events.size() && p.lane_events[lane] != 0) fn(p, merge);
  };
  const auto slice = [&](const auto& rec) { part(rec, lanes); };
  if (parts.own != nullptr) {
    part(*parts.own, ResidentLanes{});
  } else if (parts.feeder_len > 0) {
    for (Timestamp sub = parts.ws; sub < parts.we; sub += parts.feeder_len) {
      const Timestamp sub_end = std::min(sub + parts.feeder_len, parts.we);
      const auto it = composites_.find({sub, sub_end});
      if (it != composites_.end()) {
        part(it->second, ResidentLanes{});
      } else {
        source(sub, sub_end, slice);
      }
    }
  } else {
    source(kNoTimestamp, kMaxTimestamp, slice);
  }
}

template <class Source, class Lanes>
uint64_t WindowAssembler::MergeLane(PartialAggregate& acc, uint32_t lane,
                                    const Parts& parts, Source& source,
                                    const Lanes& lanes) {
  if (MaskHas(acc.mask(), OperatorKind::kNonDecomposableSort)) {
    // A sort lane appends every part's runs: reserve them in one step
    // rather than through a chain of doubling reallocations.
    size_t values = 0;
    ForEachPart(parts, lane, source, lanes,
                [&](const auto& p, const auto& merge) {
                  values += merge.SortValues(p, lane);
                });
    acc.ReserveHint(values);
  }
  uint64_t events = 0;
  ForEachPart(parts, lane, source, lanes,
              [&](const auto& p, const auto& merge) {
                merge.Merge(acc, p, lane);
                events += p.lane_events[lane];
                ++stats_->merges;
              });
  return events;
}

template <class Source, class Lanes, class Emit>
void WindowAssembler::Assemble(uint32_t si, Timestamp ws, Timestamp we,
                               Source&& source, const Lanes& lanes,
                               Emit&& emit) {
  const auto num_lanes = static_cast<uint32_t>(group_.lanes.size());
  const int32_t feeder =
      group_.plan.optimized ? group_.plan.FeederOf(si) : -1;
  Parts parts{ws, we};
  if (spec_is_feeder_[si]) {
    FactorComposite composite;
    composite.lanes.reserve(num_lanes);
    for (uint32_t lane = 0; lane < num_lanes; ++lane) {
      PartialAggregate acc(LaneMask(lane));
      acc.Seal();
      composite.lane_events.push_back(
          MergeLane(acc, lane, parts, source, lanes));
      composite.lanes.push_back(std::move(acc));
    }
    parts.own = &(composites_[{ws, we}] = std::move(composite));
  } else if (feeder >= 0 && static_cast<size_t>(feeder) < specs_.size()) {
    parts.feeder_len = specs_[static_cast<size_t>(feeder)].spec.length;
  }

  const std::vector<uint32_t>& query_idxs = specs_[si].query_idxs;
  for (uint32_t lane = 0; lane < num_lanes; ++lane) {
    OperatorMask needed = 0;
    for (uint32_t qi : query_idxs) {
      if (ActiveFor(qi, lane, ws)) {
        needed |= OperatorsFor(group_.queries[qi].query.agg.fn);
      }
    }
    if (needed == 0) continue;
    PartialAggregate acc(ResolveNeeded(needed, LaneMask(lane)));
    acc.Seal();
    const uint64_t events = MergeLane(acc, lane, parts, source, lanes);
    if (events == 0) continue;
    for (uint32_t qi : query_idxs) {
      if (ActiveFor(qi, lane, ws)) emit(group_.queries[qi].query, acc, events);
    }
  }
}

template <class NextEnd>
void WindowAssembler::CollectComposites(NextEnd&& next_end) {
  if (composites_.empty()) return;
  // A composite is dead once every dependent spec's earliest still-open
  // window starts past its end.
  Timestamp keep_from = kMaxTimestamp;
  bool any_dependent = false;
  for (uint32_t si = 0; si < specs_.size(); ++si) {
    if (!group_.plan.optimized || group_.plan.FeederOf(si) < 0) continue;
    any_dependent = true;
    const Timestamp ep = next_end(si);
    if (ep != kNoTimestamp) {
      keep_from = std::min(keep_from, ep - specs_[si].spec.length);
    }
  }
  if (!any_dependent) {
    composites_.clear();
    return;
  }
  while (!composites_.empty() &&
         composites_.begin()->first.second <= keep_from) {
    composites_.erase(composites_.begin());
  }
}

}  // namespace desis

#endif  // DESIS_CORE_WINDOW_ASSEMBLER_H_
