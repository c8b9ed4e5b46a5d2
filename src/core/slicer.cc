#include "core/slicer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>

#include "core/spec_layout.h"

namespace desis {
namespace {

uint64_t HashEvent(const Event& e) {
  // 64-bit mix over all fields; used only for intra-slice deduplication.
  uint64_t h = static_cast<uint64_t>(e.ts) * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<uint64_t>(e.key) + 0x517CC1B727220A95ull) * 0xBF58476D1CE4E5B9ull;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(e.value));
  std::memcpy(&bits, &e.value, sizeof(bits));
  h ^= bits * 0x94D049BB133111EBull;
  h ^= e.marker;
  h ^= h >> 29;
  return h;
}

}  // namespace

StreamSlicer::StreamSlicer(QueryGroup query_group, SlicerOptions options,
                           EngineStats* stats)
    : assembler_(std::move(query_group), stats),
      options_(options),
      stats_(stats) {
  assert(stats_ != nullptr);
  // Deduplicate window specs: queries with identical specs share
  // punctuations, open-window bookkeeping, and window assembly. The layout
  // (core/spec_layout.h) is the canonical spec numbering shared with the
  // RootAssembler and the factor-window planner.
  for (const SpecLayoutEntry& entry : assembler_.specs()) {
    const uint32_t si = static_cast<uint32_t>(specs_.size());
    SpecState state;
    state.spec = entry.spec;
    state.lane_filter = entry.lane_filter;
    specs_.push_back(std::move(state));
    if (entry.spec.measure == WindowMeasure::kCount) {
      count_specs_.push_back(si);
    } else if (entry.spec.type == WindowType::kUserDefined) {
      ud_specs_.push_back(si);
    }
    spec_rank_.push_back(group().plan.optimized ? group().plan.DepthOf(si)
                                                : 0);
  }

  // Group session specs by lane, sorted ascending by gap (see SessionLane).
  lane_session_idx_.assign(group().lanes.size(), -1);
  for (uint32_t si = 0; si < specs_.size(); ++si) {
    const SpecState& st = specs_[si];
    if (st.spec.type != WindowType::kSession ||
        st.spec.measure != WindowMeasure::kTime) {
      continue;
    }
    const auto lane = static_cast<uint32_t>(st.lane_filter);
    if (lane_session_idx_[lane] < 0) {
      lane_session_idx_[lane] = static_cast<int>(session_lanes_.size());
      session_lanes_.push_back({lane, {}, 0, kNoTimestamp});
    }
    session_lanes_[static_cast<size_t>(lane_session_idx_[lane])]
        .specs_by_gap.push_back(si);
  }
  for (SessionLane& sl : session_lanes_) {
    std::sort(sl.specs_by_gap.begin(), sl.specs_by_gap.end(),
              [&](uint32_t a, uint32_t b) {
                return specs_[a].spec.gap < specs_[b].spec.gap;
              });
    sl.num_inactive = sl.specs_by_gap.size();
  }
  count_heaps_.resize(group().lanes.size());

  RecomputeLaneSketch();
  current_lanes_.reserve(group().lanes.size());
  for (uint32_t lane = 0; lane < group().lanes.size(); ++lane) {
    current_lanes_.push_back(MakeLanePartial(lane));
    any_dedup_ = any_dedup_ || group().lanes[lane].deduplicate;
  }
  lane_charged_.assign(group().lanes.size(), 0);
  lane_runs_.resize(group().lanes.size());
  lane_spilled_count_.assign(group().lanes.size(), 0);
  current_lane_events_.assign(group().lanes.size(), 0);
  current_lane_last_ts_.assign(group().lanes.size(), kNoTimestamp);
  lane_total_events_.assign(group().lanes.size(), 0);
  if (any_dedup_) dedup_sets_.resize(group().lanes.size());

  RebuildBatchPlan();
}

void StreamSlicer::RebuildBatchPlan() {
  // Run-splitting is safe only when every boundary is a precomputable time
  // punctuation and folding is insensitive to intra-run duplicates: session,
  // user-defined, and count-measure specs move their boundaries with the
  // events that match, and dedup lanes mutate per-event state.
  batch_fast_path_ = !any_dedup_ && session_lanes_.empty() &&
                     ud_specs_.empty() && count_specs_.empty();
  plan_.Build(group().lanes);
  lane_cursor_.assign(group().lanes.size(), 0);
  lane_last_hit_.assign(group().lanes.size(), 0);
}

void StreamSlicer::SelectionPlan::Build(
    const std::vector<SelectionLane>& lanes) {
  all_lanes.clear();
  range_lanes.clear();
  key_lanes.clear();
  key_slots.clear();
  max_chain = 0;
  size_t keyed = 0;
  for (const SelectionLane& l : lanes) keyed += l.predicate.has_key ? 1 : 0;
  if (keyed > 0) {
    // Load factor at most 1/16: most events select no key lane, and a
    // sparse table ends such a miss at its first, empty slot, a branch the
    // CPU predicts.
    size_t size = 64;
    key_shift = 58;
    while (size < 16 * keyed) {
      size *= 2;
      --key_shift;
    }
    key_slots.assign(size, KeySlot{});
  }
  for (uint32_t lane = 0; lane < lanes.size(); ++lane) {
    const Predicate& p = lanes[lane].predicate;
    if (!p.has_key) {
      if (p.has_range) {
        range_lanes.push_back({lane, p.value_lo, p.value_hi});
      } else {
        all_lanes.push_back(lane);
      }
      continue;
    }
    const auto entry = static_cast<int32_t>(key_lanes.size());
    key_lanes.push_back({lane, p.has_range, p.value_lo, p.value_hi, -1});
    size_t i = Slot(p.key, key_shift);
    while (key_slots[i].head >= 0 && key_slots[i].key != p.key) {
      i = (i + 1) & (key_slots.size() - 1);
    }
    size_t chain = 1;
    if (key_slots[i].head < 0) {
      key_slots[i] = {p.key, entry};
    } else {
      // Append at the tail, so a chain lists its lanes in lane order.
      auto c = static_cast<size_t>(key_slots[i].head);
      for (; key_lanes[c].next >= 0; ++chain) {
        c = static_cast<size_t>(key_lanes[c].next);
      }
      key_lanes[c].next = entry;
      ++chain;
    }
    max_chain = std::max(max_chain, chain);
  }
}

StreamSlicer::~StreamSlicer() {
  if (gov_ != nullptr) {
    gov_->DischargeQuiet(ChargedBytes());
    gov_->Unregister(this);
  }
}

uint64_t StreamSlicer::ChargedBytes() const {
  uint64_t total = dedup_charged_;
  for (uint64_t c : lane_charged_) total += c;
  for (const SliceRecord& rec : records_) {
    for (const PartialAggregate& lane : rec.lanes) total += lane.bytes();
  }
  return total;
}

void StreamSlicer::set_memory(mem::MemoryGovernor* gov) {
  if (gov_ == gov) return;
  if (gov_ != nullptr) {
    gov_->Discharge(ChargedBytes());
    gov_->Unregister(this);
    std::fill(lane_charged_.begin(), lane_charged_.end(), 0);
    dedup_charged_ = 0;
  }
  gov_ = gov;
  if (gov_ == nullptr) return;
  gov_->Register(this);
  // Charge current residency so mid-stream attachment starts consistent.
  for (uint32_t lane = 0; lane < current_lanes_.size(); ++lane) {
    UpdateLaneCharge(lane);
  }
  UpdateDedupCharge();
  uint64_t rec_bytes = 0;
  for (const SliceRecord& rec : records_) {
    for (const PartialAggregate& lane : rec.lanes) rec_bytes += lane.bytes();
  }
  gov_->Charge(rec_bytes);
}

bool StreamSlicer::LaneWantsSketch(uint32_t lane, const Query* extra,
                                   uint32_t extra_lane) const {
  const OperatorMask mask = assembler_.LaneMask(lane);
  if (!MaskHas(mask, OperatorKind::kNonDecomposableSort)) return false;
  bool any = false;
  bool all_approx = true;
  auto fold = [&](const Query& q, uint32_t q_lane) {
    if (q_lane != lane) return;
    if (q.agg.fn != AggregationFunction::kMedian &&
        q.agg.fn != AggregationFunction::kQuantile) {
      return;
    }
    any = true;
    all_approx = all_approx && q.agg.approx_quantile;
  };
  for (const GroupedQuery& gq : group().queries) fold(gq.query, gq.lane);
  if (extra != nullptr) fold(*extra, extra_lane);
  return any && all_approx;
}

void StreamSlicer::RecomputeLaneSketch() {
  lane_sketch_.resize(group().lanes.size());
  for (uint32_t lane = 0; lane < group().lanes.size(); ++lane) {
    lane_sketch_[lane] = LaneWantsSketch(lane, nullptr, 0) ? 1 : 0;
  }
}

PartialAggregate StreamSlicer::MakeLanePartial(uint32_t lane) const {
  PartialAggregate p(assembler_.LaneMask(lane));
  if (lane < lane_sketch_.size() && lane_sketch_[lane] != 0) {
    p.EnableQuantileSketch(mem::TDigest::kDefaultCompression);
  }
  return p;
}

void StreamSlicer::UpdateLaneCharge(uint32_t lane) {
  const uint64_t now = current_lanes_[lane].bytes();
  const uint64_t was = lane_charged_[lane];
  if (now == was) return;
  if (now > was) {
    gov_->Charge(now - was);
  } else {
    gov_->Discharge(was - now);
  }
  lane_charged_[lane] = now;
}

void StreamSlicer::UpdateDedupCharge() {
  // Rough unordered_set footprint: node (value + next pointer + libstdc++
  // hash cache) plus a bucket slot — the governor needs a growth signal,
  // not an exact malloc audit.
  constexpr uint64_t kBytesPerDedupEntry = 48;
  const uint64_t now = dedup_inserted_ * kBytesPerDedupEntry;
  if (now == dedup_charged_) return;
  if (now > dedup_charged_) {
    gov_->Charge(now - dedup_charged_);
  } else {
    gov_->Discharge(dedup_charged_ - now);
  }
  dedup_charged_ = now;
}

void StreamSlicer::WarnSpillError(const Status& status) {
  if (spill_warned_) return;
  spill_warned_ = true;
  std::fprintf(stderr, "desis: spill degraded for group %u: %s\n", group().id,
               status.ToString().c_str());
}

bool StreamSlicer::EnsureSpillFile() {
  if (spill_ != nullptr) return true;
  if (spill_failed_ || gov_ == nullptr) return false;
  auto file = gov_->NewSpillFile();
  if (!file.ok()) {
    spill_failed_ = true;
    WarnSpillError(file.status());
    return false;
  }
  spill_ = std::move(file.value());
  return true;
}

uint64_t StreamSlicer::SpillOpenLane(uint32_t lane) {
  SortedState& state = current_lanes_[lane].mutable_sorted_state();
  std::vector<double> run = state.TakeSortedRun();
  const auto appended = spill_->AppendRun(run.data(), run.size());
  if (!appended.ok()) {
    // Put the values back: the lane stays unsealed and keeps folding.
    state.PutBackRun(std::move(run));
    spill_failed_ = true;
    WarnSpillError(appended.status());
    return 0;
  }
  lane_runs_[lane].push_back(appended.value());
  lane_spilled_count_[lane] += run.size();
  const uint64_t before = lane_charged_[lane];
  UpdateLaneCharge(lane);  // buffer is empty now; discharges the delta
  const uint64_t freed = before - lane_charged_[lane];
  gov_->NoteSpill(freed);
  if (tracer_ != nullptr) {
    tracer_->Record(obs::SlicePhase::kSpill, current_slice_id_, group().id,
                    /*query_id=*/0, obs_node_id_, obs_role_, last_seen_ts_);
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kSpill, current_slice_id_,
                    group().id, last_seen_ts_);
  }
  return freed;
}

uint64_t StreamSlicer::SpillSealedLane(SliceRecord& rec, uint32_t lane) {
  SortedState& state = rec.lanes[lane].mutable_sorted_state();
  const uint64_t bytes = rec.lanes[lane].bytes();
  const uint64_t represented = state.represented();
  std::vector<double> values = state.TakeSealedValues();
  const auto appended = spill_->AppendRun(values.data(), values.size());
  if (!appended.ok()) {
    state.AdoptSorted(std::move(values), represented);
    spill_failed_ = true;
    WarnSpillError(appended.status());
    return 0;
  }
  sealed_spills_[{rec.id, lane}] = {appended.value(), represented};
  gov_->Discharge(bytes);
  gov_->NoteSpill(bytes);
  if (tracer_ != nullptr) {
    tracer_->Record(obs::SlicePhase::kSpill, rec.id, group().id,
                    /*query_id=*/0, obs_node_id_, obs_role_, rec.end);
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kSpill, rec.id, group().id, rec.end);
  }
  return bytes;
}

void StreamSlicer::MergeRecordLane(PartialAggregate& acc,
                                   const SliceRecord& rec, uint32_t lane) {
  if (gov_ != nullptr && !sealed_spills_.empty() && spill_ != nullptr) {
    const auto it = sealed_spills_.find({rec.id, lane});
    if (it != sealed_spills_.end()) {
      std::vector<double> values;
      const Status status = spill_->ReadRun(it->second.run, &values);
      if (status.ok()) {
        // Merge through a sealed temporary so the record stays cold on
        // disk: assembly only *reads* spilled state, it never re-charges
        // the governor — a window close touches one lane's values at a
        // time instead of re-residenting its whole span, which is what
        // keeps peak residency at the budget rather than at the window
        // footprint. The temporary copies the record's decomposable
        // states, so the merge is byte-identical to the resident path.
        const uint64_t bytes = values.size() * sizeof(double);
        PartialAggregate cold = rec.lanes[lane];
        cold.mutable_sorted_state().AdoptSorted(std::move(values),
                                                it->second.represented);
        PartialAggregate::MergeCompatible(acc, cold);
        gov_->NoteRestore(bytes);
        if (tracer_ != nullptr) {
          tracer_->Record(obs::SlicePhase::kRestore, rec.id, group().id,
                          /*query_id=*/0, obs_node_id_, obs_role_, rec.end);
        }
        if (flight_ != nullptr) {
          flight_->Record(obs::FlightEventKind::kRestore, rec.id, group().id,
                          rec.end);
        }
        return;
      }
      // Degraded: assemble from the resident (emptied) lane rather than
      // crash — the decomposable states still contribute; the checksummed
      // local run file failing means the disk is going away.
      WarnSpillError(status);
    }
  }
  PartialAggregate::MergeCompatible(acc, rec.lanes[lane]);
}

uint64_t StreamSlicer::ShedBytes(uint64_t target) {
  if (gov_ == nullptr || !EnsureSpillFile()) return 0;
  const uint64_t min_bytes = gov_->options().min_spill_bytes;
  uint64_t freed = 0;

  auto sealed_eligible = [&](const SliceRecord& rec, uint32_t lane) {
    if (lane >= rec.lanes.size()) return false;
    const PartialAggregate& pa = rec.lanes[lane];
    if (!MaskHas(pa.mask(), OperatorKind::kNonDecomposableSort)) return false;
    const SortedState& ss = pa.sorted_state();
    return !ss.sketch() && ss.size() != 0 && pa.bytes() >= min_bytes;
  };

  // Coldest first: sealed records, oldest to newest. The not-yet-shipped
  // back record is skipped — its lanes still get serialized to the slice
  // sink, and a spilled lane would ship empty.
  for (size_t i = 0; i < records_.size() && freed < target; ++i) {
    if (have_unshipped_ && i + 1 == records_.size()) break;
    SliceRecord& rec = records_[i];
    for (uint32_t lane = 0; lane < rec.lanes.size() && freed < target;
         ++lane) {
      if (sealed_eligible(rec, lane)) freed += SpillSealedLane(rec, lane);
      if (spill_failed_) return freed;
    }
  }

  // Then the open slice's sort buffers, largest first.
  while (freed < target && !spill_failed_) {
    uint32_t best = 0;
    uint64_t best_bytes = 0;
    for (uint32_t lane = 0; lane < current_lanes_.size(); ++lane) {
      const PartialAggregate& pa = current_lanes_[lane];
      if (!MaskHas(pa.mask(), OperatorKind::kNonDecomposableSort)) continue;
      const SortedState& ss = pa.sorted_state();
      if (ss.sketch() || ss.size() == 0) continue;
      const uint64_t b = pa.bytes();
      if (b >= min_bytes && b > best_bytes) {
        best_bytes = b;
        best = lane;
      }
    }
    if (best_bytes == 0) break;
    freed += SpillOpenLane(best);
  }
  return freed;
}

Timestamp StreamSlicer::MaxFixedWindowExtent() const {
  Timestamp extent = 0;
  for (const SpecState& st : specs_) {
    if (st.spec.measure == WindowMeasure::kTime && st.spec.IsFixedSize()) {
      extent = std::max(extent, st.spec.length);
    } else if (st.spec.type == WindowType::kSession) {
      extent = std::max(extent, st.spec.gap);
    }
  }
  return extent;
}

bool StreamSlicer::SuppressQuery(QueryId id) {
  if (!assembler_.SuppressQuery(id)) return false;
  if (queries_gauge_ != nullptr) {
    queries_gauge_->Set(static_cast<int64_t>(active_queries()));
  }
  return true;
}

void StreamSlicer::ApplyQueryAdd(const Query& q, uint32_t lane,
                                 const SelectionLane& lane_def,
                                 Timestamp active_from) {
  const bool new_lane = lane >= group().lanes.size();

  // Effective-mask snapshot: a structural change is anything that alters
  // the shape or width of the fold state.
  std::vector<OperatorMask> before;
  before.reserve(group().lanes.size());
  for (uint32_t i = 0; i < group().lanes.size(); ++i) {
    before.push_back(assembler_.LaneMask(i));
  }

  assembler_.WidenMasks(q, lane, /*cold=*/!initialized_);

  bool structural = new_lane;
  for (uint32_t i = 0; i < before.size(); ++i) {
    structural = structural || assembler_.LaneMask(i) != before[i];
  }
  // A sketch flip (a lane's quantile state switching between exact buffer
  // and t-digest) changes the fold-state representation, so it cuts the
  // stream like any other structural change.
  for (uint32_t i = 0; i < group().lanes.size(); ++i) {
    const bool want = LaneWantsSketch(i, &q, lane);
    structural = structural || want != (lane_sketch_[i] != 0);
  }

  const bool new_spec = assembler_.FindSpec(q, lane) == specs_.size();
  structural = structural || new_spec;

  if (initialized_ && structural && current_slice_events_ > 0) {
    // Cut the stream here: earlier slices keep their shape, the new shape
    // starts with the next slice. Sealing also ships the slice, so
    // downstream nodes never see a mixed-width slice.
    SealCurrentSlice(last_seen_ts_);
    FlushShippableSlice();
  }

  const uint32_t si = assembler_.AddQuery(q, lane, lane_def, active_from);
  if (new_lane) {
    current_lane_events_.push_back(0);
    current_lane_last_ts_.push_back(kNoTimestamp);
    lane_total_events_.push_back(0);
    lane_session_idx_.push_back(-1);
    count_heaps_.emplace_back();
    lane_charged_.push_back(0);
    lane_runs_.emplace_back();
    lane_spilled_count_.push_back(0);
    any_dedup_ = any_dedup_ || lane_def.deduplicate;
    if (any_dedup_) dedup_sets_.resize(group().lanes.size());
  }
  if (structural) {
    // The fold state is empty here (freshly sealed or never written);
    // rebuild it at the new shape/masks.
    assert(current_slice_events_ == 0);
    if (gov_ != nullptr) {
      for (uint64_t& c : lane_charged_) {
        gov_->Discharge(c);
        c = 0;
      }
    }
    RecomputeLaneSketch();  // the query is in the group now
    current_lanes_.clear();
    for (uint32_t i = 0; i < group().lanes.size(); ++i) {
      current_lanes_.push_back(MakeLanePartial(i));
    }
  }

  if (new_spec) {
    SpecState state;
    state.spec = q.window;
    state.lane_filter = assembler_.specs()[si].lane_filter;
    specs_.push_back(std::move(state));
    spec_rank_.push_back(0);  // runtime-added specs join the DAG unfactored
    SpecState& st = specs_[si];
    if (st.spec.measure == WindowMeasure::kCount) {
      count_specs_.push_back(si);
      if (initialized_) {
        // The first runtime count window opens now, at the lane's current
        // event count.
        st.open.push_back({last_seen_ts_, current_slice_id_});
        auto& heap = count_heaps_[lane];
        const uint64_t base_count = lane_total_events_[lane];
        heap.push(
            {base_count + static_cast<uint64_t>(st.spec.length), 0, si});
        heap.push({base_count + static_cast<uint64_t>(st.spec.slide), 1, si});
      }
    } else if (st.spec.type == WindowType::kUserDefined) {
      ud_specs_.push_back(si);
    } else if (st.spec.type == WindowType::kSession &&
               st.spec.measure == WindowMeasure::kTime) {
      if (lane_session_idx_[lane] < 0) {
        lane_session_idx_[lane] = static_cast<int>(session_lanes_.size());
        session_lanes_.push_back({lane, {}, 0, kNoTimestamp});
      }
      SessionLane& sl =
          session_lanes_[static_cast<size_t>(lane_session_idx_[lane])];
      // Insert in gap order. The sorted-prefix invariant (inactive specs
      // first) holds because closed specs always have the smaller gaps.
      auto pos = std::lower_bound(sl.specs_by_gap.begin(),
                                  sl.specs_by_gap.end(), si,
                                  [&](uint32_t a, uint32_t b) {
                                    return specs_[a].spec.gap <
                                           specs_[b].spec.gap;
                                  });
      const auto idx = static_cast<size_t>(pos - sl.specs_by_gap.begin());
      sl.specs_by_gap.insert(pos, si);
      if (idx < sl.num_inactive ||
          sl.num_inactive == sl.specs_by_gap.size() - 1) {
        // Joins the inactive prefix (lane idle, or gap below the boundary).
        ++sl.num_inactive;
      } else {
        // The lane has an ongoing session under a smaller gap, so this
        // spec's session is live too: open it at the current slice
        // (emission before active_from is gated anyway).
        st.active = true;
        st.open.push_back({last_seen_ts_ == kNoTimestamp ? 0 : last_seen_ts_,
                           current_slice_id_});
      }
    } else if (initialized_) {
      ScheduleInitial(si, last_seen_ts_, current_slice_id_);
    }
  }

  RebuildBatchPlan();

  // Re-register metrics: the mask/lane/spec shape may have changed.
  if (registry_ != nullptr) set_metrics(registry_);
}

void StreamSlicer::set_metrics(obs::MetricsRegistry* registry) {
  FlushEventsInCounter();  // do not lose events counted for an old registry
  registry_ = registry;
  events_in_counter_ = nullptr;
  queries_gauge_ = nullptr;
  sketch_gauge_ = nullptr;
  for (int k = 0; k < kNumOperatorKinds; ++k) op_eval_counters_[k] = nullptr;
  if (registry == nullptr) return;
  RegisterGroupMetrics(group(), registry);
  const obs::Labels labels = {{"group", std::to_string(group().id)}};
  events_in_counter_ =
      registry->GetCounter("group.events_in", labels, "events");
  queries_gauge_ = registry->GetGauge("group.queries", labels, "queries");
  queries_gauge_->Set(static_cast<int64_t>(active_queries()));
  sketch_gauge_ = registry->GetGauge("engine.sketch_lanes", labels, "lanes");
  int64_t sketch_lanes = 0;
  for (const uint8_t s : lane_sketch_) sketch_lanes += s;
  sketch_gauge_->Set(sketch_lanes);
  for (int k = 0; k < kNumOperatorKinds; ++k) {
    const auto kind = static_cast<OperatorKind>(k);
    if (!MaskHas(group().mask, kind)) continue;
    obs::Labels op_labels = labels;
    op_labels.emplace_back("op", OperatorShortName(kind));
    op_eval_counters_[k] =
        registry->GetCounter("group.operator_evals", op_labels, "evals");
  }
}

void StreamSlicer::Initialize(Timestamp first_ts) {
  current_slice_start_ = first_ts;
  for (uint32_t si = 0; si < specs_.size(); ++si) {
    SpecState& st = specs_[si];
    if (st.spec.measure == WindowMeasure::kCount) {
      // The first count window opens with the first matching event.
      st.open.push_back({first_ts, 0});
      auto& heap = count_heaps_[static_cast<size_t>(st.lane_filter)];
      heap.push({static_cast<uint64_t>(st.spec.length), 0, si});
      heap.push({static_cast<uint64_t>(st.spec.slide), 1, si});
    } else if (st.spec.IsFixedSize()) {
      ScheduleInitial(si, first_ts);
    }
    // Session / user-defined windows start inactive and are activated by
    // the first matching event.
  }
  initialized_ = true;
}

void StreamSlicer::ScheduleInitial(uint32_t spec_idx, Timestamp first_ts,
                                   uint64_t first_slice_id) {
  SpecState& st = specs_[spec_idx];
  const int64_t l = st.spec.length;
  const int64_t s = st.spec.slide;
  // Windows are aligned to multiples of the slide from timestamp 0. Open
  // every window that already contains first_ts.
  const Timestamp ws_min = (FloorDiv(first_ts - l, s) + 1) * s;
  for (Timestamp ws = ws_min; ws <= first_ts; ws += s) {
    st.open.push_back({ws, first_slice_id});
  }
  st.next_ep = ws_min + l;
  st.next_sp = (FloorDiv(first_ts, s) + 1) * s;
  if (options_.punctuation == PunctuationStrategy::kPrecomputed) {
    boundary_heap_.push({st.next_ep, 0, spec_idx, spec_rank_[spec_idx]});
    boundary_heap_.push({st.next_sp, 1, spec_idx, spec_rank_[spec_idx]});
  }
}

void StreamSlicer::ProcessBoundariesUpTo(Timestamp limit) {
  while (true) {
    Timestamp best_ts = kMaxTimestamp;
    uint8_t best_kind = 2;
    uint32_t best_spec = 0;
    enum class Source { kNone, kFixed, kSession } source = Source::kNone;

    if (options_.punctuation == PunctuationStrategy::kPrecomputed) {
      if (!boundary_heap_.empty()) {
        const Boundary& top = boundary_heap_.top();
        best_ts = top.ts;
        best_kind = top.kind;
        best_spec = top.spec_idx;
        source = Source::kFixed;
      }
    } else {
      // Baseline behaviour: re-scan every window spec on each step instead
      // of consulting a precomputed schedule.
      for (uint32_t si = 0; si < specs_.size(); ++si) {
        const SpecState& st = specs_[si];
        if (st.spec.measure != WindowMeasure::kTime || !st.spec.IsFixedSize()) {
          continue;
        }
        if (st.next_ep != kNoTimestamp &&
            (st.next_ep < best_ts || (st.next_ep == best_ts && best_kind > 0))) {
          best_ts = st.next_ep;
          best_kind = 0;
          best_spec = si;
          source = Source::kFixed;
        }
        if (st.next_sp != kNoTimestamp &&
            (st.next_sp < best_ts || (st.next_sp == best_ts && best_kind > 1))) {
          best_ts = st.next_sp;
          best_kind = 1;
          best_spec = si;
          source = Source::kFixed;
        }
      }
    }

    size_t best_session_lane = 0;
    for (size_t li = 0; li < session_lanes_.size(); ++li) {
      const SessionLane& sl = session_lanes_[li];
      if (sl.num_inactive >= sl.specs_by_gap.size()) continue;  // none active
      // The smallest active gap holds the earliest deadline.
      const uint32_t si = sl.specs_by_gap[sl.num_inactive];
      const Timestamp deadline = sl.last_event + specs_[si].spec.gap;
      if (deadline < best_ts || (deadline == best_ts && best_kind > 0)) {
        best_ts = deadline;
        best_kind = 0;
        best_spec = si;
        best_session_lane = li;
        source = Source::kSession;
      }
    }

    if (source == Source::kNone || best_ts > limit) return;

    if (source == Source::kSession) {
      ProcessSessionEnd(best_spec, best_ts);
      ++session_lanes_[best_session_lane].num_inactive;
      continue;
    }
    if (options_.punctuation == PunctuationStrategy::kPrecomputed) {
      boundary_heap_.pop();
    }
    if (best_kind == 0) {
      ProcessEp(best_spec, best_ts);
    } else {
      ProcessSp(best_spec, best_ts);
    }
  }
}

void StreamSlicer::ProcessEp(uint32_t spec_idx, Timestamp ts) {
  SpecState& st = specs_[spec_idx];
  const uint64_t last = SealCurrentSlice(ts);
  if (!st.open.empty()) {
    SpecState::OpenWindow window = st.open.front();
    st.open.pop_front();
    CloseWindow(spec_idx, window, last, ts);
  }
  st.next_ep = ts + st.spec.slide;
  if (options_.punctuation == PunctuationStrategy::kPrecomputed) {
    boundary_heap_.push({st.next_ep, 0, spec_idx, spec_rank_[spec_idx]});
  }
}

void StreamSlicer::ProcessSp(uint32_t spec_idx, Timestamp ts) {
  SpecState& st = specs_[spec_idx];
  SealCurrentSlice(ts);
  st.open.push_back({ts, current_slice_id_});
  st.next_sp = ts + st.spec.slide;
  if (options_.punctuation == PunctuationStrategy::kPrecomputed) {
    boundary_heap_.push({st.next_sp, 1, spec_idx, spec_rank_[spec_idx]});
  }
}

void StreamSlicer::ProcessSessionEnd(uint32_t spec_idx, Timestamp deadline) {
  SpecState& st = specs_[spec_idx];
  const uint64_t last = SealCurrentSlice(deadline);
  if (!st.open.empty()) {
    SpecState::OpenWindow window = st.open.front();
    st.open.pop_front();
    CloseWindow(spec_idx, window, last, deadline);
  }
  st.active = false;
}

void StreamSlicer::ProcessCountBoundaries(Timestamp now, uint32_t lane) {
  auto& heap = count_heaps_[lane];
  const uint64_t lane_count = lane_total_events_[lane];
  // The heap orders by (count, kind): end punctuations fire before start
  // punctuations at the same count.
  while (!heap.empty() && heap.top().count <= lane_count) {
    const CountBoundary boundary = heap.top();
    heap.pop();
    SpecState& st = specs_[boundary.spec_idx];
    if (boundary.kind == 0) {
      const uint64_t last = SealCurrentSlice(now);
      if (!st.open.empty()) {
        SpecState::OpenWindow window = st.open.front();
        st.open.pop_front();
        CloseWindow(boundary.spec_idx, window, last, now);
      }
    } else {
      SealCurrentSlice(now);
      st.open.push_back({now, current_slice_id_});
    }
    heap.push({boundary.count + static_cast<uint64_t>(st.spec.slide),
               boundary.kind, boundary.spec_idx});
  }
}

uint64_t StreamSlicer::SealCurrentSlice(Timestamp end_ts) {
  if (current_slice_events_ == 0) {
    // Empty slices leave no record; the boundary still advances.
    current_slice_start_ = end_ts;
    return current_slice_id_ - 1;  // wraps when nothing sealed yet; callers
                                   // only use it against existing records.
  }

  FlushShippableSlice();

  // Governed lanes that spilled part of the open slice k-way merge their
  // disk runs with the resident tail now — the sealed record is
  // byte-identical to the never-spilled sort, only residency differed.
  if (gov_ != nullptr && spill_ != nullptr) {
    for (uint32_t lane = 0; lane < current_lanes_.size(); ++lane) {
      if (lane_runs_[lane].empty()) continue;
      SortedState& state = current_lanes_[lane].mutable_sorted_state();
      std::vector<double> residual = state.TakeSortedRun();
      std::vector<double> merged;
      const Status merge_status =
          spill_->MergeRuns(lane_runs_[lane], residual, &merged);
      uint64_t total = residual.size() + lane_spilled_count_[lane];
      if (!merge_status.ok()) {
        // Degrade to the resident values; the spilled portion is lost but
        // the engine keeps running (warned once).
        WarnSpillError(merge_status);
        merged = std::move(residual);
        total = merged.size();
      }
      state.AdoptSorted(std::move(merged), total);
      lane_runs_[lane].clear();
      lane_spilled_count_[lane] = 0;
    }
  }

  SliceRecord rec;
  rec.id = current_slice_id_;
  rec.start = current_slice_start_;
  rec.end = end_ts;
  rec.last_event_ts = current_last_event_;
  for (PartialAggregate& lane : current_lanes_) lane.Seal();
  rec.lanes = std::move(current_lanes_);
  rec.lane_events = std::move(current_lane_events_);
  rec.lane_last_ts = std::move(current_lane_last_ts_);
  records_.push_back(std::move(rec));
  have_unshipped_ = true;
  ++stats_->slices_created;
  if (events_in_counter_ != nullptr) {
    // Per-slice cost-attribution flush: every fold in the sealed slice paid
    // each operator in its lane's mask exactly once (the sharing
    // invariant). Without a plan every lane folds the full group mask and
    // each active op series advances by the slice's whole fold count — the
    // original accounting; under per-lane mask narrowing each series only
    // advances by the folds on lanes that carry that operator.
    FlushEventsInCounter();
    if (!group().plan.optimized) {
      for (obs::Counter* op : op_eval_counters_) {
        if (op != nullptr) op->Add(current_slice_events_);
      }
    } else {
      const std::vector<uint64_t>& lane_events = records_.back().lane_events;
      for (int k = 0; k < kNumOperatorKinds; ++k) {
        if (op_eval_counters_[k] == nullptr) continue;
        const auto kind = static_cast<OperatorKind>(k);
        uint64_t evals = 0;
        for (uint32_t lane = 0; lane < lane_events.size(); ++lane) {
          if (MaskHas(assembler_.LaneMask(lane), kind)) {
            evals += lane_events[lane];
          }
        }
        if (evals != 0) op_eval_counters_[k]->Add(evals);
      }
    }
  }
  if (tracer_ != nullptr) {
    tracer_->Record(obs::SlicePhase::kSliceCreated, current_slice_id_,
                    group().id, /*query_id=*/0, obs_node_id_, obs_role_,
                    end_ts);
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kSliceSeal, current_slice_id_,
                    group().id, end_ts);
  }

  if (gov_ != nullptr) {
    // Move the open-slice charges over to the sealed record: sorting
    // released slack (or a spill merge adopted a larger buffer), so the
    // record is re-metered at its actual post-seal footprint.
    for (uint64_t& c : lane_charged_) {
      gov_->Discharge(c);
      c = 0;
    }
    uint64_t rec_bytes = 0;
    for (const PartialAggregate& lane : records_.back().lanes) {
      rec_bytes += lane.bytes();
    }
    gov_->Charge(rec_bytes);
  }

  current_lanes_.clear();
  for (uint32_t lane = 0; lane < group().lanes.size(); ++lane) {
    current_lanes_.push_back(MakeLanePartial(lane));
  }
  current_lane_events_.assign(group().lanes.size(), 0);
  current_lane_last_ts_.assign(group().lanes.size(), kNoTimestamp);
  current_slice_events_ = 0;
  if (any_dedup_) {
    for (auto& set : dedup_sets_) set.clear();
    dedup_inserted_ = 0;
    if (gov_ != nullptr) UpdateDedupCharge();
  }
  current_last_event_ = kNoTimestamp;
  ++current_slice_id_;
  current_slice_start_ = end_ts;
  if (gov_ != nullptr) gov_->Relieve();
  return current_slice_id_ - 1;
}

void StreamSlicer::CloseWindow(uint32_t spec_idx,
                               SpecState::OpenWindow window,
                               uint64_t last_slice_id, Timestamp end_ts) {
  SpecState& st = specs_[spec_idx];
  // Ship the end punctuation with the closing slice so downstream nodes can
  // terminate user-defined windows (§5.1.2). Fixed windows and sessions are
  // terminated downstream from window attributes / gap tracking instead.
  if (slice_sink_ && st.spec.type == WindowType::kUserDefined &&
      have_unshipped_ && !records_.empty()) {
    records_.back().eps.push_back({spec_idx, window.start_ts, end_ts});
  }
  if (!options_.assemble_windows) return;
  if (records_.empty()) return;

  // The window's slices are ids [lo, hi]; a sub-range picks those that
  // start inside it (slice starts never decrease).
  const uint64_t base = records_.front().id;
  const uint64_t lo = std::max(window.first_slice_id, base);
  const uint64_t hi = std::min(last_slice_id, records_.back().id);
  auto source = [&](Timestamp from, Timestamp to, auto&& fn) {
    if (hi < lo) return;
    const auto first = records_.begin() + static_cast<ptrdiff_t>(lo - base);
    const auto last = records_.begin() + static_cast<ptrdiff_t>(hi - base + 1);
    for (auto it = std::partition_point(
             first, last,
             [from](const SliceRecord& rec) { return rec.start < from; });
         it != last && it->start < to; ++it) {
      fn(*it);
    }
  };
  // Record lanes may be cold on disk: merge through MergeRecordLane and
  // count a spilled lane's values from its run.
  struct RecordLanes {
    StreamSlicer* slicer;
    void Merge(PartialAggregate& acc, const SliceRecord& rec,
               uint32_t lane) const {
      slicer->MergeRecordLane(acc, rec, lane);
    }
    size_t SortValues(const SliceRecord& rec, uint32_t lane) const {
      const auto& spills = slicer->sealed_spills_;
      if (!spills.empty()) {
        const auto it = spills.find({rec.id, lane});
        if (it != spills.end()) return it->second.represented;
      }
      return ResidentLanes::SortValues(rec, lane);
    }
  };
  assembler_.Assemble(
      spec_idx, window.start_ts, end_ts, source, RecordLanes{this},
      [&](const Query& q, const PartialAggregate& acc, uint64_t events) {
        if (window_partial_sink_) {
          window_partial_sink_(q.id, window.start_ts, end_ts, acc, events);
        } else if (window_sink_) {
          window_sink_({q.id, window.start_ts, end_ts, acc.Finalize(q.agg),
                        events});
        }
      });
  // Assembly restored cold records and charged them; re-shed before the
  // next window (or group) restores more, so the per-relief charge delta
  // stays one window's footprint rather than accumulating across closes.
  if (gov_ != nullptr) gov_->Relieve();
}

void StreamSlicer::FlushShippableSlice() {
  if (have_unshipped_ && slice_sink_) slice_sink_(records_.back());
  have_unshipped_ = false;
}

void StreamSlicer::CollectGarbage() {
  // Once no live slice references any spill run the file's space can be
  // recycled: sealed cold lanes are gone and the open slice has no runs.
  const auto maybe_recycle_spill = [&] {
    if (gov_ == nullptr || spill_ == nullptr || !sealed_spills_.empty() ||
        spill_->num_runs() == 0) {
      return;
    }
    for (const std::vector<uint32_t>& runs : lane_runs_) {
      if (!runs.empty()) return;
    }
    const Status reset_status = spill_->Reset();
    if (!reset_status.ok()) {
      WarnSpillError(reset_status);
      spill_failed_ = true;
      spill_.reset();
    }
  };

  if (!options_.keep_slices) {
    if (gov_ != nullptr && !records_.empty()) {
      uint64_t bytes = 0;
      for (const SliceRecord& rec : records_) {
        for (const PartialAggregate& lane : rec.lanes) bytes += lane.bytes();
      }
      gov_->Discharge(bytes);
      sealed_spills_.clear();
    }
    records_.clear();
    maybe_recycle_spill();
    return;
  }
  uint64_t min_first = kMaxTimestamp;
  for (const SpecState& st : specs_) {
    if (!st.open.empty()) {
      min_first = std::min(min_first, st.open.front().first_slice_id);
    }
  }
  while (!records_.empty() && records_.front().id < min_first) {
    if (gov_ != nullptr) {
      const SliceRecord& rec = records_.front();
      uint64_t bytes = 0;
      for (const PartialAggregate& lane : rec.lanes) bytes += lane.bytes();
      gov_->Discharge(bytes);
      if (!sealed_spills_.empty()) {
        sealed_spills_.erase(
            sealed_spills_.lower_bound({rec.id, 0}),
            sealed_spills_.upper_bound({rec.id, UINT32_MAX}));
      }
    }
    records_.pop_front();
  }
  maybe_recycle_spill();
  assembler_.CollectComposites(
      [&](uint32_t si) { return specs_[si].next_ep; });
}

void StreamSlicer::Ingest(const Event& event) {
  if (!initialized_) Initialize(event.ts);
  ++pending_events_in_;  // plain integer; flushed at seal/advance boundaries
  last_seen_ts_ = std::max(last_seen_ts_, event.ts);
  ProcessBoundariesUpTo(event.ts);

  // Selection lanes: each lane evaluates its predicate; an event is folded
  // into the shared operators once per matching lane.
  bool matched = false;
  matched_lanes_scratch_.clear();
  for (uint32_t i = 0; i < group().lanes.size(); ++i) {
    ++stats_->selection_evals;
    if (!group().lanes[i].predicate.Matches(event)) continue;
    if (group().lanes[i].deduplicate) {
      if (!dedup_sets_[i].insert(HashEvent(event)).second) continue;
      ++dedup_inserted_;
    }
    matched_lanes_scratch_.push_back(i);
    matched = true;
  }

  auto lane_matched = [&](int lane_filter) {
    for (uint32_t lane : matched_lanes_scratch_) {
      if (static_cast<int>(lane) == lane_filter) return true;
    }
    return false;
  };

  if (matched) {
    // Session and user-defined windows open with the first matching event
    // after inactivity; the current slice is cut first so the new window's
    // slices contain no earlier events.
    for (uint32_t lane : matched_lanes_scratch_) {
      if (lane_session_idx_[lane] < 0) continue;
      SessionLane& sl =
          session_lanes_[static_cast<size_t>(lane_session_idx_[lane])];
      if (sl.num_inactive > 0) {
        SealCurrentSlice(event.ts);
        for (size_t i = 0; i < sl.num_inactive; ++i) {
          SpecState& st = specs_[sl.specs_by_gap[i]];
          st.active = true;
          st.open.push_back({event.ts, current_slice_id_});
        }
        sl.num_inactive = 0;
      }
    }
    for (uint32_t si : ud_specs_) {
      SpecState& st = specs_[si];
      if (!st.active && lane_matched(st.lane_filter)) {
        SealCurrentSlice(event.ts);
        st.active = true;
        st.open.push_back({event.ts, current_slice_id_});
      }
    }
  }

  for (uint32_t lane : matched_lanes_scratch_) {
    stats_->operator_executions +=
        static_cast<uint64_t>(current_lanes_[lane].Add(event.value));
    ++current_lane_events_[lane];
    ++current_slice_events_;
    ++lane_total_events_[lane];
    current_lane_last_ts_[lane] = event.ts;
  }
  if (gov_ != nullptr && matched) {
    for (uint32_t lane : matched_lanes_scratch_) UpdateLaneCharge(lane);
    if (any_dedup_) UpdateDedupCharge();
    gov_->Relieve();
  }

  if (matched) {
    current_last_event_ = event.ts;
    for (uint32_t lane : matched_lanes_scratch_) {
      if (!count_heaps_[lane].empty()) {
        ProcessCountBoundaries(event.ts, lane);
      }
      if (lane_session_idx_[lane] >= 0) {
        session_lanes_[static_cast<size_t>(lane_session_idx_[lane])]
            .last_event = event.ts;
      }
    }
    if ((event.marker & kWindowEnd) != 0) {
      for (uint32_t si : ud_specs_) {
        SpecState& st = specs_[si];
        if (!st.active || !lane_matched(st.lane_filter)) continue;
        const uint64_t last = SealCurrentSlice(event.ts);
        SpecState::OpenWindow window = st.open.front();
        st.open.pop_front();
        CloseWindow(si, window, last, event.ts);
        st.active = false;
      }
    }
    if ((event.marker & kWindowStart) != 0) {
      for (uint32_t si : ud_specs_) {
        SpecState& st = specs_[si];
        if (!st.active && lane_matched(st.lane_filter)) {
          SealCurrentSlice(event.ts);
          st.active = true;
          st.open.push_back({event.ts, current_slice_id_});
        }
      }
    }
  }

  FlushShippableSlice();
  // Garbage collection scans every spec's open-window deque; amortize it.
  if ((++gc_tick_ & 63u) == 0) CollectGarbage();
}

Timestamp StreamSlicer::NextBoundaryTs() const {
  if (options_.punctuation == PunctuationStrategy::kPrecomputed) {
    return boundary_heap_.empty() ? kMaxTimestamp : boundary_heap_.top().ts;
  }
  Timestamp best = kMaxTimestamp;
  for (const SpecState& st : specs_) {
    if (st.spec.measure != WindowMeasure::kTime || !st.spec.IsFixedSize()) {
      continue;
    }
    if (st.next_ep != kNoTimestamp) best = std::min(best, st.next_ep);
    if (st.next_sp != kNoTimestamp) best = std::min(best, st.next_sp);
  }
  return best;
}

void StreamSlicer::FoldLane(uint32_t lane, const double* values, size_t m,
                            Timestamp last_ts) {
  PartialAggregate& agg = current_lanes_[lane];
  // Run-length growth hint: one reservation per run instead of
  // reallocation churn as AddN feeds the sort buffer value by value.
  agg.ReserveHint(m);
  stats_->operator_executions += agg.AddN(values, m);
  current_lane_events_[lane] += m;
  current_slice_events_ += m;
  lane_total_events_[lane] += m;
  current_lane_last_ts_[lane] = last_ts;
  // ts order is non-decreasing, so the last matching event over all lanes
  // is the per-event path's "last event that matched any lane".
  current_last_event_ = std::max(current_last_event_, last_ts);
  if (gov_ != nullptr) UpdateLaneCharge(lane);
}

void StreamSlicer::FoldRun(const Event* run, size_t n) {
  stats_->selection_evals += n * group().lanes.size();
  if (!plan_.all_lanes.empty() || !plan_.range_lanes.empty()) {
    run_values_.resize(n);
    for (size_t k = 0; k < n; ++k) run_values_[k] = run[k].value;
  }
  for (uint32_t lane : plan_.all_lanes) {
    FoldLane(lane, run_values_.data(), n, run[n - 1].ts);
  }
  if (!plan_.range_lanes.empty()) lane_values_.resize(n);
  for (const SelectionPlan::RangeLane& r : plan_.range_lanes) {
    // Branchless compaction: every value is written, only matches advance.
    double* out = lane_values_.data();
    size_t m = 0;
    for (size_t k = 0; k < n; ++k) {
      out[m] = run_values_[k];
      m += static_cast<size_t>(InValueRange(run_values_[k], r.lo, r.hi));
    }
    if (m == 0) continue;
    size_t last = n - 1;  // the lane's last match, for its last_ts
    while (!InValueRange(run_values_[last], r.lo, r.hi)) --last;
    FoldLane(r.lane, out, m, run[last].ts);
  }
  if (!plan_.key_lanes.empty()) FoldKeyLanes(run, n);
  if (gov_ != nullptr) gov_->Relieve();
}

void StreamSlicer::FoldKeyLanes(const Event* run, size_t n) {
  // The table sits in locals, so the hit stores below cannot force a
  // reload of it; a miss (most events) costs one multiply and one load.
  const SelectionPlan::KeySlot* slots = plan_.key_slots.data();
  const SelectionPlan::KeyLane* chain = plan_.key_lanes.data();
  const size_t mask = plan_.key_slots.size() - 1;
  const int shift = plan_.key_shift;
  if (key_hits_.size() < n * plan_.max_chain) {
    key_hits_.resize(n * plan_.max_chain);
  }
  KeyHit* hits = key_hits_.data();
  size_t num_hits = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t key = run[k].key;
    size_t i = SelectionPlan::Slot(key, shift);
    while (slots[i].head >= 0 && slots[i].key != key) i = (i + 1) & mask;
    for (int32_t c = slots[i].head; c >= 0;) {
      const SelectionPlan::KeyLane& kl = chain[static_cast<size_t>(c)];
      if (!kl.has_range || InValueRange(run[k].value, kl.lo, kl.hi)) {
        hits[num_hits++] = {kl.lane, static_cast<uint32_t>(k)};
      }
      c = kl.next;
    }
  }
  if (num_hits == 0) return;
  // Counting sort by lane: count, turn counts into start offsets, place.
  touched_lanes_.clear();
  for (size_t x = 0; x < num_hits; ++x) {
    if (lane_cursor_[hits[x].lane]++ == 0) {
      touched_lanes_.push_back(hits[x].lane);
    }
  }
  uint32_t offset = 0;
  for (uint32_t lane : touched_lanes_) {
    const uint32_t count = lane_cursor_[lane];
    lane_cursor_[lane] = offset;
    offset += count;
  }
  lane_values_.resize(num_hits);
  for (size_t x = 0; x < num_hits; ++x) {
    const KeyHit& h = hits[x];
    lane_values_[lane_cursor_[h.lane]++] = run[h.index].value;
    lane_last_hit_[h.lane] = h.index;
  }
  // Each cursor now sits at its lane's end, the next lane's start.
  uint32_t begin = 0;
  for (uint32_t lane : touched_lanes_) {
    const uint32_t end = lane_cursor_[lane];
    FoldLane(lane, lane_values_.data() + begin, end - begin,
             run[lane_last_hit_[lane]].ts);
    lane_cursor_[lane] = 0;
    begin = end;
  }
}

namespace {

// First index in (i, count) whose ts reaches `limit`, or `count`; requires
// events[i].ts < limit. Gallops forward in doubling steps, then binary
// searches the bracketed span, so a run of r events costs O(log r) probes.
size_t RunEnd(const Event* events, size_t i, size_t count, Timestamp limit) {
  size_t lo = i + 1;  // everything before lo is below the limit
  size_t hi = lo;
  size_t step = 1;
  while (hi < count && events[hi].ts < limit) {
    lo = hi + 1;
    hi = lo + step;
    step *= 2;
  }
  hi = std::min(hi, count);
  const Event* end = std::partition_point(
      events + lo, events + hi,
      [limit](const Event& e) { return e.ts < limit; });
  return static_cast<size_t>(end - events);
}

}  // namespace

void StreamSlicer::IngestBatch(const Event* events, size_t count) {
  if (count == 0) return;
  if (!batch_fast_path_) {
    for (size_t i = 0; i < count; ++i) Ingest(events[i]);
    FlushEventsInCounter();
    return;
  }
  if (!initialized_) Initialize(events[0].ts);
  pending_events_in_ += count;
  last_seen_ts_ = std::max(last_seen_ts_, events[count - 1].ts);
  size_t i = 0;
  while (i < count) {
    // Fire everything due at or before the run head; afterwards the next
    // punctuation is strictly later, so the run is never empty.
    ProcessBoundariesUpTo(events[i].ts);
    const size_t j = RunEnd(events, i, count, NextBoundaryTs());
    FoldRun(events + i, j - i);
    i = j;
  }
  FlushShippableSlice();
  FlushEventsInCounter();
  // Match the per-event GC cadence (~every 64 events).
  gc_tick_ += count;
  if (gc_tick_ >= 64) {
    gc_tick_ = 0;
    CollectGarbage();
  }
}

void StreamSlicer::AdvanceTo(Timestamp watermark) {
  last_seen_ts_ = std::max(last_seen_ts_, watermark);
  if (!initialized_) return;
  ProcessBoundariesUpTo(watermark);
  FlushShippableSlice();
  FlushEventsInCounter();
  CollectGarbage();
}

}  // namespace desis
