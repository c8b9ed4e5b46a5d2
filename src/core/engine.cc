#include "core/engine.h"

#include <algorithm>

namespace desis {

SlicingEngine::SlicingEngine(std::string name, SharingPolicy policy,
                             PunctuationStrategy punctuation,
                             DeploymentMode mode)
    : name_(std::move(name)),
      policy_(policy),
      punctuation_(punctuation),
      mode_(mode) {}

std::unique_ptr<StreamSlicer> SlicingEngine::MakeSlicer(QueryGroup group) {
  SlicerOptions options;
  options.punctuation = punctuation_;
  options.assemble_windows = assemble_windows_;
  options.keep_slices = keep_slices_;
  auto slicer = std::make_unique<StreamSlicer>(std::move(group), options,
                                               &stats_);
  slicer->set_window_sink(
      [this](const WindowResult& result) { Emit(result); });
  if (slice_sink_) slicer->set_slice_sink(slice_sink_);
  slicer->set_obs(tracer_, tracer_node_id_, tracer_role_);
  slicer->set_flight(flight_);
  if (slicers_.size() < kMaxInstrumentedGroups) {
    slicer->set_metrics(registry_);
  }
  if (gov_ != nullptr) slicer->set_memory(gov_.get());
  return slicer;
}

void SlicingEngine::EnableMemoryBudget(const mem::MemoryOptions& options) {
  auto gov = options.budget_bytes == 0
                 ? nullptr
                 : std::make_unique<mem::MemoryGovernor>(options);
  // Slicers move to the new governor before the old one is destroyed.
  for (auto& slicer : slicers_) slicer->set_memory(gov.get());
  gov_ = std::move(gov);
  if (gov_ != nullptr && registry_ != nullptr) {
    gov_->AttachMetrics(registry_, {});
  }
}

void SlicingEngine::OnTracerAttached() {
  for (auto& slicer : slicers_) {
    slicer->set_obs(tracer_, tracer_node_id_, tracer_role_);
  }
}

void SlicingEngine::OnFlightRecorderAttached() {
  for (auto& slicer : slicers_) slicer->set_flight(flight_);
}

void SlicingEngine::OnRegistryAttached() {
  // Cap the instrumented groups: a no-sharing policy (DeBucket-style) can
  // produce thousands of one-query groups, and per-group series would bloat
  // every sidecar. The aggregate beyond the cap is still visible in
  // EngineStats; the cap itself is exported so readers notice truncation.
  for (size_t i = 0; i < slicers_.size(); ++i) {
    slicers_[i]->set_metrics(i < kMaxInstrumentedGroups ? registry_ : nullptr);
  }
  if (registry_ != nullptr && slicers_.size() > kMaxInstrumentedGroups) {
    registry_->GetGauge("group.metrics_truncated", {}, "groups")
        ->Set(static_cast<int64_t>(slicers_.size() - kMaxInstrumentedGroups));
  }
  if (gov_ != nullptr && registry_ != nullptr) {
    gov_->AttachMetrics(registry_, {});
  }
}

Status SlicingEngine::Configure(const std::vector<Query>& queries) {
  QueryAnalyzer analyzer(mode_, policy_);
  auto groups = analyzer.Analyze(queries);
  if (!groups.ok()) return groups.status();
  slicers_.clear();
  for (QueryGroup& group : groups.value()) {
    slicers_.push_back(MakeSlicer(std::move(group)));
  }
  next_query_seq_ = queries.size();
  return Status::OK();
}

Status SlicingEngine::ConfigureGroups(std::vector<QueryGroup> groups) {
  slicers_.clear();
  size_t queries = 0;
  for (QueryGroup& group : groups) {
    queries += group.queries.size();
    slicers_.push_back(MakeSlicer(std::move(group)));
  }
  next_query_seq_ = queries;
  return Status::OK();
}

void SlicingEngine::IngestOrdered(const Event& event) {
  ++stats_.events;
  last_ts_ = event.ts;
  for (auto& slicer : slicers_) slicer->Ingest(event);
}

void SlicingEngine::IngestOrderedBatch(const Event* events, size_t count) {
  if (count == 0) return;
  stats_.events += count;
  last_ts_ = events[count - 1].ts;
  for (auto& slicer : slicers_) slicer->IngestBatch(events, count);
}

void SlicingEngine::Ingest(const Event& event) {
  if (!reorder_.has_value()) {
    IngestOrdered(event);
    return;
  }
  reorder_->Push(event);
  Event released;
  while (reorder_->Pop(&released)) IngestOrdered(released);
}

void SlicingEngine::IngestBatch(const Event* events, size_t count) {
  if (!reorder_.has_value()) {
    IngestOrderedBatch(events, count);
    return;
  }
  // Interleave pushes with drains exactly like the per-event path (the
  // release frontier governs which late events are dropped), but accumulate
  // the released run and feed it downstream as one batch.
  release_scratch_.clear();
  for (size_t i = 0; i < count; ++i) {
    reorder_->Push(events[i]);
    reorder_->DrainReleased(&release_scratch_);
  }
  IngestOrderedBatch(release_scratch_.data(), release_scratch_.size());
}

void SlicingEngine::AdvanceTo(Timestamp watermark) {
  if (reorder_.has_value()) {
    release_scratch_.clear();
    reorder_->DrainUpTo(watermark, &release_scratch_);
    IngestOrderedBatch(release_scratch_.data(), release_scratch_.size());
  }
  for (auto& slicer : slicers_) slicer->AdvanceTo(watermark);
}

void SlicingEngine::Finish() {
  if (last_ts_ == kNoTimestamp) return;
  Timestamp extent = 0;
  for (auto& slicer : slicers_) {
    extent = std::max(extent, slicer->MaxFixedWindowExtent());
  }
  AdvanceTo(last_ts_ + extent + 1);
}

Status SlicingEngine::AddQuery(const Query& query) {
  if (auto s = query.Validate(); !s.ok()) return s;
  for (const auto& slicer : slicers_) {
    for (const GroupedQuery& gq : slicer->group().queries) {
      if (gq.query.id == query.id) {
        return Status::AlreadyExists("query id already registered");
      }
    }
  }
  // Runtime additions form their own group so running groups keep their
  // in-flight slices; a full restart re-partitions optimally.
  QueryAnalyzer analyzer(mode_, policy_);
  auto groups = analyzer.Analyze({query});
  if (!groups.ok()) return groups.status();
  for (QueryGroup& group : groups.value()) {
    group.id = static_cast<uint32_t>(slicers_.size());
    slicers_.push_back(MakeSlicer(std::move(group)));
  }
  return Status::OK();
}

Status SlicingEngine::RemoveQuery(QueryId id) {
  for (auto it = slicers_.begin(); it != slicers_.end(); ++it) {
    if ((*it)->SuppressQuery(id)) {
      if ((*it)->active_queries() == 0) slicers_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no running query with this id");
}

void SlicingEngine::SetSliceSink(SliceSink sink) {
  slice_sink_ = std::move(sink);
  for (auto& slicer : slicers_) slicer->set_slice_sink(slice_sink_);
}

}  // namespace desis
