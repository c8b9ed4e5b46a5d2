#include "net/disco_nodes.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace desis {
namespace disco {

std::string EncodePartialLine(QueryId qid, Timestamp ws, Timestamp we,
                              uint64_t events, const PartialAggregate& agg) {
  char buf[320];
  int n = std::snprintf(buf, sizeof(buf),
                        "P|%" PRIu64 "|%" PRId64 "|%" PRId64 "|%" PRIu64
                        "|%u|%.17g|%" PRIu64 "|%.17g|%.17g|%.17g\n",
                        qid, ws, we, events, agg.mask(), agg.sum_state().sum,
                        agg.count_state().count, agg.multiply_state().product,
                        agg.minmax_state().min, agg.minmax_state().max);
  return std::string(buf, static_cast<size_t>(n));
}

std::string EncodeEventLine(const Event& e) {
  char buf[96];
  int n = std::snprintf(buf, sizeof(buf), "E|%" PRId64 "|%u|%.17g|%u\n", e.ts,
                        e.key, e.value, e.marker);
  return std::string(buf, static_cast<size_t>(n));
}

std::string EncodeWatermarkLine(Timestamp wm) {
  char buf[48];
  int n = std::snprintf(buf, sizeof(buf), "W|%" PRId64 "\n", wm);
  return std::string(buf, static_cast<size_t>(n));
}

void ParsePayload(const std::vector<uint8_t>& payload,
                  std::vector<ParsedPartial>* partials,
                  std::vector<Event>* events, Timestamp* watermark) {
  const char* p = reinterpret_cast<const char*>(payload.data());
  const char* end = p + payload.size();
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (nl == nullptr) nl = end;
    if (p[0] == 'P' && partials != nullptr) {
      ParsedPartial part;
      char* cursor = nullptr;
      part.qid = std::strtoull(p + 2, &cursor, 10);
      part.ws = std::strtoll(cursor + 1, &cursor, 10);
      part.we = std::strtoll(cursor + 1, &cursor, 10);
      part.events = std::strtoull(cursor + 1, &cursor, 10);
      const OperatorMask mask =
          static_cast<OperatorMask>(std::strtoul(cursor + 1, &cursor, 10));
      const double sum = std::strtod(cursor + 1, &cursor);
      const uint64_t count = std::strtoull(cursor + 1, &cursor, 10);
      const double product = std::strtod(cursor + 1, &cursor);
      const double min = std::strtod(cursor + 1, &cursor);
      const double max = std::strtod(cursor + 1, &cursor);
      // Rebuild the partial through the binary codec (states are PODs).
      ByteWriter out;
      out.WriteU8(mask);
      if (MaskHas(mask, OperatorKind::kSum)) out.WriteDouble(sum);
      if (MaskHas(mask, OperatorKind::kCount)) out.WriteU64(count);
      if (MaskHas(mask, OperatorKind::kMultiply)) out.WriteDouble(product);
      if (MaskHas(mask, OperatorKind::kDecomposableSort)) {
        out.WriteDouble(min);
        out.WriteDouble(max);
      }
      ByteReader in(out.bytes());
      part.agg = PartialAggregate::DeserializeFrom(in);
      partials->push_back(std::move(part));
    } else if (p[0] == 'E' && events != nullptr) {
      Event e;
      char* cursor = nullptr;
      e.ts = std::strtoll(p + 2, &cursor, 10);
      e.key = static_cast<uint32_t>(std::strtoul(cursor + 1, &cursor, 10));
      e.value = std::strtod(cursor + 1, &cursor);
      e.marker = static_cast<uint32_t>(std::strtoul(cursor + 1, &cursor, 10));
      events->push_back(e);
    } else if (p[0] == 'W' && watermark != nullptr) {
      char* cursor = nullptr;
      const Timestamp wm = static_cast<Timestamp>(std::strtoll(p + 2, &cursor, 10));
      *watermark = std::max(*watermark, wm);
    }
    p = nl + 1;
  }
}

}  // namespace disco

namespace {

bool IsPushdownQuery(const Query& q) {
  return IsDecomposable(q.agg.fn) && q.window.measure == WindowMeasure::kTime;
}

}  // namespace

// ---------------------------------------------------------------- local --

DiscoLocalNode::DiscoLocalNode(uint32_t id, const std::vector<Query>& queries,
                               size_t batch_size)
    : Node(id, NodeRole::kLocal), batch_size_(batch_size) {
  std::vector<Query> pushdown;
  for (const Query& q : queries) {
    if (IsPushdownQuery(q)) {
      pushdown.push_back(q);
    } else {
      forward_queries_.push_back(q);
    }
  }
  // Scotty on the edge: sharing only within the same aggregation function,
  // per-event window-end checks.
  QueryAnalyzer analyzer(DeploymentMode::kCentralized,
                         SharingPolicy::kPerFunction);
  auto groups = analyzer.Analyze(pushdown);
  if (!groups.ok()) return;  // validated upstream by the cluster
  for (QueryGroup& group : groups.value()) {
    SlicerOptions options;
    options.punctuation = PunctuationStrategy::kPerEventScan;
    auto slicer = std::make_unique<StreamSlicer>(std::move(group), options,
                                                 &stats_);
    slicer->set_window_partial_sink(
        [this](QueryId qid, Timestamp ws, Timestamp we,
               const PartialAggregate& agg, uint64_t events) {
          pending_text_ += disco::EncodePartialLine(qid, ws, we, events, agg);
          if (++pending_lines_ >= batch_size_) FlushText();
        });
    slicers_.push_back(std::move(slicer));
  }
}

void DiscoLocalNode::IngestOne(const Event& event) {
  ++stats_.events;
  for (auto& slicer : slicers_) slicer->Ingest(event);
  if (!forward_queries_.empty()) {
    bool wanted = false;
    for (const Query& q : forward_queries_) {
      ++stats_.selection_evals;
      if (q.predicate.Matches(event)) {
        wanted = true;
        break;
      }
    }
    if (wanted) {
      pending_text_ += disco::EncodeEventLine(event);
      if (++pending_lines_ >= batch_size_) FlushText();
    }
  }
}

void DiscoLocalNode::IngestBatch(const Event* events, size_t count) {
  Metered([&] {
    for (size_t i = 0; i < count; ++i) IngestOne(events[i]);
  });
}

void DiscoLocalNode::FlushText() {
  if (pending_text_.empty()) return;
  std::vector<uint8_t> payload(pending_text_.begin(), pending_text_.end());
  SendToParent({MessageType::kText, 0, std::move(payload)});
  pending_text_.clear();
  pending_lines_ = 0;
}

void DiscoLocalNode::Advance(Timestamp watermark) {
  Metered([&] {
    for (auto& slicer : slicers_) slicer->AdvanceTo(watermark);
    pending_text_ += disco::EncodeWatermarkLine(watermark);
    FlushText();
  });
}

void DiscoLocalNode::HandleMessage(const Message& /*message*/,
                                   int /*child_index*/) {}

// --------------------------------------------------------- intermediate --

Timestamp DiscoIntermediateNode::MinChildWatermark() const {
  if (child_wms_.size() < num_children()) return kNoTimestamp;
  Timestamp min_wm = kMaxTimestamp;
  for (Timestamp wm : child_wms_) {
    if (wm == kNoTimestamp) return kNoTimestamp;
    min_wm = std::min(min_wm, wm);
  }
  return min_wm;
}

void DiscoIntermediateNode::SendText(std::string text) {
  if (text.empty()) return;
  std::vector<uint8_t> payload(text.begin(), text.end());
  SendToParent({MessageType::kText, 0, std::move(payload)});
}

void DiscoIntermediateNode::FlushUpTo(Timestamp watermark) {
  if (watermark == kNoTimestamp || watermark <= sent_wm_) return;
  std::string out;
  for (auto it = partials_.begin(); it != partials_.end();) {
    if (std::get<2>(it->first) <= watermark) {
      const disco::ParsedPartial& part = it->second.first;
      out += disco::EncodePartialLine(part.qid, part.ws, part.we, part.events,
                                      part.agg);
      it = partials_.erase(it);
    } else {
      ++it;
    }
  }
  sent_wm_ = watermark;
  out += disco::EncodeWatermarkLine(watermark);
  SendText(std::move(out));
}

void DiscoIntermediateNode::HandleMessage(const Message& message,
                                          int child_index) {
  if (message.type != MessageType::kText) return;
  std::vector<disco::ParsedPartial> parts;
  std::vector<Event> events;
  Timestamp wm = kNoTimestamp;
  disco::ParsePayload(message.payload, &parts, &events, &wm);

  std::string out;
  for (disco::ParsedPartial& part : parts) {
    auto key = std::make_tuple(part.qid, part.ws, part.we);
    auto it = partials_.find(key);
    if (it == partials_.end()) {
      it = partials_.emplace(key, std::make_pair(std::move(part), 1)).first;
      ++stats_.slices_created;
    } else {
      disco::ParsedPartial& have = it->second.first;
      have.agg.Merge(part.agg);
      have.events += part.events;
      ++it->second.second;
      ++stats_.merges;
    }
    if (it->second.second == static_cast<int>(num_children())) {
      const disco::ParsedPartial& done = it->second.first;
      out += disco::EncodePartialLine(done.qid, done.ws, done.we, done.events,
                                      done.agg);
      partials_.erase(it);
    }
  }
  // Raw events pass through unchanged (still strings).
  for (const Event& e : events) out += disco::EncodeEventLine(e);
  SendText(std::move(out));

  if (wm != kNoTimestamp) {
    if (child_wms_.size() < num_children()) {
      child_wms_.resize(num_children(), kNoTimestamp);
    }
    child_wms_[static_cast<size_t>(child_index)] =
        std::max(child_wms_[static_cast<size_t>(child_index)], wm);
    FlushUpTo(MinChildWatermark());
  }
}

// ----------------------------------------------------------------- root --

DiscoRootNode::DiscoRootNode(uint32_t id, const std::vector<Query>& queries)
    : Node(id, NodeRole::kRoot) {
  std::vector<Query> root_queries;
  for (const Query& q : queries) {
    if (IsPushdownQuery(q)) {
      pushdown_specs_[q.id] = q.agg;
    } else {
      root_queries.push_back(q);
    }
  }
  QueryAnalyzer analyzer(DeploymentMode::kCentralized,
                         SharingPolicy::kPerFunction);
  auto groups = analyzer.Analyze(root_queries);
  if (groups.ok()) {
    for (QueryGroup& group : groups.value()) {
      SlicerOptions options;
      options.punctuation = PunctuationStrategy::kPerEventScan;
      auto slicer = std::make_unique<StreamSlicer>(std::move(group), options,
                                                   &stats_);
      slicer->set_window_sink(
          [this](const WindowResult& r) { EmitResult(r); });
      root_slicers_.push_back(std::move(slicer));
    }
  }
}

void DiscoRootNode::EmitResult(const WindowResult& result) {
  if (sink_) sink_(result);
}

Timestamp DiscoRootNode::MinChildWatermark() const {
  if (child_wms_.size() < num_children()) return kNoTimestamp;
  Timestamp min_wm = kMaxTimestamp;
  for (Timestamp wm : child_wms_) {
    if (wm == kNoTimestamp) return kNoTimestamp;
    min_wm = std::min(min_wm, wm);
  }
  return min_wm;
}

void DiscoRootNode::AdvanceAll(Timestamp watermark) {
  if (watermark == kNoTimestamp || watermark <= advanced_wm_) return;
  advanced_wm_ = watermark;
  // Finalize pushed-down windows whose end passed the global watermark.
  for (auto it = partials_.begin(); it != partials_.end();) {
    if (std::get<2>(it->first) <= watermark) {
      const disco::ParsedPartial& part = it->second.first;
      auto spec = pushdown_specs_.find(part.qid);
      if (spec != pushdown_specs_.end() && part.events > 0) {
        EmitResult({part.qid, part.ws, part.we,
                    part.agg.Finalize(spec->second), part.events});
        ++stats_.windows_fired;
      }
      it = partials_.erase(it);
    } else {
      ++it;
    }
  }
  // Feed reordered raw events into the root-evaluated queries.
  std::sort(pending_events_.begin(), pending_events_.end(),
            [](const Event& a, const Event& b) { return a.ts < b.ts; });
  size_t released = 0;
  for (const Event& e : pending_events_) {
    if (e.ts > watermark) break;
    ++stats_.events;
    for (auto& slicer : root_slicers_) slicer->Ingest(e);
    ++released;
  }
  pending_events_.erase(pending_events_.begin(),
                        pending_events_.begin() +
                            static_cast<int64_t>(released));
  for (auto& slicer : root_slicers_) slicer->AdvanceTo(watermark);
}

void DiscoRootNode::HandleMessage(const Message& message, int child_index) {
  if (message.type != MessageType::kText) return;
  std::vector<disco::ParsedPartial> parts;
  std::vector<Event> events;
  Timestamp wm = kNoTimestamp;
  disco::ParsePayload(message.payload, &parts, &events, &wm);

  for (disco::ParsedPartial& part : parts) {
    auto key = std::make_tuple(part.qid, part.ws, part.we);
    auto it = partials_.find(key);
    if (it == partials_.end()) {
      partials_.emplace(key, std::make_pair(std::move(part), 1));
      ++stats_.slices_created;
    } else {
      it->second.first.agg.Merge(part.agg);
      it->second.first.events += part.events;
      ++it->second.second;
      ++stats_.merges;
    }
  }
  pending_events_.insert(pending_events_.end(), events.begin(), events.end());

  if (wm != kNoTimestamp) {
    if (child_wms_.size() < num_children()) {
      child_wms_.resize(num_children(), kNoTimestamp);
    }
    child_wms_[static_cast<size_t>(child_index)] =
        std::max(child_wms_[static_cast<size_t>(child_index)], wm);
    AdvanceAll(MinChildWatermark());
  }
}

}  // namespace desis
