#include "trace.h"

#include <cinttypes>

#include "bench.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPhase: return "driver_loop";
    case Layer::kGen: return "gen.replay";
    case Layer::kIngest: return "core.ingest";
    case Layer::kAdvance: return "core.advance";
    case Layer::kSendLocal: return "net.intermediate";
    case Layer::kSendIntermediate: return "net.root";
    case Layer::kSendRoot: return "net.root_send";
  }
  return "?";
}

int32_t SpanLog::Begin(Layer layer) {
  ThreadSpans& t = threads_.Local();
  Span span;
  span.layer = layer;
  span.parent = t.open.empty() ? -1 : t.open.back();
  const auto index = static_cast<int32_t>(t.spans.size());
  t.open.push_back(index);
  span.start_ns = NowNs();
  t.spans.push_back(span);
  return index;
}

void SpanLog::End(int32_t index) {
  const int64_t now = NowNs();
  ThreadSpans& t = threads_.Local();
  t.spans[static_cast<size_t>(index)].end_ns = now;
  t.open.pop_back();
}

SpanLog::LayerTotals SpanLog::Totals() const {
  LayerTotals totals;
  threads_.ForEach([&](const ThreadSpans& t) {
    for (const Span& s : t.spans) {
      const auto layer = static_cast<size_t>(s.layer);
      const int64_t duration = s.end_ns - s.start_ns;
      totals.self_ns[layer] += duration;
      ++totals.calls[layer];
      ++totals.spans;
      if (s.parent >= 0) {
        const Span& parent = t.spans[static_cast<size_t>(s.parent)];
        totals.self_ns[static_cast<size_t>(parent.layer)] -= duration;
      }
    }
  });
  return totals;
}

void SpanLog::WriteTsv(std::FILE* out, const char* phase,
                       size_t max_rows) const {
  int thread = 0;
  size_t written = 0;
  size_t skipped = 0;
  threads_.ForEach([&](const ThreadSpans& t) {
    for (size_t i = 0; i < t.spans.size(); ++i) {
      if (written == max_rows) {
        ++skipped;
        continue;
      }
      const Span& s = t.spans[i];
      std::fprintf(out, "%s\t%d\t%zu\t%d\t%s\t%" PRId64 "\t%" PRId64 "\n",
                   phase, thread, i, s.parent, LayerName(s.layer), s.start_ns,
                   s.end_ns);
      ++written;
    }
    ++thread;
  });
  if (skipped > 0) std::fprintf(out, "# %s: %zu more spans not written\n", phase, skipped);
}

TimedTransport::TimedTransport(std::unique_ptr<desis::Transport> inner,
                               SpanLog* spans)
    : inner_(std::move(inner)), spans_(spans) {}

void TimedTransport::Send(desis::Node* from, desis::Node* to, int child_index,
                          const desis::Message& message) {
  const desis::NodeRole role = from->role();
  const Layer layer = role == desis::NodeRole::kLocal ? Layer::kSendLocal
                      : role == desis::NodeRole::kIntermediate
                          ? Layer::kSendIntermediate
                          : Layer::kSendRoot;
  SendSamples& mine = samples_.Local();
  if (mine.sends++ % kCaptureEvery == 0 && mine.captured.size() < kMaxCaptured) {
    mine.captured.push_back(message);
  }
  if (role == desis::NodeRole::kLocal &&
      message.type == desis::MessageType::kSlicePartial) {
    ++mine.local_slice_partials;
  }
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(spans_, layer);
    inner_->Send(from, to, child_index, message);
  }
  mine.ns_by_role[static_cast<size_t>(role)].push_back(NowNs() - t0);
}

TimedTransport::SendSamples TimedTransport::Collect() const {
  SendSamples all;
  samples_.ForEach([&](const SendSamples& s) {
    for (size_t r = 0; r < all.ns_by_role.size(); ++r) {
      all.ns_by_role[r].insert(all.ns_by_role[r].end(), s.ns_by_role[r].begin(),
                               s.ns_by_role[r].end());
    }
    all.local_slice_partials += s.local_slice_partials;
    all.sends += s.sends;
    all.captured.insert(all.captured.end(), s.captured.begin(),
                        s.captured.end());
  });
  return all;
}

}  // namespace perfbench
