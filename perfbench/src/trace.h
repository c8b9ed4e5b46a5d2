// Outside-in tracing for the benchmark's traced run: spans recorded around
// the benchmark's calls into the program, and a Transport decorator that
// times every Send. Nothing here reaches inside src/.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/node.h"
#include "transport/transport.h"

namespace perfbench {

/// One buffer per thread that touches the owner, created on first use.
/// Slots are written only by their thread; read them only after those
/// threads have been joined (or their cluster drained).
template <typename T>
class PerThread {
 public:
  PerThread() : id_(NextId()) {}
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  T& Local() {
    thread_local std::vector<std::pair<uint64_t, void*>> cache;
    for (const auto& [id, slot] : cache) {
      if (id == id_) return *static_cast<T*>(slot);
    }
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::make_unique<T>());
    cache.emplace_back(id_, slots_.back().get());
    return *slots_.back();
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& slot : slots_) fn(*slot);
  }

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T>> slots_;
};

/// Layer boundaries the benchmark records spans at. Self time of a span is
/// its duration minus its direct children's; in the serial (inline) phase
/// the spans nest exactly: IngestAt -> Send(local) -> Send(intermediate),
/// and the root's emit path (including the benchmark's window sink) is the
/// self time of Send(intermediate).
enum class Layer : uint8_t {
  kPhase = 0,          // the driver loop itself (self = uncovered time)
  kGen,                // the replayed input (shifts the chunk per period)
  kIngest,             // Cluster::IngestAt (the local's core engine)
  kAdvance,            // Cluster::AdvanceAt (seal + ship at the local)
  kSendLocal,          // Transport::Send from a local (intermediate handler)
  kSendIntermediate,   // Transport::Send from the intermediate (root)
  kSendRoot,           // Transport::Send from the root (recovery acks only)
};
inline constexpr size_t kNumLayers = 7;
const char* LayerName(Layer layer);

class SpanLog {
 public:
  struct Span {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    Layer layer = Layer::kPhase;
  };
  struct ThreadSpans {
    std::vector<Span> spans;
    std::vector<int32_t> open;
  };
  struct LayerTotals {
    std::array<int64_t, kNumLayers> self_ns{};
    std::array<uint64_t, kNumLayers> calls{};
    uint64_t spans = 0;
  };

  int32_t Begin(Layer layer);
  void End(int32_t index);

  /// Self time and call count per layer over every thread.
  LayerTotals Totals() const;
  /// Writes up to `max_rows` spans, one TSV row each: phase, thread,
  /// index, parent, layer, start_ns, end_ns; then a comment line with the
  /// number left out.
  void WriteTsv(std::FILE* out, const char* phase, size_t max_rows) const;

 private:
  PerThread<ThreadSpans> threads_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer)
      : log_(log), index_(log != nullptr ? log->Begin(layer) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Transport decorator: forwards every virtual to the inner transport and
/// times Send per sender role, records a span around it, counts slice
/// partials shipped by locals, and keeps a sample of the message mix for
/// the codec timing.
class TimedTransport final : public desis::Transport {
 public:
  struct SendSamples {
    std::array<std::vector<int64_t>, 3> ns_by_role;  // NodeRole index
    uint64_t local_slice_partials = 0;
    uint64_t sends = 0;
    std::vector<desis::Message> captured;
  };

  TimedTransport(std::unique_ptr<desis::Transport> inner, SpanLog* spans);

  const char* name() const override { return inner_->name(); }
  void Send(desis::Node* from, desis::Node* to, int child_index,
            const desis::Message& message) override;
  void AddNode(desis::Node* node) override { inner_->AddNode(node); }
  void Execute(desis::Node* target, std::function<void()> fn) override {
    inner_->Execute(target, std::move(fn));
  }
  void ExecuteSync(desis::Node* target, std::function<void()> fn) override {
    inner_->ExecuteSync(target, std::move(fn));
  }
  void Pump() override { inner_->Pump(); }
  void Flush() override { inner_->Flush(); }
  void Shutdown() override { inner_->Shutdown(); }
  void Disconnect(desis::Node* node) override { inner_->Disconnect(node); }
  bool SetLinkDown(desis::Node* a, desis::Node* b, bool down) override {
    return inner_->SetLinkDown(a, b, down);
  }
  void ResetLink(desis::Node* a, desis::Node* b) override {
    inner_->ResetLink(a, b);
  }
  int64_t VirtualNowUs() const override { return inner_->VirtualNowUs(); }

  /// Merges the per-thread samples; call after Cluster::Drain().
  SendSamples Collect() const;

  /// Every this-many-th Send is copied into the codec sample, up to
  /// kMaxCaptured messages per thread.
  static constexpr uint64_t kCaptureEvery = 16;
  static constexpr size_t kMaxCaptured = 2048;

 private:
  std::unique_ptr<desis::Transport> inner_;
  SpanLog* spans_;
  PerThread<SendSamples> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
