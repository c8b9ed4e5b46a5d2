#include "obs/flight_recorder.h"

#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/trace.h"  // SpanRoleName

namespace desis::obs {

const char* KindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kWatermarkAdvance: return "watermark_advance";
    case FlightEventKind::kSliceSeal: return "slice_seal";
    case FlightEventKind::kPartialShip: return "partial_ship";
    case FlightEventKind::kAckFrontier: return "ack_frontier";
    case FlightEventKind::kSpill: return "spill";
    case FlightEventKind::kRestore: return "restore";
    case FlightEventKind::kRetransmit: return "retransmit";
    case FlightEventKind::kReattach: return "reattach";
    case FlightEventKind::kReplay: return "replay";
    case FlightEventKind::kQueryAdd: return "query_add";
    case FlightEventKind::kQueryRemove: return "query_remove";
    case FlightEventKind::kAnomaly: return "anomaly";
  }
  return "unknown";
}

bool FlightKindFromName(const std::string& name, FlightEventKind* out) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(FlightEventKind::kAnomaly);
       ++k) {
    if (name == KindName(static_cast<FlightEventKind>(k))) {
      *out = static_cast<FlightEventKind>(k);
      return true;
    }
  }
  return false;
}

const char* AnomalyName(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kWatermarkStall: return "watermark_stall";
    case AnomalyKind::kMailboxGrowth: return "mailbox_growth";
    case AnomalyKind::kSpillThrash: return "spill_thrash";
    case AnomalyKind::kSilentNode: return "silent_node";
  }
  return "unknown";
}

namespace {

std::mutex& FailureHookMutex() {
  static std::mutex mu;
  return mu;
}

std::function<void(const std::string&)>& FailureHookSlot() {
  static std::function<void(const std::string&)> hook;
  return hook;
}

}  // namespace

void SetFlightFailureHook(std::function<void(const std::string&)> hook) {
  std::lock_guard<std::mutex> lock(FailureHookMutex());
  FailureHookSlot() = std::move(hook);
}

void NotifyFlightFailure(const std::string& reason) {
  std::function<void(const std::string&)> hook;
  {
    std::lock_guard<std::mutex> lock(FailureHookMutex());
    hook = FailureHookSlot();
  }
  if (hook) hook(reason);
}

namespace {

void AppendEventJson(std::string& out, const FlightEvent& e) {
  char buf[288];
  std::snprintf(
      buf, sizeof(buf),
      "{\"kind\":\"%s\",\"node\":%" PRIu32 ",\"role\":\"%s\",\"a\":%" PRIu64
      ",\"b\":%" PRIu64 ",\"virtual_ts\":%" PRId64 ",\"real_ns\":%" PRId64
      "}",
      KindName(e.kind), e.node_id, SpanRoleName(e.role), e.a, e.b,
      e.virtual_ts, e.real_ns);
  out += buf;
}

}  // namespace

void FlightRecorder::Record(FlightEventKind kind, uint64_t a, uint64_t b,
                            Timestamp virtual_ts) {
  ring_.Push({static_cast<uint64_t>(kind), a, b, virtual_ts, SteadyNowNs()});
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  for (const PackedEvent& p : ring_.Snapshot()) {
    FlightEvent& e = out.emplace_back();
    e.kind = static_cast<FlightEventKind>(p.kind);
    e.node_id = node_id_;
    e.role = role_;
    e.a = p.a;
    e.b = p.b;
    e.virtual_ts = p.virtual_ts;
    e.real_ns = p.real_ns;
  }
  return out;
}

std::string FlightRecorder::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const FlightEvent& e : Snapshot()) {
    if (!first) out += ',';
    first = false;
    AppendEventJson(out, e);
  }
  out += "]";
  return out;
}

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"node\":%" PRIu32
                ",\"role\":\"%s\",\"reason\":\"%s\",\"recorder\":{"
                "\"capacity\":%zu,\"recorded\":%" PRIu64
                ",\"dropped\":%" PRIu64 "},\"events\":",
                node_id_, SpanRoleName(role_), JsonEscape(reason).c_str(),
                capacity(), recorded(), dropped());
  std::string out = buf;
  out += ToJson();
  out += "}";
  return out;
}

}  // namespace desis::obs
