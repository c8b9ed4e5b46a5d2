#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace desis::obs {

const char* ToString(SlicePhase phase) {
  switch (phase) {
    case SlicePhase::kSliceCreated: return "slice_created";
    case SlicePhase::kPartialShipped: return "partial_shipped";
    case SlicePhase::kMerged: return "merged";
    case SlicePhase::kWindowEmitted: return "window_emitted";
    case SlicePhase::kRetransmit: return "retransmit";
    case SlicePhase::kReattach: return "reattach";
    case SlicePhase::kReplay: return "replay";
    case SlicePhase::kSpill: return "spill";
    case SlicePhase::kRestore: return "restore";
  }
  return "unknown";
}

bool PhaseFromString(const std::string& name, SlicePhase* out) {
  for (uint8_t p = 0; p <= static_cast<uint8_t>(SlicePhase::kRestore);
       ++p) {
    if (name == ToString(static_cast<SlicePhase>(p))) {
      *out = static_cast<SlicePhase>(p);
      return true;
    }
  }
  return false;
}

const char* SpanRoleName(uint8_t role) {
  switch (role) {
    case kSpanRoleLocal: return "local";
    case kSpanRoleIntermediate: return "intermediate";
    case kSpanRoleRoot: return "root";
    case kSpanRoleEngine: return "engine";
  }
  return "unknown";
}

bool SpanRoleFromName(const std::string& name, uint8_t* out) {
  for (uint8_t r : {kSpanRoleLocal, kSpanRoleIntermediate, kSpanRoleRoot,
                    kSpanRoleEngine}) {
    if (name == SpanRoleName(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

std::string ChromeTraceFromSpans(std::vector<SliceSpan> spans) {
  // Stable event-time order keeps async begin/instant/end phases legal for
  // the viewer even when spans were collected from several tracers.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SliceSpan& a, const SliceSpan& b) {
                     if (a.virtual_ts != b.virtual_ts) {
                       return a.virtual_ts < b.virtual_ts;
                     }
                     return a.real_ns < b.real_ns;
                   });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // One process_name metadata record per node so the merged view labels
  // each pid with its topology role.
  std::vector<std::pair<uint32_t, uint8_t>> named;
  for (const SliceSpan& s : spans) {
    bool seen = false;
    for (const auto& [node, role] : named) {
      seen = seen || (node == s.node_id && role == s.role);
    }
    if (seen) continue;
    named.emplace_back(s.node_id, s.role);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                  ",\"args\":{\"name\":\"node %" PRIu32 " (%s)\"}}",
                  s.node_id, s.node_id, SpanRoleName(s.role));
    if (!first) out += ',';
    first = false;
    out += buf;
  }
  for (const SliceSpan& s : spans) {
    if (!first) out += ',';
    first = false;
    const char* ph = "n";
    if (s.phase == SlicePhase::kSliceCreated) ph = "b";
    if (s.phase == SlicePhase::kWindowEmitted) ph = "e";
    // Global async id: the slice identity shared across nodes. Window
    // emissions carry no slice id (they are per query), so they track by
    // query instead of collapsing onto one bogus slice-0 lane.
    char gid[64];
    if (s.phase == SlicePhase::kWindowEmitted && s.slice_id == 0) {
      std::snprintf(gid, sizeof(gid), "q%" PRIu64, s.query_id);
    } else {
      std::snprintf(gid, sizeof(gid), "g%" PRIu32 ".s%" PRIu64, s.group_id,
                    s.slice_id);
    }
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"cat\":\"slice\",\"ph\":\"%s\","
        "\"id2\":{\"global\":\"%s\"},\"ts\":%" PRId64 ",\"pid\":%" PRIu32
        ",\"tid\":%" PRIu32 ",\"args\":{\"slice\":%" PRIu64
        ",\"query\":%" PRIu64 ",\"role\":\"%s\",\"real_ns\":%" PRId64 "}}",
        ToString(s.phase), ph, gid, s.virtual_ts, s.node_id, s.group_id,
        s.slice_id, s.query_id, SpanRoleName(s.role), s.real_ns);
    out += buf;
  }
  out += "]}";
  return out;
}

namespace {

void AppendSpanJson(std::string& out, const SliceSpan& s) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "{\"phase\":\"%s\",\"slice_id\":%" PRIu64 ",\"group\":%" PRIu32
      ",\"query\":%" PRIu64 ",\"node\":%" PRIu32
      ",\"role\":\"%s\",\"virtual_ts\":%" PRId64 ",\"real_ns\":%" PRId64 "}",
      ToString(s.phase), s.slice_id, s.group_id, s.query_id, s.node_id,
      SpanRoleName(s.role), s.virtual_ts, s.real_ns);
  out += buf;
}

}  // namespace

void SliceTracer::Record(SlicePhase phase, uint64_t slice_id,
                         uint32_t group_id, uint64_t query_id,
                         uint32_t node_id, uint8_t role,
                         Timestamp virtual_ts) {
  ring_.Push({slice_id, query_id,
              static_cast<uint64_t>(group_id) << 32 | node_id,
              static_cast<uint64_t>(role) << 8 | static_cast<uint64_t>(phase),
              virtual_ts, SteadyNowNs()});
}

std::vector<SliceSpan> SliceTracer::Snapshot() const {
  std::vector<SliceSpan> out;
  for (const PackedSpan& p : ring_.Snapshot()) {
    SliceSpan& span = out.emplace_back();
    span.slice_id = p.slice_id;
    span.query_id = p.query_id;
    span.group_id = static_cast<uint32_t>(p.group_and_node >> 32);
    span.node_id = static_cast<uint32_t>(p.group_and_node);
    span.role = static_cast<uint8_t>(p.role_and_phase >> 8);
    span.phase = static_cast<SlicePhase>(p.role_and_phase & 0xff);
    span.virtual_ts = p.virtual_ts;
    span.real_ns = p.real_ns;
  }
  return out;
}

std::string SliceTracer::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const SliceSpan& s : Snapshot()) {
    if (!first) out += ',';
    first = false;
    AppendSpanJson(out, s);
  }
  out += "]";
  return out;
}

std::string SliceTracer::ToChromeTrace() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SliceSpan& s : Snapshot()) {
    if (!first) out += ',';
    first = false;
    const char* ph = "n";
    if (s.phase == SlicePhase::kSliceCreated) ph = "b";
    if (s.phase == SlicePhase::kWindowEmitted) ph = "e";
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"cat\":\"slice\",\"ph\":\"%s\",\"id\":%" PRIu64
        ",\"ts\":%" PRId64 ",\"pid\":%" PRIu32
        ",\"tid\":%" PRIu32 ",\"args\":{\"query\":%" PRIu64
        ",\"role\":\"%s\",\"real_ns\":%" PRId64 "}}",
        ToString(s.phase), ph, s.slice_id, s.virtual_ts, s.node_id, s.group_id,
        s.query_id, SpanRoleName(s.role), s.real_ns);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace desis::obs
