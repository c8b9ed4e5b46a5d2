// The phases a workload runs on a Desis cluster, plus the standalone
// engine replay and codec timing of the traced run.
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "oracle.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

enum class Phase {
  kMaxRate,  // threaded, closed loop, throttled only by mailbox backpressure
  kPaced,    // threaded, open loop: batches due on a fixed schedule
  kSerial,   // inline transport, one driver thread
};
const char* PhaseName(Phase phase);

struct PhaseOptions {
  Phase phase = Phase::kMaxRate;
  double seconds = 1.0;
  /// > 0: run exactly this many rounds instead of for `seconds`.
  int64_t fixed_rounds = 0;
  /// Paced phase: run at least this many rounds after the fast-forward,
  /// even past `seconds`.
  int64_t min_paced_rounds = 0;
  /// Wrap the transport in TimedTransport.
  bool decorate = false;
  SpanLog* spans = nullptr;
  /// When set, receives every emitted window.
  std::vector<WindowResult>* collect = nullptr;
};

/// Cluster construction, set_transport, AttachObs and Configure.
struct SetupTimes {
  double total_s = 0;
  double construct_s = 0;
  double configure_s = 0;
  size_t query_groups = 0;
};

/// Per-node counters read after Drain().
struct NodeTotals {
  int64_t local_busy_ns = 0;  // busiest local
  int64_t intermediate_busy_ns = 0;
  int64_t root_busy_ns = 0;
  uint64_t intermediate_messages_received = 0;
  uint64_t intermediate_queue_hwm = 0;
  uint64_t root_queue_hwm = 0;
  uint64_t retransmits = 0;
  uint64_t messages_dropped = 0;
};

struct PhaseResult {
  Phase phase = Phase::kMaxRate;
  /// First submit to the return of Drain(); for the paced phase, from the
  /// first scheduled batch's due time.
  double wall_s = 0;
  /// For the paced phase, the scheduled rounds and their events: the
  /// fast-forward is left out here and in the node busy times.
  int64_t rounds = 0;
  uint64_t events = 0;
  PhaseChecker::Counts check;
  NodeTotals nodes;
  double drain_ms = 0;
  std::vector<int64_t> driver_ns;  // wall time of each driver thread
  // Paced phase only.
  int64_t round_interval_ns = 0;
  std::vector<int64_t> latency_ns;   // per window after the warm-up:
                                     // emit - due time of its batch
  std::vector<int64_t> lateness_ns;  // per batch: submit - due
  // Decorated runs only.
  TimedTransport::SendSamples sends;

  double events_per_s() const { return static_cast<double>(events) / wall_s; }
};

/// One threaded deployment of the workload's queries, torn down after.
SetupTimes MeasureSetup(const Workload& w);

/// Runs one phase on a fresh cluster, reading the input through `inputs`
/// (one per local, rewound first).
PhaseResult RunPhase(const Workload& w, const Reference& ref,
                     std::vector<Replay>& inputs, const PhaseOptions& options);

/// Standalone DesisEngine replay of local 0's stream, configured as a local
/// node (slices shipped, no window assembly). Counts are exact over one
/// replay period; the time per event comes from replaying on for
/// `seconds`.
struct EngineReplay {
  double ns_per_event = 0;
  double selection_evals_per_event = 0;
  double operator_execs_per_event = 0;
  double slices_per_event = 0;
};
EngineReplay ReplayEngine(const Workload& w, double seconds);

/// EncodeFrame / DecodeFrame timed over a captured message mix.
struct CodecTimes {
  double encode_ns_per_byte = 0;
  double decode_ns_per_byte = 0;
};
CodecTimes TimeCodec(const std::vector<desis::Message>& sample, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
