#ifndef DESIS_SRC_OBS_HEALTH_MONITOR_H_
#define DESIS_SRC_OBS_HEALTH_MONITOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/event.h"
#include "obs/flight_recorder.h"  // AnomalyKind
#include "obs/metrics.h"
#include "obs/relaxed_cell.h"

namespace desis::obs {

/// Watchdog configuration, embedded as ClusterOptions::watchdog.
struct WatchdogOptions {
  bool enabled = false;
  /// Real-time sampling period of the background thread (ms). <= 0 keeps
  /// the thread off even when enabled — deterministic tests drive
  /// Cluster::TickWatchdogForTest() instead.
  int period_ms = 20;
  /// Consecutive samples a signal must persist before an anomaly fires.
  /// Detection latency is ~period_ms * silence_threshold; larger values
  /// trade latency for false-positive immunity on noisy schedulers.
  int silence_threshold = 3;
  /// Virtual-time slack (µs): a node only counts as *lagging* when its
  /// watermark trails the healthiest live watermark by more than this.
  /// Keeps idle-but-caught-up nodes (e.g. after stream end) anomaly-free.
  int64_t grace_us = 2000;
  /// silent_node anomalies auto-invoke the recover hook
  /// (Cluster::RecoverSilentIntermediates) once per episode.
  bool auto_recover = true;
};

/// One sample of one node's lock-free health cells, taken by the probe
/// hook without locks (relaxed reads of NodeStats/NodeHealth).
struct NodeProbe {
  uint32_t node_id = 0;
  uint8_t role = 255;
  /// False once the node was declared dead (crash-recovered); dead nodes
  /// are skipped by every detector.
  bool alive = true;
  /// True for nodes RecoverSilentIntermediates can act on (alive
  /// intermediates under a recovery-enabled Desis cluster).
  bool recoverable = false;
  /// Monotonic liveness counter: any received message or outbound
  /// watermark advance bumps it.
  uint64_t heartbeats = 0;
  Timestamp watermark = kNoTimestamp;
  int64_t mailbox_depth = 0;
  uint64_t spill_restores = 0;
};

/// Callbacks the monitor drives; all invoked on the watchdog thread (or
/// the caller's thread via TickForTest). `recover` returns true when a
/// recovery op actually ran.
struct WatchdogHooks {
  std::function<std::vector<NodeProbe>()> probe;
  std::function<void()> sample_health;
  std::function<void(AnomalyKind, uint32_t)> on_anomaly;
  std::function<bool(Timestamp)> recover;
};

/// Background health watchdog: every period it publishes health gauges
/// (sample_health), probes per-node liveness cells, and runs four typed
/// detectors (docs/FAULT_TOLERANCE.md "Automatic failure detection"):
///
///   silent_node     heartbeats frozen for >= silence_threshold samples
///                   AND watermark lagging the live frontier by > grace_us
///                   (or still kNoTimestamp while others advanced).
///   watermark_stall heartbeats still moving (the node receives) but its
///                   watermark frozen and lagging for >= threshold samples.
///   mailbox_growth  mailbox depth strictly increasing for >= threshold
///                   consecutive samples.
///   spill_thrash    spill restores observed in each of >= threshold
///                   consecutive samples.
///
/// Each anomaly fires once per episode (the latch clears when the signal
/// recovers), surfaced through on_anomaly -> health.anomalies{kind,node}.
/// When auto_recover is set, a silent_node episode additionally invokes
/// the recover hook with the minimum watermark across healthy recoverable
/// nodes — but only once every suspect lags it, so recovery never crashes
/// a node that is merely slow.
class HealthMonitor {
 public:
  HealthMonitor(const WatchdogOptions& options, WatchdogHooks hooks);
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;
  ~HealthMonitor();

  /// Spawns the sampler thread (idempotent). Stop() joins it; the
  /// destructor stops implicitly.
  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// One synchronous sampling pass on the caller's thread. Deterministic
  /// unit tests drive detection with this instead of the thread; safe to
  /// mix with a running thread only for smoke checks (detector state is
  /// mutex-guarded either way).
  void TickForTest() { SampleOnce(); }

  uint64_t samples() const { return samples_.load(); }
  uint64_t anomalies() const { return anomalies_.load(); }
  uint64_t auto_recoveries() const { return auto_recoveries_.load(); }

 private:
  /// Per-node detector state, keyed by node id.
  struct Track {
    uint32_t node_id = 0;
    bool initialized = false;
    uint64_t heartbeats = 0;
    Timestamp watermark = kNoTimestamp;
    int64_t mailbox_depth = 0;
    uint64_t spill_restores = 0;
    int silent_streak = 0;
    int stall_streak = 0;
    int growth_streak = 0;
    int thrash_streak = 0;
    bool silent_raised = false;
    bool stall_raised = false;
    bool growth_raised = false;
    bool thrash_raised = false;
    /// Raised-silent and awaiting auto-recovery.
    bool suspect = false;
  };

  void SampleOnce();
  void ThreadMain();
  Track& TrackFor(uint32_t node_id);

  const WatchdogOptions options_;
  const WatchdogHooks hooks_;

  std::mutex mu_;  // guards tracks_ and thread lifecycle
  std::condition_variable cv_;
  std::thread thread_;
  bool stop_ = false;
  std::atomic<bool> running_{false};
  std::vector<Track> tracks_;

  RelaxedU64 samples_;
  RelaxedU64 anomalies_;
  RelaxedU64 auto_recoveries_;
};

}  // namespace desis::obs

#endif  // DESIS_SRC_OBS_HEALTH_MONITOR_H_
