#include "obs/health_monitor.h"

#include <chrono>
#include <utility>

namespace desis::obs {

HealthMonitor::HealthMonitor(const WatchdogOptions& options,
                             WatchdogHooks hooks)
    : options_(options), hooks_(std::move(hooks)) {}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_.load(std::memory_order_relaxed)) return;
  stop_ = false;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread(&HealthMonitor::ThreadMain, this);
}

void HealthMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load(std::memory_order_relaxed)) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

void HealthMonitor::ThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(options_.period_ms),
                     [this] { return stop_; })) {
      break;
    }
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

HealthMonitor::Track& HealthMonitor::TrackFor(uint32_t node_id) {
  for (Track& t : tracks_) {
    if (t.node_id == node_id) return t;
  }
  tracks_.emplace_back();
  tracks_.back().node_id = node_id;
  return tracks_.back();
}

void HealthMonitor::SampleOnce() {
  // Publish gauges and read the lock-free probe cells before taking mu_:
  // both hooks reach into the cluster (shared membership lock) and must
  // never nest inside the detector mutex held by a concurrent ticker.
  if (hooks_.sample_health) hooks_.sample_health();
  std::vector<NodeProbe> probes;
  if (hooks_.probe) probes = hooks_.probe();
  samples_ += 1;

  std::lock_guard<std::mutex> lock(mu_);

  // The live frontier: the healthiest watermark in the topology this
  // sample. Lag is always judged against it, so a fully idle (finished)
  // topology raises nothing.
  Timestamp frontier = kNoTimestamp;
  for (const NodeProbe& p : probes) {
    if (p.alive && p.watermark != kNoTimestamp && p.watermark > frontier) {
      frontier = p.watermark;
    }
  }

  const int threshold =
      options_.silence_threshold < 1 ? 1 : options_.silence_threshold;
  auto raise = [&](AnomalyKind kind, uint32_t node) {
    anomalies_ += 1;
    if (hooks_.on_anomaly) hooks_.on_anomaly(kind, node);
  };

  for (const NodeProbe& p : probes) {
    Track& t = TrackFor(p.node_id);
    if (!t.initialized) {
      t.initialized = true;
      t.heartbeats = p.heartbeats;
      t.watermark = p.watermark;
      t.mailbox_depth = p.mailbox_depth;
      t.spill_restores = p.spill_restores;
      continue;
    }
    if (!p.alive) {
      // Declared dead (crash-recovered): nothing left to detect.
      t.silent_streak = t.stall_streak = t.growth_streak = t.thrash_streak =
          0;
      t.suspect = false;
      continue;
    }

    const bool hb_moved = p.heartbeats != t.heartbeats;
    const bool wm_moved = p.watermark != t.watermark;
    const bool lagging =
        frontier != kNoTimestamp &&
        (p.watermark == kNoTimestamp ||
         p.watermark + options_.grace_us < frontier);

    // silent_node: no liveness signal at all, while provably behind.
    if (hb_moved) {
      t.silent_streak = 0;
      t.silent_raised = false;
      t.suspect = false;
    } else {
      ++t.silent_streak;
      if (t.silent_streak >= threshold && lagging && !t.silent_raised) {
        t.silent_raised = true;
        t.suspect = true;
        raise(AnomalyKind::kSilentNode, p.node_id);
      }
    }

    // watermark_stall: still receiving (heartbeats move) but its outbound
    // watermark is pinned behind the frontier — distinct from silence.
    if (hb_moved && !wm_moved && lagging) {
      ++t.stall_streak;
      if (t.stall_streak >= threshold && !t.stall_raised) {
        t.stall_raised = true;
        raise(AnomalyKind::kWatermarkStall, p.node_id);
      }
    } else {
      t.stall_streak = 0;
      if (wm_moved || !lagging) t.stall_raised = false;
    }

    // mailbox_growth: depth strictly increasing sample over sample.
    if (p.mailbox_depth > t.mailbox_depth) {
      ++t.growth_streak;
      if (t.growth_streak >= threshold && !t.growth_raised) {
        t.growth_raised = true;
        raise(AnomalyKind::kMailboxGrowth, p.node_id);
      }
    } else {
      t.growth_streak = 0;
      if (p.mailbox_depth < t.mailbox_depth) t.growth_raised = false;
    }

    // spill_thrash: restores landing in every consecutive sample.
    if (p.spill_restores > t.spill_restores) {
      ++t.thrash_streak;
      if (t.thrash_streak >= threshold && !t.thrash_raised) {
        t.thrash_raised = true;
        raise(AnomalyKind::kSpillThrash, p.node_id);
      }
    } else {
      t.thrash_streak = 0;
      t.thrash_raised = false;
    }

    t.heartbeats = p.heartbeats;
    t.watermark = p.watermark;
    t.mailbox_depth = p.mailbox_depth;
    t.spill_restores = p.spill_restores;
  }

  if (!options_.auto_recover || !hooks_.recover) return;

  // Auto-recovery: find the minimum watermark across healthy recoverable
  // nodes and only fire when *every* suspect provably lags it — the
  // recovery op (RecoverSilentIntermediates) crashes exactly the nodes
  // below min_watermark, so this guard guarantees it targets the suspects
  // and never a merely-slow healthy peer.
  bool have_suspect = false;
  bool healthy_unknown = false;
  Timestamp healthy_min = kNoTimestamp;
  for (const NodeProbe& p : probes) {
    if (!p.alive || !p.recoverable) continue;
    const Track& t = TrackFor(p.node_id);
    if (t.suspect) {
      have_suspect = true;
      continue;
    }
    if (p.watermark == kNoTimestamp) {
      healthy_unknown = true;  // a healthy peer hasn't started; wait
    } else if (healthy_min == kNoTimestamp || p.watermark < healthy_min) {
      healthy_min = p.watermark;
    }
  }
  if (!have_suspect || healthy_unknown || healthy_min == kNoTimestamp) {
    return;
  }
  for (const NodeProbe& p : probes) {
    if (!p.alive || !p.recoverable) continue;
    const Track& t = TrackFor(p.node_id);
    if (t.suspect && p.watermark != kNoTimestamp &&
        p.watermark >= healthy_min) {
      return;  // suspect not yet strictly behind; recovering would miss it
    }
  }
  if (hooks_.recover(healthy_min)) {
    auto_recoveries_ += 1;
    for (Track& t : tracks_) {
      // Keep silent_raised latched so the episode doesn't re-raise; the
      // node is dead now and future probes skip it.
      if (t.suspect) t.suspect = false;
    }
  }
}

}  // namespace desis::obs
