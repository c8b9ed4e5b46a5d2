#include "net/chaos.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/rng.h"
#include "obs/flight_recorder.h"

namespace desis {

std::string ChaosResultLog::Canonical() const {
  std::vector<std::string> lines;
  lines.reserve(results_.size());
  for (const WindowResult& r : results_) {
    // Bit-exact value formatting: the double's bits, not a rounded decimal.
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.value));
    std::memcpy(&bits, &r.value, sizeof(bits));
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "q%" PRIu64 " [%" PRId64 ",%" PRId64 ") v=%016" PRIx64
                  " n=%" PRIu64,
                  r.query_id, r.window_start, r.window_end, bits,
                  r.event_count);
    lines.emplace_back(buf);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

void ChaosRunner::Apply(const ChaosAction& action, Timestamp wm) {
  switch (action.kind) {
    case ChaosAction::Kind::kCrashIntermediate:
      cluster_->CrashIntermediate(action.index);
      break;
    case ChaosAction::Kind::kSilentKillIntermediate:
      cluster_->InjectIntermediateFailure(action.index);
      break;
    case ChaosAction::Kind::kSweepRecover:
      // Two-round grace: anything whose advertised watermark is further
      // behind than two advance periods is declared dead.
      cluster_->RecoverSilentIntermediates(wm - 2 * config_.advance_period);
      break;
    case ChaosAction::Kind::kDeclareLocalDead:
      cluster_->DeclareLocalDead(action.index);
      break;
    case ChaosAction::Kind::kReattachLocal:
      cluster_->ReattachLocal(action.index);
      break;
    case ChaosAction::Kind::kPartitionLocal:
      cluster_->PartitionLocalUplink(action.index, /*down=*/true);
      break;
    case ChaosAction::Kind::kHealLocal:
      cluster_->PartitionLocalUplink(action.index, /*down=*/false);
      break;
  }
}

int ChaosRunner::Run(const ChaosSchedule& schedule) {
  std::vector<ChaosAction> actions = schedule.actions;
  std::stable_sort(actions.begin(), actions.end(),
                   [](const ChaosAction& a, const ChaosAction& b) {
                     return a.at_watermark < b.at_watermark;
                   });
  size_t next_action = 0;
  const int num_locals = cluster_->topology().num_locals;
  int rounds = 0;
  std::vector<Event> batch;
  for (Timestamp wm = config_.start + config_.advance_period;
       wm - config_.advance_period < config_.end;
       wm += config_.advance_period) {
    wm = std::min(wm, config_.end);
    const Timestamp round_start = wm - config_.advance_period;
    for (int local = 0; local < num_locals; ++local) {
      // Faults strike mid-round, after half the locals have ingested: the
      // struck subtree holds partially merged, unforwarded entries — the
      // genuinely in-flight data that replay-on-reattach must recover.
      // Round boundaries are quiescent (everything acked), so injecting
      // there would never exercise the resend path.
      if (local == num_locals / 2) {
        while (next_action < actions.size() &&
               actions[next_action].at_watermark <= wm) {
          Apply(actions[next_action], wm);
          ++next_action;
        }
      }
      // Stream content depends only on (seed, local, round): the disturbed
      // and baseline runs ingest byte-identical inputs.
      Rng rng(config_.seed ^ (static_cast<uint64_t>(local) << 32) ^
              static_cast<uint64_t>(rounds));
      batch.clear();
      for (int k = 0; k < config_.events_per_local_per_round; ++k) {
        Event e;
        e.ts = round_start + (static_cast<Timestamp>(k) *
                              config_.advance_period) /
                                 config_.events_per_local_per_round;
        e.key = static_cast<uint32_t>(rng.NextBounded(config_.num_keys));
        e.value = static_cast<double>(rng.NextInRange(0, config_.max_value));
        batch.push_back(e);
      }
      cluster_->IngestAt(local, batch.data(), batch.size());
    }
    cluster_->Advance(std::max(config_.start, wm - config_.watermark_lag));
    ++rounds;
    if (config_.round_sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.round_sleep_ms));
    }
  }
  // Late heals/reattaches: without them, data buffered behind a dead uplink
  // would never flush and the baseline comparison would be vacuous.
  for (; next_action < actions.size(); ++next_action) {
    Apply(actions[next_action], config_.end);
  }
  const Timestamp final_wm = config_.final_watermark != kNoTimestamp
                                 ? config_.final_watermark
                                 : config_.end + 4 * config_.advance_period;
  cluster_->Advance(final_wm);
  cluster_->Drain();
  return rounds;
}

bool ChaosRunsMatch(const std::string& baseline_canonical,
                    const std::string& disturbed_canonical) {
  if (baseline_canonical == disturbed_canonical) return true;
  obs::NotifyFlightFailure("chaos_violation");
  return false;
}

ChaosSchedule MakeSeededSchedule(uint64_t seed, int num_intermediates,
                                 int num_locals,
                                 const ChaosStreamConfig& config) {
  ChaosSchedule schedule;
  Rng rng(seed);
  const int64_t rounds =
      (config.end - config.start) / config.advance_period;
  auto round_wm = [&](int64_t r) {
    return config.start + r * config.advance_period;
  };
  // Leave the first and last quarter undisturbed so every fault has live
  // traffic before it (something to replay) and after it (recovery visible).
  const int64_t lo = std::max<int64_t>(1, rounds / 4);
  const int64_t hi = std::max<int64_t>(lo + 1, 3 * rounds / 4);
  if (num_intermediates > 0) {
    schedule.actions.push_back(
        {ChaosAction::Kind::kCrashIntermediate,
         round_wm(rng.NextInRange(lo, hi)),
         static_cast<int>(rng.NextBounded(
             static_cast<uint64_t>(num_intermediates)))});
  }
  if (num_locals > 0) {
    const int local =
        static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_locals)));
    const int64_t dead_at = rng.NextInRange(lo, hi);
    schedule.actions.push_back(
        {ChaosAction::Kind::kDeclareLocalDead, round_wm(dead_at), local});
    schedule.actions.push_back({ChaosAction::Kind::kReattachLocal,
                                round_wm(std::min(hi, dead_at + 2)), local});
  }
  if (num_locals > 1) {
    const int local =
        static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_locals)));
    const int64_t down_at = rng.NextInRange(lo, hi);
    schedule.actions.push_back(
        {ChaosAction::Kind::kPartitionLocal, round_wm(down_at), local});
    schedule.actions.push_back({ChaosAction::Kind::kHealLocal,
                                round_wm(std::min(hi, down_at + 1)), local});
  }
  return schedule;
}

}  // namespace desis
