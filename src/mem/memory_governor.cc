#include "mem/memory_governor.h"

#include <algorithm>

namespace desis::mem {

MemoryGovernor::MemoryGovernor(MemoryOptions options)
    : options_(std::move(options)) {}

void MemoryGovernor::Register(SpillClient* client) {
  if (std::find(clients_.begin(), clients_.end(), client) == clients_.end()) {
    clients_.push_back(client);
  }
}

void MemoryGovernor::Unregister(SpillClient* client) {
  const auto it = std::find(clients_.begin(), clients_.end(), client);
  if (it == clients_.end()) return;
  const size_t idx = static_cast<size_t>(it - clients_.begin());
  clients_.erase(it);
  if (cursor_ > idx) --cursor_;
  if (!clients_.empty()) cursor_ %= clients_.size();
}

void MemoryGovernor::Charge(uint64_t bytes) {
  resident_ += bytes;
  if (resident_ > peak_resident_) peak_resident_ = resident_;
  if (resident_gauge_ != nullptr) {
    resident_gauge_->Set(static_cast<int64_t>(resident_));
  }
}

void MemoryGovernor::Discharge(uint64_t bytes) {
  resident_ = bytes > resident_ ? 0 : resident_ - bytes;
  if (resident_gauge_ != nullptr) {
    resident_gauge_->Set(static_cast<int64_t>(resident_));
  }
}

void MemoryGovernor::DischargeQuiet(uint64_t bytes) {
  resident_ = bytes > resident_ ? 0 : resident_ - bytes;
}

void MemoryGovernor::Relieve() {
  if (options_.budget_bytes == 0 || resident_ <= soft_limit() || relieving_ ||
      clients_.empty()) {
    return;
  }
  relieving_ = true;
  uint64_t shed_this_cycle = 0;
  size_t asked = 0;
  while (resident_ > soft_limit()) {
    const uint64_t target = resident_ - soft_limit();
    SpillClient* client = clients_[cursor_];
    cursor_ = (cursor_ + 1) % clients_.size();
    shed_this_cycle += client->ShedBytes(target);
    if (++asked >= clients_.size()) {
      // One full pass: if nobody shed anything, every client is dry (all
      // remaining state is ineligible) — stop rather than spin.
      if (shed_this_cycle == 0) break;
      shed_this_cycle = 0;
      asked = 0;
    }
  }
  relieving_ = false;
}

void MemoryGovernor::NoteSpill(uint64_t bytes) {
  ++spills_;
  spill_bytes_ += bytes;
  if (spills_counter_ != nullptr) spills_counter_->Add(1);
  if (spill_bytes_counter_ != nullptr) spill_bytes_counter_->Add(bytes);
}

void MemoryGovernor::NoteRestore(uint64_t bytes) {
  ++restores_;
  restore_bytes_ += bytes;
  if (restores_counter_ != nullptr) restores_counter_->Add(1);
}

Result<std::unique_ptr<SpillFile>> MemoryGovernor::NewSpillFile() {
  return SpillFile::Create(ResolveSpillDir(options_.spill_dir));
}

void MemoryGovernor::AttachMetrics(obs::MetricsRegistry* registry,
                                   obs::Labels labels) {
  if (registry == nullptr) return;
  resident_gauge_ =
      registry->GetGauge("engine.bytes_resident", labels, "bytes");
  spills_counter_ = registry->GetCounter("engine.spills", labels, "spills");
  spill_bytes_counter_ =
      registry->GetCounter("engine.spill_bytes", labels, "bytes");
  restores_counter_ =
      registry->GetCounter("engine.spill_restores", labels, "restores");
  resident_gauge_->Set(static_cast<int64_t>(resident_));
}

}  // namespace desis::mem
