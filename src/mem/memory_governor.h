#ifndef DESIS_MEM_MEMORY_GOVERNOR_H_
#define DESIS_MEM_MEMORY_GOVERNOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mem/spill_file.h"
#include "obs/metrics.h"

namespace desis::mem {

/// Memory budget for one engine or one Desis local node.
/// budget_bytes == 0 means ungoverned: no accounting, no spilling — the
/// seed-identical default everywhere a MemoryOptions is embedded.
struct MemoryOptions {
  /// Resident-byte budget for governed slice state. 0 disables governance.
  uint64_t budget_bytes = 0;
  /// Spill run-file directory; empty resolves to ".desis_spill" under the
  /// working directory (the build tree for tests/benches).
  std::string spill_dir;
  /// Sort buffers below this size are never spilled — sheding tiny lanes
  /// costs more in run bookkeeping than it frees.
  uint64_t min_spill_bytes = 32 * 1024;
};

/// A state owner the governor can ask to shed bytes (a StreamSlicer). The
/// client spills its coldest eligible state and returns how many resident
/// bytes it actually released (0 = nothing left to shed).
class SpillClient {
 public:
  virtual ~SpillClient() = default;
  virtual uint64_t ShedBytes(uint64_t target) = 0;
};

/// Tracks resident bytes of governed slice state against a budget and,
/// when over, asks registered clients round-robin to shed until the budget
/// holds or every client is dry. Single-writer by design: each governor
/// belongs to one engine (or one local node) and is only mutated from its
/// owner's ingest thread, so accounting is plain integer arithmetic. The
/// one exception is restores(): a cluster's health watchdog reads it from
/// its own thread mid-run (spill-thrash detection), so that counter is a
/// relaxed-atomic cell. Every other counter is read after the run.
class MemoryGovernor {
 public:
  explicit MemoryGovernor(MemoryOptions options);

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  const MemoryOptions& options() const { return options_; }
  uint64_t budget() const { return options_.budget_bytes; }

  void Register(SpillClient* client);
  void Unregister(SpillClient* client);

  /// Resident-byte accounting; clients delta-charge as their state grows
  /// and shrinks. Charge also tracks the peak for bench assertions.
  void Charge(uint64_t bytes);
  void Discharge(uint64_t bytes);

  /// Destructor-path Discharge: adjusts the resident count without
  /// publishing to the gauge. Teardown order between the metrics registry
  /// and the engine is unspecified (nothing else writes a handle at
  /// destruction), so a dying client must not touch obs handles that may
  /// already dangle.
  void DischargeQuiet(uint64_t bytes);

  bool OverBudget() const {
    return options_.budget_bytes != 0 && resident_ > options_.budget_bytes;
  }

  /// Relief high-water mark: 3/4 of the budget. Relieve() triggers here and
  /// sheds back down to it, so the budget itself is only breached when a
  /// single charge between relief points exceeds the remaining quarter —
  /// clients call Relieve() after every bounded charge site precisely to
  /// keep those deltas small, which is what makes "peak resident <= budget"
  /// hold for workloads whose per-slice state fits a quarter of the budget.
  uint64_t soft_limit() const {
    return options_.budget_bytes - options_.budget_bytes / 4;
  }

  /// If resident exceeds soft_limit(), asks clients round-robin to shed
  /// until back at the mark or a full cycle sheds nothing. Reentrancy-safe:
  /// a client whose shedding re-enters (e.g. via Discharge) will not
  /// recurse into another round.
  void Relieve();

  /// Spill bookkeeping, driven by clients as they spill/restore.
  void NoteSpill(uint64_t bytes);
  void NoteRestore(uint64_t bytes);

  /// Creates a run file for a client under the resolved spill directory.
  Result<std::unique_ptr<SpillFile>> NewSpillFile();

  uint64_t resident() const { return resident_; }
  uint64_t peak_resident() const { return peak_resident_; }
  uint64_t spills() const { return spills_; }
  uint64_t spill_bytes() const { return spill_bytes_; }
  uint64_t restores() const { return restores_; }
  uint64_t restore_bytes() const { return restore_bytes_; }

  /// Registers engine.bytes_resident / engine.spills / engine.spill_bytes /
  /// engine.spill_restores under `labels`. Call before ingest starts (same
  /// contract as engine metrics attach); re-attaching rebinds the handles.
  void AttachMetrics(obs::MetricsRegistry* registry, obs::Labels labels);

 private:
  MemoryOptions options_;
  std::vector<SpillClient*> clients_;
  size_t cursor_ = 0;       // round-robin shed position
  bool relieving_ = false;  // reentrancy guard

  uint64_t resident_ = 0;
  uint64_t peak_resident_ = 0;
  uint64_t spills_ = 0;
  uint64_t spill_bytes_ = 0;
  obs::RelaxedU64 restores_;  // read by the watchdog probe
  uint64_t restore_bytes_ = 0;

  obs::Gauge* resident_gauge_ = nullptr;
  obs::Counter* spills_counter_ = nullptr;
  obs::Counter* spill_bytes_counter_ = nullptr;
  obs::Counter* restores_counter_ = nullptr;
};

}  // namespace desis::mem

#endif  // DESIS_MEM_MEMORY_GOVERNOR_H_
