#ifndef DESIS_SRC_OBS_EVENT_RING_H_
#define DESIS_SRC_OBS_EVENT_RING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/relaxed_cell.h"

namespace desis::obs {

/// Steady-clock instant in ns: the `real_ns` stamp of ring records.
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Bounded lock-free ring of fixed-size records, shared by SliceTracer and
/// FlightRecorder. Push() is a relaxed ticket fetch_add plus one relaxed
/// store per record word and a final `seq` publish — no allocation, no
/// lock — and is safe from any thread. Once full, the oldest records are
/// overwritten (`dropped()` counts them).
///
/// Records are stored word by word through relaxed atomic refs, so two
/// Push() calls whose tickets alias one slot (ring wrap) interleave per word
/// instead of racing on plain memory; Snapshot() skips a slot whose `seq`
/// is not the ticket it expects. The counters are always safe to read;
/// Snapshot() wants quiescence (no Push() in flight), but a torn slot
/// degrades to a skipped record, never UB.
///
/// The slots come zeroed from calloc, which hands out fresh pages without
/// writing them: constructing a ring touches none of its slot memory.
///
/// T is a padding-free struct of whole 64-bit words; callers pack small
/// fields to keep slots compact (a slot is `sizeof(T)` plus the seq word).
template <typename T>
class EventRing {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::has_unique_object_representations_v<T>,
                "ring records must have no padding bytes");
  static_assert(sizeof(T) % sizeof(uint64_t) == 0);
  static constexpr size_t kWords = sizeof(T) / sizeof(uint64_t);

  struct Slot {
    uint64_t seq;  // ticket + 1 of the last completed write; 0 = never
    uint64_t words[kWords];
  };
  static_assert(alignof(uint64_t) >=
                std::atomic_ref<uint64_t>::required_alignment);
  static uint64_t Load(uint64_t& word) {
    return std::atomic_ref<uint64_t>(word).load(std::memory_order_relaxed);
  }
  static void Store(uint64_t& word, uint64_t value) {
    std::atomic_ref<uint64_t>(word).store(value, std::memory_order_relaxed);
  }
  struct FreeSlots {
    void operator()(Slot* slots) const { std::free(slots); }
  };

 public:
  static constexpr size_t kSlotBytes = sizeof(Slot);

  explicit EventRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(static_cast<Slot*>(std::calloc(capacity_, sizeof(Slot)))) {
    if (slots_ == nullptr) throw std::bad_alloc();
  }
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Mirrors Push()es / ring overwrites into registry counters. Null
  /// detaches either.
  void set_counters(Counter* recorded, Counter* dropped) {
    recorded_counter_ = recorded;
    dropped_counter_ = dropped;
  }

  void Push(const T& record) {
    const uint64_t ticket = head_++;
    if (recorded_counter_ != nullptr) recorded_counter_->Add();
    if (ticket >= capacity_ && dropped_counter_ != nullptr) {
      dropped_counter_->Add();
    }
    uint64_t words[kWords];
    std::memcpy(words, &record, sizeof(T));
    Slot& slot = slots_[ticket % capacity_];
    for (size_t i = 0; i < kWords; ++i) Store(slot.words[i], words[i]);
    Store(slot.seq, ticket + 1);
  }

  size_t capacity() const { return capacity_; }
  /// Records ever pushed / overwritten by ring wrap-around.
  uint64_t recorded() const { return head_.load(); }
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// The retained records, oldest first. Quiescence wanted (see above).
  std::vector<T> Snapshot() const {
    const uint64_t head = head_.load();
    const uint64_t n = head < capacity_ ? head : capacity_;
    std::vector<T> out;
    out.reserve(n);
    for (uint64_t t = head - n; t < head; ++t) {
      Slot& slot = slots_[t % capacity_];
      if (Load(slot.seq) != t + 1) continue;  // torn by a ring wrap
      uint64_t words[kWords];
      for (size_t i = 0; i < kWords; ++i) words[i] = Load(slot.words[i]);
      T& record = out.emplace_back();
      std::memcpy(&record, words, sizeof(T));
    }
    return out;
  }

 private:
  const size_t capacity_;
  std::unique_ptr<Slot[], FreeSlots> slots_;
  RelaxedU64 head_;
  Counter* recorded_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
};

}  // namespace desis::obs

#endif  // DESIS_SRC_OBS_EVENT_RING_H_
