#ifndef DESIS_SRC_OBS_RELAXED_CELL_H_
#define DESIS_SRC_OBS_RELAXED_CELL_H_

#include <atomic>
#include <cstdint>

namespace desis::obs {

/// A copyable relaxed-atomic counter cell. Drop-in replacement for plain
/// integer counters (EngineStats, the per-node byte/message/busy-time
/// cells, NodeHealth, registry series): single-writer hot paths keep
/// compiling (`++x`, `x += n`, `x = v`, implicit reads) while concurrent
/// readers — the periodic metrics exporter, a monitoring thread polling
/// `Cluster::StatsReport()` mid-run — see no data race. All
/// operations use relaxed ordering: these are statistics, not
/// synchronization; cross-thread visibility of *final* values is provided
/// by the transport's quiescence protocol (`Cluster::Drain()`).
///
/// Copying reads the source atomically and seeds a fresh cell, so the stat
/// structs stay value types (snapshots, `operator+=` aggregation).
template <typename T>
class RelaxedCell {
 public:
  RelaxedCell() = default;
  RelaxedCell(T v) : v_(v) {}  // NOLINT(google-explicit-constructor)
  RelaxedCell(const RelaxedCell& other) : v_(other.load()) {}
  RelaxedCell& operator=(const RelaxedCell& other) {
    store(other.load());
    return *this;
  }
  RelaxedCell& operator=(T v) {
    store(v);
    return *this;
  }

  operator T() const { return load(); }  // NOLINT(google-explicit-constructor)

  RelaxedCell& operator+=(T d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCell& operator-=(T d) {
    v_.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCell& operator++() { return *this += T{1}; }
  T operator++(int) { return v_.fetch_add(T{1}, std::memory_order_relaxed); }

  /// Monotonic-max update (queue high-water marks). Relaxed CAS loop;
  /// linearizable against concurrent StoreMax/store on the same cell.
  void StoreMax(T v) {
    T cur = load();
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Monotonic-min update (histogram minima).
  void StoreMin(T v) {
    T cur = load();
    while (v < cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<T> v_{T{}};
};

using RelaxedU64 = RelaxedCell<uint64_t>;
using RelaxedI64 = RelaxedCell<int64_t>;

}  // namespace desis::obs

#endif  // DESIS_SRC_OBS_RELAXED_CELL_H_
