#ifndef DESIS_CORE_QUERY_H_
#define DESIS_CORE_QUERY_H_

#include <cstdint>
#include <string>

#include "common/event.h"
#include "core/aggregation.h"
#include "core/window.h"

namespace desis {

using QueryId = uint64_t;

/// How two selection predicates relate; drives query-group formation
/// (§4.2.3): identical and disjoint predicates may share a group,
/// overlapping predicates may not.
enum class PredicateRelation : uint8_t {
  kIdentical = 0,
  kDisjoint,
  kOverlapping,
};

/// The value-range test of every selection path: v in [lo, hi). Written as
/// `!(v < lo || v >= hi)` with a non-short-circuit `|`, so it compiles
/// without branches and a NaN value matches, since neither comparison
/// holds for it.
inline bool InValueRange(double v, double lo, double hi) {
  return !((v < lo) | (v >= hi));
}

/// A selection predicate over event key and value, e.g.
/// `WHERE key == 3 AND value > 80`. Empty constraints match everything.
struct Predicate {
  bool has_key = false;
  uint32_t key = 0;
  /// Half-open value interval [value_lo, value_hi); +-infinity when open.
  bool has_range = false;
  double value_lo = 0.0;
  double value_hi = 0.0;

  static Predicate All() { return Predicate{}; }
  static Predicate KeyEquals(uint32_t key) {
    Predicate p;
    p.has_key = true;
    p.key = key;
    return p;
  }
  static Predicate ValueRange(double lo, double hi) {
    Predicate p;
    p.has_range = true;
    p.value_lo = lo;
    p.value_hi = hi;
    return p;
  }
  static Predicate KeyAndRange(uint32_t key, double lo, double hi) {
    Predicate p = KeyEquals(key);
    p.has_range = true;
    p.value_lo = lo;
    p.value_hi = hi;
    return p;
  }

  bool Matches(const Event& e) const {
    if (has_key && e.key != key) return false;
    if (has_range && !InValueRange(e.value, value_lo, value_hi)) return false;
    return true;
  }

  PredicateRelation RelationTo(const Predicate& other) const;

  std::string ToString() const;

  friend bool operator==(const Predicate&, const Predicate&) = default;
};

/// A continuous windowed aggregation query.
struct Query {
  QueryId id = 0;
  WindowSpec window;
  AggregationSpec agg;
  Predicate predicate;
  /// When set, duplicate events (full-field equality) within a slice are
  /// dropped before aggregation (the non-aggregate dedup operator, §4.2.3).
  bool deduplicate = false;

  Status Validate() const {
    if (auto s = window.Validate(); !s.ok()) return s;
    if (agg.fn == AggregationFunction::kQuantile &&
        (agg.quantile < 0.0 || agg.quantile > 1.0)) {
      return Status::InvalidArgument("quantile must lie in [0, 1]");
    }
    return Status::OK();
  }
};

/// One emitted window result.
struct WindowResult {
  QueryId query_id = 0;
  Timestamp window_start = 0;
  Timestamp window_end = 0;
  double value = 0.0;
  uint64_t event_count = 0;
};

}  // namespace desis

#endif  // DESIS_CORE_QUERY_H_
