// Correctness oracle: the reference window set of a workload and the
// per-phase check of emitted windows against it.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/query.h"
#include "workloads.h"

namespace perfbench {

using desis::WindowResult;

/// Same rule as ExpectSameResults in tests/test_transport.cc: equal event
/// counts and values within 1e-6 relative.
bool SameResult(double got_value, uint64_t got_count, double want_value,
                uint64_t want_count);

/// The reference window set, built once per run from a serial (inline
/// transport) cluster run, in one of two forms:
///  * periodic, when every slide divides the input's replay period: window
///    results then repeat with the period, so the window of a query starting
///    at s >= 0 equals the one starting at s mod period, and the serial run
///    over [0, period + 2 * max_length) holds them all. Windows that start
///    before 0 (sliding windows already open at the first event) are kept as
///    they are. Build() verifies the periodicity on windows past one period.
///  * closed form, for match-all sum/count/avg/min/max queries of any
///    length: every window's count and value follow from prefix sums and
///    range extremes over the replayed chunks. The serial run over the
///    first 2 * max_length fixes each query's first window and is itself
///    checked against the closed form.
/// Either form is cross-checked against CeBufferEngine on a prefix of the
/// merged stream.
class Reference {
 public:
  struct Built;
  static Built Build(const Workload& w);

  enum class Verdict { kMatch, kMismatch, kExtra };
  /// Thread-compatible (const, no caching).
  Verdict Check(const WindowResult& r) const;

  /// Windows a run whose every local advanced to `watermark` must emit.
  uint64_t ExpectedUpTo(Timestamp watermark) const;

 private:
  /// One local's replayed stream in closed form.
  class Series;

  struct Entry {
    double value = 0;
    uint64_t count = 0;
    bool present = false;
  };
  struct PerQuery {
    Timestamp length = 0;
    Timestamp slide = 0;
    desis::AggregationFunction fn = desis::AggregationFunction::kSum;
    // Periodic form.
    std::vector<Entry> grid;                 // starts k * slide in [0, period)
    std::map<Timestamp, Entry> before_zero;  // starts < 0
    // Closed form: the first window starts at first_k * slide.
    int64_t first_k = 0;
  };
  const Entry* FindPeriodic(const WindowResult& r) const;
  Entry ClosedForm(const PerQuery& q, Timestamp start, Timestamp end) const;

  Timestamp period_ = 0;
  bool periodic_ = true;
  std::vector<PerQuery> queries_;  // index = query id - 1
  std::vector<std::shared_ptr<const Series>> series_;  // closed form, per local
};

struct Reference::Built {
  Reference reference;
  uint64_t windows = 0;             // emitted by the reference run
  uint64_t self_checked = 0;        // reference windows re-derived and checked
  uint64_t cebuffer_checked = 0;    // windows compared with CeBufferEngine
  uint64_t events = 0;              // events of the reference run
  uint64_t bytes_sent = 0;          // wire bytes, all nodes
  uint64_t messages_sent = 0;       // messages, all nodes
};

/// Checks one phase's windows as they are emitted (from the sink, one
/// thread at a time). Per query the root emits windows in start order, so
/// a start at or before the previous one is a duplicate and counts extra.
class PhaseChecker {
 public:
  explicit PhaseChecker(const Reference& ref, size_t num_queries);
  void Observe(const WindowResult& r);

  struct Counts {
    uint64_t expected = 0;
    uint64_t matched = 0;
    uint64_t mismatched = 0;
    uint64_t extra = 0;
    uint64_t emitted = 0;
    /// Missing, mismatched and extra windows. More matches than expected
    /// can only be an oracle error, and counts as failed too.
    uint64_t failed() const {
      return (expected > matched ? expected - matched : matched - expected) +
             extra;
    }
  };
  /// Totals after the run, all of whose locals advanced to `watermark`.
  Counts Finish(Timestamp watermark) const;

 private:
  const Reference& ref_;
  std::vector<Timestamp> last_start_;
  Counts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
