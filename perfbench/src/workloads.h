// The benchmark's workloads: query mixes and the seeded input streams of
// the two local nodes. Why each workload exists is in perfbench/README.md.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/event.h"
#include "core/query.h"

namespace perfbench {

using desis::Event;
using desis::Query;
using desis::Timestamp;

/// Every workload runs on {num_locals = 2, num_intermediates = 1}.
inline constexpr int kNumLocals = 2;

/// One local's input: events generated for event time [0, period), replayed
/// forever with timestamps shifted by whole periods. The replay keeps the
/// input buffer small and fixed and makes the stream periodic, which is what
/// lets the oracle (oracle.h) know every window of phases of any length.
struct Chunk {
  std::vector<Event> events;
  /// round_begin[r] = index of the first event with ts >= r * round; one
  /// entry per round of the period plus the end.
  std::vector<size_t> round_begin;
};

struct Workload {
  std::string name;
  uint32_t num_keys = 0;
  /// Mean event-time spacing of one local's stream (DataGenerator).
  Timestamp mean_interval = 0;
  /// Replay period of the input chunks.
  Timestamp period = 0;
  /// Event time one driver round covers: one IngestAt + AdvanceAt per local.
  Timestamp round = 0;
  /// Fixed open-loop rate of the paced phase, all locals together. Set to
  /// at most half of the lowest max-rate events_per_s seen when the
  /// benchmark was defined; never derived from a run.
  double paced_events_per_s = 0;
  std::vector<Query> queries;
  std::vector<Chunk> chunks;  // one per local

  int64_t rounds_per_period() const { return period / round; }
  /// Events all locals submit in rounds [0, rounds).
  uint64_t EventsInRounds(int64_t rounds) const;
  Timestamp MaxLength() const;
};

/// A reader of one local's replayed stream, round by round in increasing
/// order. It owns a copy of the chunk and shifts its timestamps in place
/// when a round of the next period is asked for, so a round is handed to
/// IngestAt without copying. A run allocates its readers once and rewinds
/// them per phase: per-phase copies made on driver threads would leave freed
/// buffers in the allocator's per-thread arenas and inflate the peak RSS.
class Replay {
 public:
  Replay(const Workload& w, int local);

  struct Batch {
    const Event* events;
    size_t count;
  };
  /// Round `r` (non-decreasing across calls since the last Rewind) of the
  /// stream.
  Batch Round(int64_t r);
  /// Back to round 0.
  void Rewind() { Shift(0); }

 private:
  const Workload& w_;
  const Chunk& chunk_;
  void Shift(int64_t cycle);

  std::vector<Event> events_;
  int64_t cycle_ = 0;  // period the timestamps in events_ belong to
};

/// One reader per local.
std::vector<Replay> MakeInputs(const Workload& w);

const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` with inputs and query parameters drawn from
/// `seed`. Throws CheckFailure for an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
