// SliceTracer under concurrent writers (run under TSan in CI): Record() is
// a relaxed ticket grab plus per-field relaxed slot stores, so any number
// of threads may record at once — including when tickets wrap the ring and
// alias slots. The aggregate counters stay exact and overflow is mirrored
// into the trace.dropped_spans registry counter.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace desis::obs {
namespace {

void RecordMany(SliceTracer& tracer, uint32_t node, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    tracer.Record(SlicePhase::kSliceCreated, /*slice_id=*/i, /*group_id=*/0,
                  /*query_id=*/0, node, kSpanRoleLocal,
                  static_cast<Timestamp>(i));
  }
}

TEST(TracerConcurrency, OverflowCountsExactAndMirroredToRegistry) {
  constexpr size_t kCapacity = 1024;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;  // 80k records into 1k slots
  MetricsRegistry registry;
  Counter* dropped =
      registry.GetCounter("trace.dropped_spans", {}, "spans");
  ASSERT_NE(dropped, nullptr);
  SliceTracer tracer(kCapacity);
  tracer.set_drop_counter(dropped);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&tracer, t] { RecordMany(tracer, static_cast<uint32_t>(t),
                                  kPerThread); });
  }
  for (std::thread& th : threads) th.join();

  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(tracer.recorded(), kTotal);
  EXPECT_EQ(tracer.dropped(), kTotal - kCapacity);
  // Every overwriting Record() bumped the registry counter exactly once.
  EXPECT_EQ(dropped->value(), kTotal - kCapacity);
  // The ring retains at most `capacity` spans; torn slots (two writers
  // aliased mid-flight) are discarded by the seq check, never duplicated.
  EXPECT_LE(tracer.Snapshot().size(), kCapacity);
}

TEST(TracerConcurrency, NoDropsBelowCapacity) {
  MetricsRegistry registry;
  Counter* dropped =
      registry.GetCounter("trace.dropped_spans", {}, "spans");
  SliceTracer tracer(1 << 16);
  tracer.set_drop_counter(dropped);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&tracer, t] { RecordMany(tracer, static_cast<uint32_t>(t), 1000); });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(tracer.recorded(), 4000u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(dropped->value(), 0u);
  // Below capacity nothing is overwritten or torn: all spans retained.
  EXPECT_EQ(tracer.Snapshot().size(), 4000u);
}

}  // namespace
}  // namespace desis::obs
