// obs::EventRing, the ticket ring under SliceTracer and FlightRecorder (run
// under TSan in CI): exact counts from concurrent writers, overwrite
// mirroring into registry counters, and oldest-first order after a wrap.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "obs/event_ring.h"
#include "obs/metrics.h"

namespace desis::obs {
namespace {

/// Three words; `check` lets a reader tell a whole record from a torn one.
struct TestRecord {
  uint64_t writer;
  uint64_t index;
  uint64_t check;
};

constexpr uint64_t Check(uint64_t writer, uint64_t index) {
  return (writer << 40) ^ (index * 0x9e3779b97f4a7c15ull);
}

void PushMany(EventRing<TestRecord>& ring, uint64_t writer, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    ring.Push({writer, i, Check(writer, i)});
  }
}

TEST(EventRing, ConcurrentWritersKeepExactCountsAndWholeRecords) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  constexpr uint64_t kTotal = kThreads * kPerThread;
  EventRing<TestRecord> ring(kTotal);  // no wrap: every record retained
  MetricsRegistry registry;
  Counter* recorded = registry.GetCounter("ring.recorded");
  Counter* dropped = registry.GetCounter("ring.dropped");
  ring.set_counters(recorded, dropped);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      PushMany(ring, static_cast<uint64_t>(t), kPerThread);
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(ring.recorded(), kTotal);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(recorded->value(), kTotal);
  EXPECT_EQ(dropped->value(), 0u);
  const std::vector<TestRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), kTotal);
  std::set<std::pair<uint64_t, uint64_t>> seen;
  std::vector<uint64_t> next(kThreads, 0);
  for (const TestRecord& r : records) {
    ASSERT_LT(r.writer, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(r.check, Check(r.writer, r.index));
    EXPECT_TRUE(seen.emplace(r.writer, r.index).second) << "duplicate";
    // One writer's records keep their program order in ticket order.
    EXPECT_EQ(r.index, next[r.writer]++);
  }
  EXPECT_EQ(seen.size(), kTotal);
}

TEST(EventRing, ConcurrentOverflowCountsExactAndMirrored) {
  constexpr size_t kCapacity = 256;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10000;
  constexpr uint64_t kTotal = kThreads * kPerThread;
  EventRing<TestRecord> ring(kCapacity);
  MetricsRegistry registry;
  Counter* recorded = registry.GetCounter("ring.recorded");
  Counter* dropped = registry.GetCounter("ring.dropped");
  ring.set_counters(recorded, dropped);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      PushMany(ring, static_cast<uint64_t>(t), kPerThread);
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(ring.recorded(), kTotal);
  EXPECT_EQ(ring.dropped(), kTotal - kCapacity);
  EXPECT_EQ(recorded->value(), kTotal);
  EXPECT_EQ(dropped->value(), kTotal - kCapacity);
  // Slots torn by aliased writers are skipped, never duplicated.
  EXPECT_LE(ring.Snapshot().size(), kCapacity);
}

TEST(EventRing, OverwritesAreMirroredOnlyWhileAttached) {
  EventRing<TestRecord> ring(8);
  MetricsRegistry registry;
  Counter* recorded = registry.GetCounter("ring.recorded");
  Counter* dropped = registry.GetCounter("ring.dropped");
  ring.set_counters(recorded, dropped);
  PushMany(ring, 0, 20);
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(recorded->value(), 20u);
  EXPECT_EQ(dropped->value(), 12u);

  ring.set_counters(nullptr, nullptr);  // detached: the ring still counts
  PushMany(ring, 1, 5);
  EXPECT_EQ(ring.recorded(), 25u);
  EXPECT_EQ(ring.dropped(), 17u);
  EXPECT_EQ(recorded->value(), 20u);
  EXPECT_EQ(dropped->value(), 12u);
}

TEST(EventRing, SnapshotIsOldestFirstBeforeAndAfterWrap) {
  EventRing<TestRecord> ring(5);
  PushMany(ring, 0, 3);
  std::vector<TestRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].index, i);
  }

  PushMany(ring, 1, 13);  // 16 pushes into 5 slots: wraps three times
  records = ring.Snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].writer, 1u);
    EXPECT_EQ(records[i].index, 8 + i);  // the newest five, oldest first
  }
}

TEST(EventRing, ZeroCapacityKeepsTheNewestRecord) {
  EventRing<TestRecord> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  PushMany(ring, 0, 3);
  const std::vector<TestRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].index, 2u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(EventRing, FreshRingIsEmptyAndPartialFillReadsExactlyThePushed) {
  constexpr size_t kCapacity = 4096;  // the flight recorder's ring size
  constexpr uint64_t kPushed = 37;
  for (int round = 0; round < 2; ++round) {
    // The second ring likely reuses the first one's freed (written) slots:
    // slot memory must still read as never written.
    EventRing<TestRecord> ring(kCapacity);
    EXPECT_TRUE(ring.Snapshot().empty());
    EXPECT_EQ(ring.recorded(), 0u);
    PushMany(ring, static_cast<uint64_t>(round), kPushed);
    const std::vector<TestRecord> records = ring.Snapshot();
    ASSERT_EQ(records.size(), kPushed);
    for (uint64_t i = 0; i < kPushed; ++i) {
      EXPECT_EQ(records[i].writer, static_cast<uint64_t>(round));
      EXPECT_EQ(records[i].index, i);
      EXPECT_EQ(records[i].check, Check(records[i].writer, i));
    }
    EXPECT_EQ(ring.dropped(), 0u);
    PushMany(ring, 9, kCapacity);  // fill every slot before the next round
  }
}

}  // namespace
}  // namespace desis::obs
