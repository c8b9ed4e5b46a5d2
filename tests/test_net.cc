#include <gtest/gtest.h>

#include "common/serde.h"
#include "net/disco_nodes.h"
#include "net/message.h"

namespace desis {
namespace {

TEST(Serde, PodRoundTrip) {
  ByteWriter out;
  out.WriteU8(7);
  out.WriteU32(123456);
  out.WriteU64(1ull << 40);
  out.WriteI64(-42);
  out.WriteDouble(3.25);
  out.WriteString("hello");
  out.WritePodVector(std::vector<double>{1.0, 2.5});

  ByteReader in(out.bytes());
  EXPECT_EQ(in.ReadU8(), 7);
  EXPECT_EQ(in.ReadU32(), 123456u);
  EXPECT_EQ(in.ReadU64(), 1ull << 40);
  EXPECT_EQ(in.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(in.ReadDouble(), 3.25);
  EXPECT_EQ(in.ReadString(), "hello");
  EXPECT_EQ(in.ReadPodVector<double>(), (std::vector<double>{1.0, 2.5}));
  EXPECT_TRUE(in.AtEnd());
}

TEST(Serde, EmptyPodVectorRoundTrips) {
  // An empty vector's data() may be null; the codec must not hand it to
  // memcpy (UB that UBSan reports) and must still frame the count.
  ByteWriter out;
  out.WritePodVector(std::vector<double>{});
  out.WriteU8(9);
  EXPECT_EQ(out.size(), 5u);
  ByteReader in(out.bytes());
  EXPECT_TRUE(in.ReadPodVector<double>().empty());
  EXPECT_EQ(in.ReadU8(), 9);
  EXPECT_TRUE(in.AtEnd());
}

TEST(Message, EventBatchIs24BytesPerEvent) {
  // The paper's centralized network overhead (~2.4 GB per 100M events,
  // Fig 11a) implies 24 bytes per event on the wire.
  std::vector<Event> events(1000);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i] = {static_cast<Timestamp>(i), static_cast<uint32_t>(i % 7),
                 static_cast<double>(i) * 0.5, 0};
  }
  auto payload = EncodeEventBatch(events);
  EXPECT_EQ(payload.size(), 4 + 24 * events.size());

  auto back = DecodeEventBatch(payload);
  ASSERT_EQ(back.size(), events.size());
  EXPECT_EQ(back.front(), events.front());
  EXPECT_EQ(back.back(), events.back());
}

TEST(Message, WatermarkRoundTrip) {
  EXPECT_EQ(DecodeWatermark(EncodeWatermark(123456789)), 123456789);
  EXPECT_EQ(DecodeWatermark(EncodeWatermark(kNoTimestamp)), kNoTimestamp);
}

TEST(Message, SlicePartialRoundTrip) {
  SlicePartialMsg msg;
  msg.slice_id = 42;
  msg.start = 1000;
  msg.end = 2000;
  msg.last_event_ts = 1999;
  msg.watermark = 2050;
  PartialAggregate lane0(MaskOf(OperatorKind::kSum) |
                         MaskOf(OperatorKind::kCount));
  lane0.Add(1.5);
  lane0.Add(2.5);
  PartialAggregate lane1(MaskOf(OperatorKind::kSum) |
                         MaskOf(OperatorKind::kCount));
  msg.lanes = {lane0, lane1};
  msg.lane_events = {2, 0};
  msg.lane_last_ts = {1999, kNoTimestamp};
  msg.eps = {{3, 500, 2000}};

  ByteWriter out;
  msg.SerializeTo(out);
  ByteReader in(out.bytes());
  SlicePartialMsg back = SlicePartialMsg::DeserializeFrom(in);
  EXPECT_TRUE(in.AtEnd());

  EXPECT_EQ(back.slice_id, 42u);
  EXPECT_EQ(back.start, 1000);
  EXPECT_EQ(back.end, 2000);
  EXPECT_EQ(back.last_event_ts, 1999);
  EXPECT_EQ(back.watermark, 2050);
  ASSERT_EQ(back.lanes.size(), 2u);
  EXPECT_DOUBLE_EQ(back.lanes[0].Finalize({AggregationFunction::kSum, 0}), 4.0);
  EXPECT_EQ(back.lane_events, (std::vector<uint64_t>{2, 0}));
  ASSERT_EQ(back.eps.size(), 1u);
  EXPECT_EQ(back.eps[0].spec_idx, 3u);
  EXPECT_EQ(back.eps[0].window_end, 2000);
}

TEST(Message, WireBytesAccountsHeader) {
  Message m{MessageType::kEventBatch, 5, std::vector<uint8_t>(100)};
  EXPECT_EQ(m.WireBytes(), kWireHeaderBytes + 100);
  EXPECT_EQ(m.WireBytes(), 109u);
}

TEST(Message, FrameCodecMatchesWireHeaderConstant) {
  static_assert(kWireHeaderBytes == 9, "wire header layout changed");
  Message m{MessageType::kSlicePartial, 7,
            std::vector<uint8_t>{1, 2, 3, 4, 5}};
  const std::vector<uint8_t> frame = EncodeFrame(m);
  // The serialized frame is exactly what the byte meters charge per message.
  EXPECT_EQ(frame.size(), m.WireBytes());
  EXPECT_EQ(frame.size(), kWireHeaderBytes + m.payload.size());
  const Message back = DecodeFrame(frame);
  EXPECT_EQ(back.type, m.type);
  EXPECT_EQ(back.group_id, m.group_id);
  EXPECT_EQ(back.payload, m.payload);
}

TEST(DiscoText, PartialLineRoundTrip) {
  PartialAggregate agg(MaskOf(OperatorKind::kSum) |
                       MaskOf(OperatorKind::kCount));
  agg.Add(10.25);
  agg.Add(20.5);
  const std::string line = disco::EncodePartialLine(7, 1000, 2000, 2, agg);
  EXPECT_EQ(line.front(), 'P');
  EXPECT_EQ(line.back(), '\n');

  std::vector<uint8_t> payload(line.begin(), line.end());
  std::vector<disco::ParsedPartial> parts;
  Timestamp wm = kNoTimestamp;
  disco::ParsePayload(payload, &parts, nullptr, &wm);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].qid, 7u);
  EXPECT_EQ(parts[0].ws, 1000);
  EXPECT_EQ(parts[0].we, 2000);
  EXPECT_EQ(parts[0].events, 2u);
  EXPECT_DOUBLE_EQ(parts[0].agg.Finalize({AggregationFunction::kSum, 0}),
                   30.75);
  EXPECT_DOUBLE_EQ(parts[0].agg.Finalize({AggregationFunction::kAverage, 0}),
                   15.375);
}

TEST(DiscoText, MixedPayloadParses) {
  std::string text;
  text += disco::EncodeEventLine({123, 4, 55.5, kWindowEnd});
  PartialAggregate agg(MaskOf(OperatorKind::kSum));
  agg.Add(1.0);
  text += disco::EncodePartialLine(1, 0, 100, 1, agg);
  text += disco::EncodeWatermarkLine(999);

  std::vector<uint8_t> payload(text.begin(), text.end());
  std::vector<disco::ParsedPartial> parts;
  std::vector<Event> events;
  Timestamp wm = kNoTimestamp;
  disco::ParsePayload(payload, &parts, &events, &wm);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts, 123);
  EXPECT_EQ(events[0].key, 4u);
  EXPECT_DOUBLE_EQ(events[0].value, 55.5);
  EXPECT_EQ(events[0].marker, static_cast<uint32_t>(kWindowEnd));
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(wm, 999);
}

TEST(DiscoText, StringsAreBiggerThanBinary) {
  // The reason Disco's network overhead exceeds the others' (Fig 11b).
  std::vector<Event> events;
  for (int i = 0; i < 100; ++i) {
    events.push_back({1'000'000'000 + i, 3, 123.456789, 0});
  }
  size_t text_bytes = 0;
  for (const Event& e : events) text_bytes += disco::EncodeEventLine(e).size();
  EXPECT_GT(text_bytes, EncodeEventBatch(events).size());
}

}  // namespace
}  // namespace desis
