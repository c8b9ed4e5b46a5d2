#ifndef DESIS_NET_MESSAGE_H_
#define DESIS_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/serde.h"
#include "core/slicer.h"

namespace desis {

/// Wire message kinds exchanged between nodes.
enum class MessageType : uint8_t {
  /// Batched raw events (centralized forwarding; root-only query-groups).
  kEventBatch = 0,
  /// One Desis slice partial: operator states per lane, tagged with the
  /// slice id and time range (§5.1).
  kSlicePartial,
  /// Event-time watermark heartbeat.
  kWatermark,
  /// ASCII payload (the Disco baseline serializes events and window
  /// partials as strings, §6.4.1).
  kText,
  /// Cumulative stable-watermark acknowledgement flowing *downstream*
  /// (parent -> child): "the root has consumed everything up to W". Senders
  /// evict resend-buffer entries whose data ends at or before W. Only
  /// emitted when crash recovery is enabled (docs/FAULT_TOLERANCE.md).
  kAck,
};

/// Wire-frame header: 1B type + 4B group id + 4B payload-length prefix.
/// Single source of truth for WireBytes() and the frame codec below.
inline constexpr size_t kWireHeaderBytes =
    sizeof(uint8_t) + sizeof(uint32_t) + sizeof(uint32_t);
static_assert(kWireHeaderBytes == 9, "wire header layout changed");

/// Replay provenance: one (origin node, unit) contribution carried by a
/// data message under crash recovery. `unit` is the origin's monotone slice
/// id (kSlicePartial) or forward-batch chunk id (kEventBatch); intermediates
/// concatenate the provenance of everything they merge, so the root can
/// track a per-(group, origin) frontier of applied units and reattaching
/// nodes can trim their replay to exactly the not-yet-applied suffix.
struct ProvenanceEntry {
  uint32_t origin = 0;
  uint64_t unit = 0;
};

/// Per-entry wire cost of provenance (4B origin + 8B unit), plus a 2B count
/// prefix on frames that carry any.
inline constexpr size_t kProvenanceEntryBytes =
    sizeof(uint32_t) + sizeof(uint64_t);

/// A serialized message. `payload` is the body; WireBytes() is the size
/// accounted by channels as network overhead. `origins` is empty unless
/// crash recovery is enabled, so default runs stay byte-identical.
struct Message {
  MessageType type = MessageType::kEventBatch;
  uint32_t group_id = 0;
  std::vector<uint8_t> payload;
  std::vector<ProvenanceEntry> origins = {};

  /// Bytes on the wire: header + payload (+ provenance when present).
  size_t WireBytes() const {
    return kWireHeaderBytes + payload.size() +
           (origins.empty()
                ? 0
                : sizeof(uint16_t) + origins.size() * kProvenanceEntryBytes);
  }
};

/// Serializes a full frame (header + payload) / parses it back. Channels
/// that put real bytes on a wire use this; WireBytes() must always equal
/// EncodeFrame().size().
std::vector<uint8_t> EncodeFrame(const Message& message);
Message DecodeFrame(const std::vector<uint8_t>& frame);

/// Payload of kSlicePartial.
struct SlicePartialMsg {
  uint64_t slice_id = 0;
  Timestamp start = 0;
  Timestamp end = 0;
  Timestamp last_event_ts = kNoTimestamp;
  /// Sender's event-time watermark when the slice was shipped.
  Timestamp watermark = kNoTimestamp;
  std::vector<PartialAggregate> lanes;
  std::vector<uint64_t> lane_events;
  std::vector<Timestamp> lane_last_ts;
  std::vector<EpInfo> eps;

  static SlicePartialMsg FromRecord(const SliceRecord& rec,
                                    Timestamp watermark);
  /// Inverse of FromRecord (the shipped watermark is transport metadata and
  /// is dropped): the root hands plain SliceRecords to the core-side
  /// RootAssembler. Rvalue-qualified — moves the lane payload out.
  SliceRecord ToRecord() && {
    SliceRecord rec;
    rec.id = slice_id;
    rec.start = start;
    rec.end = end;
    rec.last_event_ts = last_event_ts;
    rec.lanes = std::move(lanes);
    rec.lane_events = std::move(lane_events);
    rec.lane_last_ts = std::move(lane_last_ts);
    rec.eps = std::move(eps);
    return rec;
  }
  void SerializeTo(ByteWriter& out) const;
  static SlicePartialMsg DeserializeFrom(ByteReader& in);
};

/// Encodes a batch of raw events (24 bytes per event on the wire).
std::vector<uint8_t> EncodeEventBatch(const std::vector<Event>& events);
std::vector<Event> DecodeEventBatch(const std::vector<uint8_t>& payload);

/// Encodes a watermark payload.
std::vector<uint8_t> EncodeWatermark(Timestamp watermark);
Timestamp DecodeWatermark(const std::vector<uint8_t>& payload);

}  // namespace desis

#endif  // DESIS_NET_MESSAGE_H_
