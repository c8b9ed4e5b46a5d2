#ifndef DESIS_NET_DISCO_NODES_H_
#define DESIS_NET_DISCO_NODES_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/query_analyzer.h"
#include "core/slicer.h"
#include "core/stats.h"
#include "net/node.h"

namespace desis {

/// Disco baseline (Benson et al., EDBT'20; §6.1.1): decentralized window
/// aggregation using Scotty on edge devices. Differences to Desis that this
/// reproduction models faithfully:
///  * sharing only within the same aggregation function (+ measure),
///  * partial results shipped **per window**, not per slice — overlapping
///    windows re-send their shared overlap,
///  * intermediate/root nodes merge per window without slicing,
///  * all inter-node traffic is serialized as ASCII strings (Fig 11b),
///  * non-decomposable functions and count measures forward raw events.
namespace disco {

/// Text wire codecs (Disco "uses strings to send events and messages").
std::string EncodePartialLine(QueryId qid, Timestamp ws, Timestamp we,
                              uint64_t events, const PartialAggregate& agg);
std::string EncodeEventLine(const Event& e);
std::string EncodeWatermarkLine(Timestamp wm);

struct ParsedPartial {
  QueryId qid = 0;
  Timestamp ws = 0;
  Timestamp we = 0;
  uint64_t events = 0;
  PartialAggregate agg;
};

/// Parses one text payload; appends to the out-params per line kind.
void ParsePayload(const std::vector<uint8_t>& payload,
                  std::vector<ParsedPartial>* partials,
                  std::vector<Event>* events, Timestamp* watermark);

}  // namespace disco

class DiscoLocalNode : public Node, public LocalIngest {
 public:
  DiscoLocalNode(uint32_t id, const std::vector<Query>& queries,
                 size_t batch_size = 512);

  void IngestBatch(const Event* events, size_t count) override;
  void Advance(Timestamp watermark) override;
  const EngineStats& engine_stats() const { return stats_; }

 protected:
  void HandleMessage(const Message& message, int child_index) override;

 private:
  void IngestOne(const Event& event);
  void FlushText();

  EngineStats stats_;
  std::vector<std::unique_ptr<StreamSlicer>> slicers_;
  std::vector<Query> forward_queries_;  // non-decomposable / count-based
  std::string pending_text_;
  size_t batch_size_;
  size_t pending_lines_ = 0;
};

class DiscoIntermediateNode : public Node {
 public:
  explicit DiscoIntermediateNode(uint32_t id)
      : Node(id, NodeRole::kIntermediate) {}

  const EngineStats& engine_stats() const { return stats_; }

 protected:
  void HandleMessage(const Message& message, int child_index) override;

 private:
  Timestamp MinChildWatermark() const;
  void FlushUpTo(Timestamp watermark);
  void SendText(std::string text);

  EngineStats stats_;
  // (qid, ws, we) -> merged partial + reports.
  std::map<std::tuple<QueryId, Timestamp, Timestamp>,
           std::pair<disco::ParsedPartial, int>>
      partials_;
  std::vector<Timestamp> child_wms_;
  Timestamp sent_wm_ = kNoTimestamp;
};

class DiscoRootNode : public Node {
 public:
  DiscoRootNode(uint32_t id, const std::vector<Query>& queries);

  void set_sink(WindowSink sink) { sink_ = std::move(sink); }
  const EngineStats& engine_stats() const { return stats_; }

 protected:
  void HandleMessage(const Message& message, int child_index) override;

 private:
  Timestamp MinChildWatermark() const;
  void AdvanceAll(Timestamp watermark);
  void EmitResult(const WindowResult& result);

  EngineStats stats_;
  WindowSink sink_;
  std::map<QueryId, AggregationSpec> pushdown_specs_;
  std::map<std::tuple<QueryId, Timestamp, Timestamp>,
           std::pair<disco::ParsedPartial, int>>
      partials_;
  // Root-evaluated queries (non-decomposable / count-based) run through a
  // same-function-sharing slicing engine fed by forwarded raw events.
  std::vector<std::unique_ptr<StreamSlicer>> root_slicers_;
  std::vector<Event> pending_events_;
  std::vector<Timestamp> child_wms_;
  Timestamp advanced_wm_ = kNoTimestamp;
};

}  // namespace desis

#endif  // DESIS_NET_DISCO_NODES_H_
