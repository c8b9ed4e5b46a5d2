#include "phases.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/engine.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "transport/threaded_transport.h"

namespace perfbench {
namespace {

constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();
/// Windows closed by batches due in the paced schedule's first 100 ms are
/// checked but not timed, so the threads settle into the open-loop rhythm
/// after the fast-forward (see RunPhase).
constexpr int64_t kPacedWarmupNs = 100'000'000;
/// The paced schedule keeps at least this share of the phase's time when
/// the fast-forward runs long.
constexpr double kMinPacedShare = 0.5;

/// The max-rate phase stops at the first round boundary after its time is
/// up, but every local must stop at the same round so the phase's window
/// set is well defined: each driver that sees the request proposes the
/// round it reached and all drivers continue to the largest proposal.
class StopGate {
 public:
  explicit StopGate(int drivers) : drivers_(drivers) {}

  void RequestStop() { stop_.store(true, std::memory_order_release); }
  bool stop_requested() const { return stop_.load(std::memory_order_acquire); }

  int64_t Agree(int64_t reached) {
    std::unique_lock<std::mutex> lock(mu_);
    target_ = std::max(target_, reached);
    if (++arrived_ == drivers_) all_arrived_.notify_all();
    all_arrived_.wait(lock, [this] { return arrived_ == drivers_; });
    return target_;
  }

 private:
  const int drivers_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable all_arrived_;
  int arrived_ = 0;        // guarded by mu_
  int64_t target_ = 0;     // guarded by mu_
};

/// The paced phase's drivers meet here after the fast-forward; the
/// coordinating thread drains the cluster, fixes the schedule and releases
/// them.
class FastForwardGate {
 public:
  explicit FastForwardGate(int drivers) : drivers_(drivers) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == drivers_) cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void WaitAll() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return arrived_ == drivers_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const int drivers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;        // guarded by mu_
  bool released_ = false;  // guarded by mu_
};

/// A deployed cluster; the registry outlives the cluster.
struct Deployment {
  std::unique_ptr<desis::obs::MetricsRegistry> registry;
  std::unique_ptr<desis::Cluster> cluster;
  TimedTransport* timed = nullptr;
  SetupTimes times;
};

Deployment Deploy(const Workload& w, bool threaded, bool decorate,
                  SpanLog* spans, desis::WindowSink sink) {
  Deployment d;
  d.registry = std::make_unique<desis::obs::MetricsRegistry>();
  const int64_t t0 = NowNs();
  d.cluster = std::make_unique<desis::Cluster>(
      desis::ClusterSystem::kDesis, desis::ClusterTopology{kNumLocals, 1});
  const int64_t t1 = NowNs();
  std::unique_ptr<desis::Transport> transport;
  if (threaded) {
    transport = std::make_unique<desis::ThreadedTransport>();
  } else if (decorate) {
    transport = std::make_unique<desis::InlineTransport>();
  }
  if (decorate) {
    auto timed = std::make_unique<TimedTransport>(std::move(transport), spans);
    d.timed = timed.get();
    transport = std::move(timed);
  }
  if (transport != nullptr) d.cluster->set_transport(std::move(transport));
  d.cluster->AttachObs(d.registry.get(), nullptr);
  d.cluster->set_sink(std::move(sink));
  const int64_t t2 = NowNs();
  Require(d.cluster->Configure(w.queries).ok(), w.name + ": configure failed");
  const int64_t t3 = NowNs();
  d.times.total_s = static_cast<double>(t3 - t0) * 1e-9;
  d.times.construct_s = static_cast<double>(t1 - t0) * 1e-9;
  d.times.configure_s = static_cast<double>(t3 - t2) * 1e-9;
  d.times.query_groups = d.cluster->num_query_groups();
  return d;
}

void DriveRound(desis::Cluster& cluster, const Workload& w, int local,
                int64_t r, Replay& input, SpanLog* spans) {
  Replay::Batch batch{};
  {
    ScopedSpan span(spans, Layer::kGen);
    batch = input.Round(r);
  }
  if (batch.count > 0) {
    ScopedSpan span(spans, Layer::kIngest);
    cluster.IngestAt(local, batch.events, batch.count);
  }
  ScopedSpan span(spans, Layer::kAdvance);
  cluster.AdvanceAt(local, (r + 1) * w.round);
}

/// Yields until `due_ns`. Sleeping instead adds the timer's and, on a
/// virtual machine, the host's wake-up delay to every batch: with drivers
/// that slept until 300 us before each due time, the median latency of the
/// same code spread two to six times as widely between runs.
void WaitUntil(int64_t due_ns) {
  while (NowNs() < due_ns) std::this_thread::yield();
}

NodeTotals ReadNodes(const desis::Cluster& cluster) {
  NodeTotals t;
  auto failures = [&t](const desis::NodeStats& s) {
    t.retransmits += s.retransmits;
    t.messages_dropped += s.messages_dropped;
  };
  for (int i = 0; i < kNumLocals; ++i) {
    const desis::NodeStats& s = cluster.local_stats(i);
    t.local_busy_ns = std::max<int64_t>(t.local_busy_ns, s.busy_ns);
    failures(s);
  }
  const desis::NodeStats& mid = cluster.intermediate_stats(0);
  t.intermediate_busy_ns = mid.busy_ns;
  t.intermediate_messages_received = mid.messages_received;
  t.intermediate_queue_hwm = mid.queue_hwm;
  failures(mid);
  const desis::NodeStats& root = cluster.root_stats();
  t.root_busy_ns = root.busy_ns;
  t.root_queue_hwm = root.queue_hwm;
  failures(root);
  return t;
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kMaxRate: return "max_rate";
    case Phase::kPaced: return "paced";
    case Phase::kSerial: return "serial";
  }
  return "?";
}

SetupTimes MeasureSetup(const Workload& w) {
  return Deploy(w, /*threaded=*/true, /*decorate=*/false, nullptr,
                [](const WindowResult&) {})
      .times;
}

PhaseResult RunPhase(const Workload& w, const Reference& ref,
                     std::vector<Replay>& inputs, const PhaseOptions& opt) {
  for (Replay& input : inputs) input.Rewind();
  PhaseResult res;
  res.phase = opt.phase;
  const bool paced = opt.phase == Phase::kPaced;
  PhaseChecker checker(ref, w.queries.size());

  // The paced phase first fast-forwards, closed loop, through the longest
  // window's length of event time, so every query fires windows at its
  // steady rate before anything is timed; latencies measured while the
  // windows still fill would drift with the point of the ramp a phase
  // ends at. The drivers then meet, the cluster is drained, and the
  // schedule replays event time at a fixed speed: round ff + k is due at
  // t0 + k * interval, where interval = mean events per round / rate.
  int64_t ff_rounds = 0;
  int64_t paced_rounds = 0;  // after the fast-forward
  int64_t warmup_rounds = 0;
  std::atomic<int64_t> t0{0};
  if (paced) {
    uint64_t per_period = 0;
    for (const Chunk& c : w.chunks) per_period += c.events.size();
    const double events_per_round = static_cast<double>(per_period) /
                                    static_cast<double>(w.rounds_per_period());
    res.round_interval_ns =
        static_cast<int64_t>(1e9 * events_per_round / w.paced_events_per_s);
    ff_rounds = (w.MaxLength() + w.round - 1) / w.round;
    warmup_rounds = kPacedWarmupNs / res.round_interval_ns;
  }
  const int64_t interval = res.round_interval_ns;

  // Runs on the root's delivery worker (threaded) or the driver (inline).
  // The fast-forward's windows fall before the warm-up, so t0 is read only
  // for windows of the schedule, after the drain that precedes setting it.
  auto sink = [&](const WindowResult& r) {
    checker.Observe(r);
    if (opt.collect != nullptr) opt.collect->push_back(r);
    if (paced) {
      const int64_t batch = (r.window_end - 1) / w.round - ff_rounds;
      if (batch >= warmup_rounds) {
        res.latency_ns.push_back(
            NowNs() - (t0.load(std::memory_order_relaxed) + batch * interval));
      }
    }
  };
  Deployment d = Deploy(w, opt.phase != Phase::kSerial, opt.decorate,
                        opt.spans, sink);
  desis::Cluster& cluster = *d.cluster;

  int64_t rounds = 0;
  int64_t start = 0;
  NodeTotals before_schedule;  // paced: the fast-forward's share of busy time
  if (opt.phase == Phase::kSerial) {
    start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
    ScopedSpan span(opt.spans, Layer::kPhase);
    for (; opt.fixed_rounds > 0 ? rounds < opt.fixed_rounds
                                : NowNs() < deadline;
         ++rounds) {
      for (int i = 0; i < kNumLocals; ++i) {
        DriveRound(cluster, w, i, rounds, inputs[static_cast<size_t>(i)],
                   opt.spans);
      }
    }
    res.driver_ns.push_back(NowNs() - start);
  } else {
    StopGate gate(kNumLocals);
    FastForwardGate ff_gate(kNumLocals);
    std::vector<int64_t> reached(kNumLocals, 0);
    std::vector<std::vector<int64_t>> lateness(kNumLocals);
    res.driver_ns.assign(kNumLocals, 0);
    auto drive = [&](int i) {
      int64_t begin = NowNs();
      Replay& input = inputs[static_cast<size_t>(i)];
      int64_t r = 0;
      if (paced) {
        for (; r < ff_rounds; ++r) {
          DriveRound(cluster, w, i, r, input, nullptr);
        }
        ff_gate.ArriveAndWait();
        begin = NowNs();
      }
      ScopedSpan span(opt.spans, Layer::kPhase);
      int64_t limit = paced ? ff_rounds + paced_rounds
                      : opt.fixed_rounds > 0 ? opt.fixed_rounds
                                             : kUnbounded;
      for (;; ++r) {
        if (limit == kUnbounded && gate.stop_requested()) limit = gate.Agree(r);
        if (r >= limit) break;
        if (paced) {
          const int64_t due =
              t0.load(std::memory_order_relaxed) + (r - ff_rounds) * interval;
          WaitUntil(due);
          lateness[static_cast<size_t>(i)].push_back(NowNs() - due);
        }
        DriveRound(cluster, w, i, r, input, opt.spans);
      }
      reached[static_cast<size_t>(i)] = r;
      res.driver_ns[static_cast<size_t>(i)] = NowNs() - begin;
    };
    start = NowNs();
    std::vector<std::thread> drivers;
    for (int i = 0; i < kNumLocals; ++i) drivers.emplace_back(drive, i);
    if (paced) {
      ff_gate.WaitAll();
      cluster.Drain();
      before_schedule = ReadNodes(cluster);
      const double left_s = std::max(
          opt.seconds - static_cast<double>(NowNs() - start) * 1e-9,
          opt.seconds * kMinPacedShare);
      paced_rounds = std::max(static_cast<int64_t>(left_s * 1e9 / interval),
                              opt.min_paced_rounds);
      res.latency_ns.reserve(ref.ExpectedUpTo((ff_rounds + paced_rounds) *
                                              w.round));
      for (auto& l : lateness) l.reserve(static_cast<size_t>(paced_rounds));
      // Every driver is running again by the first due time.
      start = NowNs() + 1'000'000;
      t0.store(start, std::memory_order_relaxed);
      ff_gate.Release();
    } else if (opt.fixed_rounds == 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<int64_t>(opt.seconds * 1e9)));
      gate.RequestStop();
    }
    for (std::thread& t : drivers) t.join();
    // Checked once the drivers are joined: they wait at the gate until
    // released.
    Require(!paced || paced_rounds > warmup_rounds,
            w.name + ": paced phase shorter than its warm-up");
    rounds = reached[0];
    for (int64_t r : reached) {
      Require(r == rounds, w.name + ": locals stopped at different rounds");
    }
    for (const auto& l : lateness) {
      res.lateness_ns.insert(res.lateness_ns.end(), l.begin(), l.end());
    }
  }
  const int64_t drain_start = NowNs();
  cluster.Drain();
  const int64_t end = NowNs();
  res.drain_ms = static_cast<double>(end - drain_start) * 1e-6;
  res.wall_s = static_cast<double>(end - start) * 1e-9;
  res.rounds = rounds - ff_rounds;
  res.events = w.EventsInRounds(rounds) - w.EventsInRounds(ff_rounds);
  res.check = checker.Finish(rounds * w.round);
  res.nodes = ReadNodes(cluster);
  res.nodes.local_busy_ns -= before_schedule.local_busy_ns;
  res.nodes.intermediate_busy_ns -= before_schedule.intermediate_busy_ns;
  res.nodes.root_busy_ns -= before_schedule.root_busy_ns;
  if (d.timed != nullptr) res.sends = d.timed->Collect();
  Require(res.check.emitted > 0,
          w.name + ": " + PhaseName(opt.phase) + " phase fired no windows");
  return res;
}

EngineReplay ReplayEngine(const Workload& w, double seconds) {
  desis::DesisEngine engine(desis::DeploymentMode::kDecentralized);
  engine.ConfigureForLocalNode();
  Require(engine.Configure(w.queries).ok(), w.name + ": engine configure failed");
  uint64_t shipped = 0;
  engine.SetSliceSink([&shipped](const desis::SliceRecord&) { ++shipped; });
  Replay input(w, 0);
  auto run_round = [&](int64_t r) {
    const Replay::Batch batch = input.Round(r);
    if (batch.count > 0) engine.IngestBatch(batch.events, batch.count);
    engine.AdvanceTo((r + 1) * w.round);
    return batch.count;
  };
  const int64_t rpp = w.rounds_per_period();
  for (int64_t r = 0; r < rpp; ++r) run_round(r);
  const desis::EngineStats& s = engine.stats();
  const auto events = static_cast<double>(w.chunks[0].events.size());
  EngineReplay out;
  out.selection_evals_per_event =
      Ratio(static_cast<double>(s.selection_evals), events, "engine events");
  out.operator_execs_per_event =
      static_cast<double>(s.operator_executions) / events;
  out.slices_per_event = static_cast<double>(s.slices_created) / events;
  Require(s.slices_created > 0 && shipped > 0,
          w.name + ": the engine replay created no slices");

  uint64_t timed_events = 0;
  const int64_t t0 = NowNs();
  const auto budget = static_cast<int64_t>(seconds * 1e9);
  int64_t elapsed = 0;
  for (int64_t r = rpp; elapsed < budget; ++r) {
    timed_events += run_round(r);
    elapsed = NowNs() - t0;
  }
  out.ns_per_event = Ratio(static_cast<double>(elapsed),
                           static_cast<double>(timed_events), "engine replay");
  return out;
}

CodecTimes TimeCodec(const std::vector<desis::Message>& sample,
                     double seconds) {
  Require(!sample.empty(), "codec: no messages captured");
  CodecTimes out;
  uint64_t bytes = 0;
  std::vector<std::vector<uint8_t>> frames;
  for (const desis::Message& m : sample) {
    frames.push_back(desis::EncodeFrame(m));
    bytes += frames.back().size();
    const desis::Message back = desis::DecodeFrame(frames.back());
    Require(back.type == m.type && back.group_id == m.group_id &&
                back.payload == m.payload,
            "codec: a captured message does not survive encode + decode");
  }
  const auto budget = static_cast<int64_t>(seconds * 0.5e9);
  uint64_t sink = 0;
  auto time_passes = [&](auto&& pass) {
    uint64_t passes = 0;
    const int64_t t0 = NowNs();
    int64_t elapsed = 0;
    while (elapsed < budget || passes == 0) {
      pass();
      ++passes;
      elapsed = NowNs() - t0;
    }
    return static_cast<double>(elapsed) /
           static_cast<double>(passes * bytes);
  };
  out.encode_ns_per_byte = time_passes([&] {
    for (const desis::Message& m : sample) sink += desis::EncodeFrame(m).size();
  });
  out.decode_ns_per_byte = time_passes([&] {
    for (const auto& f : frames) sink += desis::DecodeFrame(f).payload.size();
  });
  Require(sink > 0, "codec: nothing encoded");
  return out;
}

}  // namespace perfbench
