#ifndef DESIS_NET_CLUSTER_H_
#define DESIS_NET_CLUSTER_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_iface.h"
#include "core/query.h"
#include "mem/memory_governor.h"
#include "net/node.h"
#include "obs/health_monitor.h"
#include "opt/group_index.h"

namespace desis {

class Transport;

/// Which system the simulated cluster runs (§6.1.1).
enum class ClusterSystem : uint8_t {
  kDesis = 0,    // decentralized, slice partials, cross-function sharing
  kDisco,        // decentralized, per-window partials, string wire format
  kScotty,       // centralized: raw events to the root, Scotty engine there
  kCeBuffer,     // centralized: raw events to the root, CeBuffer there
};

std::string ToString(ClusterSystem system);

/// Topology shape: `num_locals` leaf nodes attached round-robin to
/// `num_intermediates` intermediate nodes (0 = attach directly to the
/// root), intermediates attached to the single root (§2.4). With
/// `intermediate_layers` > 1, the intermediates form a chain of layers —
/// the "multiple hops between edge devices and the data center" the paper
/// studies (§6.4.1): locals attach to the lowest layer, each layer
/// forwards/merges into the one above, the top layer feeds the root.
struct ClusterTopology {
  int num_locals = 1;
  int num_intermediates = 1;
  int intermediate_layers = 1;
};

/// Cluster-wide engine knobs.
struct ClusterOptions {
  /// Runs the cost-based optimizer (src/opt/) over the analyzed query-
  /// groups at Configure: per-lane operator masks and factor-window
  /// rewriting (coarse windows assemble from finer tumbling feeders'
  /// composites). Off by default — the static plan is the seed baseline.
  /// Desis system only; ignored by the baselines.
  bool optimize_plans = false;
  /// Crash recovery (docs/FAULT_TOLERANCE.md): per-uplink resend buffers,
  /// provenance-tagged messages, stable-watermark acks, and the
  /// CrashIntermediate / DeclareLocalDead / ReattachLocal operations. Off
  /// by default — wire traffic stays byte-identical to the seed. Desis
  /// system only; Configure rejects it for the baselines.
  RecoveryOptions recovery;
  /// Per-local-node memory budget (src/mem/): each Desis local's slice
  /// state is byte-accounted against `memory.budget_bytes` and oversized
  /// sort buffers spill to disk runs (each edge device governs its own
  /// RAM, so the budget is per node, not cluster-wide). budget_bytes == 0
  /// keeps the ungoverned seed path byte-identical. Desis system only;
  /// Configure rejects a non-zero budget for the baselines.
  mem::MemoryOptions memory;
  /// Live health watchdog (src/obs/health_monitor.h): an opt-in background
  /// sampler thread that tracks per-node heartbeats and raises typed
  /// anomalies (health.anomalies{kind,node}). With `auto_recover` it
  /// detects silent intermediates from their frozen heartbeats and invokes
  /// RecoverSilentIntermediates without any driver involvement. Off by
  /// default.
  obs::WatchdogOptions watchdog;
};

/// An in-process decentralized cluster: builds the topology, deploys the
/// chosen system on it, counts every byte crossing a link, and meters
/// per-node CPU busy time (see DESIGN.md for the pipeline throughput model
/// derived from these meters). Inter-node delivery is pluggable
/// (src/transport/): synchronous-inline by default (deterministic, the
/// seed behaviour), or threaded / simulated-lossy via set_transport().
///
/// Threading contract under a concurrent transport: each local index may
/// be driven by at most one thread at a time (the usual one-driver-thread-
/// per-edge-node deployment); membership and query operations may run
/// concurrently with ingestion from any thread. Read stats / StatsReport
/// only after Drain().
class Cluster {
 public:
  Cluster(ClusterSystem system, ClusterTopology topology,
          ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Replaces the delivery channel. Call before Configure(). The cluster
  /// takes ownership and shuts the transport down on destruction.
  void set_transport(std::unique_ptr<Transport> transport);
  Transport* transport() const { return transport_; }

  /// Deploys the query set on all nodes. Call once before ingesting.
  Status Configure(const std::vector<Query>& queries);

  /// Final results (root emission) callback. Under a threaded transport the
  /// sink runs on the root's delivery worker.
  void set_sink(WindowSink sink);

  /// Feeds events (non-decreasing ts per local) into local `local_idx`.
  /// The whole span is handed to the node's batched ingest: Desis locals
  /// amortize punctuation checks and operator folds over in-slice runs,
  /// forwarding locals bulk-append to their wire batches.
  void IngestAt(int local_idx, const Event* events, size_t count);

  /// Advances every active local's watermark (propagates to the root).
  void Advance(Timestamp watermark);

  /// Advances a single local's watermark (per-node drivers, §3.2).
  void AdvanceAt(int local_idx, Timestamp watermark);

  /// Blocks until every in-flight message has been delivered and handled
  /// (transport Flush). No-op with the default inline transport.
  void Drain();

  // --- Runtime membership and query management (§3.2, Desis system only) --

  /// Joins a new local node to the cluster; returns its local index. The
  /// node starts windowing with its first event.
  Result<int> AddLocalNode();

  /// Removes a local node from the membership; upstream nodes stop waiting
  /// for its watermarks immediately.
  Status RemoveLocalNode(int local_idx);

  /// Removes every local whose last advanced watermark is below
  /// `min_watermark` (the connection-timeout sweep); returns the removed
  /// local indices so callers can inform users.
  std::vector<int> RemoveSilentLocals(Timestamp min_watermark);

  // --- Crash recovery & fault injection (docs/FAULT_TOLERANCE.md) --------
  //
  // All operations require `ClusterOptions::recovery.enabled` and the Desis
  // system. They must not race ingestion on the affected locals: call them
  // from the driver thread between ingest rounds (the chaos harness does).

  /// Crashes intermediate `idx` (flat index, layers concatenated top to
  /// bottom): severs its links, force-flushes held entries on its ancestor
  /// chain, re-elects a parent for every orphaned child (surviving
  /// same-layer intermediate with the fewest active children, ties to the
  /// lowest node id, else the dead node's parent), replays unacked data
  /// trimmed against the root's provenance frontiers, and only then
  /// detaches the dead node upstream — its frozen pinned watermark holds
  /// the root back until the replay has landed, so zero windows are lost.
  Status CrashIntermediate(int intermediate_idx);

  /// Declares local `idx` unreachable: its uplink goes dark (when the
  /// transport models partitions) but the membership is kept, so the root
  /// pins at the local's last advertised watermark instead of consuming
  /// past its buffered data. Ingest may continue — sends accumulate in the
  /// resend buffer until ReattachLocal replays them.
  Status DeclareLocalDead(int local_idx);

  /// Re-elects a parent for a dead-declared local, replays its unacked
  /// data (frontier-trimmed), re-advertises its watermark, and detaches
  /// the old uplink slot last.
  Status ReattachLocal(int local_idx);

  /// The silent-node timeout sweep applied one layer up: crashes every
  /// alive intermediate whose advertised watermark is below
  /// `min_watermark`. Returns the crashed intermediate indices.
  std::vector<int> RecoverSilentIntermediates(Timestamp min_watermark);

  /// Transport-level failure injection only: severs the intermediate's
  /// links without informing the cluster — the realistic silent crash that
  /// RecoverSilentIntermediates later detects. No-op on transports without
  /// Disconnect support (inline/threaded).
  Status InjectIntermediateFailure(int intermediate_idx);

  /// Takes the uplink of local `idx` down or back up. Unsupported on
  /// transports that cannot model partitions.
  Status PartitionLocalUplink(int local_idx, bool down);

  bool intermediate_dead(int idx) const {
    std::shared_lock<std::shared_mutex> lock(membership_mu_);
    return intermediate_dead_[static_cast<size_t>(idx)];
  }
  bool local_orphaned(int idx) const {
    std::shared_lock<std::shared_mutex> lock(membership_mu_);
    return local_orphaned_[static_cast<size_t>(idx)];
  }

  /// Recovery counters (deterministic under SimLink virtual time; also in
  /// the StatsReport() "recovery" section): the recovery.reattaches series
  /// and the sum of the per-node recovery.replayed_slices series. 0 without
  /// recovery.
  uint64_t recovery_reattaches() const;
  uint64_t recovery_replayed() const;

  /// Registers a new query on every node at runtime. Incremental group
  /// maintenance (§3.2 at scale): the query joins a compatible existing
  /// group when one exists — landing in the exact group a cold start would
  /// have chosen (opt::GroupIndex replays the analyzer's probe order) — and
  /// only the affected group is touched on each node; every other group's
  /// slices and results are byte-identical to an undisturbed run. Cost is
  /// O(affected group), independent of the resident query count.
  Status AddQuery(const Query& query);

  /// Stops a running query's result emission; when its group loses the
  /// last member the group is torn down on every node. O(affected group).
  Status RemoveQuery(QueryId id);

  /// Live query-group count (Desis system; 0 before Configure).
  size_t num_query_groups() const {
    std::shared_lock<std::shared_mutex> lock(membership_mu_);
    return group_index_.num_groups();
  }

  /// Snapshot of the live groups, id-ordered (tests/inspection).
  std::vector<QueryGroup> QueryGroupsSnapshot() const {
    std::shared_lock<std::shared_mutex> lock(membership_mu_);
    return group_index_.Snapshot();
  }

  bool local_active(int local_idx) const {
    std::shared_lock<std::shared_mutex> lock(membership_mu_);
    return !local_removed_[static_cast<size_t>(local_idx)];
  }

  ClusterSystem system() const { return system_; }
  const ClusterTopology& topology() const { return topology_; }
  const ClusterOptions& options() const { return options_; }
  /// Windows emitted at the root (the cluster.results series; 0 before
  /// Configure).
  uint64_t results() const;

  int num_locals() const { return topology_.num_locals; }
  int num_intermediates() const { return topology_.num_intermediates; }

  /// The per-local memory governor when ClusterOptions::memory is active
  /// on a Desis cluster; nullptr otherwise. Budget/peak/spill counters for
  /// the bounded-memory benches and tests.
  const mem::MemoryGovernor* LocalMemoryGovernor(int local_idx) const;

  /// Per-node counter snapshots (see NodeStats).
  NodeStats local_stats(int i) const { return locals_raw_[i]->net_stats(); }
  NodeStats intermediate_stats(int i) const {
    return intermediates_raw_[i]->net_stats();
  }
  NodeStats root_stats() const { return root_raw_->net_stats(); }

  /// Aggregate network bytes sent by all nodes of a role (the paper's
  /// per-role network overhead, Fig 11).
  uint64_t BytesSentByRole(NodeRole role) const;

  /// Maximum busy time over the nodes of a role, and over all nodes — the
  /// pipeline bottleneck (wall time if nodes ran concurrently).
  int64_t MaxBusyNsByRole(NodeRole role) const;
  int64_t MaxBusyNs() const;

  /// One JSON object aggregating per-role network/CPU/queue counters plus
  /// run metadata (system, topology, transport, results) — the machine-
  /// readable form of the per-role stats the benches used to recompute by
  /// hand. With a caller's registry or tracer attached, gains an "obs"
  /// section (registry snapshot + span counters — safe to poll mid-run;
  /// full span payloads are only exported by the caller after Drain()).
  /// Call after Drain() for exact totals.
  std::string StatsReport() const;

  /// Attaches observability sinks to the cluster and every node (current
  /// and future): cluster and per-node series land in `registry`,
  /// slice-lifecycle spans in `tracer` (either may be null). A null
  /// `registry` selects the cluster's own registry, which stores every
  /// node and cluster fact until a caller's registry is attached. Series
  /// are registered by Configure, or right away when the cluster is
  /// already configured; counts are not carried from one registry to the
  /// next. Window emission at the root records a kWindowEmitted span. Call
  /// any time before traffic; both must outlive the cluster — with a
  /// watchdog thread on, health gauges are published into `registry`
  /// until the destructor joins it.
  void AttachObs(obs::MetricsRegistry* registry, obs::SliceTracer* tracer);

  /// Publishes every node's derived watermark lag (health.watermark_lag_us,
  /// see docs/METRICS.md) into the registry. Cheap (relaxed reads + gauge
  /// stores, no locks taken on node state) and safe to call mid-run from
  /// any thread. Runs automatically every kHealthSamplePeriod watermark
  /// advances, at Drain(), and at StatsReport(); call directly for a
  /// finer-grained monitor.
  void SampleHealth() const;

  /// Watermark advances between automatic SampleHealth() runs.
  static constexpr uint64_t kHealthSamplePeriod = 64;

  // --- Flight recorder & health watchdog (src/obs/) ----------------------

  /// Writes every node's flight-recorder dump (one JSON document per node,
  /// "flight-<node_id>.json") into `dir`; `reason` is stamped into each
  /// document. Returns the written paths. Safe from any thread, including
  /// failure paths that already hold cluster locks — it only touches the
  /// recorder rings, never the membership. Fires automatically (into
  /// $DESIS_FLIGHT_DUMP_DIR, default ".") on a flight failure notification:
  /// chaos-harness violations, RootAssembler invariant breaks, and
  /// silent_node watchdog anomalies.
  std::vector<std::string> DumpFlightRecorders(const std::string& dir,
                                               const std::string& reason) const;

  /// Watchdog counters (0 when the watchdog is disabled).
  uint64_t watchdog_samples() const;
  uint64_t watchdog_anomalies() const;
  uint64_t watchdog_auto_recoveries() const;
  bool watchdog_running() const;
  /// One synchronous watchdog sampling pass on the caller's thread
  /// (deterministic tests; no-op when the watchdog is disabled).
  void TickWatchdogForTest();

 private:
  Node* ParentForLocal(size_t ordinal) const;
  Status RemoveLocalNodeLocked(int local_idx);
  /// Resolves the cluster-level series handles in obs_registry_ and points
  /// the tracer's drop counter at a caller's registry.
  void BindObs();
  void WireNode(Node* node);

  // Crash-recovery internals (membership_mu_ held exclusively).
  Status CrashIntermediateLocked(int intermediate_idx);
  Status CheckRecoveryOp() const;
  /// Force-flushes held entries at every intermediate on the parent chain
  /// starting at `from` (inclusive), bottom-up, flushing the transport
  /// between layers so the root's frontiers become authoritative.
  void ForceFlushChain(Node* from);
  Node::ReplayFrontiers SnapshotFrontiers();
  /// Surviving same-layer intermediate with the fewest active children
  /// (ties: lowest node id); falls back to the nearest alive ancestor.
  Node* ElectParentInLayer(size_t layer, Node* dead);
  /// Attaches `orphan` to `new_parent`, replays its unacked data trimmed by
  /// `frontiers`, re-advertises its watermark, and records the obs trail.
  void ReattachOrphan(Node* orphan, Node* new_parent,
                      const Node::ReplayFrontiers& frontiers);
  bool IsDeadIntermediate(const Node* node) const;
  int64_t RecoveryNowUs() const;
  void FinishRecoveryOp(int64_t t0_us);

  // Watchdog internals.
  /// Lock-free snapshot of every node's health cells for the monitor's
  /// detectors (membership_mu_ shared; relaxed reads only).
  std::vector<obs::NodeProbe> ProbeHealth() const;
  /// Builds hooks, starts the sampler thread, and registers the process
  /// failure hook that auto-dumps the recorders. Called from Configure
  /// when options_.watchdog.enabled.
  void StartWatchdog();
  /// Watchdog-thread anomaly sink: bumps health.anomalies{kind,node},
  /// records a kAnomaly event on the suspect's ring, and — for
  /// silent_node — notifies the flight failure hook (auto-dump).
  void OnWatchdogAnomaly(obs::AnomalyKind kind, uint32_t node_id);

  ClusterSystem system_;
  ClusterTopology topology_;
  ClusterOptions options_;
  /// The store of every node and cluster fact while no caller's registry
  /// is attached. Declared before every member that writes into it
  /// (transport, nodes, recorders, watchdog), so it is destroyed after
  /// them.
  obs::MetricsRegistry owned_registry_;
  /// Where the series live: the caller's registry, else owned_registry_.
  obs::MetricsRegistry* obs_registry_ = &owned_registry_;
  obs::SliceTracer* obs_tracer_ = nullptr;
  Transport* transport_;
  std::unique_ptr<Transport> owned_transport_;
  /// Guards the membership vectors below (exclusive for membership/query
  /// ops, shared for per-event driver entry points).
  mutable std::shared_mutex membership_mu_;
  /// One lock per local index: serializes everything that executes *on*
  /// that leaf node (ingest, advance, runtime query deployment).
  std::vector<std::unique_ptr<std::mutex>> local_mu_;
  std::vector<std::unique_ptr<Node>> nodes_;  // owns everything
  std::vector<LocalIngest*> locals_;
  std::vector<Node*> locals_raw_;
  std::vector<bool> local_removed_;
  std::vector<Timestamp> local_last_advance_;
  std::vector<Node*> intermediates_raw_;
  std::vector<bool> intermediate_dead_;
  std::vector<bool> local_orphaned_;
  Node* root_raw_ = nullptr;
  WindowSink sink_;
  /// AdvanceAt() calls since the last automatic health sample.
  obs::RelaxedU64 health_sample_ticks_;
  bool configured_ = false;
  // Cluster-level series handles, set by BindObs.
  obs::Counter* results_counter_ = nullptr;   // cluster.results
  obs::Histogram* ingest_batch_hist_ = nullptr;  // cluster.ingest_batch_ns
  // Desis runtime state (for AddLocalNode / AddQuery).
  std::vector<QueryGroup> desis_groups_;
  /// Incrementally maintained group membership (source of truth after
  /// Configure); guarded by membership_mu_.
  opt::GroupIndex group_index_{DeploymentMode::kDecentralized,
                               SharingPolicy::kCrossFunction};
  obs::Histogram* churn_add_hist_ = nullptr;     // opt.group_churn_ns{op=add}
  obs::Histogram* churn_remove_hist_ = nullptr;  // opt.group_churn_ns{op=remove}
  // Crash recovery series (registered only with recovery enabled).
  obs::Counter* reattach_counter_ = nullptr;       // recovery.reattaches
  obs::Histogram* reattach_latency_hist_ = nullptr;  // recovery.reattach_latency_us
  uint32_t next_node_id_ = 0;
  uint32_t next_group_id_ = 0;
  /// Per-node flight recorders, created at WireNode and owned here (nodes
  /// hold raw pointers). flights_mu_ is a dedicated mutex — NOT
  /// membership_mu_ — so DumpFlightRecorders stays callable from failure
  /// paths that already hold the membership lock. flights_[i] pairs with
  /// the node it was wired to; entries are append-only.
  mutable std::mutex flights_mu_;
  std::vector<std::pair<const Node*, std::unique_ptr<obs::FlightRecorder>>>
      flights_;
  std::unique_ptr<obs::HealthMonitor> monitor_;
};

}  // namespace desis

#endif  // DESIS_NET_CLUSTER_H_
