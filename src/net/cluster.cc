#include "net/cluster.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>

#include "baselines/ce_buffer.h"
#include "baselines/de_sw.h"
#include "net/desis_nodes.h"
#include "net/disco_nodes.h"
#include "net/forward_nodes.h"
#include "opt/factor_planner.h"
#include "transport/transport.h"

namespace desis {

std::string ToString(ClusterSystem system) {
  switch (system) {
    case ClusterSystem::kDesis: return "Desis";
    case ClusterSystem::kDisco: return "Disco";
    case ClusterSystem::kScotty: return "Scotty";
    case ClusterSystem::kCeBuffer: return "CeBuffer";
  }
  return "unknown";
}

Cluster::Cluster(ClusterSystem system, ClusterTopology topology,
                 ClusterOptions options)
    : system_(system),
      topology_(topology),
      options_(options),
      transport_(&DefaultInlineTransport()) {}

Cluster::~Cluster() {
  // Join the watchdog first: its hooks reach into membership and transport
  // state that teardown below dismantles.
  if (monitor_ != nullptr) monitor_->Stop();
  // Drop the process failure hook — it captures `this`. Best-effort when
  // several clusters coexist (last Configure owns the slot; see
  // StartWatchdog).
  obs::SetFlightFailureHook(nullptr);
  // Stop delivery workers while the nodes they drive are still alive.
  transport_->Shutdown();
}

void Cluster::set_transport(std::unique_ptr<Transport> transport) {
  owned_transport_ = std::move(transport);
  transport_ = owned_transport_ ? owned_transport_.get()
                                : &DefaultInlineTransport();
}

void Cluster::WireNode(Node* node) {
  // Handles first: the transport may start the node's delivery worker.
  node->AttachObs(obs_registry_, obs_tracer_);
  node->set_transport(transport_);
  transport_->AddNode(node);
  // Every node gets a black-box flight recorder, owned here so dumps
  // survive whatever state the node is in when a failure fires. AttachObs
  // ran first, so the recorder's counters register with the node's id/role
  // labels.
  auto flight = std::make_unique<obs::FlightRecorder>();
  node->AttachFlight(flight.get());
  std::lock_guard<std::mutex> lock(flights_mu_);
  flights_.emplace_back(node, std::move(flight));
}

void Cluster::AttachObs(obs::MetricsRegistry* registry,
                        obs::SliceTracer* tracer) {
  obs_registry_ = registry != nullptr ? registry : &owned_registry_;
  obs_tracer_ = tracer;
  if (!configured_) return;  // Configure registers the series
  BindObs();
  for (const auto& node : nodes_) {
    node->AttachObs(obs_registry_, obs_tracer_);
    // Re-attach the flight recorder so its counters move too.
    node->AttachFlight(node->flight());
  }
}

void Cluster::BindObs() {
  const obs::Labels labels = {{"system", ToString(system_)}};
  results_counter_ =
      obs_registry_->GetCounter("cluster.results", labels, "windows");
  ingest_batch_hist_ =
      obs_registry_->GetHistogram("cluster.ingest_batch_ns", labels, "ns");
  churn_add_hist_ =
      obs_registry_->GetHistogram("opt.group_churn_ns", {{"op", "add"}}, "ns");
  churn_remove_hist_ = obs_registry_->GetHistogram("opt.group_churn_ns",
                                                   {{"op", "remove"}}, "ns");
  if (options_.recovery.enabled) {
    reattach_counter_ =
        obs_registry_->GetCounter("recovery.reattaches", labels, "reattaches");
    reattach_latency_hist_ = obs_registry_->GetHistogram(
        "recovery.reattach_latency_us", labels, "us");
  }
  if (obs_tracer_ != nullptr) {
    // Ring overwrites surface as a counter so span loss is visible in every
    // export, not only to callers polling the tracer. The tracer may
    // outlive the cluster, so only a caller's registry backs it.
    obs_tracer_->set_drop_counter(
        obs_registry_ != &owned_registry_
            ? obs_registry_->GetCounter("trace.dropped_spans", {}, "spans")
            : nullptr);
  }
}

uint64_t Cluster::results() const {
  return configured_ ? results_counter_->value() : 0;
}

uint64_t Cluster::recovery_reattaches() const {
  return configured_ && options_.recovery.enabled ? reattach_counter_->value()
                                                  : 0;
}

uint64_t Cluster::recovery_replayed() const {
  if (!options_.recovery.enabled) return 0;
  uint64_t replayed = 0;
  for (const auto& node : nodes_) replayed += node->replayed_slices();
  return replayed;
}

void Cluster::SampleHealth() const {
  std::shared_lock<std::shared_mutex> lock(membership_mu_);
  for (const auto& node : nodes_) node->PublishHealth();
}

void Cluster::set_sink(WindowSink sink) { sink_ = std::move(sink); }

Status Cluster::Configure(const std::vector<Query>& queries) {
  if (configured_) return Status::Internal("cluster already configured");
  if (topology_.num_locals < 1) {
    return Status::InvalidArgument("need at least one local node");
  }
  if (topology_.intermediate_layers < 1) {
    return Status::InvalidArgument("need at least one intermediate layer");
  }
  if (options_.recovery.enabled && system_ != ClusterSystem::kDesis) {
    return Status::Unsupported("crash recovery requires the Desis system");
  }
  if (options_.memory.budget_bytes > 0 && system_ != ClusterSystem::kDesis) {
    return Status::Unsupported("memory budgeting requires the Desis system");
  }
  for (const Query& q : queries) {
    if (auto s = q.Validate(); !s.ok()) return s;
  }

  BindObs();
  uint32_t next_id = 0;
  // Runs on the root's delivery worker under a threaded transport; the obs
  // sinks are lock-free so recording from there is safe.
  auto sink = [this](const WindowResult& r) {
    results_counter_->Add();
    if (obs_tracer_ != nullptr) {
      obs_tracer_->Record(obs::SlicePhase::kWindowEmitted, /*slice_id=*/0,
                          /*group_id=*/0, r.query_id,
                          root_raw_ != nullptr ? root_raw_->id() : 0,
                          obs::kSpanRoleRoot, r.window_end);
    }
    if (sink_) sink_(r);
  };

  // Per-system node factories; the topology wiring below is shared.
  std::function<std::unique_ptr<Node>(uint32_t)> make_intermediate;
  std::function<std::unique_ptr<Node>(uint32_t)> make_local;

  switch (system_) {
    case ClusterSystem::kDesis: {
      QueryAnalyzer analyzer(DeploymentMode::kDecentralized,
                             SharingPolicy::kCrossFunction);
      auto groups = analyzer.Analyze(queries);
      if (!groups.ok()) return groups.status();
      if (options_.optimize_plans) opt::PlanGroups(groups.value());
      desis_groups_ = groups.value();
      group_index_.Seed(desis_groups_);
      auto root = std::make_unique<DesisRootNode>(next_id++, desis_groups_);
      root->set_sink(sink);
      root_raw_ = root.get();
      nodes_.push_back(std::move(root));
      make_intermediate = [](uint32_t id) {
        return std::make_unique<DesisIntermediateNode>(id);
      };
      make_local = [this](uint32_t id) {
        return std::make_unique<DesisLocalNode>(
            id, desis_groups_, /*forward_batch_size=*/512, options_.memory);
      };
      break;
    }
    case ClusterSystem::kDisco: {
      auto root = std::make_unique<DiscoRootNode>(next_id++, queries);
      root->set_sink(sink);
      root_raw_ = root.get();
      nodes_.push_back(std::move(root));
      make_intermediate = [](uint32_t id) {
        return std::make_unique<DiscoIntermediateNode>(id);
      };
      make_local = [queries](uint32_t id) {
        return std::make_unique<DiscoLocalNode>(id, queries);
      };
      break;
    }
    case ClusterSystem::kScotty:
    case ClusterSystem::kCeBuffer: {
      std::unique_ptr<StreamEngine> engine;
      if (system_ == ClusterSystem::kScotty) {
        engine = std::make_unique<ScottyEngine>();
      } else {
        engine = std::make_unique<CeBufferEngine>();
      }
      if (auto s = engine->Configure(queries); !s.ok()) return s;
      engine->set_sink(sink);
      auto root = std::make_unique<EngineRootNode>(next_id++, std::move(engine));
      root_raw_ = root.get();
      nodes_.push_back(std::move(root));
      make_intermediate = [](uint32_t id) {
        return std::make_unique<RelayIntermediateNode>(id);
      };
      make_local = [](uint32_t id) {
        return std::make_unique<ForwardingLocalNode>(id);
      };
      break;
    }
  }

  // Intermediate layers, top (attached to root) to bottom.
  std::vector<Node*> layer_above = {root_raw_};
  for (int layer = 0;
       layer < (topology_.num_intermediates > 0 ? topology_.intermediate_layers : 0);
       ++layer) {
    std::vector<Node*> this_layer;
    for (int i = 0; i < topology_.num_intermediates; ++i) {
      auto node = make_intermediate(next_id++);
      this_layer.push_back(node.get());
      intermediates_raw_.push_back(node.get());
      layer_above[static_cast<size_t>(i) % layer_above.size()]->AttachChild(
          node.get());
      nodes_.push_back(std::move(node));
    }
    layer_above = std::move(this_layer);
  }

  for (int i = 0; i < topology_.num_locals; ++i) {
    auto node = make_local(next_id++);
    locals_.push_back(dynamic_cast<LocalIngest*>(node.get()));
    locals_raw_.push_back(node.get());
    layer_above[static_cast<size_t>(i) % layer_above.size()]->AttachChild(
        node.get());
    nodes_.push_back(std::move(node));
  }

  local_removed_.assign(locals_.size(), false);
  local_orphaned_.assign(locals_.size(), false);
  intermediate_dead_.assign(intermediates_raw_.size(), false);
  local_last_advance_.assign(locals_.size(), kNoTimestamp);
  local_mu_.clear();
  for (size_t i = 0; i < locals_.size(); ++i) {
    local_mu_.push_back(std::make_unique<std::mutex>());
  }
  // Route every node through the transport (workers spin up here for
  // queue-based transports; setup above never sends). Recovery is enabled
  // first: node-level recovery series and the root's stale counter
  // register during the AttachObs inside WireNode.
  if (options_.recovery.enabled) {
    for (const auto& node : nodes_) node->EnableRecovery(options_.recovery);
  }
  for (const auto& node : nodes_) WireNode(node.get());
  next_node_id_ = next_id;
  next_group_id_ = 0;
  for (const QueryGroup& g : desis_groups_) {
    next_group_id_ = std::max(next_group_id_, g.id + 1);
  }
  StartWatchdog();
  configured_ = true;
  return Status::OK();
}

void Cluster::StartWatchdog() {
  // Auto-dump on failure, watchdog or not: chaos-harness violations and
  // RootAssembler invariant breaks route through NotifyFlightFailure. The
  // hook slot is process-wide; the last configured cluster owns it (the
  // destructor clears it), which matches the one-cluster-under-test shape
  // of every bench and harness.
  obs::SetFlightFailureHook([this](const std::string& reason) {
    const char* dir = std::getenv("DESIS_FLIGHT_DUMP_DIR");
    DumpFlightRecorders(dir != nullptr ? dir : ".", reason);
  });
  if (!options_.watchdog.enabled) return;
  obs::WatchdogHooks hooks;
  hooks.probe = [this] { return ProbeHealth(); };
  hooks.sample_health = [this] { SampleHealth(); };
  hooks.on_anomaly = [this](obs::AnomalyKind kind, uint32_t node_id) {
    OnWatchdogAnomaly(kind, node_id);
  };
  if (system_ == ClusterSystem::kDesis && options_.recovery.enabled) {
    hooks.recover = [this](Timestamp min_watermark) {
      return !RecoverSilentIntermediates(min_watermark).empty();
    };
  }
  monitor_ =
      std::make_unique<obs::HealthMonitor>(options_.watchdog, std::move(hooks));
  // period_ms <= 0 keeps the thread off: deterministic tests drive
  // TickWatchdogForTest() instead.
  if (options_.watchdog.period_ms > 0) monitor_->Start();
}

std::vector<obs::NodeProbe> Cluster::ProbeHealth() const {
  std::shared_lock<std::shared_mutex> lock(membership_mu_);
  std::vector<obs::NodeProbe> probes;
  probes.reserve(nodes_.size());
  const bool recovery_live =
      system_ == ClusterSystem::kDesis && options_.recovery.enabled;
  auto snapshot = [](const Node* node, bool alive, bool recoverable) {
    obs::NodeProbe p;
    p.node_id = node->id();
    p.role = static_cast<uint8_t>(node->role());
    p.alive = alive;
    p.recoverable = recoverable;
    p.heartbeats = node->health().heartbeats.load();
    p.watermark = node->health().watermark.load();
    p.mailbox_depth = node->mailbox_depth();
    return p;
  };
  for (size_t i = 0; i < locals_raw_.size(); ++i) {
    obs::NodeProbe p = snapshot(locals_raw_[i], !local_removed_[i],
                                /*recoverable=*/false);
    if (system_ == ClusterSystem::kDesis) {
      const auto* local = static_cast<const DesisLocalNode*>(locals_raw_[i]);
      if (const mem::MemoryGovernor* gov = local->memory_governor()) {
        p.spill_restores = gov->restores();
      }
    }
    probes.push_back(p);
  }
  for (size_t i = 0; i < intermediates_raw_.size(); ++i) {
    const bool alive = !intermediate_dead_[i];
    probes.push_back(
        snapshot(intermediates_raw_[i], alive, alive && recovery_live));
  }
  if (root_raw_ != nullptr) {
    probes.push_back(snapshot(root_raw_, /*alive=*/true,
                              /*recoverable=*/false));
  }
  return probes;
}

void Cluster::OnWatchdogAnomaly(obs::AnomalyKind kind, uint32_t node_id) {
  obs_registry_
      ->GetCounter("health.anomalies",
                   {{"kind", obs::AnomalyName(kind)},
                    {"node", std::to_string(node_id)}},
                   "anomalies")
      ->Add();
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    for (const auto& entry : flights_) {
      if (entry.second->node_id() == node_id) {
        entry.second->Record(
            obs::FlightEventKind::kAnomaly, static_cast<uint64_t>(kind),
            monitor_ != nullptr ? monitor_->samples() : 0, kNoTimestamp);
        break;
      }
    }
  }
  // A silent node is a fault, not a statistic: snapshot every ring now,
  // while the pre-fault history is still in the rings.
  if (kind == obs::AnomalyKind::kSilentNode) {
    obs::NotifyFlightFailure("silent_node:" + std::to_string(node_id));
  }
}

std::vector<std::string> Cluster::DumpFlightRecorders(
    const std::string& dir, const std::string& reason) const {
  // Only flights_mu_ here — never membership_mu_: failure paths call this
  // while already holding the membership lock (assert under ingest, chaos
  // violation mid-recovery).
  std::vector<std::string> written;
  std::lock_guard<std::mutex> lock(flights_mu_);
  for (const auto& entry : flights_) {
    const std::string path =
        dir + "/flight-" + std::to_string(entry.second->node_id()) + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) continue;
    out << entry.second->DumpJson(reason) << "\n";
    written.push_back(path);
  }
  return written;
}

uint64_t Cluster::watchdog_samples() const {
  return monitor_ != nullptr ? monitor_->samples() : 0;
}
uint64_t Cluster::watchdog_anomalies() const {
  return monitor_ != nullptr ? monitor_->anomalies() : 0;
}
uint64_t Cluster::watchdog_auto_recoveries() const {
  return monitor_ != nullptr ? monitor_->auto_recoveries() : 0;
}
bool Cluster::watchdog_running() const {
  return monitor_ != nullptr && monitor_->running();
}
void Cluster::TickWatchdogForTest() {
  if (monitor_ != nullptr) monitor_->TickForTest();
}

Node* Cluster::ParentForLocal(size_t ordinal) const {
  if (intermediates_raw_.empty()) return root_raw_;
  // The bottom layer holds the last num_intermediates entries. Crashed
  // intermediates are skipped (probe forward from the round-robin slot).
  const size_t n = static_cast<size_t>(topology_.num_intermediates);
  const size_t bottom_begin = intermediates_raw_.size() - n;
  for (size_t probe = 0; probe < n; ++probe) {
    const size_t i = bottom_begin + (ordinal + probe) % n;
    if (!intermediate_dead_[i]) return intermediates_raw_[i];
  }
  return root_raw_;
}

void Cluster::AdvanceAt(int local_idx, Timestamp watermark) {
  {
    // The shared lock spans ALL of this driver's transport activity — the
    // Advance (which sends) and the Pump that drains pending deliveries.
    // The watchdog's auto-recovery runs under the exclusive lock, and
    // transports' event loops are not internally synchronized against it:
    // this shared region is what keeps a background recovery op from
    // interleaving with driver-side delivery.
    std::shared_lock<std::shared_mutex> lock(membership_mu_);
    const size_t i = static_cast<size_t>(local_idx);
    if (local_removed_[i]) return;
    // Written only by this local's single driver thread (see the class
    // threading contract); membership ops read it under the exclusive lock.
    local_last_advance_[i] = watermark;
    {
      std::lock_guard<std::mutex> node_lock(*local_mu_[i]);
      locals_[i]->Advance(watermark);
    }
    transport_->Pump();
  }
  // Low-overhead periodic snapshot: health gauges refresh on a watermark
  // cadence, not per event, so monitors polling StatsReport() mid-run see
  // recent lag/backlog values without any hot-path cost. Outside the
  // shared region above — re-acquiring a shared lock while a writer waits
  // can deadlock.
  if (health_sample_ticks_++ % kHealthSamplePeriod == kHealthSamplePeriod - 1) {
    SampleHealth();
  }
}

void Cluster::Drain() {
  {
    // Same contract as AdvanceAt: Flush is driver-side transport activity
    // and must not interleave with a watchdog recovery op.
    std::shared_lock<std::shared_mutex> lock(membership_mu_);
    transport_->Flush();
  }
  SampleHealth();
}

Result<int> Cluster::AddLocalNode() {
  if (system_ != ClusterSystem::kDesis) {
    return Status::Unsupported("runtime membership requires the Desis system");
  }
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  // Deploy the *live* group set (runtime joins/retires included), not the
  // cold-start snapshot: the index is the source of truth after Configure.
  auto node = std::make_unique<DesisLocalNode>(
      next_node_id_++, group_index_.Snapshot(), /*forward_batch_size=*/512,
      options_.memory);
  const int local_idx = static_cast<int>(locals_.size());
  locals_.push_back(node.get());
  locals_raw_.push_back(node.get());
  local_removed_.push_back(false);
  local_orphaned_.push_back(false);
  local_last_advance_.push_back(kNoTimestamp);
  local_mu_.push_back(std::make_unique<std::mutex>());
  if (options_.recovery.enabled) node->EnableRecovery(options_.recovery);
  WireNode(node.get());
  // Attach on the parent's delivery thread so membership growth is ordered
  // with its in-flight messages.
  Node* parent = ParentForLocal(static_cast<size_t>(local_idx));
  Node* child = node.get();
  transport_->ExecuteSync(parent, [parent, child] {
    parent->AttachChild(child);
  });
  nodes_.push_back(std::move(node));
  ++topology_.num_locals;
  return local_idx;
}

Status Cluster::RemoveLocalNodeLocked(int local_idx) {
  if (system_ != ClusterSystem::kDesis) {
    return Status::Unsupported("runtime membership requires the Desis system");
  }
  if (local_idx < 0 || static_cast<size_t>(local_idx) >= locals_.size()) {
    return Status::NotFound("no such local node");
  }
  if (local_removed_[static_cast<size_t>(local_idx)]) {
    return Status::NotFound("local node already removed");
  }
  local_removed_[static_cast<size_t>(local_idx)] = true;
  Node* node = locals_raw_[static_cast<size_t>(local_idx)];
  // Detach on the parent's delivery thread, FIFO behind everything the
  // local already sent — its final watermark is honored, not lost.
  Node* parent = node->parent();
  const int child_index = node->child_index_at_parent();
  transport_->Execute(parent, [parent, child_index] {
    parent->DetachChild(child_index);
  });
  return Status::OK();
}

Status Cluster::RemoveLocalNode(int local_idx) {
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  return RemoveLocalNodeLocked(local_idx);
}

std::vector<int> Cluster::RemoveSilentLocals(Timestamp min_watermark) {
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  std::vector<int> removed;
  for (size_t i = 0; i < locals_.size(); ++i) {
    if (local_removed_[i]) continue;
    if (local_last_advance_[i] == kNoTimestamp ||
        local_last_advance_[i] < min_watermark) {
      if (RemoveLocalNodeLocked(static_cast<int>(i)).ok()) {
        removed.push_back(static_cast<int>(i));
      }
    }
  }
  return removed;
}

// --- Crash recovery (docs/FAULT_TOLERANCE.md) ------------------------------

Status Cluster::CheckRecoveryOp() const {
  if (system_ != ClusterSystem::kDesis || !options_.recovery.enabled) {
    return Status::Unsupported(
        "crash recovery requires the Desis system with recovery enabled");
  }
  return Status::OK();
}

int64_t Cluster::RecoveryNowUs() const {
  // Deterministic virtual time when the transport provides it (SimLink);
  // wall-clock microseconds otherwise.
  const int64_t virtual_us = transport_->VirtualNowUs();
  if (virtual_us >= 0) return virtual_us;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Cluster::FinishRecoveryOp(int64_t t0_us) {
  transport_->Flush();
  reattach_latency_hist_->Record(RecoveryNowUs() - t0_us);
  // Refresh the health gauges directly — membership_mu_ is already held
  // exclusively here, so SampleHealth()'s shared lock would self-deadlock.
  for (const auto& node : nodes_) node->PublishHealth();
}

bool Cluster::IsDeadIntermediate(const Node* node) const {
  for (size_t i = 0; i < intermediates_raw_.size(); ++i) {
    if (intermediates_raw_[i] == node) return intermediate_dead_[i];
  }
  return false;
}

void Cluster::ForceFlushChain(Node* from) {
  // Bottom-up: each layer's forced forwards land (Flush) before the layer
  // above flushes, so by the end the root has absorbed every unit that ever
  // left this chain — the frontier snapshot that follows is authoritative.
  for (Node* n = from; n != nullptr && n != root_raw_; n = n->parent()) {
    if (n->role() != NodeRole::kIntermediate) break;
    auto* inter = static_cast<DesisIntermediateNode*>(n);
    transport_->ExecuteSync(n, [inter] { inter->ForceFlushHeld(); });
    transport_->Flush();
  }
}

Node::ReplayFrontiers Cluster::SnapshotFrontiers() {
  Node::ReplayFrontiers frontiers;
  auto* root = static_cast<DesisRootNode*>(root_raw_);
  transport_->ExecuteSync(root_raw_, [root, &frontiers] {
    frontiers = root->FrontierSnapshot();
  });
  return frontiers;
}

Node* Cluster::ElectParentInLayer(size_t layer, Node* dead) {
  // Surviving same-layer intermediate with the fewest active children;
  // ties break to the lowest node id (deterministic across runs).
  const size_t n = static_cast<size_t>(topology_.num_intermediates);
  Node* best = nullptr;
  for (size_t i = layer * n;
       i < (layer + 1) * n && i < intermediates_raw_.size(); ++i) {
    if (intermediate_dead_[i]) continue;
    Node* cand = intermediates_raw_[i];
    if (cand == dead) continue;
    if (best == nullptr ||
        cand->num_active_children() < best->num_active_children() ||
        (cand->num_active_children() == best->num_active_children() &&
         cand->id() < best->id())) {
      best = cand;
    }
  }
  if (best != nullptr) return best;
  // No survivor in the layer: adopt at the nearest alive ancestor.
  Node* fallback = dead != nullptr ? dead->parent() : nullptr;
  while (fallback != nullptr && fallback != root_raw_ &&
         IsDeadIntermediate(fallback)) {
    fallback = fallback->parent();
  }
  return fallback != nullptr ? fallback : root_raw_;
}

void Cluster::ReattachOrphan(Node* orphan, Node* new_parent,
                             const Node::ReplayFrontiers& frontiers) {
  Node* old_parent = orphan->parent();
  transport_->ExecuteSync(new_parent, [new_parent, orphan] {
    new_parent->AttachChild(orphan);
  });
  if (orphan->role() == NodeRole::kLocal) {
    // Serialize with the local's driver thread (ingest holds the same lock).
    std::mutex* mu = nullptr;
    for (size_t i = 0; i < locals_raw_.size(); ++i) {
      if (locals_raw_[i] == orphan) {
        mu = local_mu_[i].get();
        break;
      }
    }
    std::unique_lock<std::mutex> lock(*mu);
    orphan->ReplayUnacked(frontiers);
    orphan->ReAdvertiseWatermark();
  } else {
    transport_->ExecuteSync(orphan, [orphan, &frontiers] {
      orphan->ReplayUnacked(frontiers);
      orphan->ReAdvertiseWatermark();
    });
  }
  reattach_counter_->Add();
  if (orphan->flight() != nullptr) {
    orphan->flight()->Record(obs::FlightEventKind::kReattach, new_parent->id(),
                             old_parent != nullptr ? old_parent->id() : 0,
                             orphan->health().watermark);
  }
  if (obs_tracer_ != nullptr) {
    obs_tracer_->Record(obs::SlicePhase::kReattach, /*slice_id=*/0,
                        /*group_id=*/0, /*query_id=*/0, orphan->id(),
                        orphan->role() == NodeRole::kLocal
                            ? obs::kSpanRoleLocal
                            : obs::kSpanRoleIntermediate,
                        orphan->health().watermark);
  }
}

Status Cluster::CrashIntermediate(int intermediate_idx) {
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  return CrashIntermediateLocked(intermediate_idx);
}

Status Cluster::CrashIntermediateLocked(int intermediate_idx) {
  if (auto s = CheckRecoveryOp(); !s.ok()) return s;
  const size_t idx = static_cast<size_t>(intermediate_idx);
  if (intermediate_idx < 0 || idx >= intermediates_raw_.size()) {
    return Status::NotFound("no such intermediate node");
  }
  if (intermediate_dead_[idx]) {
    return Status::NotFound("intermediate already crashed");
  }
  Node* dead = intermediates_raw_[idx];
  const int64_t t0_us = RecoveryNowUs();
  intermediate_dead_[idx] = true;
  // 1. The crash itself: the transport discards everything in flight
  //    to/from the node and ignores it from now on.
  transport_->Disconnect(dead);
  transport_->Flush();
  // 2. Force-flush the dead node's ancestor chain so every unit that ever
  //    made it past the dead node reaches the root, then snapshot the
  //    root's provenance frontiers — replay below trims against them.
  ForceFlushChain(dead->parent());
  transport_->Flush();
  const Node::ReplayFrontiers frontiers = SnapshotFrontiers();
  // 3. Re-elect a parent for every orphan and replay its unacked data.
  //    The dead node stays attached upstream through all of this: its
  //    frozen (pinned) watermark holds the root's cursor back until the
  //    replayed slices have landed (docs/FAULT_TOLERANCE.md, "Why the
  //    stable watermark is a valid ack").
  const size_t n = static_cast<size_t>(topology_.num_intermediates);
  const size_t layer = idx / n;
  for (size_t ci = 0; ci < dead->num_children(); ++ci) {
    if (dead->child_detached(static_cast<int>(ci))) continue;
    Node* orphan = dead->child_node(static_cast<int>(ci));
    if (orphan == nullptr) continue;
    ReattachOrphan(orphan, ElectParentInLayer(layer, dead), frontiers);
  }
  transport_->Flush();
  // 4. Only now detach the dead node at its parent — the replayed data is
  //    upstream of the orphans, protected by their new parents' pins.
  Node* parent = dead->parent();
  const int child_index = dead->child_index_at_parent();
  transport_->ExecuteSync(parent, [parent, child_index] {
    parent->DetachChild(child_index);
  });
  FinishRecoveryOp(t0_us);
  return Status::OK();
}

Status Cluster::DeclareLocalDead(int local_idx) {
  if (auto s = CheckRecoveryOp(); !s.ok()) return s;
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  const size_t i = static_cast<size_t>(local_idx);
  if (local_idx < 0 || i >= locals_raw_.size()) {
    return Status::NotFound("no such local node");
  }
  if (local_removed_[i]) return Status::NotFound("local node already removed");
  if (local_orphaned_[i]) {
    return Status::AlreadyExists("local already declared dead");
  }
  // The uplink goes dark but the membership is kept: the old parent still
  // waits on the local's frozen watermark, which pins the root at the last
  // advertised point — it cannot consume past the orphan's buffered data.
  // Ingest may continue; sends accumulate in the resend buffer.
  Node* node = locals_raw_[i];
  transport_->SetLinkDown(node, node->parent(), true);
  local_orphaned_[i] = true;
  return Status::OK();
}

Status Cluster::ReattachLocal(int local_idx) {
  if (auto s = CheckRecoveryOp(); !s.ok()) return s;
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  const size_t i = static_cast<size_t>(local_idx);
  if (local_idx < 0 || i >= locals_raw_.size()) {
    return Status::NotFound("no such local node");
  }
  if (!local_orphaned_[i]) {
    return Status::NotFound("local was not declared dead");
  }
  Node* node = locals_raw_[i];
  Node* old_parent = node->parent();
  const int old_child_index = node->child_index_at_parent();
  const int64_t t0_us = RecoveryNowUs();
  // Drain, force-flush the old parent chain, snapshot frontiers — exactly
  // the CrashIntermediate preamble, with the old uplink as the dead path.
  transport_->Flush();
  ForceFlushChain(old_parent);
  transport_->Flush();
  const Node::ReplayFrontiers frontiers = SnapshotFrontiers();
  // Abandon the dark uplink's link state BEFORE replaying: from here the
  // resend buffer owns recovery, and a link-level retransmission of parked
  // frames would double-merge the same slices at the (possibly identical)
  // new parent. This also clears the partition flag, so replay traffic to
  // a re-elected same parent flows on a clean link.
  transport_->ResetLink(node, old_parent);
  ReattachOrphan(node, ParentForLocal(i), frontiers);
  local_orphaned_[i] = false;
  transport_->Flush();
  // Detach the old uplink slot last (pinning protection, as above).
  transport_->ExecuteSync(old_parent, [old_parent, old_child_index] {
    old_parent->DetachChild(old_child_index);
  });
  FinishRecoveryOp(t0_us);
  return Status::OK();
}

std::vector<int> Cluster::RecoverSilentIntermediates(Timestamp min_watermark) {
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  std::vector<int> crashed;
  if (!CheckRecoveryOp().ok()) return crashed;
  for (size_t i = 0; i < intermediates_raw_.size(); ++i) {
    if (intermediate_dead_[i]) continue;
    const Timestamp wm = intermediates_raw_[i]->health().watermark;
    if (wm == kNoTimestamp || wm < min_watermark) {
      if (CrashIntermediateLocked(static_cast<int>(i)).ok()) {
        crashed.push_back(static_cast<int>(i));
      }
    }
  }
  return crashed;
}

Status Cluster::InjectIntermediateFailure(int intermediate_idx) {
  if (auto s = CheckRecoveryOp(); !s.ok()) return s;
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  const size_t idx = static_cast<size_t>(intermediate_idx);
  if (intermediate_idx < 0 || idx >= intermediates_raw_.size()) {
    return Status::NotFound("no such intermediate node");
  }
  // Silent: the transport stops delivering but the cluster is not told —
  // RecoverSilentIntermediates spots the frozen watermark later.
  transport_->Disconnect(intermediates_raw_[idx]);
  return Status::OK();
}

Status Cluster::PartitionLocalUplink(int local_idx, bool down) {
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  const size_t i = static_cast<size_t>(local_idx);
  if (local_idx < 0 || i >= locals_raw_.size()) {
    return Status::NotFound("no such local node");
  }
  Node* node = locals_raw_[i];
  if (!transport_->SetLinkDown(node, node->parent(), down)) {
    return Status::Unsupported("transport cannot model link partitions");
  }
  return Status::OK();
}

Status Cluster::AddQuery(const Query& query) {
  if (system_ != ClusterSystem::kDesis) {
    return Status::Unsupported("runtime queries require the Desis system");
  }
  if (auto s = query.Validate(); !s.ok()) return s;
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  if (group_index_.ContainsQuery(query.id)) {
    return Status::AlreadyExists("query id already registered");
  }

  const opt::QueryPlacement placement = group_index_.AddQuery(query);
  QueryGroup* group = group_index_.MutableFind(placement.gid);

  auto* root = static_cast<DesisRootNode*>(root_raw_);
  if (placement.new_group) {
    if (options_.optimize_plans) group->plan = opt::BuildGroupPlan(*group);
    // Fresh group: the classic full-deploy path (§3.2) — root first so the
    // assembler exists before the first shipped slice can reach it.
    const std::vector<QueryGroup> new_groups = {*group};
    transport_->ExecuteSync(
        root_raw_, [root, &new_groups] { root->AddGroups(new_groups); });
    for (size_t i = 0; i < locals_raw_.size(); ++i) {
      if (local_removed_[i]) continue;
      std::lock_guard<std::mutex> local_lock(*local_mu_[i]);
      static_cast<DesisLocalNode*>(locals_raw_[i])->AddGroups(new_groups);
    }
  } else {
    // Join an existing group, touching only that group on each node.
    // Locals first, collecting the maximum event timestamp any of them has
    // seen: per-local streams are non-decreasing and membership_mu_ is held
    // exclusively (no ingest runs concurrently), so every event at or
    // before `seen` sits in pre-add slices. The root then activation-gates
    // the new query past them (and past its own advanced watermark), so
    // the first emitted window covers only post-deploy folds.
    const uint32_t gid = placement.gid;
    const SelectionLane lane_def = group->lanes[placement.lane];
    Timestamp seen = kNoTimestamp;
    for (size_t i = 0; i < locals_raw_.size(); ++i) {
      if (local_removed_[i]) continue;
      std::lock_guard<std::mutex> local_lock(*local_mu_[i]);
      auto* local = static_cast<DesisLocalNode*>(locals_raw_[i]);
      local->AddQueryToGroup(gid, query, placement.lane, lane_def,
                             kNoTimestamp);
      seen = std::max(seen, local->last_event_ts());
    }
    const Timestamp active_from = seen == kNoTimestamp ? kNoTimestamp
                                                       : seen + 1;
    const Query& q = query;
    const uint32_t lane = placement.lane;
    transport_->ExecuteSync(root_raw_,
                            [root, gid, &q, lane, &lane_def, active_from] {
                              root->AddQueryToGroup(gid, q, lane, lane_def,
                                                    active_from);
                            });
  }
  churn_add_hist_->Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (root_raw_ != nullptr && root_raw_->flight() != nullptr) {
    root_raw_->flight()->Record(obs::FlightEventKind::kQueryAdd,
                                static_cast<uint64_t>(query.id), placement.gid,
                                kNoTimestamp);
  }
  return Status::OK();
}

Status Cluster::RemoveQuery(QueryId id) {
  if (system_ != ClusterSystem::kDesis) {
    return Status::Unsupported("runtime queries require the Desis system");
  }
  std::unique_lock<std::shared_mutex> lock(membership_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  auto removal = group_index_.RemoveQuery(id);
  if (!removal.ok()) return removal.status();
  const uint32_t gid = removal.value().gid;
  auto* root = static_cast<DesisRootNode*>(root_raw_);
  Status status = Status::OK();
  transport_->ExecuteSync(root_raw_, [root, gid, id, &status] {
    status = root->SuppressQueryInGroup(gid, id);
  });
  if (removal.value().group_empty) {
    // Last member gone: tear the group down everywhere. Locals first (the
    // slice flow stops), then the root; partials still in flight for the
    // group are dropped by the root's group lookup.
    for (size_t i = 0; i < locals_raw_.size(); ++i) {
      if (local_removed_[i]) continue;
      std::lock_guard<std::mutex> local_lock(*local_mu_[i]);
      static_cast<DesisLocalNode*>(locals_raw_[i])->RemoveGroup(gid);
    }
    transport_->ExecuteSync(root_raw_,
                            [root, gid] { root->RemoveGroup(gid); });
  }
  churn_remove_hist_->Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (root_raw_ != nullptr && root_raw_->flight() != nullptr) {
    root_raw_->flight()->Record(obs::FlightEventKind::kQueryRemove,
                                static_cast<uint64_t>(id), gid, kNoTimestamp);
  }
  return status;
}

void Cluster::IngestAt(int local_idx, const Event* events, size_t count) {
  // Shared across the whole batch (not just the vector reads): with the
  // inline transport, ingest itself delivers upstream on this thread, and
  // that must serialize against watchdog auto-recovery (exclusive lock) —
  // see AdvanceAt.
  std::shared_lock<std::shared_mutex> membership_lock(membership_mu_);
  const size_t i = static_cast<size_t>(local_idx);
  LocalIngest* local = locals_[i];
  std::mutex* mu = local_mu_[i].get();
  std::lock_guard<std::mutex> lock(*mu);
  // One steady_clock pair per batch — amortized over the whole span.
  const auto t0 = std::chrono::steady_clock::now();
  local->IngestBatch(events, count);
  ingest_batch_hist_->Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void Cluster::Advance(Timestamp watermark) {
  size_t n;
  {
    std::shared_lock<std::shared_mutex> lock(membership_mu_);
    n = locals_.size();
  }
  for (size_t i = 0; i < n; ++i) {
    AdvanceAt(static_cast<int>(i), watermark);
  }
}

const mem::MemoryGovernor* Cluster::LocalMemoryGovernor(int local_idx) const {
  std::shared_lock<std::shared_mutex> lock(membership_mu_);
  if (system_ != ClusterSystem::kDesis || local_idx < 0 ||
      static_cast<size_t>(local_idx) >= locals_raw_.size()) {
    return nullptr;
  }
  return static_cast<const DesisLocalNode*>(locals_raw_[local_idx])
      ->memory_governor();
}

uint64_t Cluster::BytesSentByRole(NodeRole role) const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (node->role() == role) total += node->net_stats().bytes_sent;
  }
  return total;
}

int64_t Cluster::MaxBusyNsByRole(NodeRole role) const {
  int64_t max_ns = 0;
  for (const auto& node : nodes_) {
    if (node->role() == role) max_ns = std::max(max_ns, node->busy_ns());
  }
  return max_ns;
}

int64_t Cluster::MaxBusyNs() const {
  int64_t max_ns = 0;
  for (const auto& node : nodes_) max_ns = std::max(max_ns, node->busy_ns());
  return max_ns;
}

namespace {

// Per-role fold of the NodeStats snapshots.
struct RoleAggregate {
  uint64_t nodes = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  int64_t busy_ns = 0;
  uint64_t queue_hwm = 0;
  uint64_t retransmits = 0;
  uint64_t messages_dropped = 0;

  void Absorb(const NodeStats& s) {
    ++nodes;
    bytes_sent += s.bytes_sent;
    bytes_received += s.bytes_received;
    messages_sent += s.messages_sent;
    messages_received += s.messages_received;
    busy_ns += s.busy_ns;
    queue_hwm = std::max<uint64_t>(queue_hwm, s.queue_hwm);
    retransmits += s.retransmits;
    messages_dropped += s.messages_dropped;
  }
};

void AppendRole(std::string& out, const char* key, const RoleAggregate& agg) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"%s\":{\"nodes\":%" PRIu64 ",\"bytes_sent\":%" PRIu64
      ",\"bytes_received\":%" PRIu64 ",\"messages_sent\":%" PRIu64
      ",\"messages_received\":%" PRIu64 ",\"busy_ns\":%" PRId64
      ",\"queue_hwm\":%" PRIu64 ",\"retransmits\":%" PRIu64
      ",\"messages_dropped\":%" PRIu64 "}",
      key, agg.nodes, agg.bytes_sent, agg.bytes_received, agg.messages_sent,
      agg.messages_received, agg.busy_ns, agg.queue_hwm, agg.retransmits,
      agg.messages_dropped);
  out += buf;
}

}  // namespace

std::string Cluster::StatsReport() const {
  SampleHealth();  // report the freshest watermark-lag gauge
  RoleAggregate local, intermediate, root, total;
  for (const auto& node : nodes_) {
    const NodeStats s = node->net_stats();
    switch (node->role()) {
      case NodeRole::kLocal: local.Absorb(s); break;
      case NodeRole::kIntermediate: intermediate.Absorb(s); break;
      case NodeRole::kRoot: root.Absorb(s); break;
    }
    total.Absorb(s);
  }
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"system\":\"%s\",\"transport\":\"%s\","
                "\"topology\":{\"locals\":%d,\"intermediates\":%d,"
                "\"layers\":%d},"
                "\"results\":%" PRIu64 ",\"roles\":{",
                ToString(system_).c_str(), transport_->name(),
                topology_.num_locals, topology_.num_intermediates,
                topology_.intermediate_layers, results());
  out += buf;
  AppendRole(out, "local", local);
  out += ",";
  AppendRole(out, "intermediate", intermediate);
  out += ",";
  AppendRole(out, "root", root);
  out += "},";
  AppendRole(out, "totals", total);
  if (options_.recovery.enabled) {
    uint64_t resend_bytes = 0;
    uint64_t overflow_drops = 0;
    for (const auto& node : nodes_) {
      if (const ResendBuffer* rb = node->resend_buffer(); rb != nullptr) {
        resend_bytes += rb->bytes();
        overflow_drops += rb->overflow_drops();
      }
    }
    const uint64_t stale =
        root_raw_ != nullptr
            ? static_cast<const DesisRootNode*>(root_raw_)->stale_dropped()
            : 0;
    std::snprintf(buf, sizeof(buf),
                  ",\"recovery\":{\"reattaches\":%" PRIu64
                  ",\"replayed_slices\":%" PRIu64 ",\"stale_dropped\":%" PRIu64
                  ",\"resend_buffer_bytes\":%" PRIu64
                  ",\"resend_overflow_drops\":%" PRIu64 "}",
                  recovery_reattaches(), recovery_replayed(), stale,
                  resend_bytes, overflow_drops);
    out += buf;
  }
  if (monitor_ != nullptr) {
    std::snprintf(buf, sizeof(buf),
                  ",\"watchdog\":{\"samples\":%" PRIu64 ",\"anomalies\":%" PRIu64
                  ",\"auto_recoveries\":%" PRIu64 "}",
                  monitor_->samples(), monitor_->anomalies(),
                  monitor_->auto_recoveries());
    out += buf;
  }
  const bool caller_registry = obs_registry_ != &owned_registry_;
  if (caller_registry || obs_tracer_ != nullptr) {
    // Registry snapshot and span *counters* only: both read relaxed
    // atomics, so polling mid-run is race-free. Span payloads (the actual
    // trace) need quiescence and are exported by the owner after Drain().
    out += ",\"obs\":{\"metrics\":";
    out += caller_registry ? obs_registry_->ToJson() : "{\"metrics\":[]}";
    std::snprintf(buf, sizeof(buf),
                  ",\"spans_recorded\":%" PRIu64 ",\"spans_dropped\":%" PRIu64
                  "}",
                  obs_tracer_ != nullptr ? obs_tracer_->recorded() : 0,
                  obs_tracer_ != nullptr ? obs_tracer_->dropped() : 0);
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace desis
