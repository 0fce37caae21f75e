#include "cluster/cluster.h"

#include <string>
#include <utility>

namespace streamq::cluster {

namespace {

ClusterCoordinatorOptions CoordinatorOptionsOf(const ClusterOptions& options) {
  ClusterCoordinatorOptions c;
  c.nodes = options.nodes;
  c.sketch = options.node_pipeline.sketch;
  c.stale_after = options.stale_after;
  c.probe = options.probe;
  // The audit plane rides the node pipeline template: auditing nodes and
  // auditing the global merge are one switch.
  c.audit = options.node_pipeline.audit;
  return c;
}

/// SplitMix64 step decorrelating the per-node channel seeds from the
/// user-visible cluster seed (and from the sketch seeds, which come from
/// the config unchanged).
uint64_t MixSeed(uint64_t seed, uint64_t lane) {
  uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (lane + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  return x;
}

}  // namespace

std::unique_ptr<QuantileCluster> QuantileCluster::Create(
    const ClusterOptions& options) {
  if (options.nodes < 1) return nullptr;
  if (!options.node_storage.empty() &&
      options.node_storage.size() != static_cast<size_t>(options.nodes)) {
    return nullptr;
  }
  std::unique_ptr<QuantileCluster> cluster(new QuantileCluster(options));
  for (int i = 0; i < options.nodes; ++i) {
    cluster->nodes_[static_cast<size_t>(i)] =
        IngestNode::Create(cluster->NodeOptions(i));
    if (cluster->nodes_[static_cast<size_t>(i)] == nullptr) return nullptr;
  }
  return cluster;
}

QuantileCluster::QuantileCluster(const ClusterOptions& options)
    : options_(options),
      coordinator_(CoordinatorOptionsOf(options)),
      nodes_(static_cast<size_t>(options.nodes)),
      streams_(static_cast<size_t>(options.nodes)) {
  for (int i = 0; i < options.nodes; ++i) {
    const uint64_t lane = static_cast<uint64_t>(i);
    data_ch_.push_back(std::make_unique<FaultyChannel>(
        options.data_faults, MixSeed(options.seed, 2 * lane)));
    ack_ch_.push_back(std::make_unique<FaultyChannel>(
        options.ack_faults, MixSeed(options.seed, 2 * lane + 1)));
    ack_ptrs_.push_back(ack_ch_.back().get());
  }
}

IngestNodeOptions QuantileCluster::NodeOptions(int node) const {
  IngestNodeOptions n;
  n.node = static_cast<uint32_t>(node);
  n.pipeline = options_.node_pipeline;
  n.theta = options_.theta;
  n.retry = options_.retry;
  if (options_.node_storage.empty()) {
    n.pipeline.durability.enabled = false;
    n.pipeline.durability.storage = nullptr;
  } else {
    n.pipeline.durability.enabled = true;
    n.pipeline.durability.storage = options_.node_storage[size_t(node)];
    n.pipeline.durability.dir =
        options_.dir_prefix + "/node" + std::to_string(node);
  }
  return n;
}

int QuantileCluster::Append(const Update& update) {
  ++now_;
  // Route BEFORE the liveness check and always consume the seq: where an
  // update belongs must not depend on which nodes happen to be up, or the
  // reference run and the faulted run would diverge at the source.
  const uint64_t seq = ++global_seq_;
  const int target = static_cast<int>(seq % nodes_.size());
  if (nodes_[static_cast<size_t>(target)] == nullptr) {
    ++dropped_appends_;
    Pump();
    return -1;
  }
  streams_[static_cast<size_t>(target)].push_back(update);
  ObserveOn(target, update);
  Pump();
  return target;
}

void QuantileCluster::ObserveOn(int node, const Update& update) {
  nodes_[static_cast<size_t>(node)]->Observe(
      update, now_, *data_ch_[static_cast<size_t>(node)]);
}

void QuantileCluster::Pump() {
  // Shipments up. Data channels are drained even for dead nodes: bytes
  // already on the wire when a node died still arrive.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (const std::string& bytes : data_ch_[i]->Poll(now_)) {
      coordinator_.HandleShipment(bytes, now_, *ack_ch_[i]);
    }
  }
  // Staleness probes down (dead nodes' probes queue on their ack channel
  // and greet them at restart).
  coordinator_.Tick(now_, ack_ptrs_);
  // Acks down + node retransmits.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr) continue;
    for (const std::string& bytes : ack_ch_[i]->Poll(now_)) {
      nodes_[i]->HandleAck(bytes);
    }
    nodes_[i]->Tick(now_, *data_ch_[i]);
  }
}

bool QuantileCluster::Converged() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!data_ch_[i]->Idle()) return false;
    if (nodes_[i] != nullptr && !nodes_[i]->FullyAcked()) return false;
  }
  return true;
}

bool QuantileCluster::Quiesce(uint64_t max_ticks) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] != nullptr && !nodes_[i]->FullyAcked()) {
      nodes_[i]->ShipComplete(now_, *data_ch_[i]);
    }
  }
  for (uint64_t t = 0; t < max_ticks; ++t) {
    if (Converged()) return true;
    ++now_;
    Pump();
  }
  return Converged();
}

ClusterAnswer QuantileCluster::Query(double phi, QueryScope scope) {
  return coordinator_.Query(phi, now_, scope);
}

ClusterAnswer QuantileCluster::Rank(uint64_t value, QueryScope scope) {
  return coordinator_.Rank(value, now_, scope);
}

void QuantileCluster::KillNode(int node) {
  // The destructor runs the pipeline's Stop path; with a FaultyStorage
  // crash armed by the test, its final flush/checkpoint fails against
  // dead storage without touching the surviving base disk.
  nodes_[static_cast<size_t>(node)].reset();
}

bool QuantileCluster::RestartNode(int node, durability::Storage* storage) {
  if (nodes_[static_cast<size_t>(node)] != nullptr) return false;
  if (storage != nullptr && !options_.node_storage.empty()) {
    options_.node_storage[static_cast<size_t>(node)] = storage;
  }
  nodes_[static_cast<size_t>(node)] = IngestNode::Create(NodeOptions(node));
  return nodes_[static_cast<size_t>(node)] != nullptr;
}

uint64_t QuantileCluster::ReplayNode(int node) {
  IngestNode* n = nodes_[static_cast<size_t>(node)].get();
  if (n == nullptr) return 0;
  const std::vector<Update>& stream = streams_[static_cast<size_t>(node)];
  uint64_t replayed = 0;
  // Stream position p (0-based) carries node-local seq p + 1; recovery's
  // contract is to re-push from ResumeSeq() and let the per-shard dedup
  // absorb whatever the recovered shards already hold beyond the minimum.
  for (uint64_t pos = n->ResumeSeq() - 1; pos < stream.size(); ++pos) {
    ++now_;
    ObserveOn(node, stream[pos]);
    Pump();
    ++replayed;
  }
  return replayed;
}

obs::AuditReport QuantileCluster::AuditGlobal(QueryScope scope) {
  std::vector<std::unique_ptr<obs::ReservoirShadow>> owned;
  std::vector<const obs::ReservoirShadow*> shadows;
  for (const auto& node : nodes_) {
    if (node == nullptr) continue;  // dead: its elements become gap
    std::unique_ptr<obs::ReservoirShadow> shadow =
        node->pipeline().CloneAuditShadow();
    if (shadow == nullptr) continue;
    shadows.push_back(shadow.get());
    owned.push_back(std::move(shadow));
  }
  return coordinator_.AuditGlobal(shadows, now_, scope);
}

uint64_t QuantileCluster::StalenessBound() const {
  // Insert-only accounting (the known count is the sketch count, which
  // under turnstile deletions is net): appended-but-unreflected updates.
  // Appends dropped at a dead node's ingress are lost, not stale, and are
  // reported separately by dropped_appends().
  uint64_t total = 0;
  for (size_t i = 0; i < streams_.size(); ++i) {
    const uint64_t appended = streams_[i].size();
    const uint64_t known = coordinator_.KnownCount(static_cast<int>(i));
    if (appended > known) total += appended - known;
  }
  return total;
}

void QuantileCluster::PublishMetrics(obs::MetricsRegistry& registry,
                                     const std::string& prefix) const {
  const auto set_counter = [&](const std::string& name, uint64_t v) {
    auto& c = registry.GetCounter(prefix + name);
    c.Reset();
    c.Add(v);
  };
  const ClusterCoordinatorStats& cs = coordinator_.stats();
  set_counter(".coordinator.accepted", cs.accepted);
  set_counter(".coordinator.rejected_corrupt", cs.rejected_corrupt);
  set_counter(".coordinator.rejected_malformed", cs.rejected_malformed);
  set_counter(".coordinator.rejected_stale", cs.rejected_stale);
  set_counter(".coordinator.rejected_incompatible", cs.rejected_incompatible);
  set_counter(".coordinator.acks_sent", cs.acks_sent);
  set_counter(".coordinator.probes_sent", cs.probes_sent);
  set_counter(".dropped_appends", dropped_appends_);
  registry.GetGauge(prefix + ".reported_count")
      .Set(static_cast<int64_t>(coordinator_.ReportedCount()));
  registry.GetGauge(prefix + ".staleness_bound")
      .Set(static_cast<int64_t>(StalenessBound()));
  registry.GetGauge(prefix + ".coordinator_memory_bytes")
      .Set(static_cast<int64_t>(coordinator_.MemoryBytes()));
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const std::string node_prefix = prefix + ".node" + std::to_string(i);
    const ClusterNodeStatus status =
        coordinator_.Status(static_cast<int>(i), now_);
    registry.GetGauge(node_prefix + ".alive")
        .Set(nodes_[i] != nullptr ? 1 : 0);
    registry.GetGauge(node_prefix + ".suspect").Set(status.suspect ? 1 : 0);
    registry.GetGauge(node_prefix + ".epoch")
        .Set(static_cast<int64_t>(status.epoch));
    registry.GetGauge(node_prefix + ".known_count")
        .Set(static_cast<int64_t>(status.count));
    registry.GetGauge(node_prefix + ".staleness_ticks")
        .Set(static_cast<int64_t>(status.staleness_ticks));
  }
  if (coordinator_.AuditEnabled()) {
    obs::PublishAuditMetrics(*coordinator_.auditor(), registry,
                             prefix + ".audit");
  }
}

}  // namespace streamq::cluster
