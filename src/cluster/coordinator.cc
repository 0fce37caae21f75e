#include "cluster/coordinator.h"

#include <algorithm>
#include <utility>

#include "cluster/wire.h"
#include "obs/trace.h"
#include "quantile/cash_register.h"

namespace streamq::cluster {

namespace {

/// Rung 6. A mergeable config accepts what it can merge. A non-mergeable
/// one accepts only a summary of its own algorithm, and only for GKArray,
/// whose tuples the union path reads.
bool Compatible(const QuantileSketch& reference,
                const QuantileSketch& received) {
  if (reference.Mergeable()) return reference.CanMerge(received);
  return dynamic_cast<const GkArray*>(&reference) != nullptr &&
         dynamic_cast<const GkArray*>(&received) != nullptr;
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(
    const ClusterCoordinatorOptions& options)
    : options_(options),
      reference_(MakeSketch(options.sketch)),
      views_(static_cast<size_t>(std::max(options.nodes, 1))) {
  if (options_.audit.enabled) {
    audit_config_ = obs::ResolveAuditConfig(
        options_.audit, options_.sketch.eps,
        AlgorithmName(options_.sketch.algorithm));
    auditor_ = std::make_unique<obs::AccuracyAuditor>(audit_config_);
  }
}

void ClusterCoordinator::HandleShipment(const std::string& bytes,
                                        uint64_t now, FaultyChannel& ack_tx) {
  // Rung 1+2: frame validation, then structural parse and range checks.
  ClusterShipment shipment;
  if (!DecodeShipment(bytes, &shipment)) {
    ++stats_.rejected_corrupt;
    return;
  }
  if (shipment.node >= views_.size() || shipment.epoch == 0) {
    ++stats_.rejected_malformed;
    return;
  }
  NodeView& view = views_[shipment.node];
  // Rung 3: epoch dedup. Duplicates and stale reorders are acknowledged
  // (the node needs to learn our horizon) but never re-applied.
  if (shipment.epoch <= view.epoch) {
    ++stats_.rejected_stale;
    SendAck(static_cast<int>(shipment.node), now, ack_tx);
    return;
  }
  // Rung 4+5: decode the nested sketch frame and cross-check its count
  // against the sender's claim. The view is only replaced after a fully
  // successful decode (no partial mutation).
  std::unique_ptr<QuantileSketch> received =
      DeserializeSketch(shipment.sketch_frame);
  if (received == nullptr || received->Count() != shipment.count) {
    ++stats_.rejected_malformed;
    return;
  }
  // Rung 6: a sketch we could not answer from at query time is useless --
  // and a symptom of a misconfigured sender -- so refuse it up front.
  if (!Compatible(*reference_, *received)) {
    ++stats_.rejected_incompatible;
    return;
  }
  view.epoch = shipment.epoch;
  view.count = shipment.count;
  view.sketch = std::move(received);
  view.last_accept_tick = now;
  view.next_probe_at = 0;
  view.probe_backoff = 0;
  ++stats_.accepted;
  SendAck(static_cast<int>(shipment.node), now, ack_tx);
}

void ClusterCoordinator::SendAck(int node, uint64_t now,
                                 FaultyChannel& ack_tx) {
  AckFrame ack;
  ack.node = static_cast<uint32_t>(node);
  ack.seq = views_[static_cast<size_t>(node)].epoch;
  ack_tx.Send(now, EncodeAck(ack));
  ++stats_.acks_sent;
}

void ClusterCoordinator::Tick(uint64_t now,
                              const std::vector<FaultyChannel*>& ack_tx) {
  for (size_t i = 0; i < views_.size(); ++i) {
    NodeView& view = views_[i];
    if (!Suspect(static_cast<int>(i), now)) continue;
    if (i >= ack_tx.size() || ack_tx[i] == nullptr) continue;
    if (now < view.next_probe_at) continue;
    // Re-request the node's current state: an ack carrying our horizon
    // plus the reship flag. A live node answers with a fresh cumulative
    // shipment; a dead one stays suspect and the backoff caps the probe
    // rate.
    AckFrame probe;
    probe.node = static_cast<uint32_t>(i);
    probe.seq = view.epoch;
    probe.flags = kAckFlagReship;
    ack_tx[i]->Send(now, EncodeAck(probe));
    ++stats_.probes_sent;
    STREAMQ_TRACE_INSTANT(obs::TracePoint::kClusterProbe, i);
    view.probe_backoff =
        view.probe_backoff == 0
            ? options_.probe.initial_backoff
            : std::min(view.probe_backoff * 2, options_.probe.max_backoff);
    view.next_probe_at = now + view.probe_backoff;
  }
}

bool ClusterCoordinator::Suspect(int node, uint64_t now) const {
  // A node that never reported has last_accept_tick 0 and becomes suspect
  // once the cluster has been up for stale_after ticks -- "down from the
  // start" is staleness too.
  const NodeView& view = views_[static_cast<size_t>(node)];
  return now > view.last_accept_tick &&
         now - view.last_accept_tick > options_.stale_after;
}

ClusterCoordinator::Scoped ClusterCoordinator::CollectScope(
    uint64_t now, QueryScope scope, ClusterAnswer* answer) {
  STREAMQ_TRACE_SPAN(obs::TracePoint::kClusterMerge, views_.size());
  const bool merge = reference_->Mergeable();
  Scoped scoped;
  if (merge) scoped.merged = MakeSketch(options_.sketch);
  std::vector<WeightedElement<uint64_t>> tuples;
  for (size_t i = 0; i < views_.size(); ++i) {
    const NodeView& view = views_[i];
    const bool suspect = Suspect(static_cast<int>(i), now);
    if (suspect) ++answer->nodes_suspect;
    if (view.sketch == nullptr ||
        (scope == QueryScope::kLiveOnly && suspect)) {
      answer->partial = true;
      continue;
    }
    if (!merge) {
      // Rung 6 let only GKArray summaries in.
      static_cast<GkArray&>(*view.sketch)
          .impl()
          .ForEachTuple([&](uint64_t v, int64_t g, int64_t /*delta*/) {
            tuples.push_back({v, g});
          });
    } else if (scoped.merged->Merge(*view.sketch) != StreamqStatus::kOk) {
      // Cannot happen for shipments past rung 6; recorded honestly if a
      // future sketch type breaks the empty-scratch merge assumption.
      answer->partial = true;
      continue;
    }
    ++answer->nodes_merged;
    answer->reported_count += view.count;
  }
  if (!merge) scoped.tuples.emplace(std::move(tuples));
  return scoped;
}

uint64_t ClusterCoordinator::Scoped::Quantile(double phi) {
  if (merged != nullptr) return merged->Query(phi);
  if (tuples->Empty()) return 0;
  return tuples->Quantile(phi * static_cast<double>(tuples->TotalWeight()));
}

uint64_t ClusterCoordinator::Scoped::Rank(uint64_t value) {
  const int64_t rank = merged != nullptr ? merged->EstimateRank(value)
                                         : tuples->EstimateRank(value);
  return static_cast<uint64_t>(std::max<int64_t>(0, rank));
}

ClusterAnswer ClusterCoordinator::Query(double phi, uint64_t now,
                                        QueryScope scope) {
  ClusterAnswer answer;
  Scoped scoped = CollectScope(now, scope, &answer);
  if (answer.nodes_merged > 0) answer.value = scoped.Quantile(phi);
  return answer;
}

ClusterAnswer ClusterCoordinator::Rank(uint64_t value, uint64_t now,
                                       QueryScope scope) {
  ClusterAnswer answer;
  Scoped scoped = CollectScope(now, scope, &answer);
  if (answer.nodes_merged > 0) answer.value = scoped.Rank(value);
  return answer;
}

obs::AuditReport ClusterCoordinator::AuditGlobal(
    const std::vector<const obs::ReservoirShadow*>& node_shadows,
    uint64_t now, QueryScope scope) {
  if (auditor_ == nullptr) return obs::AuditReport{};
  ClusterAnswer answer;
  Scoped scoped = CollectScope(now, scope, &answer);
  std::unique_ptr<obs::ReservoirShadow> shadow = obs::ReservoirShadow::Merged(
      node_shadows, audit_config_.reservoir,
      /*seed=*/0x636c7573ull + auditor_->rounds());
  if (shadow == nullptr) {
    shadow = std::make_unique<obs::ReservoirShadow>(audit_config_.reservoir,
                                                    0x636c7573ull);
  }
  if (answer.nodes_merged == 0) {
    // Nothing merged (no node ever reported): audit an empty-count round
    // so the report is honestly invalid instead of comparing against 0s.
    return auditor_->Audit([](double) { return uint64_t{0}; }, 0, *shadow);
  }
  return auditor_->Audit(
      [&scoped](double phi) { return scoped.Quantile(phi); },
      answer.reported_count, *shadow);
}

ClusterNodeStatus ClusterCoordinator::Status(int node, uint64_t now) const {
  const NodeView& view = views_[static_cast<size_t>(node)];
  ClusterNodeStatus status;
  status.reported = view.sketch != nullptr;
  status.suspect = Suspect(node, now);
  status.epoch = view.epoch;
  status.count = view.count;
  status.last_accept_tick = view.last_accept_tick;
  status.staleness_ticks =
      now > view.last_accept_tick ? now - view.last_accept_tick : 0;
  return status;
}

uint64_t ClusterCoordinator::ReportedCount() const {
  uint64_t total = 0;
  for (const NodeView& view : views_) total += view.count;
  return total;
}

uint64_t ClusterCoordinator::KnownCount(int node) const {
  return views_[static_cast<size_t>(node)].count;
}

uint64_t ClusterCoordinator::HighestEpoch(int node) const {
  return views_[static_cast<size_t>(node)].epoch;
}

size_t ClusterCoordinator::MemoryBytes() const {
  size_t total = 0;
  for (const NodeView& view : views_) {
    if (view.sketch != nullptr) total += view.sketch->MemoryBytes();
  }
  return total;
}

}  // namespace streamq::cluster
