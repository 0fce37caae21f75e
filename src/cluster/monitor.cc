#include "cluster/monitor.h"

#include <cassert>
#include <string>

#include "cluster/wire.h"

namespace streamq {

namespace {

cluster::ClusterCoordinatorOptions CoordinatorOptionsOf(int num_sites,
                                                        double eps) {
  cluster::ClusterCoordinatorOptions c;
  c.nodes = num_sites;
  c.sketch.algorithm = Algorithm::kGkArray;
  c.sketch.eps = eps / 2.0;
  return c;
}

}  // namespace

DistributedQuantileMonitor::DistributedQuantileMonitor(
    int num_sites, double eps, double theta, const MonitorOptions& options)
    : coordinator_(CoordinatorOptionsOf(num_sites, eps)),
      data_channel_(options.data_faults, options.seed * 2 + 1),
      ack_channel_(options.ack_faults, options.seed * 2 + 2) {
  assert(num_sites > 0);
  sites_.reserve(num_sites);
  for (int i = 0; i < num_sites; ++i) {
    sites_.push_back(std::make_unique<MonitorSite>(
        i, eps / 2.0, theta > 0 ? theta : eps / 2.0, options.retry));
  }
}

void DistributedQuantileMonitor::Observe(int site, uint64_t value) {
  assert(site >= 0 && site < num_sites());
  ++now_;
  sites_[site]->Observe(value, now_, data_channel_);
  Pump();
}

void DistributedQuantileMonitor::Pump() {
  for (std::string& msg : data_channel_.Poll(now_)) {
    coordinator_.HandleShipment(msg, now_, ack_channel_);
  }
  for (std::string& bytes : ack_channel_.Poll(now_)) {
    AckFrame ack;
    // A corrupted ack fails frame validation and is simply dropped; the
    // affected site keeps retrying.
    if (!DecodeAck(bytes, &ack)) continue;
    if (ack.node >= sites_.size()) continue;
    sites_[ack.node]->HandleAck(ack);
  }
  for (auto& s : sites_) s->Tick(now_, data_channel_);
}

uint64_t DistributedQuantileMonitor::Query(double phi) {
  return coordinator_.Query(phi, now_).value;
}

int64_t DistributedQuantileMonitor::EstimateRank(uint64_t value) {
  return static_cast<int64_t>(coordinator_.Rank(value, now_).value);
}

uint64_t DistributedQuantileMonitor::GlobalCount() const {
  uint64_t total = 0;
  for (const auto& s : sites_) total += s->count();
  return total;
}

uint64_t DistributedQuantileMonitor::StalenessBound() const {
  uint64_t total = 0;
  for (int i = 0; i < num_sites(); ++i) {
    const uint64_t observed = sites_[i]->count();
    const uint64_t known = coordinator_.KnownCount(i);
    if (observed > known) total += observed - known;
  }
  return total;
}

bool DistributedQuantileMonitor::Quiesce(uint64_t max_ticks) {
  const uint64_t deadline = now_ + max_ticks;
  for (auto& s : sites_) s->ForceShip(now_, data_channel_);
  while (now_ < deadline) {
    ++now_;
    Pump();
    bool settled = data_channel_.Idle() && ack_channel_.Idle();
    for (const auto& s : sites_) {
      settled = settled && !s->shipping().HasUnacked();
    }
    if (settled && StalenessBound() == 0) return true;
  }
  return false;
}

size_t DistributedQuantileMonitor::CommunicationBytes() const {
  return data_channel_.stats().bytes_offered;
}

size_t DistributedQuantileMonitor::ShipmentCount() const {
  size_t total = 0;
  for (const auto& s : sites_) total += s->shipping().shipments();
  return total;
}

size_t DistributedQuantileMonitor::RetransmitCount() const {
  size_t total = 0;
  for (const auto& s : sites_) total += s->shipping().retransmits();
  return total;
}

size_t DistributedQuantileMonitor::CoordinatorMemoryBytes() const {
  return coordinator_.MemoryBytes();
}

}  // namespace streamq
