#include "cluster/site.h"

#include "cluster/wire.h"

namespace streamq {

MonitorSite::MonitorSite(int id, double eps_local, double theta,
                         RetryPolicy retry)
    : id_(id), summary_(eps_local), rules_(theta, retry) {}

void MonitorSite::Observe(uint64_t value, uint64_t now, FaultyChannel& tx) {
  summary_.Insert(value);
  if (rules_.Triggered(count())) Ship(now, tx, /*retransmit=*/false);
}

void MonitorSite::Ship(uint64_t now, FaultyChannel& tx, bool retransmit) {
  summary_.impl().Flush();
  cluster::ClusterShipment shipment;
  shipment.node = static_cast<uint32_t>(id_);
  shipment.count = count();
  shipment.epoch = rules_.Shipped(now, shipment.count, retransmit);
  shipment.sketch_frame = summary_.Serialize();
  tx.Send(now, cluster::EncodeShipment(shipment));
}

void MonitorSite::Tick(uint64_t now, FaultyChannel& tx) {
  rules_.Tick(now, [&](bool retransmit) { Ship(now, tx, retransmit); });
}

void MonitorSite::ForceShip(uint64_t now, FaultyChannel& tx) {
  if (count() > rules_.last_shipped_count()) {
    Ship(now, tx, /*retransmit=*/false);
  }
}

}  // namespace streamq
