// Continuous distributed quantile monitoring (extension; the paper's
// related work cites Cormode et al. SIGMOD'05 and Yi & Zhang,
// Algorithmica'13).
//
// k sites each observe a local stream; a coordinator must be able to answer
// eps-approximate quantiles over the union at any time, while keeping the
// site -> coordinator communication far below shipping the raw streams.
//
// Protocol (count-triggered synchronisation, hardened for a lossy
// transport): every site keeps a local GKArray summary with error eps/2 and
// ships it -- as real serialized, CRC32C-framed bytes -- whenever its local
// count has grown by a factor (1 + theta) since the last shipment
// (theta = eps/2 restores the eps guarantee over a perfect channel).
// Shipments and acknowledgments travel through one FaultyChannel pair
// (see channel.h), which can drop, duplicate, reorder, delay, and corrupt
// messages under a deterministic seed and a virtual clock (one tick per
// observed element). The protocol is the cluster tier's: sites follow the
// shared shipping rules (shipping.h), frames are the cluster's shipment
// and ack (wire.h), and the coordinator is a ClusterCoordinator configured
// for GKArray at eps/2, which answers from the weighted union of the
// sites' tuples. Degradation is exposed honestly: StalenessBound() reports
// the number of observed elements not yet reflected in any accepted
// shipment -- the worst-case extra rank error on top of eps * n.
//
// The monitor keeps its own harness (in-memory GKArray sites, one shared
// channel pair) rather than running as a QuantileCluster: a cluster node
// runs a pipeline, which needs a mergeable summary, and the mergeable ones
// ship about 4x the bytes of a GKArray at the same eps (DESIGN.md section
// 13).

#ifndef STREAMQ_CLUSTER_MONITOR_H_
#define STREAMQ_CLUSTER_MONITOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/channel.h"
#include "cluster/coordinator.h"
#include "cluster/site.h"

namespace streamq {

/// Transport and retry configuration of a monitor. Defaults give a
/// perfect, instantaneous channel — the behaviour of the classic protocol.
struct MonitorOptions {
  FaultSpec data_faults;  ///< site -> coordinator direction
  FaultSpec ack_faults;   ///< coordinator -> site direction
  RetryPolicy retry;
  uint64_t seed = 1;  ///< drives all fault-injection randomness
};

class DistributedQuantileMonitor {
 public:
  /// num_sites remote observers; eps: total rank-error target; theta:
  /// staleness factor (defaults to eps/2, the analysis-backed choice).
  DistributedQuantileMonitor(int num_sites, double eps, double theta = -1.0,
                             const MonitorOptions& options = {});

  /// One element observed at `site` (0-based). Advances the virtual clock
  /// one tick: may trigger a shipment, deliver due messages, retransmit.
  void Observe(int site, uint64_t value);

  /// Coordinator-side phi-quantile over everything the coordinator has
  /// accepted so far.
  uint64_t Query(double phi);

  /// Coordinator-side rank estimate.
  int64_t EstimateRank(uint64_t value);

  /// Total elements observed across all sites.
  uint64_t GlobalCount() const;

  /// Worst-case extra rank error of coordinator answers beyond eps * n:
  /// the number of observed elements not yet reflected in any accepted
  /// shipment. 0 once quiesced over any channel that eventually delivers.
  uint64_t StalenessBound() const;

  /// Runs the protocol with no new observations until every site is fully
  /// acked and both channels are drained (or `max_ticks` elapse — only a
  /// channel that drops everything forever gets that far). Returns true if
  /// fully quiesced.
  bool Quiesce(uint64_t max_ticks = 200'000);

  // --- accounting ------------------------------------------------------

  /// Total site -> coordinator bytes offered to the wire (serialized
  /// framed summaries, retransmissions included).
  size_t CommunicationBytes() const;

  /// Number of summary shipments offered so far (retransmissions included).
  size_t ShipmentCount() const;

  /// Retransmissions alone.
  size_t RetransmitCount() const;

  /// Accounting bytes of coordinator state (latest summary per site).
  size_t CoordinatorMemoryBytes() const;

  int num_sites() const { return static_cast<int>(sites_.size()); }
  uint64_t now() const { return now_; }

  const cluster::ClusterCoordinator& coordinator() const {
    return coordinator_;
  }
  const ChannelStats& data_channel_stats() const {
    return data_channel_.stats();
  }
  const ChannelStats& ack_channel_stats() const {
    return ack_channel_.stats();
  }

 private:
  /// Delivers due shipments to the coordinator, routes due acks back to
  /// sites, and lets every site retransmit if its backoff expired.
  void Pump();

  uint64_t now_ = 0;
  std::vector<std::unique_ptr<MonitorSite>> sites_;
  cluster::ClusterCoordinator coordinator_;
  FaultyChannel data_channel_;
  FaultyChannel ack_channel_;
};

}  // namespace streamq

#endif  // STREAMQ_CLUSTER_MONITOR_H_
