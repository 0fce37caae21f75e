// Robustness experiment: communication cost and answer quality of the
// distributed monitor as the channel degrades.
//
// Sweeps the drop rate of both channel directions from 0 to 0.5 (plus a
// combined drop+duplicate+reorder+corrupt row) with everything else held
// fixed: 4 sites, eps = 0.05, a skewed per-site uniform workload, fixed
// seeds. Reported per row:
//   bytes       site->coordinator bytes offered (retransmits included)
//   ship/rtx    initial shipments / retransmissions
//   rejected    coordinator-rejected deliveries (corrupt+stale+malformed)
//   staleness   StalenessBound() right after the last observation
//   max_err     max normalised rank error vs the exact oracle after
//               quiescing (should stay ~eps regardless of the drop rate)
//
// The point of the table: retries buy back correctness (max_err flat), and
// the price is bandwidth (bytes grow with drop rate), exactly the trade the
// fault model predicts.

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/monitor.h"
#include "exact/exact_oracle.h"
#include "harness.h"
#include "util/random.h"

using namespace streamq;
using namespace streamq::bench;

int main() {
  const double eps = 0.05;
  const int kSites = 4;
  const uint64_t n = ScaledN(200'000);

  struct Row {
    std::string name;
    FaultSpec faults;
  };
  std::vector<Row> rows;
  for (double drop : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    FaultSpec f;
    f.drop = drop;
    f.min_delay = 1;
    f.max_delay = 8;
    char name[32];
    std::snprintf(name, sizeof(name), "drop=%.1f", drop);
    rows.push_back({name, f});
  }
  {
    FaultSpec f;
    f.drop = 0.2;
    f.duplicate = 0.2;
    f.reorder = 0.2;
    f.corrupt = 0.2;
    f.min_delay = 1;
    f.max_delay = 12;
    rows.push_back({"combined(0.2)", f});
  }

  PrintHeader("Distributed monitor vs channel faults (4 sites, eps=0.05)",
              {"faults", "bytes", "ship/rtx", "rejected", "staleness",
               "max_err"});

  for (const Row& row : rows) {
    MonitorOptions options;
    options.data_faults = row.faults;
    options.ack_faults = row.faults;
    options.seed = 17;
    DistributedQuantileMonitor monitor(kSites, eps, -1.0, options);
    Xoshiro256 rng(42);
    std::vector<uint64_t> observed;
    observed.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      const int site = static_cast<int>(rng.Below(kSites));
      const uint64_t value =
          static_cast<uint64_t>(site) * 1'000'000 + rng.Below(1'000'000);
      monitor.Observe(site, value);
      observed.push_back(value);
    }
    const uint64_t staleness = monitor.StalenessBound();
    monitor.Quiesce();

    const ExactOracle oracle(observed);
    double max_err = 0.0;
    for (int q = 1; q <= 99; ++q) {
      const double phi = q / 100.0;
      max_err = std::max(max_err,
                         oracle.QuantileError(monitor.Query(phi), phi));
    }

    const auto& cs = monitor.coordinator().stats();
    char shiprtx[48], rejected[32];
    std::snprintf(shiprtx, sizeof(shiprtx), "%zu/%zu",
                  monitor.ShipmentCount() - monitor.RetransmitCount(),
                  monitor.RetransmitCount());
    std::snprintf(rejected, sizeof(rejected), "%zu",
                  cs.rejected_corrupt + cs.rejected_stale +
                      cs.rejected_malformed);
    PrintRow({row.name, FmtBytes(monitor.CommunicationBytes()), shiprtx,
              rejected, std::to_string(staleness), FmtErr(max_err)});
  }
  return 0;
}
