// Network health monitoring, the paper's ISP motivation -- now end to
// end through the real service tier (src/net/): a streamq server on a TCP
// port, a StreamqClient feeding it per-packet latencies in batched frames,
// quantile queries answered mid-stream, a FLUSH whose ack is a durability
// guarantee, and finally the Prometheus /metrics scrape a fleet monitor
// would poll.
//
// Single process for the demo, but nothing here is in-process-only: the
// client speaks the wire protocol through a real socket, so splitting
// this file at the dashed lines gives a working server and a working
// monitor agent.
//
// The single-process predecessors of this demo: quickstart.cpp (one
// sketch, one stream), distributed_monitor.cpp (approximate union across
// sites), cluster_ingest.cpp (multi-node durable data path).

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "durability/storage.h"
#include "net/client.h"
#include "net/reactor.h"
#include "net/server.h"
#include "util/random.h"

int main() {
  using namespace streamq;

  // --- server side --------------------------------------------------------
  durability::MemStorage storage;  // PosixStorage in production
  net::ServerOptions server_options;
  server_options.storage = &storage;
  server_options.data_dir = "monitor-data";
  net::StreamqServer server(server_options);

  net::ReactorOptions reactor_options;  // ephemeral port on 127.0.0.1
  auto reactor = net::Reactor::Create(&server, reactor_options);
  if (reactor == nullptr) {
    std::fprintf(stderr, "could not bind a listening socket\n");
    return 1;
  }
  std::thread serving([&reactor] { reactor->Run(); });
  std::printf("serving on 127.0.0.1:%u (ephemeral port)\n\n",
              reactor->port());

  // --- client side --------------------------------------------------------
  auto client = net::StreamqClient::ConnectTcp("127.0.0.1", reactor->port());
  if (client == nullptr) {
    std::fprintf(stderr, "connect failed\n");
    reactor->Shutdown();
    serving.join();
    return 1;
  }

  net::CreateParams params;
  params.algorithm = "Random";
  params.eps = 0.001;
  // FLUSH acks below are real durability marks.
  params.durable = true;
  net::NetResponse resp = client->Create("rtt", params);
  if (!resp.ok()) {
    std::fprintf(stderr, "CREATE failed: %s\n", resp.message.c_str());
    return 1;
  }

  std::printf("%12s %10s %10s %10s %12s\n", "packets", "p50(us)", "p95(us)",
              "p99(us)", "flush-ack");

  Xoshiro256 rng(7);
  const uint64_t kTotal = 2'000'000;
  const size_t kBatch = 4096;
  std::vector<uint64_t> batch;
  batch.reserve(kBatch);
  for (uint64_t t = 0; t < kTotal; ++t) {
    // Base latency ~200us with jitter; a congestion episode mid-run shifts
    // the distribution so the reported quantiles must track the change.
    double latency_us = 200.0 + 40.0 * rng.NextGaussian();
    if (t > kTotal / 2 && t < kTotal * 3 / 4) {
      latency_us += 300.0 + 150.0 * rng.NextDouble();  // congestion
    }
    if (rng.NextDouble() < 0.001) latency_us += 5000.0;  // retransmit tail
    if (latency_us < 1.0) latency_us = 1.0;
    batch.push_back(static_cast<uint64_t>(latency_us));

    if (batch.size() == kBatch) {
      resp = client->InsertBatch("rtt", batch);
      if (!resp.ok()) {
        std::fprintf(stderr, "BATCH_INSERT failed: %s\n",
                     resp.message.c_str());
        return 1;
      }
      batch.clear();
    }

    if ((t + 1) % 500'000 == 0) {
      if (!batch.empty()) {
        client->InsertBatch("rtt", batch);
        batch.clear();
      }
      // The FLUSH ack means: every packet sent so far survives a server
      // crash. Then query the live quantiles over the wire.
      const net::NetResponse flush = client->Flush("rtt");
      const uint64_t p50 = client->Query("rtt", 0.50).value;
      const uint64_t p95 = client->Query("rtt", 0.95).value;
      const uint64_t p99 = client->Query("rtt", 0.99).value;
      std::printf("%12llu %10llu %10llu %10llu %12llu\n",
                  static_cast<unsigned long long>(t + 1),
                  static_cast<unsigned long long>(p50),
                  static_cast<unsigned long long>(p95),
                  static_cast<unsigned long long>(p99),
                  static_cast<unsigned long long>(flush.value));
    }
  }

  // --- what the fleet monitor sees ---------------------------------------
  std::printf("\n--- /metrics scrape (excerpt) ---\n");
  const std::string metrics = server.MetricsText();
  // Print just the request/byte counters; the full text also carries every
  // per-stream pipeline metric and the per-opcode latency summaries.
  size_t pos = 0;
  int lines = 0;
  while (pos < metrics.size() && lines < 24) {
    size_t eol = metrics.find('\n', pos);
    if (eol == std::string::npos) eol = metrics.size();
    const std::string line = metrics.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.find("net_requests") != std::string::npos ||
        line.find("net_bytes") != std::string::npos) {
      std::printf("  %s\n", line.c_str());
      ++lines;
    }
  }

  client->Drop("rtt");
  client.reset();
  reactor->Shutdown();
  serving.join();
  std::printf("\nnote the p95/p99 rise once the congestion episode starts "
              "(packets 1M..1.5M); every reported figure crossed the wire, "
              "and every flush-ack was a durable mark.\n");
  return 0;
}
