// bench_net: the network service tier's deployment numbers (DESIGN.md
// section 15) -- sustained insert throughput and query latency over TCP
// loopback vs concurrent client count, for both framing granularities:
//
//   * INSERT        one value per frame, pipelined (window-limited)
//   * BATCH_INSERT  4096 values per frame, pipelined
//
// The ratio between the two lanes is the acceptance gate of the network
// tier: a 4096-element frame must amortise the per-frame costs (syscall,
// header, CRC, response) to >= 10x the single-item inserts/sec at one
// client. Query latency is measured synchronously (one round trip per
// QUERY) against a populated stream, reported as p50/p99.
//
// Not a paper figure: the paper measures in-process summaries. This bench
// backs src/net/ the way bench_cluster backs src/cluster/: it prices the
// wire. Loopback TCP keeps the numbers about the protocol + reactor, not
// the NIC.
//
// Usage: bench_net [--json] [OUT.json]
//   --json         write the BENCH_baseline.json "net" section (to
//                  OUT.json, default stdout; splice it into the committed
//                  baseline with `scripts/check_bench_json.py
//                  BENCH_baseline.json --splice net OUT.json`)
//
// Scale knobs: STREAMQ_SCALE as everywhere (base counts below).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "net/client.h"
#include "net/reactor.h"
#include "net/server.h"

namespace streamq::bench {
namespace {

constexpr size_t kBatch = 4096;
constexpr size_t kPipelineWindow = 256;  // outstanding frames per client

struct SweepPoint {
  int clients = 0;
  double insert_per_sec = 0.0;
  double batch_insert_per_sec = 0.0;
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;
};

/// Server + reactor on a background thread, ephemeral loopback port.
class Fixture {
 public:
  Fixture() {
    net::ServerOptions options;
    options.ring_capacity = 1 << 16;
    server_ = std::make_unique<net::StreamqServer>(options);
    reactor_ = net::Reactor::Create(server_.get(), net::ReactorOptions{});
    if (reactor_ == nullptr) {
      std::fprintf(stderr, "bench_net: cannot bind a loopback socket\n");
      std::exit(1);
    }
    thread_ = std::thread([this] { reactor_->Run(); });
  }

  ~Fixture() {
    reactor_->Shutdown();
    thread_.join();
  }

  std::unique_ptr<net::StreamqClient> Connect() {
    net::ClientOptions options;
    options.io_timeout_ms = 60000;
    auto client =
        net::StreamqClient::ConnectTcp("127.0.0.1", reactor_->port(), options);
    if (client == nullptr) {
      std::fprintf(stderr, "bench_net: connect failed\n");
      std::exit(1);
    }
    return client;
  }

 private:
  std::unique_ptr<net::StreamqServer> server_;
  std::unique_ptr<net::Reactor> reactor_;
  std::thread thread_;
};

void Check(const net::NetResponse& resp, const char* what) {
  if (!resp.ok()) {
    std::fprintf(stderr, "bench_net: %s failed: %s\n", what,
                 resp.message.c_str());
    std::exit(1);
  }
}

/// Sends `n_values` through `client` as pipelined single INSERTs or
/// as pipelined 4096-element BATCH_INSERT frames; every response checked.
void PushValues(net::StreamqClient& client, const std::string& stream,
                uint64_t n_values, bool batched, uint64_t salt) {
  net::NetResponse resp;
  uint64_t sent = 0;
  while (sent < n_values) {
    net::NetRequest req;
    req.stream = stream;
    if (batched) {
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(kBatch, n_values - sent));
      req.op = net::NetOp::kBatchInsert;
      req.values.resize(take);
      for (size_t i = 0; i < take; ++i) {
        req.values[i] = (salt + sent + i) * 2654435761u % (uint64_t{1} << 24);
      }
      sent += take;
    } else {
      req.op = net::NetOp::kInsert;
      req.value = (salt + sent) * 2654435761u % (uint64_t{1} << 24);
      ++sent;
    }
    if (client.Send(std::move(req)) == 0) {
      std::fprintf(stderr, "bench_net: send failed: %s\n",
                   client.error().c_str());
      std::exit(1);
    }
    while (client.outstanding() >= kPipelineWindow) {
      if (!client.Receive(&resp)) {
        std::fprintf(stderr, "bench_net: receive failed: %s\n",
                     client.error().c_str());
        std::exit(1);
      }
      Check(resp, batched ? "BATCH_INSERT" : "INSERT");
    }
  }
  std::vector<net::NetResponse> rest;
  if (!client.DrainAll(&rest)) {
    std::fprintf(stderr, "bench_net: drain failed: %s\n",
                 client.error().c_str());
    std::exit(1);
  }
  for (const net::NetResponse& r : rest) {
    Check(r, batched ? "BATCH_INSERT" : "INSERT");
  }
}

/// One insert lane: `clients` threads, each its own connection, all
/// pushing concurrently. Returns aggregate inserts/sec.
double RunInsertLane(Fixture& fixture, const std::string& stream, int clients,
                     uint64_t values_per_client, bool batched) {
  std::vector<std::unique_ptr<net::StreamqClient>> conns;
  for (int c = 0; c < clients; ++c) conns.push_back(fixture.Connect());

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    net::StreamqClient* client = conns[static_cast<size_t>(c)].get();
    threads.emplace_back([client, &stream, values_per_client, batched, c] {
      PushValues(*client, stream, values_per_client, batched,
                 static_cast<uint64_t>(c) * 0x9E3779B9u);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto stop = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(values_per_client) * clients / secs;
}

/// Synchronous query lane: every thread round-trips `queries_per_client`
/// QUERYs; all latencies merged for the percentiles.
void RunQueryLane(Fixture& fixture, const std::string& stream, int clients,
                  int queries_per_client, SweepPoint* point) {
  std::vector<std::unique_ptr<net::StreamqClient>> conns;
  for (int c = 0; c < clients; ++c) conns.push_back(fixture.Connect());

  std::vector<std::vector<double>> lat_us(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    net::StreamqClient* client = conns[static_cast<size_t>(c)].get();
    std::vector<double>* lats = &lat_us[static_cast<size_t>(c)];
    threads.emplace_back([client, &stream, queries_per_client, lats, c] {
      lats->reserve(static_cast<size_t>(queries_per_client));
      for (int q = 0; q < queries_per_client; ++q) {
        const double phi =
            0.001 + 0.998 * ((q * 31 + c * 7) % 1000) / 1000.0;
        const auto t0 = std::chrono::steady_clock::now();
        const net::NetResponse resp = client->Query(stream, phi);
        const auto t1 = std::chrono::steady_clock::now();
        Check(resp, "QUERY");
        lats->push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> all;
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  point->query_p50_us = all[all.size() / 2];
  point->query_p99_us = all[all.size() * 99 / 100];
}

SweepPoint RunSweepPoint(int clients, uint64_t insert_values_per_client,
                         uint64_t batch_values_per_client,
                         int queries_per_client) {
  SweepPoint point;
  point.clients = clients;

  Fixture fixture;
  {
    auto setup = fixture.Connect();
    net::CreateParams params;
    params.algorithm = "Random";
    params.eps = 0.001;
    params.log_universe = 24;
    Check(setup->Create("bench", params), "CREATE");
  }

  point.insert_per_sec = RunInsertLane(fixture, "bench", clients,
                                       insert_values_per_client, false);
  point.batch_insert_per_sec = RunInsertLane(fixture, "bench", clients,
                                             batch_values_per_client, true);
  {
    auto c = fixture.Connect();
    Check(c->Flush("bench"), "FLUSH");
  }
  RunQueryLane(fixture, "bench", clients, queries_per_client, &point);
  return point;
}

int Main(int argc, char** argv) {
  bool as_json = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      as_json = true;
    } else {
      out_path = argv[i];
    }
  }

  const uint64_t insert_per_client = ScaledN(100'000);
  const uint64_t batch_per_client = ScaledN(2'000'000);
  const int queries_per_client = 1000;

  std::vector<SweepPoint> sweep;
  for (const int clients : {1, 4, 16}) {
    std::fprintf(stderr,
                 "net sweep: %d client(s), %llu single + %llu batched "
                 "values each\n",
                 clients, static_cast<unsigned long long>(insert_per_client),
                 static_cast<unsigned long long>(batch_per_client));
    sweep.push_back(RunSweepPoint(clients, insert_per_client,
                                  batch_per_client, queries_per_client));
  }

  if (!as_json) {
    std::printf("network service (Random eps=0.001, TCP loopback, "
                "window %zu, batch %zu)\n\n",
                kPipelineWindow, kBatch);
    std::printf("%8s %16s %18s %10s %12s %12s\n", "clients", "insert/sec",
                "batch-insert/sec", "speedup", "query p50us", "query p99us");
    for (const SweepPoint& p : sweep) {
      std::printf("%8d %16.0f %18.0f %9.1fx %12.1f %12.1f\n", p.clients,
                  p.insert_per_sec, p.batch_insert_per_sec,
                  p.batch_insert_per_sec / p.insert_per_sec, p.query_p50_us,
                  p.query_p99_us);
    }
    return 0;
  }

  std::string json = "{\n";
  json += "  \"algorithm\": \"Random\",\n";
  json += "  \"transport\": \"tcp-loopback\",\n";
  json += "  \"batch\": " + std::to_string(kBatch) + ",\n";
  json += "  \"pipeline_window\": " + std::to_string(kPipelineWindow) + ",\n";
  json += "  \"insert_values_per_client\": " +
          std::to_string(insert_per_client) + ",\n";
  json += "  \"batch_values_per_client\": " +
          std::to_string(batch_per_client) + ",\n";
  json += "  \"sweep\": [\n";
  bool first = true;
  for (const SweepPoint& p : sweep) {
    if (!first) json += ",\n";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"clients\": %d, \"insert_per_sec\": %.1f, "
                  "\"batch_insert_per_sec\": %.1f, \"query_p50_us\": %.3f, "
                  "\"query_p99_us\": %.3f}",
                  p.clients, p.insert_per_sec, p.batch_insert_per_sec,
                  p.query_p50_us, p.query_p99_us);
    json += buf;
  }
  json += "\n  ]\n}\n";

  if (out_path == nullptr) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_net: cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "bench_net: wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace streamq::bench

int main(int argc, char** argv) { return streamq::bench::Main(argc, argv); }
