// bench_net_resilience: what the self-healing client costs (DESIGN.md
// section 16) -- two lanes over TCP loopback:
//
//   * reconnect latency: a ResilientClient is pushing steadily when its
//     connection takes an injected RST; the measured interval covers
//     redial + CREATE/RESUME handshake + replay of the in-flight tail +
//     a FLUSH round trip, i.e. the full time the producer is stalled by
//     one transport death. Reported as p50/p99 over many kills.
//
//   * throughput under faults: the same bulk push once over perfect
//     connections and once through FaultyConn with ~1% fault rates
//     (short reads/writes, would-blocks, occasional bit flips and
//     resets). The committed gate (check_bench_json.py's table) is
//     the RATIO: the faulty lane must sustain >= 50% of clean -- chaos
//     may tax the wire, it must not collapse it.
//
// Both lanes run the exactly-once protocol for real: every lane ends in
// a FLUSH and a COUNT cross-check, so a lane that dropped or
// double-counted values fails instead of reporting a pretty number.
//
// Usage: bench_net_resilience [--json] [OUT.json]
//   --json         write the BENCH_baseline.json "net_resilience" section (to
//                  OUT.json, default stdout; splice it into the committed
//                  baseline with `scripts/check_bench_json.py
//                  BENCH_baseline.json --splice net_resilience OUT.json`)
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
#include "net/faulty_conn.h"
#include "net/reactor.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "net/socket.h"

namespace streamq::bench {
namespace {

constexpr size_t kBatch = 4096;
constexpr double kFaultRate = 0.01;

/// Server + reactor on a background thread, ephemeral loopback port.
class Fixture {
 public:
  Fixture() {
    net::ServerOptions options;
    options.ring_capacity = 1 << 16;
    server_ = std::make_unique<net::StreamqServer>(options);
    reactor_ = net::Reactor::Create(server_.get(), net::ReactorOptions{});
    if (reactor_ == nullptr) {
      std::fprintf(stderr, "bench_net_resilience: cannot bind loopback\n");
      std::exit(1);
    }
    thread_ = std::thread([this] { reactor_->Run(); });
  }

  ~Fixture() {
    reactor_->Shutdown();
    thread_.join();
  }

  uint16_t port() const { return reactor_->port(); }

 private:
  std::unique_ptr<net::StreamqServer> server_;
  std::unique_ptr<net::Reactor> reactor_;
  std::thread thread_;
};

net::CreateParams Params() {
  net::CreateParams params;
  params.algorithm = "Random";
  params.eps = 0.001;
  params.log_universe = 24;
  return params;
}

net::ResilientOptions ClientOptions() {
  net::ResilientOptions options;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 16;
  options.batch_values = kBatch;
  options.max_attempts = 256;
  options.client.io_timeout_ms = 60000;
  return options;
}

std::unique_ptr<net::Conn> Dial(uint16_t port) {
  const int fd = net::TcpConnectEx(
      "127.0.0.1", port, /*timeout_ms=*/5000, nullptr, nullptr);
  if (fd < 0) return nullptr;
  return std::make_unique<net::SocketConn>(fd);
}

/// ~1% chaos: mostly short/blocked IO, a whiff of corruption and resets.
/// Kept identical between runs (seed below) so the lane is reproducible.
net::ConnFaultSpec FaultSpec() {
  net::ConnFaultSpec spec;
  spec.short_read = kFaultRate;
  spec.short_write = kFaultRate;
  spec.read_would_block = kFaultRate / 2;
  spec.write_would_block = kFaultRate / 2;
  spec.bit_flip_write = kFaultRate / 20;
  spec.reset = kFaultRate / 50;
  return spec;
}

void CheckCount(net::ResilientClient& client, uint64_t expected,
                const char* lane) {
  const net::NetResponse stats = client.Stats();
  if (!stats.ok() || stats.stats.count != expected) {
    std::fprintf(stderr,
                 "bench_net_resilience: %s lane lost exactness: count %llu "
                 "!= pushed %llu (%s)\n",
                 lane, static_cast<unsigned long long>(stats.stats.count),
                 static_cast<unsigned long long>(expected),
                 stats.message.c_str());
    std::exit(1);
  }
}

/// Reconnect lane: kill the live connection `kills` times mid-stream and
/// time each redial+replay+flush recovery.
struct ReconnectResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t reconnects = 0;
  uint64_t replayed_values = 0;
};

ReconnectResult RunReconnectLane(int kills, uint64_t values_between) {
  Fixture fixture;
  std::atomic<net::FaultyConn*> live{nullptr};
  const uint16_t port = fixture.port();
  net::ResilientClient client(
      [port, &live]() -> std::unique_ptr<net::Conn> {
        auto base = Dial(port);
        if (base == nullptr) return nullptr;
        // A perfect FaultyConn: no probabilistic faults, just the
        // InjectReset handle the kill loop needs.
        auto conn = std::make_unique<net::FaultyConn>(
            std::move(base), net::ConnFaultSpec::Perfect(), /*seed=*/1);
        live.store(conn.get(), std::memory_order_release);
        return conn;
      },
      "reconnect", Params(), ClientOptions());

  uint64_t pushed = 0;
  std::vector<double> recovery_us;
  recovery_us.reserve(static_cast<size_t>(kills));
  for (int k = 0; k < kills; ++k) {
    for (uint64_t i = 0; i < values_between; ++i) {
      if (!client.Push((pushed + i) * 2654435761u % (uint64_t{1} << 24))) {
        std::fprintf(stderr, "bench_net_resilience: push died: %s\n",
                     client.error().c_str());
        std::exit(1);
      }
    }
    pushed += values_between;
    net::FaultyConn* conn = live.load(std::memory_order_acquire);
    conn->InjectReset();
    // Everything from here until the flush ack is recovery work: the
    // client discovers the corpse, redials, RESUMEs, replays the unacked
    // tail, and re-runs the durability barrier.
    const auto t0 = std::chrono::steady_clock::now();
    if (!client.Flush()) {
      std::fprintf(stderr, "bench_net_resilience: flush died: %s\n",
                   client.error().c_str());
      std::exit(1);
    }
    const auto t1 = std::chrono::steady_clock::now();
    recovery_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  CheckCount(client, pushed, "reconnect");

  std::sort(recovery_us.begin(), recovery_us.end());
  ReconnectResult result;
  result.p50_us = recovery_us[recovery_us.size() / 2];
  result.p99_us = recovery_us[recovery_us.size() * 99 / 100];
  result.reconnects = client.counters().reconnects;
  result.replayed_values = client.counters().replayed_values;
  return result;
}

/// Throughput lane: one bulk push + flush; `faulty` selects the chaos
/// transport. Returns sustained values/sec.
double RunThroughputLane(uint64_t n_values, bool faulty) {
  Fixture fixture;
  const uint16_t port = fixture.port();
  std::atomic<uint64_t> seed{100};
  net::ResilientClient client(
      [port, faulty, &seed]() -> std::unique_ptr<net::Conn> {
        auto base = Dial(port);
        if (base == nullptr || !faulty) return base;
        return std::make_unique<net::FaultyConn>(
            std::move(base), FaultSpec(),
            seed.fetch_add(1, std::memory_order_relaxed));
      },
      faulty ? "faulty" : "clean", Params(), ClientOptions());

  const auto start = std::chrono::steady_clock::now();
  uint64_t sent = 0;
  std::vector<uint64_t> chunk(kBatch);
  while (sent < n_values) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(kBatch, n_values - sent));
    for (size_t i = 0; i < take; ++i) {
      chunk[i] = (sent + i) * 2654435761u % (uint64_t{1} << 24);
    }
    if (!client.PushBatch({chunk.data(), take})) {
      std::fprintf(stderr, "bench_net_resilience: push died: %s\n",
                   client.error().c_str());
      std::exit(1);
    }
    sent += take;
  }
  if (!client.Flush()) {
    std::fprintf(stderr, "bench_net_resilience: flush died: %s\n",
                 client.error().c_str());
    std::exit(1);
  }
  const auto stop = std::chrono::steady_clock::now();
  CheckCount(client, n_values, faulty ? "faulty" : "clean");
  const double secs = std::chrono::duration<double>(stop - start).count();
  std::fprintf(stderr,
               "  %s lane: %.2fs, %llu reconnect(s), %llu connect "
               "failure(s), %llu value(s) replayed\n",
               faulty ? "faulty" : "clean", secs,
               static_cast<unsigned long long>(client.counters().reconnects),
               static_cast<unsigned long long>(
                   client.counters().connect_failures),
               static_cast<unsigned long long>(
                   client.counters().replayed_values));
  return static_cast<double>(n_values) / secs;
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

  // ScaledN floors at 1000, far too many kill cycles: fixed count here.
  const int kills = 50;
  const uint64_t values_between = 20'000;
  const uint64_t throughput_values = ScaledN(2'000'000);

  std::fprintf(stderr, "reconnect lane: %d kill(s), %llu values between\n",
               kills, static_cast<unsigned long long>(values_between));
  const ReconnectResult reconnect = RunReconnectLane(kills, values_between);
  std::fprintf(stderr, "clean lane: %llu values\n",
               static_cast<unsigned long long>(throughput_values));
  const double clean = RunThroughputLane(throughput_values, /*faulty=*/false);
  std::fprintf(stderr, "faulty lane: %llu values at %.1f%% faults\n",
               static_cast<unsigned long long>(throughput_values),
               kFaultRate * 100.0);
  const double faulty = RunThroughputLane(throughput_values, /*faulty=*/true);

  if (!as_json) {
    std::printf("network resilience (Random eps=0.001, TCP loopback, "
                "batch %zu)\n\n",
                kBatch);
    std::printf("reconnect+replay+flush recovery over %d kills: "
                "p50 %.1f us, p99 %.1f us (%llu reconnects, %llu values "
                "replayed)\n",
                kills, reconnect.p50_us, reconnect.p99_us,
                static_cast<unsigned long long>(reconnect.reconnects),
                static_cast<unsigned long long>(reconnect.replayed_values));
    std::printf("throughput: clean %.0f values/sec, %.1f%% faults %.0f "
                "values/sec (%.0f%% of clean)\n",
                clean, kFaultRate * 100.0, faulty, 100.0 * faulty / clean);
    return 0;
  }

  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"algorithm\": \"Random\",\n"
      "  \"transport\": \"tcp-loopback\",\n"
      "  \"batch\": %zu,\n"
      "  \"fault_rate\": %.4f,\n"
      "  \"kills\": %d,\n"
      "  \"reconnects\": %llu,\n"
      "  \"replayed_values\": %llu,\n"
      "  \"reconnect_p50_us\": %.3f,\n"
      "  \"reconnect_p99_us\": %.3f,\n"
      "  \"clean_insert_per_sec\": %.1f,\n"
      "  \"faulty_insert_per_sec\": %.1f\n"
      "}\n",
      kBatch, kFaultRate, kills,
      static_cast<unsigned long long>(reconnect.reconnects),
      static_cast<unsigned long long>(reconnect.replayed_values),
      reconnect.p50_us, reconnect.p99_us, clean, faulty);
  const std::string json = buf;

  if (out_path == nullptr) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_net_resilience: cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "bench_net_resilience: wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace streamq::bench

int main(int argc, char** argv) { return streamq::bench::Main(argc, argv); }
