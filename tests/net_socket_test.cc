// Network tier over real TCP: a reactor round-trip, the reactor's retry of
// sessions parked on a full ingest ring, 16 concurrent pipelined clients
// with corrupt frames interleaved among them, and the acceptance-criteria
// fault test: a server kill (simulated power loss via FaultyStorage) must
// lose nothing an acked FLUSH covered, across WAL recovery on restart.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "durability/faulty_storage.h"
#include "durability/storage.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "net/server.h"
#include "net/socket.h"

namespace streamq::net {
namespace {

using namespace std::chrono_literals;

/// Server + reactor on a background thread, bound to an ephemeral port.
class TcpFixture {
 public:
  explicit TcpFixture(ServerOptions server_options = {}) {
    server_ = std::make_unique<StreamqServer>(std::move(server_options));
    reactor_ = Reactor::Create(server_.get(), ReactorOptions{});
    if (reactor_ == nullptr) return;
    thread_ = std::thread([this] { reactor_->Run(); });
  }

  ~TcpFixture() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      reactor_->Shutdown();
      thread_.join();
    }
  }

  bool ok() const { return reactor_ != nullptr; }
  uint16_t port() const { return reactor_->port(); }
  StreamqServer& server() { return *server_; }

  std::unique_ptr<StreamqClient> Connect() {
    ClientOptions options;
    options.io_timeout_ms = 20000;
    return StreamqClient::ConnectTcp("127.0.0.1", port(), options);
  }

 private:
  std::unique_ptr<StreamqServer> server_;
  std::unique_ptr<Reactor> reactor_;
  std::thread thread_;
};

void RoundTrip(TcpFixture& fixture) {
  ASSERT_TRUE(fixture.ok());
  auto client = fixture.Connect();
  ASSERT_NE(client, nullptr);

  CreateParams params;
  params.algorithm = "Random";
  ASSERT_TRUE(client->Create("rt", params).ok());

  std::vector<uint64_t> values;
  for (uint64_t v = 1; v <= 2000; ++v) values.push_back(v);
  NetResponse resp = client->InsertBatch("rt", values);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.value, 2000u);

  ASSERT_TRUE(client->Flush("rt").ok());
  resp = client->Query("rt", 0.5);
  ASSERT_TRUE(resp.ok());
  EXPECT_NEAR(static_cast<double>(resp.value), 1000.0, 120.0);

  resp = client->Stats("rt");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.stats.pushed, 2000u);
  ASSERT_TRUE(client->Drop("rt").ok());
}

TEST(NetSocket, ReactorRoundTripPollFallback) {
  TcpFixture fixture;
  RoundTrip(fixture);
}

// No fd event fires when an ingest ring drains, so a parked session
// finishes only through the reactor's parked-work retry. One 256-slot ring
// and 4,096-value batches make every BATCH_INSERT park; the pipelined
// FLUSH and STATS behind them must still come back in request order.
TEST(NetSocket, ReactorRetriesParkedBatchesInOrder) {
  constexpr int kBatches = 12;
  constexpr uint64_t kBatchSize = 4096;
  ServerOptions options;
  options.ring_capacity = 256;
  TcpFixture fixture(std::move(options));
  ASSERT_TRUE(fixture.ok());
  auto client = fixture.Connect();
  ASSERT_NE(client, nullptr);
  CreateParams params;
  params.shards = 1;
  ASSERT_TRUE(client->Create("parked", params).ok());

  std::vector<uint64_t> ids;
  for (int b = 0; b < kBatches; ++b) {
    NetRequest batch;
    batch.op = NetOp::kBatchInsert;
    batch.stream = "parked";
    for (uint64_t i = 0; i < kBatchSize; ++i) {
      batch.values.push_back(static_cast<uint64_t>(b) * kBatchSize + i);
    }
    ids.push_back(client->Send(std::move(batch)));
  }
  NetRequest flush;
  flush.op = NetOp::kFlush;
  flush.stream = "parked";
  ids.push_back(client->Send(std::move(flush)));
  NetRequest stats;
  stats.op = NetOp::kStats;
  stats.stream = "parked";
  ids.push_back(client->Send(std::move(stats)));
  for (const uint64_t id : ids) ASSERT_NE(id, 0u) << client->error();

  std::vector<NetResponse> responses;
  ASSERT_TRUE(client->DrainAll(&responses)) << client->error();
  ASSERT_EQ(responses.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(responses[i].id, ids[i]) << "response " << i << " out of order";
    ASSERT_TRUE(responses[i].ok()) << responses[i].message;
  }
  for (int b = 0; b < kBatches; ++b) {
    EXPECT_EQ(responses[b].value, kBatchSize) << "batch " << b;
  }
  EXPECT_EQ(responses.back().stats.count, kBatches * kBatchSize);

  const std::string metrics = fixture.server().MetricsText();
  const std::string sample = "\nstreamq_net_parks_total ";
  const size_t at = metrics.find(sample);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::strtoull(metrics.c_str() + at + sample.size(), nullptr, 10),
            0u);
}

TEST(NetSocket, HttpScrapeOverTcp) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.ok());
  {
    auto client = fixture.Connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Create("h", CreateParams{}).ok());
    ASSERT_TRUE(client->Insert("h", 42).ok());
  }
  const int fd = TcpConnect("127.0.0.1", fixture.port(), 5000);
  ASSERT_GE(fd, 0);
  SocketConn conn(fd);
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  size_t off = 0;
  while (off < get.size()) {
    const int n = conn.Write(get.data() + off, get.size() - off);
    ASSERT_GE(n, 0);
    if (n == 0) {
      ASSERT_TRUE(conn.WaitWritable(2000));
      continue;
    }
    off += static_cast<size_t>(n);
  }
  std::string body;
  char buf[8192];
  const auto until = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), until) << "scrape timeout";
    if (!conn.WaitReadable(100)) continue;
    const int n = conn.Read(buf, sizeof(buf));
    if (n < 0) break;
    if (n > 0) body.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(body.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(body.find("streamq_net_requests_INSERT_total"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The pipelined-client fault test of the acceptance criteria: 16
// concurrent connections, a quarter of them hostile (corrupt frames
// interleaved with valid ones); every well-formed client's pipeline must
// complete, in order, while the server survives the hostiles.
// ---------------------------------------------------------------------------

TEST(NetSocket, SixteenConcurrentClientsWithCorruptFramesInterleaved) {
  constexpr int kClients = 16;
  constexpr int kBatchesPerClient = 20;
  constexpr size_t kBatchSize = 512;

  TcpFixture fixture;
  ASSERT_TRUE(fixture.ok());
  {
    auto setup = fixture.Connect();
    ASSERT_NE(setup, nullptr);
    ASSERT_TRUE(setup->Create("shared", CreateParams{}).ok());
  }

  std::atomic<int> good_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([c, &fixture, &good_failures] {
      const bool hostile = (c % 4) == 3;
      if (hostile) {
        // Interleave valid inserts with corrupted copies of the same
        // frame on one connection, plus raw garbage on another.
        const int fd = TcpConnect("127.0.0.1", fixture.port(), 5000);
        if (fd < 0) {
          ++good_failures;
          return;
        }
        SocketConn conn(fd);
        NetRequest req;
        req.op = NetOp::kInsert;
        req.stream = "shared";
        for (int i = 0; i < 200; ++i) {
          req.id = static_cast<uint64_t>(i + 1);
          req.value = static_cast<uint64_t>(i);
          std::string frame = EncodeRequest(req);
          if (i % 2 == 1) {
            frame[i % frame.size()] ^= 0x41;  // corrupt every other frame
          }
          size_t off = 0;
          while (off < frame.size()) {
            const int n = conn.Write(frame.data() + off, frame.size() - off);
            if (n < 0) return;  // server closed us: expected for hostiles
            if (n == 0) {
              if (!conn.WaitWritable(1000)) return;
              continue;
            }
            off += static_cast<size_t>(n);
          }
          // Drain whatever came back so the server's write queue moves.
          char buf[4096];
          const int r = conn.Read(buf, sizeof(buf));
          if (r < 0) return;
        }
        return;
      }
      // Well-formed pipelined client: its stream of batches must all be
      // accepted and answered in send order.
      auto client = fixture.Connect();
      if (client == nullptr) {
        ++good_failures;
        return;
      }
      std::vector<uint64_t> ids;
      for (int b = 0; b < kBatchesPerClient; ++b) {
        NetRequest req;
        req.op = NetOp::kBatchInsert;
        req.stream = "shared";
        req.values.resize(kBatchSize);
        for (size_t i = 0; i < kBatchSize; ++i) {
          req.values[i] = static_cast<uint64_t>(c) * 1000003 + i;
        }
        const uint64_t id = client->Send(std::move(req));
        if (id == 0) {
          ++good_failures;
          return;
        }
        ids.push_back(id);
      }
      std::vector<NetResponse> responses;
      if (!client->DrainAll(&responses) || responses.size() != ids.size()) {
        ++good_failures;
        return;
      }
      for (size_t i = 0; i < ids.size(); ++i) {
        if (responses[i].id != ids[i] || !responses[i].ok() ||
            responses[i].value != kBatchSize) {
          ++good_failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(good_failures.load(), 0);

  // The server is alive and the stream holds every well-formed batch plus
  // however many valid interleaved inserts landed before each hostile's
  // connection was cut.
  auto client = fixture.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Flush("shared").ok());
  NetResponse stats = client->Stats("shared");
  ASSERT_TRUE(stats.ok());
  constexpr uint64_t kGoodClients = kClients - kClients / 4;
  EXPECT_GE(stats.stats.pushed,
            kGoodClients * kBatchesPerClient * kBatchSize);
  EXPECT_EQ(stats.stats.processed, stats.stats.pushed);
}

// ---------------------------------------------------------------------------
// Kill + recovery: zero acked-FLUSH loss (acceptance criteria)
// ---------------------------------------------------------------------------

TEST(NetSocket, ServerKillLosesNothingAckedByFlush) {
  durability::MemStorage disk;  // the state that survives "power loss"
  uint64_t acked_mark = 0;
  constexpr uint64_t kAckedValues = 4096;
  constexpr uint64_t kUnackedValues = 1500;

  {
    // Incarnation 1, on fault-injectable storage.
    durability::FaultyStorage faulty(
        &disk, durability::StorageFaultSpec::Perfect(), /*seed=*/4242);
    ServerOptions options;
    options.storage = &faulty;
    options.data_dir = "killtest";
    options.wal_sync_interval = 256;
    TcpFixture fixture(std::move(options));
    ASSERT_TRUE(fixture.ok());
    auto client = fixture.Connect();
    ASSERT_NE(client, nullptr);

    CreateParams params;
    params.durable = true;
    ASSERT_TRUE(client->Create("wal", params).ok());

    std::vector<uint64_t> values;
    for (uint64_t v = 1; v <= kAckedValues; ++v) values.push_back(v);
    ASSERT_TRUE(client->InsertBatch("wal", values).ok());

    NetResponse flush = client->Flush("wal");
    ASSERT_TRUE(flush.ok()) << flush.message;
    acked_mark = flush.value;
    EXPECT_EQ(acked_mark, kAckedValues);

    // More updates the client never flushed: the crash may or may not
    // keep them, no promise was made.
    std::vector<uint64_t> unacked;
    for (uint64_t v = 0; v < kUnackedValues; ++v) {
      unacked.push_back(uint64_t{1} << 30);
    }
    ASSERT_TRUE(client->InsertBatch("wal", unacked).ok());

    // Power loss: unsynced tails are mangled and every later storage
    // operation fails -- including the server's shutdown checkpoint, so
    // the teardown below really is a kill, not a graceful stop.
    faulty.CrashNow();
    client->CloseConn();
    fixture.Stop();
  }

  {
    // Incarnation 2: a fresh storage epoch over the same surviving bytes.
    durability::FaultyStorage faulty(
        &disk, durability::StorageFaultSpec::Perfect(), /*seed=*/4243);
    ServerOptions options;
    options.storage = &faulty;
    options.data_dir = "killtest";
    options.wal_sync_interval = 256;
    TcpFixture fixture(std::move(options));
    ASSERT_TRUE(fixture.ok());
    auto client = fixture.Connect();
    ASSERT_NE(client, nullptr);

    // CREATE of the same durable stream recovers checkpoint + WAL tail.
    CreateParams params;
    params.durable = true;
    NetResponse created = client->Create("wal", params);
    ASSERT_TRUE(created.ok()) << created.message;
    EXPECT_TRUE(created.stats.recovered);

    // Zero acked loss: everything at or below the acked FLUSH mark
    // survived. (resume_seq tells the producer where to re-push from; it
    // may trail the mark by at most shards - 1.)
    NetResponse stats = client->Stats("wal");
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats.stats.count, acked_mark);
    EXPECT_LE(stats.stats.count, kAckedValues + kUnackedValues);

    // The recovered summary really contains the acked values 1..4096, not
    // just a count: the rank of a value above them must cover them all.
    NetResponse rank = client->Rank("wal", (uint64_t{1} << 30) - 1);
    ASSERT_TRUE(rank.ok());
    const double eps_slack =
        0.001 * static_cast<double>(kAckedValues + kUnackedValues) + 64.0;
    EXPECT_GE(static_cast<double>(rank.rank),
              static_cast<double>(kAckedValues) - eps_slack);

    // And the recovered stream keeps serving writes.
    ASSERT_TRUE(client->Insert("wal", 7).ok());
    ASSERT_TRUE(client->Flush("wal").ok());
  }
}

}  // namespace
}  // namespace streamq::net
