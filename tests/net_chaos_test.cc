// Chaos suite of the network tier (ctest label `chaos`): FaultyConn
// fault injection at the Conn boundary, server overload governance
// (admission control, deadline eviction, retained-bytes budget, graceful
// drain), the self-healing ResilientClient, and the acceptance-criteria
// matrix -- transport faults x server kill/restart x slow-reader eviction
// x graceful drain -- asserting zero acked-FLUSH loss, exact value counts
// (no double-counting), and QUERY/RANK answers bit-identical to an
// uninterrupted reference run.
//
// Every test suite name starts with "Chaos" so the sanitizer trees can
// drive the whole file with `ctest -R Chaos`.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/faulty_storage.h"
#include "durability/storage.h"
#include "net/client.h"
#include "net/faulty_conn.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "net/socket.h"
#include "util/random.h"

namespace streamq::net {
namespace {

using namespace std::chrono_literals;

int PopcountDiff(const std::string& a, const std::string& b) {
  EXPECT_EQ(a.size(), b.size());
  int bits = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    uint8_t x = static_cast<uint8_t>(a[i]) ^ static_cast<uint8_t>(b[i]);
    while (x != 0) {
      bits += x & 1;
      x >>= 1;
    }
  }
  return bits;
}

/// Writes all of `data` through `conn`, tolerating short writes and
/// would-blocks; false on reset/timeout.
bool PushAll(Conn& conn, const std::string& data,
             std::chrono::milliseconds deadline = 10000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  size_t off = 0;
  while (off < data.size()) {
    if (std::chrono::steady_clock::now() > until) return false;
    const int n = conn.Write(data.data() + off, data.size() - off);
    if (n < 0) return false;
    if (n == 0) {
      conn.WaitWritable(50);
      continue;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads exactly `want` bytes from `conn`; empty string on reset/timeout.
std::string PullExactly(Conn& conn, size_t want,
                        std::chrono::milliseconds deadline = 10000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  std::string out;
  char buf[4096];
  while (out.size() < want) {
    if (std::chrono::steady_clock::now() > until) return {};
    const size_t ask = std::min(sizeof(buf), want - out.size());
    const int n = conn.Read(buf, ask);
    if (n < 0) return {};
    if (n == 0) {
      conn.WaitReadable(50);
      continue;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

// ---------------------------------------------------------------------------
// FaultyConn unit tests (loopback pair underneath)
// ---------------------------------------------------------------------------

TEST(ChaosFaultyConn, ShortReadsDeliverAStrictPrefixAndLoseNothing) {
  auto [a, b] = MakeLoopbackPair();
  ConnFaultSpec spec;
  spec.short_read = 1.0;
  FaultyConn faulty(std::move(a), spec, /*seed=*/11);

  std::string sent(4096, '\0');
  Xoshiro256 rng(5);
  for (char& c : sent) c = static_cast<char>(rng.Next());
  ASSERT_TRUE(PushAll(*b, sent));

  // Every multi-byte Read must come back strictly short; the remainder
  // stays queued, so the reassembled stream is byte-identical.
  std::string got;
  char buf[4096];
  while (got.size() < sent.size()) {
    const size_t ask = sent.size() - got.size();
    const int n = faulty.Read(buf, ask);
    ASSERT_GT(n, 0);
    if (ask > 1) {
      ASSERT_LT(static_cast<size_t>(n), ask);
    }
    got.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(got, sent);
  EXPECT_GT(faulty.stats().short_reads, 0u);
  EXPECT_EQ(faulty.stats().bit_flips_read, 0u);
}

TEST(ChaosFaultyConn, ShortWritesDeliverAStrictPrefixAndLoseNothing) {
  auto [a, b] = MakeLoopbackPair();
  ConnFaultSpec spec;
  spec.short_write = 1.0;
  FaultyConn faulty(std::move(a), spec, /*seed=*/12);

  std::string sent(4096, '\0');
  Xoshiro256 rng(6);
  for (char& c : sent) c = static_cast<char>(rng.Next());

  size_t off = 0;
  while (off < sent.size()) {
    const size_t ask = sent.size() - off;
    const int n = faulty.Write(sent.data() + off, ask);
    ASSERT_GT(n, 0);
    if (ask > 1) {
      ASSERT_LT(static_cast<size_t>(n), ask);
    }
    off += static_cast<size_t>(n);
  }
  EXPECT_EQ(PullExactly(*b, sent.size()), sent);
  EXPECT_GT(faulty.stats().short_writes, 0u);
}

TEST(ChaosFaultyConn, SpuriousWouldBlocksAreHarmlessUnderRetry) {
  auto [a, b] = MakeLoopbackPair();
  ConnFaultSpec spec;
  spec.read_would_block = 0.5;
  spec.write_would_block = 0.5;
  spec.short_read = 0.5;
  spec.short_write = 0.5;
  FaultyConn faulty(std::move(a), spec, /*seed=*/13);

  std::string sent(16384, '\0');
  Xoshiro256 rng(7);
  for (char& c : sent) c = static_cast<char>(rng.Next());
  std::thread writer([&] { ASSERT_TRUE(PushAll(faulty, sent)); });
  const std::string got = PullExactly(*b, sent.size());
  writer.join();
  EXPECT_EQ(got, sent);
  EXPECT_GT(faulty.stats().write_blocks, 0u);
}

TEST(ChaosFaultyConn, WriteBitFlipCorruptsExactlyOneBitAtThePeer) {
  auto [a, b] = MakeLoopbackPair();
  ConnFaultSpec spec;
  spec.bit_flip_write = 1.0;
  FaultyConn faulty(std::move(a), spec, /*seed=*/14);

  const std::string clean(64, '\0');
  ASSERT_EQ(faulty.Write(clean.data(), clean.size()),
            static_cast<int>(clean.size()));
  const std::string got = PullExactly(*b, clean.size());
  EXPECT_EQ(PopcountDiff(got, clean), 1);
  EXPECT_EQ(faulty.stats().bit_flips_write, 1u);
}

TEST(ChaosFaultyConn, ReadBitFlipCorruptsExactlyOneDeliveredBit) {
  auto [a, b] = MakeLoopbackPair();
  ConnFaultSpec spec;
  spec.bit_flip_read = 1.0;
  FaultyConn faulty(std::move(a), spec, /*seed=*/15);

  const std::string clean(64, '\0');
  ASSERT_TRUE(PushAll(*b, clean));
  const std::string got = PullExactly(faulty, clean.size());
  EXPECT_EQ(PopcountDiff(got, clean), 1);
  EXPECT_EQ(faulty.stats().bit_flips_read, 1u);
}

TEST(ChaosFaultyConn, ResetAfterBytesFiresAtTheExactOffset) {
  auto [a, b] = MakeLoopbackPair();
  ConnFaultSpec spec;
  spec.reset_after_bytes = 10;
  FaultyConn faulty(std::move(a), spec, /*seed=*/16);

  char buf[16] = {};
  // 8 bytes fit below the trigger; the next op is capped to the 2 bytes
  // that remain, and the op after that is the reset.
  EXPECT_EQ(faulty.Write(buf, 8), 8);
  EXPECT_EQ(faulty.Write(buf, 8), 2);
  EXPECT_EQ(faulty.Write(buf, 8), -1);
  EXPECT_EQ(faulty.Read(buf, 8), -1);
  EXPECT_EQ(faulty.stats().resets, 1u);
  // The peer sees the 10 clean bytes, then EOF.
  EXPECT_EQ(PullExactly(*b, 10).size(), 10u);
  EXPECT_EQ(b->Read(buf, sizeof(buf)), -1);
}

TEST(ChaosFaultyConn, InjectStallBlocksAllIoUntilCleared) {
  auto [a, b] = MakeLoopbackPair();
  FaultyConn faulty(std::move(a), ConnFaultSpec::Perfect(), /*seed=*/17);
  ASSERT_TRUE(PushAll(*b, "pending"));

  faulty.InjectStall();
  EXPECT_TRUE(faulty.stalled());
  char buf[16];
  EXPECT_EQ(faulty.Read(buf, sizeof(buf)), 0);   // data is there, stall hides it
  EXPECT_EQ(faulty.Write(buf, sizeof(buf)), 0);
  EXPECT_FALSE(faulty.WaitReadable(20));
  EXPECT_FALSE(faulty.WaitWritable(20));
  EXPECT_EQ(faulty.stats().stalls, 1u);

  faulty.ClearStall();
  EXPECT_TRUE(faulty.WaitReadable(1000));
  EXPECT_EQ(PullExactly(faulty, 7), "pending");
}

TEST(ChaosFaultyConn, InjectResetKillsBothDirections) {
  auto [a, b] = MakeLoopbackPair();
  FaultyConn faulty(std::move(a), ConnFaultSpec::Perfect(), /*seed=*/18);
  faulty.InjectReset();
  char buf[8];
  EXPECT_EQ(faulty.Read(buf, sizeof(buf)), -1);
  EXPECT_EQ(faulty.Write(buf, sizeof(buf)), -1);
  EXPECT_TRUE(faulty.WaitReadable(10));  // readable so callers observe -1
  EXPECT_EQ(b->Read(buf, sizeof(buf)), -1);
  EXPECT_EQ(faulty.stats().resets, 1u);
}

TEST(ChaosFaultyConn, FaultDiceIsSeedDeterministic) {
  FaultDice d1(99), d2(99), d3(100);
  int agree = 0, differ = 0;
  for (int i = 0; i < 256; ++i) {
    const bool r1 = d1.Roll(0.3);
    if (r1 == d2.Roll(0.3)) ++agree;
    if (r1 != d3.Roll(0.3)) ++differ;
  }
  EXPECT_EQ(agree, 256);
  EXPECT_GT(differ, 0);
  FaultDice never(1), always(1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(never.Roll(0.0));
    EXPECT_TRUE(always.Roll(1.0));
  }
}

// ---------------------------------------------------------------------------
// SocketConn partial-write / WaitWritable-timeout coverage (satellite):
// real fds via socketpair, faults injected by FaultyConn on top.
// ---------------------------------------------------------------------------

class SocketPair {
 public:
  SocketPair() {
    int fds[2] = {-1, -1};
    ok_ = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0;
    if (!ok_) return;
    for (const int fd : fds) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    }
    a_ = std::make_unique<SocketConn>(fds[0]);
    b_ = std::make_unique<SocketConn>(fds[1]);
  }
  bool ok() const { return ok_; }
  std::unique_ptr<SocketConn> TakeA() { return std::move(a_); }
  std::unique_ptr<SocketConn> TakeB() { return std::move(b_); }

 private:
  bool ok_ = false;
  std::unique_ptr<SocketConn> a_, b_;
};

TEST(ChaosSocketConn, ShortWriteInjectionOverRealFdsLosesNothing) {
  SocketPair pair;
  ASSERT_TRUE(pair.ok());
  ConnFaultSpec spec;
  spec.short_write = 0.7;
  FaultyConn faulty(pair.TakeA(), spec, /*seed=*/21);
  auto peer = pair.TakeB();

  std::string sent(size_t{256} << 10, '\0');
  Xoshiro256 rng(8);
  for (char& c : sent) c = static_cast<char>(rng.Next());
  // Reader on its own thread: the kernel buffer is far smaller than the
  // payload, so the writer must hit SocketConn's would-block path too.
  std::string got;
  std::thread reader([&] { got = PullExactly(*peer, sent.size(), 30000ms); });
  ASSERT_TRUE(PushAll(faulty, sent, 30000ms));
  reader.join();
  EXPECT_EQ(got, sent);
  EXPECT_GT(faulty.stats().short_writes, 0u);
}

TEST(ChaosSocketConn, KernelPartialWriteAndWaitWritableTimeout) {
  SocketPair pair;
  ASSERT_TRUE(pair.ok());
  auto writer = pair.TakeA();
  auto reader = pair.TakeB();
  // Shrink the send buffer so one oversized Write is split by the kernel.
  const int small = 4096;
  ::setsockopt(writer->fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

  const std::string big(size_t{4} << 20, 'x');
  size_t accepted = 0;
  for (;;) {
    const int n = writer->Write(big.data(), big.size());
    ASSERT_GE(n, 0);
    if (n == 0) break;  // buffer full: would-block
    EXPECT_LT(static_cast<size_t>(n), big.size()) << "partial write expected";
    accepted += static_cast<size_t>(n);
    ASSERT_LT(accepted, big.size()) << "kernel swallowed the whole payload";
  }
  ASSERT_GT(accepted, 0u);
  // Nobody reads: writability must time out, not spin or succeed.
  EXPECT_FALSE(writer->WaitWritable(100));
  // Draining the peer un-sticks it.
  ASSERT_EQ(PullExactly(*reader, accepted).size(), accepted);
  EXPECT_TRUE(writer->WaitWritable(2000));
  EXPECT_GT(writer->Write(big.data(), 1024), 0);
}

// ---------------------------------------------------------------------------
// TcpConnectEx error-cause reporting (satellite)
// ---------------------------------------------------------------------------

TEST(ChaosConnect, DistinguishesRefusedResolveAndSuccess) {
  // Refused: bind an ephemeral port, close the listener, dial the corpse.
  uint16_t dead_port = 0;
  const int listen_fd = TcpListen("127.0.0.1", 0, &dead_port);
  ASSERT_GE(listen_fd, 0);
  ::close(listen_fd);

  ConnectError error = ConnectError::kNone;
  int err = 0;
  EXPECT_EQ(TcpConnectEx("127.0.0.1", dead_port, 2000, &error, &err), -1);
  EXPECT_EQ(error, ConnectError::kRefused);
  EXPECT_EQ(err, ECONNREFUSED);

  // Resolution failure: the resolver only accepts numeric IPv4/localhost.
  EXPECT_EQ(TcpConnectEx("no.such.host.invalid", 1, 2000, &error, &err), -1);
  EXPECT_EQ(error, ConnectError::kResolve);

  // Success: a live listener accepts via its backlog.
  uint16_t live_port = 0;
  const int live_fd = TcpListen("127.0.0.1", 0, &live_port);
  ASSERT_GE(live_fd, 0);
  const int fd = TcpConnectEx("127.0.0.1", live_port, 2000, &error, &err);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(error, ConnectError::kNone);
  EXPECT_EQ(err, 0);
  if (fd >= 0) ::close(fd);
  ::close(live_fd);

  EXPECT_STREQ(ConnectErrorName(ConnectError::kRefused), "refused");
  EXPECT_STREQ(ConnectErrorName(ConnectError::kResolve), "resolve");
  EXPECT_STREQ(ConnectErrorName(ConnectError::kTimeout), "timeout");
}

TEST(ChaosConnect, ClientConnectTcpReportsTheCause) {
  uint16_t dead_port = 0;
  const int listen_fd = TcpListen("127.0.0.1", 0, &dead_port);
  ASSERT_GE(listen_fd, 0);
  ::close(listen_fd);

  ConnectError error = ConnectError::kNone;
  int err = 0;
  EXPECT_EQ(StreamqClient::ConnectTcp("127.0.0.1", dead_port, ClientOptions{},
                                      &error, &err),
            nullptr);
  EXPECT_EQ(error, ConnectError::kRefused);
  EXPECT_EQ(err, ECONNREFUSED);
}

// ---------------------------------------------------------------------------
// Server overload governance (loopback, fake clock, single-threaded)
// ---------------------------------------------------------------------------

class ChaosGovernanceTest : public ::testing::Test {
 protected:
  /// Pumps the server from a second thread for as long as it lives; joined
  /// in the destructor, so the test is single-threaded again afterwards.
  /// Needed only around blocking client calls (which cannot pump
  /// themselves); everything else drives PumpAll directly.
  class ScopedPump {
   public:
    explicit ScopedPump(StreamqServer* server) : server_(server) {
      thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          if (server_->PumpAll() == 0) std::this_thread::sleep_for(100us);
        }
      });
    }
    ~ScopedPump() {
      stop_.store(true, std::memory_order_release);
      thread_.join();
    }

   private:
    StreamqServer* server_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
  };

  void StartServer(ServerOptions options = {}) {
    now_ns_ = uint64_t{1} << 32;  // away from 0 so underflow guards engage
    options.clock = [this] { return now_ns_.load(std::memory_order_relaxed); };
    server_ = std::make_unique<StreamqServer>(std::move(options));
  }

  std::unique_ptr<Conn> Attach(size_t capacity = size_t{1} << 20) {
    auto [server_end, client_end] = MakeLoopbackPair(capacity);
    server_->AddConn(std::move(server_end));
    return std::move(client_end);
  }

  void AdvanceMs(uint64_t ms) {
    now_ns_.fetch_add(ms * 1'000'000ull, std::memory_order_relaxed);
  }

  /// Pumps (real time, fake clock untouched) until `done` or the deadline.
  bool PumpUntil(const std::function<bool()>& done,
                 std::chrono::milliseconds deadline = 5000ms) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (!done()) {
      if (std::chrono::steady_clock::now() > until) return false;
      if (server_->PumpAll() == 0) std::this_thread::sleep_for(100us);
    }
    return true;
  }

  /// One response frame out of `conn`, already-pumped bytes only.
  bool ReadResponse(Conn& conn, NetResponse* out,
                    std::chrono::milliseconds deadline = 5000ms) {
    FrameBuffer inbuf;
    char buf[4096];
    const auto until = std::chrono::steady_clock::now() + deadline;
    for (;;) {
      std::string frame;
      const FrameScan scan = inbuf.Next(&frame);
      if (scan == FrameScan::kBad) return false;
      if (scan == FrameScan::kFrame) return DecodeResponse(frame, out);
      if (std::chrono::steady_clock::now() > until) return false;
      server_->PumpAll();
      const int n = conn.Read(buf, sizeof(buf));
      if (n < 0) return false;
      if (n > 0) inbuf.Append(buf, static_cast<size_t>(n));
      if (n == 0) std::this_thread::sleep_for(100us);
    }
  }

  /// Pump-assisted write that tolerates a server which STOPS reading (the
  /// backpressure under test): returns the bytes accepted once neither the
  /// write nor the pump makes progress for ~100ms.
  size_t PushSome(Conn& conn, const std::string& data) {
    size_t off = 0;
    int idle = 0;
    while (off < data.size() && idle < 100) {
      const int n = conn.Write(data.data() + off, data.size() - off);
      if (n < 0) break;
      if (n > 0) {
        off += static_cast<size_t>(n);
        idle = 0;
        continue;
      }
      if (server_->PumpAll() == 0) {
        ++idle;
        std::this_thread::sleep_for(1ms);
      }
    }
    return off;
  }

  /// True once `conn` reads EOF (server closed it), draining leftovers.
  bool ClosedByServer(Conn& conn,
                      std::chrono::milliseconds deadline = 5000ms) {
    char buf[4096];
    const auto until = std::chrono::steady_clock::now() + deadline;
    for (;;) {
      if (std::chrono::steady_clock::now() > until) return false;
      server_->PumpAll();
      const int n = conn.Read(buf, sizeof(buf));
      if (n < 0) return true;
      if (n == 0) std::this_thread::sleep_for(100us);
    }
  }

  std::atomic<uint64_t> now_ns_{0};
  std::unique_ptr<StreamqServer> server_;
};

TEST_F(ChaosGovernanceTest, AdmissionControlAnswersBusyAndCloses) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  auto first = Attach();
  ASSERT_EQ(server_->SessionCount(), 1u);

  auto second = Attach();
  NetResponse resp;
  ASSERT_TRUE(ReadResponse(*second, &resp));
  EXPECT_EQ(resp.status, NetStatus::kServerBusy);
  EXPECT_EQ(resp.id, 0u);  // answers the connection, not a request
  EXPECT_TRUE(ClosedByServer(*second));
  EXPECT_TRUE(PumpUntil([&] { return server_->SessionCount() == 1; }));

  const std::string metrics = server_->MetricsText();
  EXPECT_NE(metrics.find("streamq_net_rejected_busy_total 1"),
            std::string::npos);

  // The slot frees up once the first connection goes away.
  first->Close();
  EXPECT_TRUE(PumpUntil([&] { return server_->SessionCount() == 0; }));
  auto third = Attach();
  server_->PumpAll();
  EXPECT_EQ(server_->SessionCount(), 1u);
}

TEST_F(ChaosGovernanceTest, ClientSurfacesBusyAsTheCallResponse) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  auto hog = Attach();
  StreamqClient client(Attach());
  NetResponse resp;
  {
    ScopedPump pump(server_.get());
    resp = client.Create("s", CreateParams{});
  }
  // The rejection frame carries id 0 (it answers the connection, not a
  // request); the client must still surface it as THIS call's response
  // rather than dying on an id mismatch.
  EXPECT_EQ(resp.status, NetStatus::kServerBusy);
}

TEST_F(ChaosGovernanceTest, IdleSessionsAreEvictedAtTheDeadline) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);

  auto conn = Attach();
  server_->PumpAll();
  AdvanceMs(99);
  EXPECT_EQ(server_->SweepDeadlines(), 0u);
  ASSERT_EQ(server_->SessionCount(), 1u);
  AdvanceMs(2);
  EXPECT_EQ(server_->SweepDeadlines(), 1u);
  EXPECT_EQ(server_->SessionCount(), 0u);
  char buf[8];
  EXPECT_EQ(conn->Read(buf, sizeof(buf)), -1);
  EXPECT_NE(server_->MetricsText().find("streamq_net_evictions_idle_total 1"),
            std::string::npos);
}

TEST_F(ChaosGovernanceTest, MidFrameReadStallIsEvictedButNotAsIdle) {
  ServerOptions options;
  options.stall_timeout_ms = 50;
  StartServer(options);

  // Half a frame, then silence: a read stall only a deadline can clear.
  auto stalled = Attach();
  const std::string frame = EncodeRequest([] {
    NetRequest req;
    req.id = 1;
    req.op = NetOp::kStats;
    req.stream = "s";
    return req;
  }());
  ASSERT_TRUE(PushAll(*stalled, frame.substr(0, frame.size() / 2)));
  // A completed, now-quiet session must NOT fall to the stall deadline.
  StreamqClient quiet(Attach());
  {
    ScopedPump pump(server_.get());
    EXPECT_EQ(quiet.Create("q", CreateParams{}).status, NetStatus::kOk);
  }

  AdvanceMs(60);
  EXPECT_EQ(server_->SweepDeadlines(), 1u);
  EXPECT_EQ(server_->SessionCount(), 1u);  // the quiet session survives
  EXPECT_NE(
      server_->MetricsText().find("streamq_net_evictions_read_stall_total 1"),
      std::string::npos);
}

TEST_F(ChaosGovernanceTest, SlowClientAtWriteLimitIsEvicted) {
  ServerOptions options;
  options.write_queue_limit = 1024;
  options.stall_timeout_ms = 100;
  StartServer(options);

  // Tiny loopback capacity: the server cannot drain responses, the client
  // never reads, so the write queue pins at its limit.
  auto conn = Attach(/*capacity=*/64);
  std::string frames;
  for (int i = 0; i < 200; ++i) {
    NetRequest req;
    req.id = static_cast<uint64_t>(i + 1);
    req.op = NetOp::kStats;
    req.stream = "ghost";  // unknown-stream errors are responses too
    frames += EncodeRequest(req);
  }
  // The push stalls when the write queue pins at its limit and the server
  // stops reading -- which is exactly the condition under test.
  ASSERT_GT(PushSome(*conn, frames), 0u);
  ASSERT_GE(server_->RetainedBytes(), options.write_queue_limit);

  AdvanceMs(99);
  server_->PumpAll();
  EXPECT_EQ(server_->SweepDeadlines(), 0u);
  AdvanceMs(2);
  server_->PumpAll();
  EXPECT_EQ(server_->SweepDeadlines(), 1u);
  EXPECT_EQ(server_->SessionCount(), 0u);
  EXPECT_NE(
      server_->MetricsText().find("streamq_net_evictions_slow_client_total 1"),
      std::string::npos);
}

TEST_F(ChaosGovernanceTest, RetainedBytesBudgetEvictsTheFattestSession) {
  ServerOptions options;
  options.write_queue_limit = size_t{1} << 20;
  options.max_retained_bytes = 2048;
  StartServer(options);

  auto lean = Attach();
  auto fat = Attach(/*capacity=*/64);
  std::string frames;
  for (int i = 0; i < 200; ++i) {
    NetRequest req;
    req.id = static_cast<uint64_t>(i + 1);
    req.op = NetOp::kStats;
    req.stream = "ghost";
    frames += EncodeRequest(req);
  }
  // The queue limit is high here, so the server consumes every frame; its
  // responses pile up against the 64-byte pipe and blow the global budget.
  ASSERT_EQ(PushSome(*fat, frames), frames.size());
  while (server_->PumpAll() > 0) {
  }
  ASSERT_GT(server_->RetainedBytes(), options.max_retained_bytes);

  EXPECT_GE(server_->SweepDeadlines(), 1u);
  EXPECT_LE(server_->RetainedBytes(), options.max_retained_bytes);
  ASSERT_EQ(server_->SessionCount(), 1u);
  // The lean session survived; the fat one reads its backlog then EOF.
  char buf[8];
  EXPECT_EQ(lean->Read(buf, sizeof(buf)), 0);
  EXPECT_TRUE(ClosedByServer(*fat));
  EXPECT_NE(server_->MetricsText().find(
                "streamq_net_evictions_retained_bytes_total"),
            std::string::npos);
}

TEST_F(ChaosGovernanceTest, GracefulDrainResolvesParkedFlushThenCloses) {
  ServerOptions options;
  options.default_shards = 1;
  options.ring_capacity = size_t{1} << 17;
  StartServer(options);

  StreamqClient client(Attach());
  {
    ScopedPump pump(server_.get());
    // DCS is the slow sketch (~hundreds of ns/update even batched): the
    // worker needs ~10 ms for the 50k batch, so the FLUSH -- executed
    // microseconds after the batch -- parks deterministically. A cheap
    // sketch can finish the whole batch inside an unlucky scheduling gap
    // and the flush would (rarely, but flakily) never park.
    CreateParams params;
    params.algorithm = "DCS";
    params.eps = 0.01;
    params.log_universe = 20;
    ASSERT_TRUE(client.Create("d", params).ok());
  }

  // Pipeline a 50k batch + FLUSH: the batch fits the ring in one push, the
  // FLUSH parks behind the workers still chewing on it.
  NetRequest batch;
  batch.op = NetOp::kBatchInsert;
  batch.stream = "d";
  for (uint64_t v = 1; v <= 50000; ++v) batch.values.push_back(v);
  const uint64_t batch_id = client.Send(std::move(batch));
  ASSERT_NE(batch_id, 0u);
  NetRequest flush;
  flush.op = NetOp::kFlush;
  flush.stream = "d";
  const uint64_t flush_id = client.Send(std::move(flush));
  ASSERT_NE(flush_id, 0u);

  ASSERT_TRUE(PumpUntil([&] { return server_->HasParkedWork(); }))
      << "flush never parked";
  server_->BeginDrain();
  EXPECT_TRUE(server_->draining());

  // New connections are refused while draining.
  auto late = Attach();
  NetResponse busy;
  ASSERT_TRUE(ReadResponse(*late, &busy));
  EXPECT_EQ(busy.status, NetStatus::kServerBusy);
  EXPECT_EQ(busy.message, "server draining");

  // Drain completes on its own: the parked FLUSH resolves against the
  // pipeline, the acks flush out, and every session closes.
  ASSERT_TRUE(PumpUntil([&] { return server_->DrainComplete(); }, 30000ms));
  EXPECT_GE(server_->DrainFlushesResolved(), 1u);

  // The client received both acks before its connection closed.
  NetResponse resp;
  ASSERT_TRUE(client.Receive(&resp));
  EXPECT_EQ(resp.id, batch_id);
  EXPECT_EQ(resp.value, 50000u);
  ASSERT_TRUE(client.Receive(&resp));
  EXPECT_EQ(resp.id, flush_id);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value, 50000u);
}

TEST_F(ChaosGovernanceTest, CloseAllSessionsForcesTheDrainEnd) {
  StartServer();
  auto c1 = Attach();
  auto c2 = Attach();
  server_->BeginDrain();
  EXPECT_FALSE(server_->DrainComplete());
  EXPECT_EQ(server_->CloseAllSessions(), 2u);
  EXPECT_TRUE(server_->DrainComplete());
  char buf[8];
  EXPECT_EQ(c1->Read(buf, sizeof(buf)), -1);
  EXPECT_EQ(c2->Read(buf, sizeof(buf)), -1);
}

// ---------------------------------------------------------------------------
// ResilientClient over loopback (pump thread, like the net suite)
// ---------------------------------------------------------------------------

class ChaosResilientTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<StreamqServer>(std::move(options));
    stop_.store(false);
    pump_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        size_t progressed;
        {
          std::lock_guard<std::mutex> lock(server_mutex_);
          progressed = server_->PumpAll();
        }
        if (progressed == 0) std::this_thread::sleep_for(100us);
      }
    });
  }

  void TearDown() override { StopServer(); }

  void StopServer() {
    if (pump_.joinable()) {
      stop_.store(true, std::memory_order_release);
      pump_.join();
    }
    server_.reset();
  }

  void RestartServer(ServerOptions options = {}) {
    StopServer();
    StartServer(std::move(options));
  }

  std::unique_ptr<Conn> Attach() {
    auto [server_end, client_end] = MakeLoopbackPair();
    std::lock_guard<std::mutex> lock(server_mutex_);
    server_->AddConn(std::move(server_end));
    return std::move(client_end);
  }

  size_t SessionCount() {
    std::lock_guard<std::mutex> lock(server_mutex_);
    return server_->SessionCount();
  }

  std::unique_ptr<StreamqServer> server_;
  std::mutex server_mutex_;
  std::thread pump_;
  std::atomic<bool> stop_{false};
};

ResilientOptions FastResilientOptions() {
  ResilientOptions options;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  options.batch_values = 512;
  return options;
}

TEST_F(ChaosResilientTest, ExactlyOnceOverACleanTransport) {
  StartServer();
  ResilientClient client([this] { return Attach(); }, "clean", CreateParams{},
                         FastResilientOptions());
  for (uint64_t v = 1; v <= 10000; ++v) ASSERT_TRUE(client.Push(v * 7 % 997));
  ASSERT_TRUE(client.Flush());
  EXPECT_EQ(client.pushed(), 10000u);
  const NetResponse stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.stats.count, 10000u);
  EXPECT_EQ(client.counters().reconnects, 0u);
  EXPECT_EQ(client.counters().lost_values, 0u);
}

TEST_F(ChaosResilientTest, MidStreamResetsReplayWithoutDoubleCounting) {
  StartServer();
  FaultyConn* live = nullptr;
  CreateParams params;
  params.shards = 2;
  ResilientClient client(
      [this, &live] {
        auto faulty = std::make_unique<FaultyConn>(
            Attach(), ConnFaultSpec::Perfect(), /*seed=*/31);
        live = faulty.get();
        return faulty;
      },
      "resets", params, FastResilientOptions());

  uint64_t v = 0;
  for (; v < 5000; ++v) ASSERT_TRUE(client.Push(v % 1009));
  ASSERT_TRUE(client.Flush());
  for (; v < 8000; ++v) ASSERT_TRUE(client.Push(v % 1009));
  ASSERT_NE(live, nullptr);
  live->InjectReset();  // mid-stream RST with values still buffered
  for (; v < 10000; ++v) ASSERT_TRUE(client.Push(v % 1009));
  ASSERT_TRUE(client.Flush());

  EXPECT_TRUE(client.ok()) << client.error();
  EXPECT_GE(client.counters().reconnects, 1u);
  EXPECT_EQ(client.counters().lost_values, 0u);
  const NetResponse stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  // The exactly-once claim, exact to the value: no loss, no double-count.
  EXPECT_EQ(stats.stats.count, 10000u);
}

/// Deterministic one-shot in-flight corruption: flips one payload byte of
/// the first write larger than `threshold`, then becomes a clean pipe.
class OneFlipConn : public Conn {
 public:
  OneFlipConn(std::unique_ptr<Conn> inner, size_t threshold)
      : inner_(std::move(inner)), threshold_(threshold) {}
  int Read(char* buf, size_t n) override { return inner_->Read(buf, n); }
  int Write(const char* buf, size_t n) override {
    if (fired_ || n <= threshold_) return inner_->Write(buf, n);
    fired_ = true;
    std::string bad(buf, n);
    bad[kFrameHeaderBytes + 16] ^= 0x08;
    return inner_->Write(bad.data(), bad.size());
  }
  void Close() override { inner_->Close(); }
  bool WaitReadable(int timeout_ms) override {
    return inner_->WaitReadable(timeout_ms);
  }
  bool WaitWritable(int timeout_ms) override {
    return inner_->WaitWritable(timeout_ms);
  }
  int fd() const override { return inner_->fd(); }

 private:
  std::unique_ptr<Conn> inner_;
  size_t threshold_;
  bool fired_ = false;
};

TEST_F(ChaosResilientTest, PayloadCorruptionRetriesOnTheSameConnection) {
  // A flipped payload bit in one batch frame fails the server's CRC check;
  // the server answers an id-0 kBadRequest (it cannot trust the id of a
  // frame it could not decode) and applies nothing. The client attributes
  // the error by response order and resends the identical chunk on the
  // SAME session -- no reconnect, no io-timeout stall, and exactly-once
  // accounting holds to the value.
  StartServer();
  ResilientClient client(
      [this] {
        // Handshake frames are tiny; only the first ~4 KiB batch frame
        // crosses the threshold and takes the flip.
        return std::make_unique<OneFlipConn>(Attach(), /*threshold=*/2048);
      },
      "flip", CreateParams{}, FastResilientOptions());
  for (uint64_t v = 1; v <= 4000; ++v) ASSERT_TRUE(client.Push(v % 512));
  ASSERT_TRUE(client.Flush());
  EXPECT_TRUE(client.ok()) << client.error();
  EXPECT_EQ(client.counters().reconnects, 0u);
  EXPECT_EQ(client.counters().lost_values, 0u);
  const NetResponse stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.stats.count, 4000u);
}

TEST_F(ChaosResilientTest, BackoffIsCappedExponentialWithJitter) {
  StartServer();
  int failures_left = 6;
  std::vector<uint64_t> sleeps;
  ResilientOptions options;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 80;
  options.seed = 7;
  options.sleep = [&sleeps](uint64_t ms) { sleeps.push_back(ms); };
  ResilientClient client(
      [this, &failures_left]() -> std::unique_ptr<Conn> {
        if (failures_left > 0) {
          --failures_left;
          return nullptr;
        }
        return Attach();
      },
      "backoff", CreateParams{}, options);

  ASSERT_TRUE(client.Push(42));
  ASSERT_TRUE(client.Flush());
  EXPECT_EQ(client.counters().connect_failures, 6u);
  EXPECT_EQ(client.counters().reconnects, 0u);  // first success, no RE-connect
  // First dial is immediate; each of the 6 failures buys one backoff.
  // Raw delays double from 2*initial and cap at max; jitter keeps each in
  // [delay/2, delay].
  ASSERT_EQ(sleeps.size(), 6u);
  const uint64_t raw[] = {20, 40, 80, 80, 80, 80};
  for (size_t i = 0; i < sleeps.size(); ++i) {
    EXPECT_GE(sleeps[i], raw[i] / 2) << "sleep " << i;
    EXPECT_LE(sleeps[i], raw[i]) << "sleep " << i;
  }
  EXPECT_EQ(client.Stats().stats.count, 1u);
}

TEST_F(ChaosResilientTest, DiesCleanlyAfterMaxAttempts) {
  StartServer();
  ResilientOptions options;
  options.max_attempts = 3;
  options.sleep = [](uint64_t) {};
  ResilientClient client([]() -> std::unique_ptr<Conn> { return nullptr; },
                         "doomed", CreateParams{}, options);
  ASSERT_TRUE(client.Push(1));  // buffered; no connection needed yet
  EXPECT_FALSE(client.Flush());
  EXPECT_FALSE(client.ok());
  EXPECT_NE(client.error().find("reconnect attempts exhausted"),
            std::string::npos);
  EXPECT_EQ(client.counters().connect_failures, 3u);
  const NetResponse dead = client.Query(0.5);
  EXPECT_EQ(dead.status, NetStatus::kInternal);
  EXPECT_FALSE(client.Push(2));
}

TEST_F(ChaosResilientTest, BusyRejectionRetriesUntilAdmitted) {
  ServerOptions server_options;
  server_options.max_connections = 1;
  StartServer(server_options);

  auto hog = Attach();  // holds the only slot
  ResilientOptions options = FastResilientOptions();
  Conn* hog_raw = hog.get();
  bool released = false;
  options.sleep = [this, hog_raw, &released](uint64_t) {
    if (!released) {
      released = true;
      hog_raw->Close();
    }
    // Wait for the server to reap both the hog and the rejected session.
    const auto until = std::chrono::steady_clock::now() + 5s;
    while (SessionCount() > 0 && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(1ms);
    }
  };
  ResilientClient client([this] { return Attach(); }, "busy", CreateParams{},
                         options);
  ASSERT_TRUE(client.Push(5));
  ASSERT_TRUE(client.Flush());
  EXPECT_GE(client.counters().busy_rejections, 1u);
  EXPECT_EQ(client.Stats().stats.count, 1u);
}

TEST_F(ChaosResilientTest, NonDurableServerRestartRebasesAndAccountsLoss) {
  StartServer();
  CreateParams params;
  params.shards = 2;
  ResilientOptions options = FastResilientOptions();
  options.batch_values = 1024;
  ResilientClient client([this] { return Attach(); }, "volatile", params,
                         options);

  for (uint64_t v = 1; v <= 5000; ++v) ASSERT_TRUE(client.Push(v));
  ASSERT_TRUE(client.Flush());
  // The FLUSH trim keeps a (shards-1)=1 tail: position 5000 stays
  // replayable, 1..4999 are gone from the buffer.
  EXPECT_EQ(client.buffered(), 1u);

  RestartServer();  // non-durable: the stream evaporates with the server

  for (uint64_t v = 5001; v <= 8000; ++v) ASSERT_TRUE(client.Push(v));
  ASSERT_TRUE(client.Flush());
  EXPECT_TRUE(client.ok()) << client.error();

  // Positions 1..4999 were acked, trimmed, and unrecoverable: exactly
  // those are reported lost; the tail + new values land exactly once.
  EXPECT_EQ(client.counters().lost_values, 4999u);
  const NetResponse stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.stats.count, 8000u - client.counters().lost_values);
}

// ---------------------------------------------------------------------------
// The chaos matrix (acceptance criteria): transport faults x server
// kill/restart x slow-reader eviction x graceful drain, over real TCP.
// ---------------------------------------------------------------------------

/// One server incarnation on fault-injectable storage over a shared
/// MemStorage "disk", with drain support.
class ChaosIncarnation {
 public:
  ChaosIncarnation(durability::MemStorage* disk, uint64_t seed,
                   ServerOptions base = {}) {
    faulty_ = std::make_unique<durability::FaultyStorage>(
        disk, durability::StorageFaultSpec::Perfect(), seed);
    base.storage = faulty_.get();
    if (base.data_dir == "streamq-net") base.data_dir = "chaosdir";
    server_ = std::make_unique<StreamqServer>(std::move(base));
    reactor_ = Reactor::Create(server_.get(), ReactorOptions{});
    if (reactor_ == nullptr) return;
    thread_ = std::thread([this] { reactor_->Run(); });
  }

  ~ChaosIncarnation() { Kill(); }

  bool ok() const { return reactor_ != nullptr; }
  uint16_t port() const { return reactor_->port(); }

  /// Power loss: mangle unsynced tails, fail all later storage ops, stop.
  void Kill() {
    if (!thread_.joinable()) return;
    faulty_->CrashNow();
    reactor_->Shutdown();
    thread_.join();
  }

  /// SIGTERM path: drain gracefully, return the summary.
  DrainSummary Drain() {
    if (!thread_.joinable()) return reactor_->drain_summary();
    reactor_->RequestDrain();
    thread_.join();
    return reactor_->drain_summary();
  }

 private:
  std::unique_ptr<durability::FaultyStorage> faulty_;
  std::unique_ptr<StreamqServer> server_;
  std::unique_ptr<Reactor> reactor_;
  std::thread thread_;
};

CreateParams MatrixParams() {
  CreateParams params;
  params.algorithm = "Random";
  params.eps = 0.005;
  params.seed = 99;
  params.shards = 2;
  params.durable = true;
  return params;
}

constexpr double kMatrixPhis[] = {0.01, 0.25, 0.5, 0.75, 0.99};
constexpr uint64_t kMatrixRanks[] = {10, 1000, 25000, 60000, 99999};

struct MatrixAnswers {
  uint64_t count = 0;
  std::vector<uint64_t> quantiles;
  std::vector<uint64_t> ranks;

  bool operator==(const MatrixAnswers& other) const {
    return count == other.count && quantiles == other.quantiles &&
           ranks == other.ranks;
  }
};

/// Queries the stream through a CLEAN client (the answers must not depend
/// on how chaotically the values arrived).
MatrixAnswers QueryAnswers(uint16_t port, const std::string& stream) {
  MatrixAnswers out;
  auto client = StreamqClient::ConnectTcp("127.0.0.1", port);
  EXPECT_NE(client, nullptr);
  if (client == nullptr) return out;
  const NetResponse stats = client->Stats(stream);
  EXPECT_TRUE(stats.ok()) << stats.message;
  out.count = stats.stats.count;
  for (const double phi : kMatrixPhis) {
    const NetResponse resp = client->Query(stream, phi);
    EXPECT_TRUE(resp.ok()) << resp.message;
    out.quantiles.push_back(resp.value);
  }
  for (const uint64_t v : kMatrixRanks) {
    const NetResponse resp = client->Rank(stream, v);
    EXPECT_TRUE(resp.ok()) << resp.message;
    out.ranks.push_back(resp.rank);
  }
  return out;
}

std::vector<uint64_t> MatrixValues(size_t n) {
  Xoshiro256 rng(123);
  std::vector<uint64_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(rng.Next() % 100000);
  return values;
}

TEST(ChaosMatrix, KillRestartUnderTransportFaultsIsExactlyOnce) {
  constexpr size_t kValues = 24000;
  const std::vector<uint64_t> values = MatrixValues(kValues);

  // Reference: an uninterrupted run on a pristine server.
  MatrixAnswers reference;
  {
    durability::MemStorage refdisk;
    ChaosIncarnation ref(&refdisk, /*seed=*/1);
    ASSERT_TRUE(ref.ok());
    auto client = StreamqClient::ConnectTcp("127.0.0.1", ref.port());
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Create("m", MatrixParams()).ok());
    for (size_t off = 0; off < values.size(); off += 512) {
      const size_t n = std::min<size_t>(512, values.size() - off);
      ASSERT_TRUE(
          client->InsertBatch("m", {values.data() + off, n}).ok());
    }
    ASSERT_TRUE(client->Flush("m").ok());
    reference = QueryAnswers(ref.port(), "m");
    ASSERT_EQ(reference.count, kValues);
    client.reset();
  }

  // Chaos: the same value sequence through a faulty transport, with a
  // server kill (power loss) in the middle.
  durability::MemStorage disk;
  std::atomic<uint16_t> port{0};
  FaultDice dice(/*seed=*/555);
  std::atomic<uint64_t> conn_seed{1000};
  auto factory = [&]() -> std::unique_ptr<Conn> {
    if (dice.Roll(0.05)) return nullptr;  // connect-time failure
    const int fd = TcpConnectEx("127.0.0.1", port.load(), 2000, nullptr,
                                nullptr);
    if (fd < 0) return nullptr;
    ConnFaultSpec spec;
    spec.short_read = 0.1;
    spec.short_write = 0.1;
    spec.read_would_block = 0.05;
    spec.write_would_block = 0.05;
    spec.bit_flip_read = 0.002;
    spec.bit_flip_write = 0.002;
    spec.reset = 0.001;
    return std::make_unique<FaultyConn>(std::make_unique<SocketConn>(fd),
                                        spec, conn_seed.fetch_add(1));
  };

  ResilientOptions options;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 8;
  options.batch_values = 512;
  options.max_attempts = 256;
  options.client.io_timeout_ms = 5000;
  ResilientClient client(factory, "m", MatrixParams(), options);

  auto first = std::make_unique<ChaosIncarnation>(&disk, /*seed=*/4242);
  ASSERT_TRUE(first->ok());
  port.store(first->port());

  const size_t half = kValues / 2;
  for (size_t off = 0; off < half; off += 300) {
    const size_t n = std::min<size_t>(300, half - off);
    ASSERT_TRUE(client.PushBatch({values.data() + off, n}))
        << client.error();
  }
  ASSERT_TRUE(client.Flush()) << client.error();

  // Kill: power loss mid-run. Everything the acked FLUSH covered must
  // survive recovery; the client's next operation rides RESUME.
  first->Kill();
  first.reset();
  auto second = std::make_unique<ChaosIncarnation>(&disk, /*seed=*/4243);
  ASSERT_TRUE(second->ok());
  port.store(second->port());

  for (size_t off = half; off < kValues; off += 300) {
    const size_t n = std::min<size_t>(300, kValues - off);
    ASSERT_TRUE(client.PushBatch({values.data() + off, n}))
        << client.error();
  }
  ASSERT_TRUE(client.Flush()) << client.error();
  EXPECT_TRUE(client.ok()) << client.error();
  EXPECT_GE(client.counters().reconnects, 1u);  // the kill guarantees one
  EXPECT_EQ(client.counters().lost_values, 0u);

  // Bit-identical to the uninterrupted run: same count (zero loss, zero
  // double-counting), same quantiles, same ranks.
  const MatrixAnswers chaotic = QueryAnswers(second->port(), "m");
  EXPECT_EQ(chaotic.count, kValues);
  EXPECT_TRUE(chaotic == reference)
      << "count " << chaotic.count << " vs " << reference.count;
}

TEST(ChaosMatrix, GracefulDrainAndSlowReaderEvictionKeepExactCounts) {
  durability::MemStorage disk;
  ServerOptions governance;
  governance.write_queue_limit = size_t{32} << 10;
  governance.stall_timeout_ms = 300;
  governance.idle_timeout_ms = 0;

  std::atomic<uint16_t> port{0};
  std::atomic<uint64_t> conn_seed{2000};
  auto factory = [&]() -> std::unique_ptr<Conn> {
    const int fd = TcpConnectEx("127.0.0.1", port.load(), 2000, nullptr,
                                nullptr);
    if (fd < 0) return nullptr;
    ConnFaultSpec spec;
    spec.short_read = 0.1;
    spec.short_write = 0.1;
    return std::make_unique<FaultyConn>(std::make_unique<SocketConn>(fd),
                                        spec, conn_seed.fetch_add(1));
  };
  ResilientOptions options;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 8;
  options.batch_values = 512;
  ResilientClient client(factory, "g", MatrixParams(), options);

  auto first = std::make_unique<ChaosIncarnation>(&disk, /*seed=*/91,
                                                  governance);
  ASSERT_TRUE(first->ok());
  port.store(first->port());

  for (uint64_t v = 1; v <= 6000; ++v) ASSERT_TRUE(client.Push(v % 4096));
  ASSERT_TRUE(client.Flush()) << client.error();

  // A hostile slow reader: pipelines requests, never reads a byte. The
  // stall deadline must evict it while the producer stays exact.
  const int hostile_fd =
      TcpConnectEx("127.0.0.1", port.load(), 2000, nullptr, nullptr);
  ASSERT_GE(hostile_fd, 0);
  {
    SocketConn hostile(hostile_fd);
    std::string frames;
    for (int i = 0; i < 4000; ++i) {
      NetRequest req;
      req.id = static_cast<uint64_t>(i + 1);
      req.op = NetOp::kQuery;
      req.stream = "g";
      req.phi = 0.5;
      frames += EncodeRequest(req);
    }
    // Push until the server stops reading (its write queue limit), then
    // go silent. Eviction is the only way this connection ever closes.
    size_t off = 0;
    while (off < frames.size()) {
      const int n =
          hostile.Write(frames.data() + off, frames.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    char buf[64];
    const auto until = std::chrono::steady_clock::now() + 20s;
    bool evicted = false;
    while (std::chrono::steady_clock::now() < until) {
      // Peek without consuming the backlog: a closed conn reads -1 after
      // the backlog, so drain while checking.
      const int n = hostile.Read(buf, sizeof(buf));
      if (n < 0) {
        evicted = true;
        break;
      }
      if (n == 0) std::this_thread::sleep_for(5ms);
    }
    EXPECT_TRUE(evicted) << "slow reader was never evicted";
  }

  // The producer is unaffected: keep pushing through the noise.
  for (uint64_t v = 1; v <= 2000; ++v) ASSERT_TRUE(client.Push(v % 4096));
  ASSERT_TRUE(client.Flush()) << client.error();

  // SIGTERM path: drain the first incarnation gracefully.
  const DrainSummary summary = first->Drain();
  EXPECT_TRUE(summary.drained);
  first.reset();

  // Third act: a fresh incarnation recovers the drained state and the
  // producer reconnects, replays its tail, and stays exact.
  auto second = std::make_unique<ChaosIncarnation>(&disk, /*seed=*/92,
                                                   governance);
  ASSERT_TRUE(second->ok());
  port.store(second->port());
  for (uint64_t v = 1; v <= 2000; ++v) ASSERT_TRUE(client.Push(v % 4096));
  ASSERT_TRUE(client.Flush()) << client.error();
  EXPECT_EQ(client.counters().lost_values, 0u);

  auto verify = StreamqClient::ConnectTcp("127.0.0.1", second->port());
  ASSERT_NE(verify, nullptr);
  const NetResponse stats = verify->Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.stats.count, 10000u);
}

}  // namespace
}  // namespace streamq::net
