// Network tier unit tests over the in-process loopback transport: the
// whole server state machine -- protocol, pipelining, backpressure,
// durability acks, the HTTP scrape endpoint -- without a single socket,
// so the suite runs identically under ASan/UBSan and TSan.
//
// The protocol-robustness sweeps here are the satellite contract: every
// single-byte flip and every truncation of a request frame must produce a
// clean error response or a connection close -- never a crash, never a
// desynced parse.

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/storage.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"

namespace streamq::net {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Harness: a server pumped by a background thread; AddConn and the pump
// loop serialise on one mutex, preserving the server's single-threaded
// contract while clients run on the test thread.
// ---------------------------------------------------------------------------

class NetLoopbackTest : public ::testing::Test {
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

  /// New loopback connection to the server; returns the client end.
  std::unique_ptr<Conn> Attach() {
    auto [server_end, client_end] = MakeLoopbackPair();
    std::lock_guard<std::mutex> lock(server_mutex_);
    server_->AddConn(std::move(server_end));
    return std::move(client_end);
  }

  std::unique_ptr<StreamqClient> MakeClient() {
    ClientOptions options;
    options.io_timeout_ms = 10000;
    return std::make_unique<StreamqClient>(Attach(), options);
  }

  size_t SessionCount() {
    std::lock_guard<std::mutex> lock(server_mutex_);
    return server_->SessionCount();
  }

  /// Waits for all server sessions to drain away (closed conns reaped).
  bool WaitForSessionCount(size_t want, std::chrono::milliseconds deadline) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      if (SessionCount() == want) return true;
      std::this_thread::sleep_for(1ms);
    }
    return SessionCount() == want;
  }

  std::unique_ptr<StreamqServer> server_;
  std::mutex server_mutex_;
  std::thread pump_;
  std::atomic<bool> stop_{false};
};

// Raw-conn helpers for the corruption sweeps (no client library between
// the test and the bytes).

bool WriteAll(Conn& conn, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const int n = conn.Write(data.data() + off, data.size() - off);
    if (n < 0) return false;
    if (n == 0) {
      if (!conn.WaitWritable(2000)) return false;
      continue;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

enum class ReadOutcome { kResponse, kClosed, kTimeout };

ReadOutcome ReadOneResponse(Conn& conn, FrameBuffer& inbuf, NetResponse* out,
                            std::chrono::milliseconds timeout = 5000ms) {
  char buf[4096];
  const auto until = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    std::string frame;
    const FrameScan scan = inbuf.Next(&frame);
    if (scan == FrameScan::kBad) return ReadOutcome::kClosed;
    if (scan == FrameScan::kFrame) {
      if (!DecodeResponse(frame, out)) return ReadOutcome::kClosed;
      return ReadOutcome::kResponse;
    }
    if (std::chrono::steady_clock::now() > until) return ReadOutcome::kTimeout;
    if (!conn.WaitReadable(100)) continue;
    const int n = conn.Read(buf, sizeof(buf));
    if (n < 0) return ReadOutcome::kClosed;
    if (n > 0) inbuf.Append(buf, static_cast<size_t>(n));
  }
}

NetRequest InsertRequest(const std::string& stream, uint64_t value,
                         uint64_t id) {
  NetRequest req;
  req.id = id;
  req.op = NetOp::kInsert;
  req.stream = stream;
  req.value = value;
  return req;
}

// ---------------------------------------------------------------------------
// Pure protocol tests (no server)
// ---------------------------------------------------------------------------

TEST(NetProtocol, RoundTripAllOps) {
  NetRequest create;
  create.id = 7;
  create.op = NetOp::kCreate;
  create.stream = "s1";
  create.create.algorithm = "DCS";
  create.create.eps = 0.01;
  create.create.log_universe = 20;
  create.create.depth = 5;
  create.create.seed = 42;
  create.create.shards = 3;
  create.create.durable = true;

  NetRequest batch;
  batch.id = 8;
  batch.op = NetOp::kBatchInsert;
  batch.stream = "s1";
  batch.values = {1, 2, 3, uint64_t{1} << 40};

  NetRequest query;
  query.id = 9;
  query.op = NetOp::kQuery;
  query.stream = "s1";
  query.phi = 0.75;

  for (const NetRequest* req : {&create, &batch, &query}) {
    NetRequest got;
    ASSERT_TRUE(DecodeRequest(EncodeRequest(*req), &got));
    EXPECT_EQ(got.id, req->id);
    EXPECT_EQ(got.op, req->op);
    EXPECT_EQ(got.stream, req->stream);
  }
  NetRequest got;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(create), &got));
  EXPECT_EQ(got.create.algorithm, "DCS");
  EXPECT_DOUBLE_EQ(got.create.eps, 0.01);
  EXPECT_EQ(got.create.shards, 3u);
  EXPECT_TRUE(got.create.durable);
  ASSERT_TRUE(DecodeRequest(EncodeRequest(batch), &got));
  EXPECT_EQ(got.values, batch.values);
  ASSERT_TRUE(DecodeRequest(EncodeRequest(query), &got));
  EXPECT_DOUBLE_EQ(got.phi, 0.75);

  NetResponse resp;
  resp.id = 11;
  resp.op = NetOp::kStats;
  resp.status = NetStatus::kOk;
  resp.value = 123;
  resp.stats.count = 1000;
  resp.stats.durable_seq = 999;
  resp.stats.algorithm = "Random";
  resp.stats.durable = true;
  resp.stats.recovered = true;
  NetResponse rgot;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &rgot));
  EXPECT_EQ(rgot.id, 11u);
  EXPECT_EQ(rgot.stats.count, 1000u);
  EXPECT_EQ(rgot.stats.durable_seq, 999u);
  EXPECT_TRUE(rgot.stats.durable);
  EXPECT_TRUE(rgot.stats.recovered);
  EXPECT_EQ(rgot.stats.algorithm, "Random");

  NetResponse err;
  err.id = 12;
  err.op = NetOp::kInsert;
  err.status = NetStatus::kUnknownStream;
  err.message = "no such stream";
  ASSERT_TRUE(DecodeResponse(EncodeResponse(err), &rgot));
  EXPECT_EQ(rgot.status, NetStatus::kUnknownStream);
  EXPECT_EQ(rgot.message, "no such stream");
}

TEST(NetProtocol, RejectsWrongTypeAndTrailingGarbage) {
  const std::string req = EncodeRequest(InsertRequest("s", 1, 1));
  // A request frame is not a response frame.
  NetResponse resp;
  EXPECT_FALSE(DecodeResponse(req, &resp));
  // Trailing garbage inside the frame string.
  NetRequest out;
  EXPECT_FALSE(DecodeRequest(req + "x", &out));
}

TEST(NetProtocol, FrameBufferChunkedDeliveryAndPipelining) {
  const std::string f1 = EncodeRequest(InsertRequest("s", 1, 1));
  const std::string f2 = EncodeRequest(InsertRequest("s", 2, 2));
  FrameBuffer buf;
  std::string frame;
  // Byte-by-byte: kNeedMore until the last byte of f1.
  for (size_t i = 0; i < f1.size(); ++i) {
    ASSERT_EQ(buf.Next(&frame), FrameScan::kNeedMore) << "at byte " << i;
    buf.Append(f1.data() + i, 1);
  }
  ASSERT_EQ(buf.Next(&frame), FrameScan::kFrame);
  EXPECT_EQ(frame, f1);
  // Two frames appended at once: both extracted, in order.
  buf.Append(f1.data(), f1.size());
  buf.Append(f2.data(), f2.size());
  ASSERT_EQ(buf.Next(&frame), FrameScan::kFrame);
  EXPECT_EQ(frame, f1);
  ASSERT_EQ(buf.Next(&frame), FrameScan::kFrame);
  EXPECT_EQ(frame, f2);
  EXPECT_EQ(buf.Next(&frame), FrameScan::kNeedMore);
}

TEST(NetProtocol, FrameBufferPoisonsOnBadHeader) {
  FrameBuffer buf;
  std::string garbage = "this is not a frame header, clearly";
  buf.Append(garbage.data(), garbage.size());
  std::string frame;
  EXPECT_EQ(buf.Next(&frame), FrameScan::kBad);
  // Poisoned: even appending a valid frame cannot resurrect the stream.
  const std::string good = EncodeRequest(InsertRequest("s", 1, 1));
  buf.Append(good.data(), good.size());
  EXPECT_EQ(buf.Next(&frame), FrameScan::kBad);
}

TEST(NetProtocol, FrameBufferRejectsOversizeHeader) {
  // A header advertising a payload beyond the ceiling is corruption, even
  // though the magic bytes are intact.
  std::string frame = EncodeRequest(InsertRequest("s", 1, 1));
  const uint64_t huge = kMaxFrameBytes + 1;
  std::memcpy(frame.data() + 8, &huge, 8);
  FrameBuffer buf;
  buf.Append(frame.data(), frame.size());
  std::string out;
  EXPECT_EQ(buf.Next(&out), FrameScan::kBad);
}

TEST(NetProtocol, ResponseCorruptionEveryByteRejected) {
  NetResponse resp;
  resp.id = 77;
  resp.op = NetOp::kQuery;
  resp.value = 12345;
  resp.message = "";
  const std::string frame = EncodeResponse(resp);
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string bad = frame;
      bad[pos] = static_cast<char>(static_cast<uint8_t>(bad[pos]) ^ flip);
      NetResponse out;
      EXPECT_FALSE(DecodeResponse(bad, &out))
          << "flip 0x" << std::hex << int{flip} << " at byte " << std::dec
          << pos << " was accepted";
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end over loopback
// ---------------------------------------------------------------------------

TEST_F(NetLoopbackTest, CreateInsertQueryFlushStatsDrop) {
  StartServer();
  auto client = MakeClient();

  CreateParams params;
  params.algorithm = "Random";
  params.eps = 0.005;
  NetResponse resp = client->Create("ticks", params);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.stats.algorithm, "Random");
  EXPECT_FALSE(resp.stats.recovered);

  std::vector<uint64_t> values;
  for (uint64_t v = 1; v <= 1000; ++v) values.push_back(v);
  resp = client->InsertBatch("ticks", values);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.value, 1000u);

  resp = client->Insert("ticks", 500);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.value, 1u);

  resp = client->Flush("ticks");
  ASSERT_TRUE(resp.ok()) << resp.message;

  resp = client->Query("ticks", 0.5);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_NEAR(static_cast<double>(resp.value), 500.0, 60.0);

  resp = client->Rank("ticks", 500);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_NEAR(static_cast<double>(resp.rank), 499.0, 60.0);

  resp = client->Stats("ticks");
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.stats.pushed, 1001u);
  EXPECT_EQ(resp.stats.processed, 1001u);
  EXPECT_EQ(resp.stats.count, 1001u);
  EXPECT_FALSE(resp.stats.durable);

  resp = client->Drop("ticks");
  ASSERT_TRUE(resp.ok()) << resp.message;
  resp = client->Query("ticks", 0.5);
  EXPECT_EQ(resp.status, NetStatus::kUnknownStream);
}

TEST_F(NetLoopbackTest, PipelinedResponsesArriveInSendOrder) {
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client->Create("p", CreateParams{}).ok());

  std::vector<uint64_t> ids;
  for (uint64_t v = 0; v < 64; ++v) {
    NetRequest req = InsertRequest("p", v * 10, 0);
    const uint64_t id = client->Send(std::move(req));
    ASSERT_NE(id, 0u);
    ids.push_back(id);
    if (v % 8 == 0) {
      NetRequest q;
      q.op = NetOp::kQuery;
      q.stream = "p";
      q.phi = 0.5;
      const uint64_t qid = client->Send(std::move(q));
      ASSERT_NE(qid, 0u);
      ids.push_back(qid);
    }
  }
  std::vector<NetResponse> responses;
  ASSERT_TRUE(client->DrainAll(&responses)) << client->error();
  ASSERT_EQ(responses.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(responses[i].id, ids[i]) << "response " << i << " out of order";
    EXPECT_TRUE(responses[i].ok());
  }
  EXPECT_EQ(client->outstanding(), 0u);
}

TEST_F(NetLoopbackTest, ErrorStatuses) {
  ServerOptions options;
  options.max_streams = 2;
  StartServer(options);
  auto client = MakeClient();

  EXPECT_EQ(client->Insert("ghost", 1).status, NetStatus::kUnknownStream);

  CreateParams bad_algo;
  bad_algo.algorithm = "NotAnAlgorithm";
  EXPECT_EQ(client->Create("a", bad_algo).status, NetStatus::kBadRequest);

  CreateParams gk;
  gk.algorithm = "GKArray";  // not mergeable: cannot back a pipeline
  EXPECT_EQ(client->Create("a", gk).status, NetStatus::kUnsupported);

  CreateParams durable;
  durable.durable = true;  // server has no storage backend
  EXPECT_EQ(client->Create("a", durable).status, NetStatus::kUnsupported);

  EXPECT_EQ(client->Create("bad name!", CreateParams{}).status,
            NetStatus::kBadRequest);

  ASSERT_TRUE(client->Create("a", CreateParams{}).ok());
  EXPECT_EQ(client->Create("a", CreateParams{}).status,
            NetStatus::kStreamExists);

  ASSERT_TRUE(client->Create("b", CreateParams{}).ok());
  EXPECT_EQ(client->Create("c", CreateParams{}).status,
            NetStatus::kTooManyStreams);

  EXPECT_EQ(client->Query("a", 1.5).status, NetStatus::kBadRequest);
  EXPECT_EQ(client->Insert("a", 1, 0).status, NetStatus::kBadRequest);
}

// ---------------------------------------------------------------------------
// Protocol robustness sweeps (the satellite contract)
// ---------------------------------------------------------------------------

TEST_F(NetLoopbackTest, RequestCorruptionFlipEveryByte) {
  StartServer();
  {
    auto client = MakeClient();
    ASSERT_TRUE(client->Create("c", CreateParams{}).ok());
  }
  const std::string insert = EncodeRequest(InsertRequest("c", 42, 1));
  NetRequest query;
  query.id = 999;
  query.op = NetOp::kQuery;
  query.stream = "c";
  query.phi = 0.5;
  const std::string follow_up = EncodeRequest(query);

  for (size_t pos = 0; pos < insert.size(); ++pos) {
    SCOPED_TRACE("flipped byte " + std::to_string(pos));
    std::string bad = insert;
    bad[pos] = static_cast<char>(static_cast<uint8_t>(bad[pos]) ^ 0x20);
    auto conn = Attach();
    ASSERT_TRUE(WriteAll(*conn, bad + follow_up));

    bool got_follow_up_ok = false;
    bool got_error = false;
    bool closed = false;
    bool stalled = false;
    FrameBuffer inbuf;
    for (int i = 0; i < 4 && !got_follow_up_ok && !closed && !stalled; ++i) {
      NetResponse resp;
      switch (ReadOneResponse(*conn, inbuf, &resp, 2000ms)) {
        case ReadOutcome::kResponse:
          if (resp.id == 999 && resp.ok()) {
            got_follow_up_ok = true;
          } else {
            EXPECT_FALSE(resp.ok());
            got_error = true;
          }
          break;
        case ReadOutcome::kClosed:
          closed = true;
          break;
        case ReadOutcome::kTimeout:
          stalled = true;
          break;
      }
    }
    // Always: a clean error response or a connection close. Never a bogus
    // success, never a stall -- the header CRC turns even a plausible
    // flipped length into an immediate close instead of a frame that never
    // completes. Per region we can demand more:
    if (pos < kFrameHeaderCrcCoverage + 4) {
      // Magic / version+type / length / header CRC: the boundary is
      // untrustworthy, so the connection closes at scan time.
      EXPECT_TRUE(closed);
      EXPECT_FALSE(got_follow_up_ok);
      EXPECT_FALSE(stalled);
    } else {
      // Payload CRC field or payload: the boundary stayed exact, so the
      // error is per-request and the pipelined follow-up must succeed.
      EXPECT_TRUE(got_error);
      EXPECT_TRUE(got_follow_up_ok);
    }
    conn->Close();
  }

  // The server survived the whole sweep.
  auto client = MakeClient();
  EXPECT_TRUE(client->Query("c", 0.5).ok());
  EXPECT_TRUE(WaitForSessionCount(1, 5000ms));
}

/// Flips one payload byte of the first write larger than `threshold`,
/// then passes everything through untouched: a deterministic in-flight
/// payload corruption aimed at exactly one frame.
class CorruptOneBigWrite : public Conn {
 public:
  CorruptOneBigWrite(std::unique_ptr<Conn> inner, size_t threshold)
      : inner_(std::move(inner)), threshold_(threshold) {}
  int Read(char* buf, size_t n) override { return inner_->Read(buf, n); }
  int Write(const char* buf, size_t n) override {
    if (fired_ || n <= threshold_) return inner_->Write(buf, n);
    fired_ = true;
    std::string bad(buf, n);
    bad[kFrameHeaderBytes + 16] ^= 0x40;  // past id/op, inside the payload
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

TEST_F(NetLoopbackTest, PayloadFlipAnswersTheCallInsteadOfStalling) {
  // A payload flip in a request the server cannot decode draws an id-0
  // kBadRequest (the flip may have hit the id itself, so echoing it would
  // risk misattribution). Response ordering lets the client pin that
  // answer to its own call -- the alternative is waiting out the full io
  // timeout for a response to its id that is never coming, which is a
  // multi-second outage per flipped bit.
  StartServer();
  ClientOptions options;
  options.io_timeout_ms = 30000;
  // CREATE and the follow-ups are small; only the 256-value batch frame
  // crosses the threshold and takes the flip.
  StreamqClient client(
      std::make_unique<CorruptOneBigWrite>(Attach(), /*threshold=*/512),
      options);
  ASSERT_TRUE(client.Create("p", CreateParams{}).ok());
  std::vector<uint64_t> values(256);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;

  const auto t0 = std::chrono::steady_clock::now();
  const NetResponse bad = client.InsertBatch("p", values);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(bad.status, NetStatus::kBadRequest) << bad.message;
  EXPECT_LT(elapsed, 5s) << "call stalled instead of taking the id-0 error";
  // The frame boundary stayed exact: the connection survives and the
  // retried batch lands on the SAME session, exactly once.
  ASSERT_TRUE(client.ok()) << client.error();
  ASSERT_TRUE(client.InsertBatch("p", values).ok());
  const NetResponse stats = client.Stats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.stats.pushed, 256u);
}

TEST_F(NetLoopbackTest, RequestTruncationEveryLength) {
  StartServer();
  {
    auto client = MakeClient();
    ASSERT_TRUE(client->Create("t", CreateParams{}).ok());
  }
  const std::string frame = EncodeRequest(InsertRequest("t", 7, 1));
  for (size_t len = 0; len < frame.size(); ++len) {
    auto conn = Attach();
    ASSERT_TRUE(WriteAll(*conn, frame.substr(0, len)));
    // A truncated frame never completes; the server must neither answer
    // nor crash, and must reap the session once we hang up.
    conn->Close();
  }
  ASSERT_TRUE(WaitForSessionCount(0, 5000ms));
  auto client = MakeClient();
  EXPECT_TRUE(client->Query("t", 0.5).ok());
}

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

TEST_F(NetLoopbackTest, RingFullBackpressureParksAndCompletes) {
  // A batch far larger than the rings parks; single INSERTs pipelined
  // behind it park the same way (as one-update batches carrying their
  // delta). With 2 and 3 shards every accepted prefix is a set of strided
  // per-shard runs. Every response must come back in request order with
  // its value, and nothing may be lost or pushed twice. The batch is a
  // multiple of 256 * shards values, so its last accepted chunk tends to
  // fill every ring exactly and the first INSERT behind it to park (not
  // asserted: the workers may drain a slot first).
  for (const int shards : {1, 2, 3}) {
    SCOPED_TRACE(shards);
    ServerOptions options;
    options.ring_capacity = 256;  // tiny rings: a big batch cannot fit
    options.default_shards = shards;
    StartServer(options);
    auto client = MakeClient();
    ASSERT_TRUE(client->Create("bp", CreateParams{}).ok());

    std::vector<uint64_t> values;
    for (uint64_t v = 0; v < 98'304; ++v) values.push_back(v % 1000);
    constexpr int kInserts = 40;
    std::vector<uint64_t> ids;
    std::vector<uint64_t> want_values;
    uint64_t want_count = 0;
    for (int round = 0; round < 2; ++round) {
      NetRequest batch;
      batch.op = NetOp::kBatchInsert;
      batch.stream = "bp";
      batch.values = values;
      ids.push_back(client->Send(std::move(batch)));
      want_values.push_back(values.size());
      want_count += values.size();
      for (int i = 0; i < kInserts; ++i) {
        const int32_t delta = 1 + i % 3;
        NetRequest insert = InsertRequest("bp", 500 + i, 0);
        insert.delta = delta;
        ids.push_back(client->Send(std::move(insert)));
        want_values.push_back(1);
        want_count += static_cast<uint64_t>(delta);
      }
    }
    for (const uint64_t id : ids) ASSERT_NE(id, 0u) << client->error();
    std::vector<NetResponse> responses;
    ASSERT_TRUE(client->DrainAll(&responses)) << client->error();
    ASSERT_EQ(responses.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(responses[i].id, ids[i]) << "response " << i << " out of order";
      ASSERT_TRUE(responses[i].ok()) << responses[i].message;
      EXPECT_EQ(responses[i].value, want_values[i]) << "response " << i;
    }

    NetResponse resp = client->Flush("bp");
    ASSERT_TRUE(resp.ok());
    resp = client->Stats("bp");
    ASSERT_TRUE(resp.ok());
    const uint64_t updates = 2 * (values.size() + kInserts);
    EXPECT_EQ(resp.stats.pushed, updates);
    EXPECT_EQ(resp.stats.processed, updates);
    EXPECT_EQ(resp.stats.count, want_count) << "an INSERT lost its delta";

    // The park is observable: a 98k batch through 256-slot rings cannot
    // have been accepted in one go.
    std::string metrics;
    {
      std::lock_guard<std::mutex> lock(server_mutex_);
      metrics = server_->MetricsText();
    }
    EXPECT_NE(metrics.find("streamq_net_parks_total"), std::string::npos);
    EXPECT_EQ(metrics.find("streamq_net_parks_total 0\n"), std::string::npos)
        << "expected at least one park";
    client.reset();
    StopServer();
  }
}

TEST_F(NetLoopbackTest, WriteQueueBackpressureKeepsOrder) {
  ServerOptions options;
  options.write_queue_limit = 1024;  // a handful of responses
  StartServer(options);
  auto client = MakeClient();
  ASSERT_TRUE(client->Create("wq", CreateParams{}).ok());

  // Pipeline far more queries than the write queue can hold; the server
  // must defer reads rather than buffer unboundedly, and every response
  // must still arrive in order.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 500; ++i) {
    NetRequest q;
    q.op = NetOp::kQuery;
    q.stream = "wq";
    q.phi = 0.5;
    const uint64_t id = client->Send(std::move(q));
    ASSERT_NE(id, 0u) << client->error();
    ids.push_back(id);
  }
  std::vector<NetResponse> responses;
  ASSERT_TRUE(client->DrainAll(&responses)) << client->error();
  ASSERT_EQ(responses.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(responses[i].id, ids[i]);
    EXPECT_TRUE(responses[i].ok());
  }
}

// ---------------------------------------------------------------------------
// Durability ack
// ---------------------------------------------------------------------------

TEST_F(NetLoopbackTest, FlushAcksDurableSeq) {
  durability::MemStorage storage;
  ServerOptions options;
  options.storage = &storage;
  options.data_dir = "flush-ack";
  options.wal_sync_interval = 64;
  StartServer(options);
  auto client = MakeClient();

  CreateParams params;
  params.durable = true;
  ASSERT_TRUE(client->Create("d", params).ok());

  std::vector<uint64_t> values;
  for (uint64_t v = 1; v <= 5000; ++v) values.push_back(v);
  ASSERT_TRUE(client->InsertBatch("d", values).ok());

  NetResponse resp = client->Flush("d");
  ASSERT_TRUE(resp.ok()) << resp.message;
  // The FLUSH ack is a durability guarantee: the mark covers everything
  // this connection sent.
  EXPECT_EQ(resp.value, 5000u);

  resp = client->Stats("d");
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.stats.durable);
  EXPECT_EQ(resp.stats.durable_seq, 5000u);

  // The server (and its WAL writer) must die before the stack-local
  // storage it writes to.
  client.reset();
  StopServer();
}

// ---------------------------------------------------------------------------
// HTTP scrape endpoint
// ---------------------------------------------------------------------------

TEST_F(NetLoopbackTest, HttpMetricsScrape) {
  StartServer();
  {
    auto client = MakeClient();
    ASSERT_TRUE(client->Create("m", CreateParams{}).ok());
    ASSERT_TRUE(client->Insert("m", 1).ok());
  }
  auto conn = Attach();
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(WriteAll(*conn, get));
  std::string body;
  char buf[4096];
  const auto until = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    if (std::chrono::steady_clock::now() > until) FAIL() << "scrape timeout";
    if (!conn->WaitReadable(100)) continue;
    const int n = conn->Read(buf, sizeof(buf));
    if (n < 0) break;  // server closed: response complete (HTTP/1.0)
    if (n > 0) body.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(body.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(body.find("text/plain"), std::string::npos);
  EXPECT_NE(body.find("streamq_net_requests_INSERT_total"),
            std::string::npos);
  EXPECT_NE(body.find("streamq_net_connections_accepted_total"),
            std::string::npos);
  // Per-stream pipeline metrics ride the same registry.
  EXPECT_NE(body.find("streamq_net_stream_m_"), std::string::npos);
}

TEST_F(NetLoopbackTest, HttpUnknownPathIs404) {
  StartServer();
  auto conn = Attach();
  ASSERT_TRUE(WriteAll(*conn, "GET /nope HTTP/1.0\r\n\r\n"));
  std::string body;
  char buf[1024];
  const auto until = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    if (std::chrono::steady_clock::now() > until) FAIL() << "404 timeout";
    if (!conn->WaitReadable(100)) continue;
    const int n = conn->Read(buf, sizeof(buf));
    if (n < 0) break;
    if (n > 0) body.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(body.find("404 Not Found"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Accuracy audit plane over the wire (DESIGN.md section 17)
// ---------------------------------------------------------------------------

/// Raw HTTP exchange against the loopback server: writes `request`, reads
/// until the server closes (HTTP/1.0), returns everything received.
std::string HttpExchange(Conn& conn, const std::string& request) {
  if (!WriteAll(conn, request)) return {};
  std::string got;
  char buf[4096];
  const auto until = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    if (std::chrono::steady_clock::now() > until) return got;
    if (!conn.WaitReadable(100)) continue;
    const int n = conn.Read(buf, sizeof(buf));
    if (n < 0) return got;  // closed: response complete
    if (n > 0) got.append(buf, static_cast<size_t>(n));
  }
}

TEST(NetProtocol, AuditResponseRoundTrip) {
  NetResponse resp;
  resp.id = 21;
  resp.op = NetOp::kAudit;
  resp.status = NetStatus::kOk;
  resp.audit.valid = true;
  resp.audit.sketch_count = 100000;
  resp.audit.shadow_n = 100000;
  resp.audit.shadow_k = 4096;
  resp.audit.shadow_bytes = 65664;
  resp.audit.gap_frac = 0.0;
  resp.audit.eps_budget = 0.03;
  resp.audit.max_observed_err = 0.004;
  resp.audit.violations = 1;
  obs::AuditProbe probe;
  probe.phi = 0.5;
  probe.quantile = 123456;
  probe.observed_err = 0.004;
  probe.budget = 0.061;
  probe.violation = true;
  resp.audit.probes = {probe};

  NetResponse got;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &got));
  EXPECT_TRUE(got.audit.valid);
  EXPECT_EQ(got.audit.sketch_count, 100000u);
  EXPECT_EQ(got.audit.shadow_k, 4096u);
  EXPECT_DOUBLE_EQ(got.audit.eps_budget, 0.03);
  EXPECT_EQ(got.audit.violations, 1);
  ASSERT_EQ(got.audit.probes.size(), 1u);
  EXPECT_DOUBLE_EQ(got.audit.probes[0].phi, 0.5);
  EXPECT_EQ(got.audit.probes[0].quantile, 123456u);
  EXPECT_DOUBLE_EQ(got.audit.probes[0].budget, 0.061);
  EXPECT_TRUE(got.audit.probes[0].violation);

  // Stats payloads carry the audit summary fields.
  NetResponse stats;
  stats.id = 22;
  stats.op = NetOp::kStats;
  stats.status = NetStatus::kOk;
  stats.stats.audited = true;
  stats.stats.audit_rounds = 5;
  stats.stats.audit_violations = 2;
  stats.stats.audit_max_err = 0.01;
  stats.stats.audit_eps_budget = 0.03;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(stats), &got));
  EXPECT_TRUE(got.stats.audited);
  EXPECT_EQ(got.stats.audit_rounds, 5u);
  EXPECT_EQ(got.stats.audit_violations, 2u);
  EXPECT_DOUBLE_EQ(got.stats.audit_max_err, 0.01);
  EXPECT_DOUBLE_EQ(got.stats.audit_eps_budget, 0.03);
}

TEST_F(NetLoopbackTest, AuditOnUnauditedStreamIsUnsupported) {
  // A server started without auditing answers AUDIT with kUnsupported.
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client->Create("plain", CreateParams{}).ok());
  const NetResponse resp = client->Audit("plain");
  EXPECT_EQ(resp.status, NetStatus::kUnsupported);
  // Stats on the same stream report it un-audited.
  const NetResponse stats = client->Stats("plain");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.stats.audited);
  EXPECT_EQ(stats.stats.audit_rounds, 0u);
}

TEST_F(NetLoopbackTest, AuditedStreamAnswersAuditAndStats) {
  ServerOptions options;
  options.audit = true;
  StartServer(options);
  auto client = MakeClient();

  CreateParams params;
  params.algorithm = "Random";
  params.eps = 0.02;
  ASSERT_TRUE(client->Create("hot", params).ok());
  std::vector<uint64_t> values;
  values.reserve(120'000);
  std::mt19937_64 rng(113);
  for (size_t i = 0; i < 120'000; ++i) values.push_back(rng() >> 24);
  for (size_t i = 0; i < values.size(); i += 8192) {
    const size_t n = std::min<size_t>(8192, values.size() - i);
    ASSERT_TRUE(
        client->InsertBatch("hot", {values.data() + i, n}).ok());
  }
  ASSERT_TRUE(client->Flush("hot").ok());

  const NetResponse resp = client->Audit("hot");
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_TRUE(resp.audit.valid);
  EXPECT_FALSE(resp.audit.tainted);
  EXPECT_EQ(resp.audit.violations, 0);
  EXPECT_EQ(resp.audit.shadow_n, values.size());
  EXPECT_DOUBLE_EQ(resp.audit.eps_budget, 0.02 * 3.0);  // Random: 3x slack
  EXPECT_FALSE(resp.audit.probes.empty());
  EXPECT_EQ(resp.value, 0u);  // violations mirror

  const NetResponse stats = client->Stats("hot");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.stats.audited);
  EXPECT_EQ(stats.stats.audit_rounds, 1u);
  EXPECT_EQ(stats.stats.audit_violations, 0u);
  EXPECT_DOUBLE_EQ(stats.stats.audit_eps_budget, 0.06);

  // The scrape carries the audit families (registered up front) and the
  // round this test just ran.
  auto conn = Attach();
  const std::string scrape =
      HttpExchange(*conn, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(scrape.find("streamq_audit_rounds_total 1"), std::string::npos);
  EXPECT_NE(scrape.find("streamq_audit_violations_total 0"),
            std::string::npos);
  EXPECT_NE(scrape.find("streamq_audit_observed_err"), std::string::npos);
  EXPECT_NE(scrape.find("streamq_audit_shadow_bytes"), std::string::npos);
}

TEST_F(NetLoopbackTest, HealthzFlipsOnSustainedViolations) {
  // The server catching itself lying: the stream honestly meets its own
  // eps = 0.25, but the operator SLO (audit_slo_eps) demands 0.001 -- the
  // stream is under-provisioned for the accuracy being promised, every
  // audit round violates, and after audit_unhealthy_rounds consecutive
  // violating rounds /healthz flips to 503.
  ServerOptions options;
  options.audit = true;
  options.audit_reservoir = 65536;  // tight CI guard (~0.8% at the median)
  options.audit_slo_eps = 0.001;
  options.audit_unhealthy_rounds = 2;
  StartServer(options);
  auto client = MakeClient();

  CreateParams params;
  params.algorithm = "Random";
  params.eps = 0.25;  // a deliberately coarse sketch
  ASSERT_TRUE(client->Create("slo", params).ok());
  std::vector<uint64_t> values;
  values.reserve(300'000);
  std::mt19937_64 rng(97);
  for (size_t i = 0; i < 300'000; ++i) values.push_back(rng() >> 24);
  for (size_t i = 0; i < values.size(); i += 8192) {
    const size_t n = std::min<size_t>(8192, values.size() - i);
    ASSERT_TRUE(
        client->InsertBatch("slo", {values.data() + i, n}).ok());
  }
  ASSERT_TRUE(client->Flush("slo").ok());

  // Healthy until the streak builds: no rounds yet.
  {
    auto conn = Attach();
    EXPECT_NE(HttpExchange(*conn, "GET /healthz HTTP/1.0\r\n\r\n")
                  .find("HTTP/1.0 200 OK"),
              std::string::npos);
  }
  const NetResponse first = client->Audit("slo");
  ASSERT_TRUE(first.ok()) << first.message;
  ASSERT_TRUE(first.audit.valid);
  ASSERT_GT(first.audit.violations, 0)
      << "SLO config did not violate; max_err=" << first.audit.max_observed_err
      << " budget=" << first.audit.eps_budget;
  // One violating round is below the threshold of 2: still healthy (a
  // lone unlucky draw must never flip health).
  {
    auto conn = Attach();
    EXPECT_NE(HttpExchange(*conn, "GET /healthz HTTP/1.0\r\n\r\n")
                  .find("HTTP/1.0 200 OK"),
              std::string::npos);
  }
  const NetResponse second = client->Audit("slo");
  ASSERT_TRUE(second.ok());
  ASSERT_GT(second.audit.violations, 0);
  {
    auto conn = Attach();
    const std::string got =
        HttpExchange(*conn, "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(got.find("HTTP/1.0 503 Service Unavailable"),
              std::string::npos);
    EXPECT_NE(got.find("sustained accuracy-audit violations"),
              std::string::npos);
  }
}

TEST_F(NetLoopbackTest, TimerSweepRunsPeriodicAuditRounds) {
  // Server-driven rounds: nobody ever sends AUDIT, yet the audited stream
  // self-verifies on the deadline sweep. The injected clock makes the
  // cadence deterministic -- each SweepDeadlines call past the interval
  // boundary runs exactly one round per audited stream.
  std::atomic<uint64_t> fake_now{1};
  ServerOptions options;
  options.audit = true;
  options.audit_interval_ms = 10;
  options.clock = [&fake_now] { return fake_now.load(); };
  StartServer(options);
  auto client = MakeClient();

  CreateParams params;
  params.algorithm = "Random";
  params.eps = 0.02;
  ASSERT_TRUE(client->Create("tick", params).ok());
  std::vector<uint64_t> values;
  std::mt19937_64 rng(127);
  for (size_t i = 0; i < 50'000; ++i) values.push_back(rng() >> 24);
  for (size_t i = 0; i < values.size(); i += 8192) {
    const size_t n = std::min<size_t>(8192, values.size() - i);
    ASSERT_TRUE(
        client->InsertBatch("tick", {values.data() + i, n}).ok());
  }
  ASSERT_TRUE(client->Flush("tick").ok());

  for (int round = 1; round <= 3; ++round) {
    fake_now.fetch_add(11'000'000);  // advance past the 10ms interval
    std::lock_guard<std::mutex> lock(server_mutex_);
    server_->SweepDeadlines();
  }
  const NetResponse stats = client->Stats("tick");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.stats.audit_rounds, 3u);
  EXPECT_EQ(stats.stats.audit_violations, 0u);
}

TEST_F(NetLoopbackTest, HeadRequestsCarryHeadersWithoutBody) {
  StartServer();
  for (const char* path : {"/metrics", "/healthz"}) {
    auto conn = Attach();
    const std::string got = HttpExchange(
        *conn, std::string("HEAD ") + path + " HTTP/1.0\r\n\r\n");
    EXPECT_NE(got.find("HTTP/1.0 200 OK"), std::string::npos) << path;
    const size_t clen = got.find("Content-Length: ");
    ASSERT_NE(clen, std::string::npos) << path;
    // Content-Length states the GET body size, but the body is elided:
    // the response ends at the blank line.
    EXPECT_NE(std::stoul(got.substr(clen + 16)), 0u) << path;
    const size_t blank = got.find("\r\n\r\n");
    ASSERT_NE(blank, std::string::npos) << path;
    EXPECT_EQ(got.size(), blank + 4) << path << ": HEAD leaked a body";
  }
}

TEST_F(NetLoopbackTest, HealthzIsOkOnAHealthyServer) {
  StartServer();
  auto conn = Attach();
  const std::string got =
      HttpExchange(*conn, "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(got.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(got.find("ok"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Client death on corrupt responses
// ---------------------------------------------------------------------------

TEST(NetClient, DiesCleanlyOnCorruptResponse) {
  auto [server_end, client_end] = MakeLoopbackPair();
  ClientOptions options;
  options.io_timeout_ms = 5000;
  StreamqClient client(std::move(client_end), options);

  NetRequest q;
  q.op = NetOp::kQuery;
  q.stream = "x";
  const uint64_t id = client.Send(std::move(q));
  ASSERT_NE(id, 0u);

  // Hand-deliver a response whose payload byte is flipped.
  NetResponse resp;
  resp.id = id;
  resp.op = NetOp::kQuery;
  resp.value = 5;
  std::string frame = EncodeResponse(resp);
  frame[frame.size() - 1] ^= 0x01;
  ASSERT_TRUE(WriteAll(*server_end, frame));

  NetResponse out;
  EXPECT_FALSE(client.Receive(&out));
  EXPECT_FALSE(client.ok());
  EXPECT_NE(client.error().find("protocol error"), std::string::npos);
}

}  // namespace
}  // namespace streamq::net
