// Blocking client for the streamq network protocol, over any Conn (TCP in
// production, the loopback pair in tests).
//
// Two usage styles:
//
//  * Synchronous: Create/Insert/InsertBatch/Query/Rank/Flush/Stats send
//    one request and block for its response. Do not mix with outstanding
//    pipelined requests.
//  * Pipelined: Send() queues a request (returning its id) without waiting;
//    Receive()/DrainAll() collect responses, which arrive in send order.
//    Pipelining is what makes BATCH_INSERT throughput real: the wire stays
//    full instead of round-tripping per frame.
//
// Deadlock note, load-bearing: a server applying backpressure stops
// READING a connection whose stream is busy, so a client that keeps
// writing blind would grow both socket buffers and then spin. When a
// Send's write would block, the client first drains any responses already
// available (freeing the server's write queue, which is often what the
// server is waiting on) before waiting for writability.
//
// Not thread-safe; one client per thread.

#ifndef STREAMQ_NET_CLIENT_H_
#define STREAMQ_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/conn.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace streamq::net {

struct ClientOptions {
  int connect_timeout_ms = 5000;
  /// Per-wait bound while blocked on the peer; an operation gives up --
  /// and the client goes dead -- after this long with no progress at all.
  int io_timeout_ms = 30000;
};

class StreamqClient {
 public:
  explicit StreamqClient(std::unique_ptr<Conn> conn,
                         ClientOptions options = {});
  /// nullptr when the TCP connect fails.
  static std::unique_ptr<StreamqClient> ConnectTcp(
      const std::string& host, uint16_t port, ClientOptions options = {});
  /// ConnectTcp with cause reporting: on nullptr, *error (and *errno_out,
  /// the raw errno when one applies) distinguish refused vs timeout vs
  /// resolution failure, so retry policy can react per cause. Either
  /// out-param may be null.
  static std::unique_ptr<StreamqClient> ConnectTcp(
      const std::string& host, uint16_t port, ClientOptions options,
      ConnectError* error, int* errno_out = nullptr);
  ~StreamqClient();
  StreamqClient(const StreamqClient&) = delete;
  StreamqClient& operator=(const StreamqClient&) = delete;

  /// False once the transport died or the peer broke protocol; every later
  /// operation fails fast with a kInternal response.
  bool ok() const { return alive_; }
  const std::string& error() const { return error_; }

  // --- synchronous helpers ----------------------------------------------

  NetResponse Create(const std::string& stream, const CreateParams& params);
  NetResponse Drop(const std::string& stream);
  NetResponse Insert(const std::string& stream, uint64_t value,
                     int32_t delta = +1);
  NetResponse InsertBatch(const std::string& stream,
                          std::span<const uint64_t> values);
  NetResponse Query(const std::string& stream, double phi);
  NetResponse Rank(const std::string& stream, uint64_t value);
  /// Blocks until the server acks durability of everything sent so far on
  /// this stream. response.value = the durable seq mark.
  NetResponse Flush(const std::string& stream);
  NetResponse Stats(const std::string& stream);
  /// Reconnect handshake: response.value = the highest stream position the
  /// server has accepted (stats payload rides along). A single-writer
  /// producer replays everything after that mark; see ResilientClient.
  NetResponse Resume(const std::string& stream);
  /// Runs one accuracy-audit round on the stream; response.audit carries
  /// the scored phi-grid (kUnsupported when the stream is not audited).
  NetResponse Audit(const std::string& stream);

  // --- pipelining -------------------------------------------------------

  /// Queues `request` (id assigned by the client, returned; 0 = failure)
  /// and pushes bytes without blocking for the response.
  uint64_t Send(NetRequest request);

  /// Blocks for the next in-order response. False when the connection dies
  /// first.
  bool Receive(NetResponse* out);

  /// Receives until no request is outstanding. False on connection death
  /// (responses already collected stay in *out).
  bool DrainAll(std::vector<NetResponse>* out);

  size_t outstanding() const { return outstanding_; }

  void CloseConn();

 private:
  NetResponse Call(NetRequest request);
  /// Pushes pending output; drains opportunistically on would-block.
  bool FlushWrites(bool block_until_empty);
  /// Reads until one frame is complete (blocking) or opportunistically
  /// (non-blocking) into inbox_.
  bool ReadResponses(bool blocking);
  /// Best-effort, non-dying drain of whatever the peer already delivered
  /// into inbox_ -- used on a failed write, where the peer may have
  /// answered-and-closed (admission rejection) before we got a byte out.
  void SlurpFrames();
  void Die(const std::string& why);
  NetResponse DeadResponse(const NetRequest& request) const;

  std::unique_ptr<Conn> conn_;
  ClientOptions options_;
  bool alive_ = true;
  std::string error_;
  uint64_t next_id_ = 1;
  size_t outstanding_ = 0;
  std::string outbuf_;
  size_t out_off_ = 0;
  FrameBuffer inbuf_;
  std::deque<NetResponse> inbox_;
};

}  // namespace streamq::net

#endif  // STREAMQ_NET_CLIENT_H_
