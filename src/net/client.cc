#include "net/client.h"

#include <utility>

#include "net/socket.h"

namespace streamq::net {

StreamqClient::StreamqClient(std::unique_ptr<Conn> conn,
                             ClientOptions options)
    : conn_(std::move(conn)), options_(options) {}

std::unique_ptr<StreamqClient> StreamqClient::ConnectTcp(
    const std::string& host, uint16_t port, ClientOptions options) {
  return ConnectTcp(host, port, options, nullptr, nullptr);
}

std::unique_ptr<StreamqClient> StreamqClient::ConnectTcp(
    const std::string& host, uint16_t port, ClientOptions options,
    ConnectError* error, int* errno_out) {
  const int fd = TcpConnectEx(host, port, options.connect_timeout_ms, error,
                              errno_out);
  if (fd < 0) return nullptr;
  return std::make_unique<StreamqClient>(std::make_unique<SocketConn>(fd),
                                         options);
}

StreamqClient::~StreamqClient() { CloseConn(); }

void StreamqClient::CloseConn() {
  if (conn_ != nullptr) conn_->Close();
  alive_ = false;
  if (error_.empty()) error_ = "closed";
}

void StreamqClient::Die(const std::string& why) {
  if (!alive_) return;
  alive_ = false;
  error_ = why;
  conn_->Close();
}

NetResponse StreamqClient::DeadResponse(const NetRequest& request) const {
  NetResponse resp;
  resp.id = request.id;
  resp.op = request.op;
  resp.status = NetStatus::kInternal;
  resp.message = "connection dead: " + error_;
  return resp;
}

uint64_t StreamqClient::Send(NetRequest request) {
  if (!alive_) return 0;
  request.id = next_id_++;
  outbuf_.append(EncodeRequest(request));
  ++outstanding_;
  if (!FlushWrites(/*block_until_empty=*/false)) return 0;
  return request.id;
}

bool StreamqClient::FlushWrites(bool block_until_empty) {
  while (out_off_ < outbuf_.size()) {
    const int n =
        conn_->Write(outbuf_.data() + out_off_, outbuf_.size() - out_off_);
    if (n < 0) {
      // The peer may have answered-and-closed before reading anything
      // (admission control rejects with one busy frame and hangs up).
      // Capture what it left so the caller sees the real answer.
      SlurpFrames();
      Die("write failed");
      return false;
    }
    if (n > 0) {
      out_off_ += static_cast<size_t>(n);
      continue;
    }
    // Would block. The server may be waiting for US to drain responses
    // (its write queue bounds how much it processes); pull whatever is
    // already readable before waiting on writability.
    if (!ReadResponses(/*blocking=*/false)) return false;
    if (!block_until_empty) {
      // Pipelined send: leave the remainder buffered; a later Send,
      // Receive, or DrainAll pushes it.
      if (out_off_ > (size_t{256} << 10)) {
        outbuf_.erase(0, out_off_);
        out_off_ = 0;
      }
      return true;
    }
    if (!conn_->WaitWritable(options_.io_timeout_ms)) {
      Die("write timeout");
      return false;
    }
  }
  outbuf_.clear();
  out_off_ = 0;
  return true;
}

bool StreamqClient::ReadResponses(bool blocking) {
  char buf[size_t{16} << 10];
  for (;;) {
    // Surface every frame already buffered first.
    for (;;) {
      std::string frame;
      const FrameScan scan = inbuf_.Next(&frame);
      if (scan == FrameScan::kNeedMore) break;
      if (scan == FrameScan::kBad) {
        Die("protocol error: bad response header");
        return false;
      }
      NetResponse resp;
      if (!DecodeResponse(frame, &resp)) {
        Die("protocol error: bad response payload");
        return false;
      }
      if (outstanding_ > 0) --outstanding_;
      inbox_.push_back(std::move(resp));
    }
    if (blocking && !inbox_.empty()) return true;
    if (blocking && !conn_->WaitReadable(options_.io_timeout_ms)) {
      Die("read timeout");
      return false;
    }
    const int n = conn_->Read(buf, sizeof(buf));
    if (n < 0) {
      Die("connection closed by server");
      return false;
    }
    if (n == 0) {
      if (!blocking) return true;  // opportunistic: took what was there
      continue;                    // spurious wakeup; wait again
    }
    inbuf_.Append(buf, static_cast<size_t>(n));
  }
}

void StreamqClient::SlurpFrames() {
  char buf[size_t{16} << 10];
  for (;;) {
    const int n = conn_->Read(buf, sizeof(buf));
    if (n <= 0) break;
    inbuf_.Append(buf, static_cast<size_t>(n));
  }
  for (;;) {
    std::string frame;
    if (inbuf_.Next(&frame) != FrameScan::kFrame) break;
    NetResponse resp;
    if (!DecodeResponse(frame, &resp)) break;
    if (outstanding_ > 0) --outstanding_;
    inbox_.push_back(std::move(resp));
  }
}

bool StreamqClient::Receive(NetResponse* out) {
  if (!inbox_.empty()) {
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }
  if (!alive_) return false;
  // Make sure the request bytes actually left before blocking on a reply.
  if (!FlushWrites(/*block_until_empty=*/true)) return false;
  if (!ReadResponses(/*blocking=*/true)) return false;
  *out = std::move(inbox_.front());
  inbox_.pop_front();
  return true;
}

bool StreamqClient::DrainAll(std::vector<NetResponse>* out) {
  while (outstanding_ > 0 || !inbox_.empty()) {
    NetResponse resp;
    if (!Receive(&resp)) return false;
    if (out != nullptr) out->push_back(std::move(resp));
  }
  return true;
}

NetResponse StreamqClient::Call(NetRequest request) {
  const uint64_t id = Send(request);
  if (id == 0) {
    // Even a dead send may have slurped the server's parting admission
    // rejection; "busy" beats a bare dead-socket error.
    for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
      if (it->id == 0 && it->status == NetStatus::kServerBusy) {
        NetResponse busy = std::move(*it);
        inbox_.erase(it);
        return busy;
      }
    }
    request.id = id;
    return DeadResponse(request);
  }
  // Responses come back in request order per connection, so every response
  // we pull -- collected or discarded -- consumes one FIFO slot ahead of
  // ours. That ordering is what lets an id-0 error be attributed: when a
  // request frame is corrupted in flight, the server cannot decode the id
  // (the flip may have hit it) and answers kBadRequest with id 0. Once all
  // earlier slots are consumed, an id-0 error IS this call's answer --
  // without this attribution the caller would wait out the full io timeout
  // for a response to its own id that is never coming.
  uint64_t earlier =
      inbox_.size() + (outstanding_ > 0 ? outstanding_ - 1 : 0);
  NetResponse resp;
  for (;;) {
    if (!Receive(&resp)) {
      request.id = id;
      return DeadResponse(request);
    }
    if (resp.id == id) return resp;
    // Admission control answers the CONNECTION (id 0), not a request: the
    // server sent one kServerBusy frame and is closing. Surface it as this
    // call's response so the caller sees "busy", not a bare dead socket.
    if (resp.id == 0 && resp.status == NetStatus::kServerBusy) {
      resp.id = id;
      return resp;
    }
    if (resp.id == 0 && earlier == 0) {
      // FIFO says this unattributable error answers OUR request.
      resp.id = id;
      return resp;
    }
    // A response to an earlier pipelined request the caller never
    // collected; synchronous helpers discard it (documented contract).
    if (earlier > 0) --earlier;
  }
}

NetResponse StreamqClient::Create(const std::string& stream,
                                  const CreateParams& params) {
  NetRequest req;
  req.op = NetOp::kCreate;
  req.stream = stream;
  req.create = params;
  return Call(std::move(req));
}

NetResponse StreamqClient::Drop(const std::string& stream) {
  NetRequest req;
  req.op = NetOp::kDrop;
  req.stream = stream;
  return Call(std::move(req));
}

NetResponse StreamqClient::Insert(const std::string& stream, uint64_t value,
                                  int32_t delta) {
  NetRequest req;
  req.op = NetOp::kInsert;
  req.stream = stream;
  req.value = value;
  req.delta = delta;
  return Call(std::move(req));
}

NetResponse StreamqClient::InsertBatch(const std::string& stream,
                                       std::span<const uint64_t> values) {
  NetRequest req;
  req.op = NetOp::kBatchInsert;
  req.stream = stream;
  req.values.assign(values.begin(), values.end());
  return Call(std::move(req));
}

NetResponse StreamqClient::Query(const std::string& stream, double phi) {
  NetRequest req;
  req.op = NetOp::kQuery;
  req.stream = stream;
  req.phi = phi;
  return Call(std::move(req));
}

NetResponse StreamqClient::Rank(const std::string& stream, uint64_t value) {
  NetRequest req;
  req.op = NetOp::kRank;
  req.stream = stream;
  req.value = value;
  return Call(std::move(req));
}

NetResponse StreamqClient::Flush(const std::string& stream) {
  NetRequest req;
  req.op = NetOp::kFlush;
  req.stream = stream;
  return Call(std::move(req));
}

NetResponse StreamqClient::Stats(const std::string& stream) {
  NetRequest req;
  req.op = NetOp::kStats;
  req.stream = stream;
  return Call(std::move(req));
}

NetResponse StreamqClient::Resume(const std::string& stream) {
  NetRequest req;
  req.op = NetOp::kResume;
  req.stream = stream;
  return Call(std::move(req));
}

NetResponse StreamqClient::Audit(const std::string& stream) {
  NetRequest req;
  req.op = NetOp::kAudit;
  req.stream = stream;
  return Call(std::move(req));
}

}  // namespace streamq::net
