// Byte-stream connection abstraction of the network tier (src/net/).
//
// Everything above this interface -- frame parsing, the request state
// machine, backpressure, the client -- is transport-agnostic. Two
// implementations exist:
//
//  * SocketConn (socket.h): a non-blocking TCP socket, the production
//    transport the reactor multiplexes with poll().
//  * the loopback pair (loopback.h): two in-process endpoints joined by
//    bounded byte queues, so the full server logic is unit-testable --
//    including under ASan/UBSan/TSan -- without opening a socket.
//
// The I/O contract is deliberately minimal and non-blocking:
//
//    Read/Write return  > 0  bytes transferred,
//                         0  would block (try again later),
//                        -1  connection closed or failed (terminal).
//
// Writes may be partial; callers keep their own send queue. The Wait*
// hooks exist for *blocking* users (StreamqClient); the server never calls
// them -- readiness comes from its reactor.

#ifndef STREAMQ_NET_CONN_H_
#define STREAMQ_NET_CONN_H_

#include <cstddef>

namespace streamq::net {

class Conn {
 public:
  virtual ~Conn() = default;

  /// Reads up to `n` bytes into `buf`. >0 bytes read, 0 would-block,
  /// -1 closed/error. Never blocks.
  virtual int Read(char* buf, size_t n) = 0;

  /// Writes up to `n` bytes from `buf`. >0 bytes accepted (possibly fewer
  /// than `n`), 0 would-block, -1 closed/error. Never blocks.
  virtual int Write(const char* buf, size_t n) = 0;

  /// Closes both directions; subsequent Read/Write return -1 and the peer
  /// observes EOF/-1 once it drains what was already written.
  virtual void Close() = 0;

  /// Blocks until a Read could make progress (data buffered or the peer
  /// closed), or the timeout elapses. Returns false on timeout.
  /// timeout_ms < 0 waits forever.
  virtual bool WaitReadable(int timeout_ms) = 0;

  /// Blocks until a Write could make progress. Same conventions.
  virtual bool WaitWritable(int timeout_ms) = 0;

  /// Underlying file descriptor for reactor registration; -1 for
  /// transports that are not fd-backed (loopback), which a reactor cannot
  /// multiplex and must pump.
  virtual int fd() const { return -1; }
};

}  // namespace streamq::net

#endif  // STREAMQ_NET_CONN_H_
