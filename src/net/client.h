// BlockingClient: a minimal synchronous peer for the bouquet wire protocol.
//
// Used by the loopback mode of examples/bouquet_server, perfbench's
// serve_wire workload, and the integration tests. One blocking socket, no
// threads: Query writes a frame and reads until the matching RESULT/ERROR
// arrives. The raw SendFrame/RecvFrame pair supports pipelined open-loop
// load generation (write a burst, then collect responses).
//
// Thread-safety: none; one client per thread.

#ifndef BOUQUET_NET_CLIENT_H_
#define BOUQUET_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace bouquet {
namespace net {

/// RESULT or ERROR, whichever the server sent for a QUERY.
struct QueryOutcome {
  bool ok = false;   ///< true: `result` is valid; false: `error` is
  ResultMsg result;
  ErrorMsg error;
};

class BlockingClient {
 public:
  /// Blocking loopback connect.
  static Result<BlockingClient> Connect(uint16_t port);

  BlockingClient() = default;
  ~BlockingClient();
  BlockingClient(BlockingClient&& other) noexcept;
  BlockingClient& operator=(BlockingClient&& other) noexcept;
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// HELLO -> HELLO_ACK version handshake.
  Status Hello();

  /// One synchronous QUERY; returns the RESULT or the server's ERROR.
  Result<QueryOutcome> Query(const QueryMsg& query);

  /// METRICS -> Prometheus text ("/metrics" over the wire).
  Result<std::string> MetricsText();

  /// TRACE_DUMP -> JSONL trace export.
  Result<std::string> TraceJsonl();

  /// SHUTDOWN -> GOODBYE (the server then drains).
  Status ShutdownServer();

  /// Raw frame I/O for pipelined load generation.
  Status SendFrame(const std::vector<uint8_t>& bytes);
  Result<Frame> RecvFrame();

 private:
  explicit BlockingClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace net
}  // namespace bouquet

#endif  // BOUQUET_NET_CLIENT_H_
