#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

// A blocking client for serve::TcpServer's line protocol: send one
// statement line, read until the reply's terminating "." line.

#include <cstdint>
#include <string>

#include "common/result.h"

namespace perfbench {

/// One server reply, split at its status line.
struct WireReply {
  std::string status;   ///< "OK <rows>" or "ERR <message>"
  std::string payload;  ///< the rendered table (empty for ERR)

  bool ok() const { return status.rfind("OK", 0) == 0; }
};

class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects to 127.0.0.1:`port`.
  mddc::Status Connect(std::uint16_t port);

  /// Sends `line` plus a newline and blocks until the whole reply has
  /// arrived. Fails on a socket error, a closed connection or a receive
  /// stall longer than the client's timeout.
  mddc::Result<WireReply> Roundtrip(const std::string& line);

  /// Sends ".quit" and closes; idempotent.
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
