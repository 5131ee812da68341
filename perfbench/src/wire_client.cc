#include "wire_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace perfbench {
namespace {

constexpr int kReceiveTimeoutSeconds = 60;

}  // namespace

mddc::Status WireClient::Connect(std::uint16_t port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return mddc::Status::InvariantViolation(
        mddc::StrCat("socket() failed: ", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = kReceiveTimeoutSeconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return mddc::Status::InvariantViolation(
        mddc::StrCat("connect() failed: ", error));
  }
  fd_ = fd;
  buffer_.clear();
  return mddc::Status::OK();
}

mddc::Result<WireReply> WireClient::Roundtrip(const std::string& line) {
  if (fd_ < 0) return mddc::Status::InvariantViolation("not connected");
  const std::string request = line + "\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return mddc::Status::InvariantViolation(
          mddc::StrCat("send() failed: ", std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
  // A reply is "<status>\n[<payload lines>\n].\n"; its first "\n.\n"
  // ends it, because neither the status line nor a table row is ".".
  std::size_t scanned = 0;
  std::size_t end = std::string::npos;
  char chunk[16384];
  while ((end = buffer_.find("\n.\n", scanned)) == std::string::npos) {
    scanned = buffer_.size() < 2 ? 0 : buffer_.size() - 2;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return mddc::Status::InvariantViolation(
          n == 0 ? std::string("server closed the connection")
                 : mddc::StrCat("recv() failed: ", std::strerror(errno)));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  WireReply reply;
  const std::size_t status_end = buffer_.find('\n');
  reply.status = buffer_.substr(0, status_end);
  if (status_end < end) {
    reply.payload = buffer_.substr(status_end + 1, end - status_end);
  }
  buffer_.erase(0, end + 3);
  return reply;
}

void WireClient::Close() {
  if (fd_ < 0) return;
  static const char kQuit[] = ".quit\n";
  ::send(fd_, kQuit, sizeof(kQuit) - 1, MSG_NOSIGNAL);
  ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

}  // namespace perfbench
