#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hpp"

namespace actyp::net {
namespace {

Status WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status ReadAll(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n == 0) return Unavailable("peer closed connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("recv: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

constexpr std::size_t kMaxFrame = 16u << 20;  // 16 MiB sanity cap

}  // namespace

Status WriteFrame(int fd, const Message& message) {
  const std::string encoded = message.Encode();
  if (encoded.size() > kMaxFrame) return InvalidArgument("frame too large");
  const std::uint32_t len = htonl(static_cast<std::uint32_t>(encoded.size()));
  char header[4];
  std::memcpy(header, &len, 4);
  if (auto s = WriteAll(fd, header, 4); !s.ok()) return s;
  return WriteAll(fd, encoded.data(), encoded.size());
}

Result<Message> ReadFrame(int fd) {
  char header[4];
  if (auto s = ReadAll(fd, header, 4); !s.ok()) return s;
  std::uint32_t len = 0;
  std::memcpy(&len, header, 4);
  len = ntohl(len);
  if (len > kMaxFrame) return InvalidArgument("frame too large");
  std::string buffer(len, '\0');
  if (auto s = ReadAll(fd, buffer.data(), len); !s.ok()) return s;
  return Message::Decode(buffer);
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(std::uint16_t port, TcpHandler handler) {
  if (running_.load()) return AlreadyExists("server already running");
  handler_ = std::move(handler);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Unavailable(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Unavailable(std::string("listen: ") + std::strerror(errno));
  }

  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpServer::AcceptLoop() {
  while (running_.load()) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by Stop()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void TcpServer::ServeConnection(int fd) {
  // One request/reply pair per frame; the connection stays open for
  // pipelined calls until the peer closes.
  while (running_.load()) {
    auto request = ReadFrame(fd);
    if (!request.ok()) break;
    Message reply = handler_(*request);
    if (fault_hook_) {
      const TcpFault fault = fault_hook_();
      if (fault.action == TcpFault::Action::kReset) {
        // SO_LINGER 0 turns the close into a hard RST — the client sees
        // a genuine connection reset, not an orderly shutdown.
        const linger hard_reset{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset,
                     sizeof(hard_reset));
        break;
      }
      if (fault.action == TcpFault::Action::kTruncate) {
        // Leak a partial frame (length header + a prefix of the body),
        // then close: the client's ReadFrame starves mid-message.
        const std::string encoded = reply.Encode();
        const std::uint32_t len =
            htonl(static_cast<std::uint32_t>(encoded.size()));
        char header[4];
        std::memcpy(header, &len, 4);
        if (WriteAll(fd, header, 4).ok()) {
          const std::size_t cut = std::min(fault.bytes, encoded.size());
          (void)WriteAll(fd, encoded.data(), cut);
        }
        break;
      }
    }
    if (!WriteFrame(fd, reply).ok()) break;
  }
  ::close(fd);
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  // shutdown() wakes a blocked accept(); the fd is closed only once the
  // accept thread has exited, so it never reads a closed (or reused) fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    if (conn.joinable()) conn.join();
  }
}

Result<Message> TcpClient::Call(const std::string& host, std::uint16_t port,
                                const Message& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad host address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Unavailable(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  if (auto s = WriteFrame(fd, request); !s.ok()) {
    ::close(fd);
    return s;
  }
  auto reply = ReadFrame(fd);
  ::close(fd);
  return reply;
}

Result<Message> TcpClient::CallWithRetry(const std::string& host,
                                         std::uint16_t port,
                                         const Message& request,
                                         std::size_t attempts) {
  Result<Message> reply = Unavailable("no attempts made");
  for (std::size_t attempt = 0; attempt < std::max<std::size_t>(1, attempts);
       ++attempt) {
    reply = Call(host, port, request);
    if (reply.ok()) return reply;
  }
  return reply;
}

}  // namespace actyp::net
