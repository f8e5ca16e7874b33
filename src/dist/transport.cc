#include "src/dist/transport.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace opec_dist {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

Transport::Transport(int fd, uint32_t max_payload)
    : fd_(fd), max_payload_(max_payload) {}

Transport::~Transport() { Close(); }

void Transport::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Transport::WriteAll(const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      error_ = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

int Transport::SendSome(const uint8_t* data, size_t n) {
  if (fd_ < 0) {
    error_ = "transport closed";
    return -1;
  }
  if (n == 0) {
    return 0;
  }
  for (;;) {
    ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w >= 0) {
      return static_cast<int>(w);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return 0;
    }
    error_ = std::string("send: ") + std::strerror(errno);
    return -1;
  }
}

int Transport::FillBuffer(bool blocking) {
  // Compact the consumed prefix before growing the buffer.
  if (rpos_ > 0 && (rpos_ == rbuf_.size() || rpos_ >= kReadChunk)) {
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<ptrdiff_t>(rpos_));
    rpos_ = 0;
  }
  uint8_t tmp[kReadChunk];
  for (;;) {
    ssize_t r = ::recv(fd_, tmp, sizeof(tmp), blocking ? 0 : MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return -2;
      }
      error_ = std::string("recv: ") + std::strerror(errno);
      return -1;
    }
    if (r == 0) {
      return 0;
    }
    rbuf_.insert(rbuf_.end(), tmp, tmp + r);
    return 1;
  }
}

int Transport::TryExtract(Frame* frame) {
  size_t avail = rbuf_.size() - rpos_;
  if (avail < 5) {
    return 0;
  }
  const uint8_t* h = rbuf_.data() + rpos_;
  uint32_t len = static_cast<uint32_t>(h[0]) | (static_cast<uint32_t>(h[1]) << 8) |
                 (static_cast<uint32_t>(h[2]) << 16) | (static_cast<uint32_t>(h[3]) << 24);
  if (len > max_payload_) {
    // Reject before allocating: a corrupt length prefix must not drive an
    // allocation of its own claimed size.
    error_ = "frame payload too large";
    return -1;
  }
  if (h[4] > static_cast<uint8_t>(FrameType::kShutdown)) {
    error_ = "unknown frame type";
    return -1;
  }
  if (avail < 5 + static_cast<size_t>(len)) {
    return 0;
  }
  frame->type = static_cast<FrameType>(h[4]);
  frame->payload.assign(h + 5, h + 5 + len);
  rpos_ += 5 + static_cast<size_t>(len);
  return 1;
}

Transport::Status Transport::Send(const Frame& frame) {
  if (fd_ < 0) {
    error_ = "transport closed";
    return Status::kError;
  }
  if (frame.payload.size() > max_payload_) {
    error_ = "frame payload too large";
    return Status::kError;
  }
  uint32_t len = static_cast<uint32_t>(frame.payload.size());
  uint8_t header[5];
  header[0] = static_cast<uint8_t>(len);
  header[1] = static_cast<uint8_t>(len >> 8);
  header[2] = static_cast<uint8_t>(len >> 16);
  header[3] = static_cast<uint8_t>(len >> 24);
  header[4] = static_cast<uint8_t>(frame.type);
  if (!WriteAll(header, sizeof(header))) {
    return Status::kError;
  }
  if (len > 0 && !WriteAll(frame.payload.data(), frame.payload.size())) {
    return Status::kError;
  }
  return Status::kOk;
}

Transport::Status Transport::Recv(Frame* frame) {
  if (fd_ < 0) {
    error_ = "transport closed";
    return Status::kError;
  }
  for (;;) {
    int te = TryExtract(frame);
    if (te == 1) {
      return Status::kOk;
    }
    if (te < 0) {
      return Status::kError;
    }
    int fill = FillBuffer(/*blocking=*/true);
    if (fill == 0) {
      if (rbuf_.size() == rpos_) {
        return Status::kEof;  // clean EOF at a frame boundary
      }
      error_ = "truncated frame";
      return Status::kError;
    }
    if (fill < 0) {
      return Status::kError;
    }
  }
}

Transport::Status Transport::RecvAsync(Frame* frame, bool* got) {
  *got = false;
  if (fd_ < 0) {
    error_ = "transport closed";
    return Status::kError;
  }
  for (;;) {
    int te = TryExtract(frame);
    if (te == 1) {
      *got = true;
      return Status::kOk;
    }
    if (te < 0) {
      return Status::kError;
    }
    int fill = FillBuffer(/*blocking=*/false);
    if (fill == -2) {
      return Status::kOk;  // no complete frame yet
    }
    if (fill == 0) {
      if (rbuf_.size() == rpos_) {
        return Status::kEof;
      }
      error_ = "truncated frame";
      return Status::kError;
    }
    if (fill < 0) {
      return Status::kError;
    }
  }
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> LocalPair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return {nullptr, nullptr};
  }
  return {std::make_unique<Transport>(fds[0]), std::make_unique<Transport>(fds[1])};
}

bool ParseCidrList(const std::string& list, std::vector<Cidr>* out, std::string* error) {
  out->clear();
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    std::string entry = comma == std::string::npos ? list.substr(start)
                                                   : list.substr(start, comma - start);
    if (entry.empty()) {
      *error = "empty CIDR entry in '" + list + "'";
      return false;
    }
    std::string addr = entry;
    int bits = 32;
    size_t slash = entry.find('/');
    if (slash != std::string::npos) {
      addr = entry.substr(0, slash);
      std::string bits_str = entry.substr(slash + 1);
      if (bits_str.empty() || bits_str.size() > 2 ||
          bits_str.find_first_not_of("0123456789") != std::string::npos) {
        *error = "bad prefix length in '" + entry + "'";
        return false;
      }
      bits = std::atoi(bits_str.c_str());
      if (bits < 0 || bits > 32) {
        *error = "bad prefix length in '" + entry + "'";
        return false;
      }
    }
    in_addr parsed;
    if (::inet_pton(AF_INET, addr.c_str(), &parsed) != 1) {
      *error = "bad IPv4 address in '" + entry + "'";
      return false;
    }
    Cidr c;
    c.addr = ntohl(parsed.s_addr);
    c.bits = bits;
    out->push_back(c);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return true;
}

bool CidrMatch(const std::vector<Cidr>& allow, uint32_t ip) {
  if (allow.empty()) {
    return true;
  }
  for (const Cidr& c : allow) {
    uint32_t mask = c.bits == 0 ? 0 : ~uint32_t{0} << (32 - c.bits);
    if ((ip & mask) == (c.addr & mask)) {
      return true;
    }
  }
  return false;
}

int TcpListen(uint16_t port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 16) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

uint16_t TcpBoundPort(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int TcpAccept(int listen_fd, std::string* error, uint32_t* peer_ip) {
  for (;;) {
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    std::memset(&addr, 0, sizeof(addr));
    int fd = ::accept(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (peer_ip != nullptr) {
        *peer_ip = addr.sin_family == AF_INET ? ntohl(addr.sin_addr.s_addr) : 0;
      }
      return fd;
    }
    if (errno == EINTR) {
      continue;
    }
    *error = std::string("accept: ") + std::strerror(errno);
    return -1;
  }
}

int TcpConnect(const std::string& host_port, std::string* error) {
  size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon + 1 >= host_port.size()) {
    *error = "expected host:port, got '" + host_port + "'";
    return -1;
  }
  std::string host = host_port.substr(0, colon);
  std::string port = host_port.substr(colon + 1);
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    *error = std::string("resolve '") + host_port + "': " + ::gai_strerror(rc);
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    *error = "connect '" + host_port + "': " + std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace opec_dist
