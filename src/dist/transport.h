// The frame transport of the dist protocol (src/dist/wire.h).
//
// A Transport moves whole frames over one stream socket it owns: a
// socketpair end (self-hosted workers, in-process tests) or a TCP socket
// (remote workers). Send() writes the 5-byte header plus the payload;
// Recv() reads exactly one frame or reports a clean error.
//
// Two I/O disciplines share one internal receive buffer:
//   - Recv() blocks until a full frame (worker side: one synchronous peer).
//   - RecvAsync() never blocks: it pulls whatever bytes are available and
//     reports a frame only when one is complete — the server's poll() loop
//     uses it so a peer that dribbles half a frame can never stall the
//     fleet. SendSome() is the matching non-blocking partial write the
//     server's per-peer outbox drains through POLLOUT.
// The buffer lives on the transport, i.e. per *connection*: a frame
// truncated by a dropped link dies with its Transport and can never leak
// into another connection.
//
// Error model: Recv()/RecvAsync() distinguish orderly EOF *between* frames
// (kEof — the peer hung up cleanly) from EOF *inside* a frame or a malformed
// length prefix (kError, "truncated frame" / "frame payload too large") — a
// truncated or oversized frame never hangs the reader and never allocates
// the bogus length.

#ifndef SRC_DIST_TRANSPORT_H_
#define SRC_DIST_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dist/wire.h"

namespace opec_dist {

class Transport {
 public:
  enum class Status : uint8_t {
    kOk,
    kEof,    // peer closed between frames (orderly)
    kError,  // I/O error, truncated frame, or oversized length prefix
  };

  // Takes ownership of the socket `fd`. `max_payload` exists so tests can
  // exercise the oversized-frame rejection without allocating 64 MiB.
  explicit Transport(int fd, uint32_t max_payload = kMaxFramePayload);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  Status Send(const Frame& frame);
  Status Recv(Frame* frame);
  // Non-blocking receive: drains available bytes into the internal buffer
  // and extracts at most one complete frame. Sets *got=true when `frame` was
  // filled; kOk with *got=false means "no complete frame yet". Callers loop
  // until *got stays false to consume back-to-back frames.
  Status RecvAsync(Frame* frame, bool* got);
  // Non-blocking partial write for outbox draining: returns bytes written
  // (possibly 0 when the peer's socket buffer is full), or -1 on error
  // (error() set).
  int SendSome(const uint8_t* data, size_t n);
  void Close();
  // Last kError description, for logs.
  const std::string& error() const { return error_; }
  // Underlying fd for poll()-based multiplexing (-1 once closed).
  int fd() const { return fd_; }

 private:
  // Full write with EINTR retry (blocking sends from workers).
  bool WriteAll(const uint8_t* data, size_t n);
  // Appends available bytes to rbuf_. Returns 1 if bytes arrived, 0 on EOF,
  // -1 on error, -2 if a non-blocking read would block.
  int FillBuffer(bool blocking);
  // Extracts one complete frame from rbuf_ if present: 1 = frame filled,
  // 0 = need more bytes, -1 = malformed (error_ set).
  int TryExtract(Frame* frame);

  int fd_ = -1;
  uint32_t max_payload_;
  std::string error_;
  std::vector<uint8_t> rbuf_;  // unconsumed received bytes
  size_t rpos_ = 0;            // consumed prefix of rbuf_
};

// A connected socketpair wrapped as two transports: {server side, worker
// side}. Either end may move to another thread or survive a fork (each
// process closes the other end).
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> LocalPair();

// IPv4 allow-listing for --serve. addr/bits in host byte order;
// "a.b.c.d" (exact host) and "a.b.c.d/nn" accepted.
struct Cidr {
  uint32_t addr = 0;
  int bits = 32;
};

// Parses a comma-separated CIDR list. Returns false (and sets *error) on the
// first malformed entry.
bool ParseCidrList(const std::string& list, std::vector<Cidr>* out, std::string* error);
// True when `ip` (host byte order) matches any entry. An empty list matches
// everything (no restriction configured).
bool CidrMatch(const std::vector<Cidr>& allow, uint32_t ip);

// TCP plumbing for --serve / --connect. All return -1 and set `error` on
// failure. `host_port` is "host:port". Port 0 binds an ephemeral port —
// recover it with TcpBoundPort.
int TcpListen(uint16_t port, std::string* error);
// `peer_ip` (optional) receives the connecting peer's IPv4 address in host
// byte order, for allow-list checks.
int TcpAccept(int listen_fd, std::string* error, uint32_t* peer_ip = nullptr);
int TcpConnect(const std::string& host_port, std::string* error);
// The locally bound port of a listening socket (0 on failure).
uint16_t TcpBoundPort(int fd);

}  // namespace opec_dist

#endif  // SRC_DIST_TRANSPORT_H_
