#include "src/traffic/traffic.h"

#include <algorithm>

#include "src/support/hash.h"
#include "src/support/text.h"
#include "src/traffic/net_host.h"

namespace opec_traffic {

namespace {

using opec_support::Fnv1a64;
using opec_support::SplitMix64;

uint16_t GetBe16(const std::vector<uint8_t>& f, size_t off) {
  return static_cast<uint16_t>((f[off] << 8) | f[off + 1]);
}

uint32_t GetBe32(const std::vector<uint8_t>& f, size_t off) {
  return (static_cast<uint32_t>(f[off]) << 24) | (static_cast<uint32_t>(f[off + 1]) << 16) |
         (static_cast<uint32_t>(f[off + 2]) << 8) | f[off + 3];
}

void PutBe16(std::vector<uint8_t>& f, size_t off, uint16_t v) {
  f[off] = static_cast<uint8_t>(v >> 8);
  f[off + 1] = static_cast<uint8_t>(v);
}

void PutBe32(std::vector<uint8_t>& f, size_t off, uint32_t v) {
  f[off] = static_cast<uint8_t>(v >> 24);
  f[off + 1] = static_cast<uint8_t>(v >> 16);
  f[off + 2] = static_cast<uint8_t>(v >> 8);
  f[off + 3] = static_cast<uint8_t>(v);
}

// The guest's checksum16: folded 16-bit one's-complement sum, NOT inverted.
// A valid header (checksum field included) sums to 0xFFFF.
uint32_t Fold16(const uint8_t* p, size_t len) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += (static_cast<uint32_t>(p[i]) << 8) | p[i + 1];
  }
  if (i < len) {
    sum += static_cast<uint32_t>(p[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return sum;
}

// Replica of the guest netstack-lite (src/apps/tcp_echo.cc): one PCB, no
// sequence validation, SYN rebinds, every in-order byte-for-byte decision the
// guest's ip_input/tcp_input/tcp_output make. Any drift between this model
// and the guest IR shows up as a scenario-check failure, which the traffic
// fuzz sweep hammers on.
class GuestModel {
 public:
  void Input(const std::vector<uint8_t>& raw, GeneratedTraffic* out) {
    // eth_poll: frames are capped at the guest's 256-byte rx buffer.
    size_t len = std::min<size_t>(raw.size(), 256);
    // ip_input.
    if (len < 54) {
      return;
    }
    const std::vector<uint8_t>& f = raw;
    if (f[12] != 0x08 || f[13] != 0x00) {
      return;
    }
    if (f[14] != 0x45 || f[23] != 6) {
      return;
    }
    if (Fold16(f.data() + 14, 20) != 0xFFFF) {
      return;
    }
    // tcp_input.
    if (GetBe16(f, 36) != (local_port_ & 0xFFFF)) {
      return;
    }
    uint32_t flags = GetBe16(f, 46) & 0x3F;
    uint32_t seq = GetBe32(f, 38);
    uint32_t payload_len = static_cast<uint32_t>(GetBe16(f, 16)) - 40;
    if ((flags & 0x02) != 0) {  // SYN: rebind
      remote_port_ = GetBe16(f, 34);
      rcv_nxt_ = seq + 1;
      snd_nxt_ = 1000;
      state_ = 1;
      Reply(0x12, {}, out);
      snd_nxt_ += 1;
      return;
    }
    if ((flags & 0x01) != 0) {  // FIN
      rcv_nxt_ = seq + 1;
      Reply(0x10, {}, out);
      state_ = 0;
      return;
    }
    if (state_ == 1 && (flags & 0x10) != 0) {
      state_ = 2;
    }
    if (state_ == 2 && payload_len > 0) {
      std::vector<uint8_t> payload(f.begin() + 54, f.begin() + 54 + payload_len);
      rcv_nxt_ = seq + payload_len;
      Reply(0x18, payload, out);
      snd_nxt_ += payload_len;
      ++echo_count_;
    }
  }

  uint32_t echo_count() const { return echo_count_; }

 private:
  // Mirrors tcp_output + eth_send: the exact bytes the guest commits.
  void Reply(uint32_t flags, const std::vector<uint8_t>& payload, GeneratedTraffic* out) {
    std::vector<uint8_t> f(54 + payload.size(), 0);
    for (size_t i = 0; i < 6; ++i) {
      f[i] = 0x04;      // dst: the desktop
      f[6 + i] = 0x02;  // src: the device
    }
    f[12] = 0x08;
    f[13] = 0x00;
    size_t ip = 14;
    f[ip + 0] = 0x45;
    PutBe16(f, ip + 2, static_cast<uint16_t>(40 + payload.size()));
    f[ip + 8] = 64;
    f[ip + 9] = 6;
    PutBe32(f, ip + 12, 0xC0A80001);
    PutBe32(f, ip + 16, 0xC0A80002);
    PutBe16(f, ip + 10, static_cast<uint16_t>(~Fold16(f.data() + ip, 20) & 0xFFFF));
    size_t tcp = 34;
    PutBe16(f, tcp + 0, static_cast<uint16_t>(local_port_));
    PutBe16(f, tcp + 2, static_cast<uint16_t>(remote_port_));
    PutBe32(f, tcp + 4, snd_nxt_);
    PutBe32(f, tcp + 8, rcv_nxt_);
    PutBe16(f, tcp + 12, static_cast<uint16_t>((5u << 12) | flags));
    PutBe16(f, tcp + 14, 0xFFFF);
    std::copy(payload.begin(), payload.end(), f.begin() + 54);

    uint8_t len_le[4];
    for (int i = 0; i < 4; ++i) {
      len_le[i] = static_cast<uint8_t>(f.size() >> (8 * i));
    }
    out->expected_tx_digest = Fnv1a64(len_le, 4, out->expected_tx_digest);
    out->expected_tx_digest = Fnv1a64(f.data(), f.size(), out->expected_tx_digest);
    ++out->expected_tx_frames;
    out->expected_tx.push_back(std::move(f));
  }

  uint32_t state_ = 0;
  uint32_t local_port_ = kEchoPort;
  uint32_t remote_port_ = 0;
  uint32_t rcv_nxt_ = 0;
  uint32_t snd_nxt_ = 1000;
  uint32_t echo_count_ = 0;
};

bool ParseField(const std::string& key, const std::string& value, TrafficSpec* spec,
                std::string* error) {
  uint64_t v = 0;
  if (value.empty() || value.size() > 10) {
    *error = "bad value for '" + key + "': '" + value + "'";
    return false;
  }
  for (char c : value) {
    if (c < '0' || c > '9') {
      *error = "bad value for '" + key + "': '" + value + "'";
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  auto range = [&](uint64_t lo, uint64_t hi) {
    if (v < lo || v > hi) {
      *error = opec_support::StrPrintf("'%s' out of range [%llu, %llu]", key.c_str(),
                                       static_cast<unsigned long long>(lo),
                                       static_cast<unsigned long long>(hi));
      return false;
    }
    return true;
  };
  if (key == "rate") {
    if (!range(1, 10'000'000)) return false;
    spec->rate_rps = static_cast<uint32_t>(v);
  } else if (key == "conns") {
    if (!range(1, 16)) return false;
    spec->conns = static_cast<uint32_t>(v);
  } else if (key == "requests") {
    if (!range(1, 1'000'000)) return false;
    spec->requests = static_cast<uint32_t>(v);
  } else if (key == "seed") {
    spec->seed = v;
  } else if (key == "malformed") {
    if (!range(0, 1000)) return false;
    spec->malformed_permille = static_cast<uint32_t>(v);
  } else if (key == "split") {
    if (!range(0, 1000)) return false;
    spec->split_permille = static_cast<uint32_t>(v);
  } else if (key == "reconnect") {
    if (!range(0, 1000)) return false;
    spec->reconnect_permille = static_cast<uint32_t>(v);
  } else {
    *error = "unknown traffic key '" + key + "'";
    return false;
  }
  return true;
}

TrafficSpec g_default_load_spec;

}  // namespace

bool ParseTrafficSpec(const std::string& text, TrafficSpec* spec, std::string* error) {
  TrafficSpec parsed;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    std::string field = text.substr(pos, comma - pos);
    size_t eq = field.find('=');
    if (eq == std::string::npos) {
      *error = "expected key=value, got '" + field + "'";
      return false;
    }
    if (!ParseField(field.substr(0, eq), field.substr(eq + 1), &parsed, error)) {
      return false;
    }
    pos = comma + 1;
  }
  *spec = parsed;
  return true;
}

std::string TrafficSpecToString(const TrafficSpec& spec) {
  return opec_support::StrPrintf(
      "rate=%u,conns=%u,requests=%u,seed=%llu,malformed=%u,split=%u,reconnect=%u",
      spec.rate_rps, spec.conns, spec.requests, static_cast<unsigned long long>(spec.seed),
      spec.malformed_permille, spec.split_permille, spec.reconnect_permille);
}

uint64_t GapCyclesForRate(uint32_t rate_rps) {
  if (rate_rps == 0) {
    return 168'000'000;
  }
  uint64_t gap = 168'000'000ull / rate_rps;
  return gap == 0 ? 1 : gap;
}

GeneratedTraffic Generate(const TrafficSpec& spec) {
  GeneratedTraffic out;
  out.expected_tx_digest = 0xCBF29CE484222325ull;  // FNV offset basis (TxLog seed)
  GuestModel guest;
  SplitMix64 rng(spec.seed ^ 0x7261666669636Bull);

  uint64_t base_gap = GapCyclesForRate(spec.rate_rps);
  auto next_gap = [&]() { return base_gap / 2 + rng.Below(base_gap + 1); };
  auto push = [&](std::vector<uint8_t> frame) {
    guest.Input(frame, &out);
    out.frames.push_back(TrafficFrame{std::move(frame), next_gap()});
  };

  struct Conn {
    uint16_t port = 0;
    uint32_t seq = 0;
    bool handshaked = false;
  };
  std::vector<Conn> conns(spec.conns);
  for (uint32_t i = 0; i < spec.conns; ++i) {
    conns[i].port = static_cast<uint16_t>(40000 + i);
    conns[i].seq = 100 + i * 1000;
  }

  for (uint32_t req = 0; req < spec.requests; ++req) {
    Conn& c = conns[rng.Below(spec.conns)];

    if (rng.Below(1000) < spec.reconnect_permille) {
      c.handshaked = false;  // client dropped; next slot re-handshakes
    }
    if (!c.handshaked) {
      TcpSegment syn;
      syn.src_port = c.port;
      syn.seq = c.seq;
      syn.flags = kTcpFlagSyn;
      push(BuildTcpFrame(syn));
      ++c.seq;
      TcpSegment ack;
      ack.src_port = c.port;
      ack.seq = c.seq;
      ack.ack = 1001;
      ack.flags = kTcpFlagAck;
      push(BuildTcpFrame(ack));
      c.handshaked = true;
    }

    if (rng.Below(1000) < spec.malformed_permille) {
      TcpSegment junk;
      junk.src_port = c.port;
      junk.seq = 777;
      junk.flags = kTcpFlagAck | kTcpFlagPsh;
      junk.payload.assign(12, static_cast<uint8_t>('x'));
      uint64_t kind = rng.Below(5);
      if (kind == 4) {
        // Truncated below the 54-byte minimum: the partial-read drop path.
        std::vector<uint8_t> frame = BuildTcpFrame(junk);
        frame.resize(20 + rng.Below(34));
        push(std::move(frame));
      } else {
        FrameCorruption corruption;
        switch (kind) {
          case 0: corruption.bad_ethertype = true; break;
          case 1: corruption.bad_protocol = true; break;
          case 2: corruption.bad_checksum = true; break;
          default: corruption.wrong_port = true; break;
        }
        push(BuildTcpFrame(junk, corruption));
      }
    }

    // The request payload: printable, deterministic, 8..64 bytes.
    size_t payload_len = 8 + rng.Below(57);
    std::vector<uint8_t> payload(payload_len);
    for (size_t i = 0; i < payload_len; ++i) {
      payload[i] = static_cast<uint8_t>('a' + (req * 7 + c.port * 13 + i) % 26);
    }

    bool split = payload_len >= 16 && rng.Below(1000) < spec.split_permille;
    if (split) {
      size_t cut = 4 + rng.Below(payload_len - 8);
      TcpSegment first;
      first.src_port = c.port;
      first.seq = c.seq;
      first.ack = 1001;
      first.flags = kTcpFlagAck;
      first.payload.assign(payload.begin(), payload.begin() + cut);
      push(BuildTcpFrame(first));
      TcpSegment second;
      second.src_port = c.port;
      second.seq = c.seq + static_cast<uint32_t>(cut);
      second.ack = 1001;
      second.flags = kTcpFlagAck | kTcpFlagPsh;
      second.payload.assign(payload.begin() + cut, payload.end());
      push(BuildTcpFrame(second));
    } else {
      TcpSegment data;
      data.src_port = c.port;
      data.seq = c.seq;
      data.ack = 1001;
      data.flags = kTcpFlagAck | kTcpFlagPsh;
      data.payload = payload;
      push(BuildTcpFrame(data));
    }
    c.seq += static_cast<uint32_t>(payload_len);
  }

  // Close the last active session; exercises the FIN/ACK path every run.
  TcpSegment fin;
  fin.src_port = conns[0].port;
  fin.seq = conns[0].seq;
  fin.flags = kTcpFlagFin | kTcpFlagAck;
  push(BuildTcpFrame(fin));

  out.expected_echoes = guest.echo_count();
  out.expected_uart = std::string("NT") +
                      static_cast<char>(static_cast<uint8_t>('0' + out.expected_echoes));
  return out;
}

const TrafficSpec& DefaultLoadSpec() { return g_default_load_spec; }

void SetDefaultLoadSpec(const TrafficSpec& spec) { g_default_load_spec = spec; }

}  // namespace opec_traffic
