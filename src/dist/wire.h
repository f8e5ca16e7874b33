// Wire protocol of the distributed campaign service (DESIGN.md §16).
//
// Framing: every message on a transport is one length-prefixed binary frame
//
//   u32 payload_len (LE) | u8 type | payload[payload_len]
//
// `payload_len` counts only the payload bytes (not the length field or the
// type byte) and is capped at kMaxFramePayload — a corrupt length prefix is
// rejected before any allocation. Payloads are serialized with the snapshot
// subsystem's StateWriter/StateReader (src/hw/state_io.h): little-endian,
// position-based, bounds-checked. A truncated payload is a clean decode
// error, never a hang or an over-read.
//
// The protocol is deliberately small and worker-driven: workers request work
// units, the server leases them out, results flow back keyed by job index.
// Nothing else crosses the wire — each worker builds and warm-starts its apps
// locally through the executor's own pool (campaign.h, JobEnv). A decoded
// count never sizes an allocation up front: elements are read one by one, so
// a hostile count fails on truncation with growth bounded by its payload.
//
// Versioning: both ends ship from this tree, so there is one dialect. The
// hello frame leads with `u32 version`; a server hangs up on a hello whose
// version is not kProtocolVersion before it sends a single byte (as it does
// on a bad auth token), and a worker refuses a welcome from another version.
// Past the version the hello carries only the worker's name and the shared
// auth token.

#ifndef SRC_DIST_WIRE_H_
#define SRC_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/fuzz/oracles.h"
#include "src/hw/state_io.h"

namespace opec_dist {

inline constexpr uint32_t kProtocolVersion = 4;

// Frame size cap. The largest real payloads are result frames (a unit's
// rows with their detail strings, kilobytes); the cap is a defense against
// corrupt length prefixes, not a tuning knob.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : uint8_t {
  // Handshake.
  kHello,    // worker -> server: protocol version, worker name, auth token
  kWelcome,  // server -> worker: protocol version, sweep kind, environment
  // Work loop.
  kRequestWork,  // worker -> server
  kAssign,       // server -> worker: one leased unit of resolved jobs
  kNoWork,       // server -> worker: queue momentarily empty, ask again shortly
  kResult,       // worker -> server: completed job results
  kShutdown,     // server -> worker: sweep complete, disconnect
};

const char* FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<uint8_t> payload;
};

// The exact byte sequence Transport::Send puts on the wire for `frame`
// (5-byte header + payload). Shared by the server's outbox and by tests that
// need to truncate frames at arbitrary byte offsets.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

// What a server is sweeping: a campaign job matrix or a differential-fuzz
// seed range. The unit/lease machinery is shared.
enum class SweepKind : uint8_t {
  kCampaign,
  kFuzz,
};

// ---------------------------------------------------------------------------
// Message payloads. Each Write* appends to a StateWriter; each Read* consumes
// from a StateReader and OPEC_CHECKs on truncation, or on an assign/result
// whose row count differs from its index count (callers run decode under
// ScopedCheckThrow and turn failures into connection errors).

struct HelloMsg {
  // ReadHello decodes nothing past a version other than kProtocolVersion.
  uint32_t version = kProtocolVersion;
  std::string worker_name;
  std::string token;  // shared secret; must match the server's --auth-token
};

struct WelcomeMsg {
  uint32_t version = kProtocolVersion;
  SweepKind sweep = SweepKind::kCampaign;
  bool cold_boot = false;
  std::string snapshot_dir;
};

// One leased work unit: job indexes with their payloads, fully resolved
// server-side (seeds, timeouts, trace paths) so every worker executes exactly
// what `campaign --jobs 1` would. Row k (jobs[k] or fuzz_seeds[k]) belongs
// to indexes[k].
struct AssignMsg {
  uint64_t unit_id = 0;
  std::vector<uint64_t> indexes;
  std::vector<opec_campaign::JobSpec> jobs;  // campaign sweeps
  std::vector<uint64_t> fuzz_seeds;          // fuzz sweeps
};

struct ResultMsg {
  uint64_t unit_id = 0;
  std::vector<uint64_t> indexes;
  std::vector<opec_campaign::JobResult> jobs;  // campaign sweeps
  std::vector<opec_fuzz::CaseResult> cases;    // fuzz sweeps
};

void WriteHello(opec_hw::StateWriter& w, const HelloMsg& m);
HelloMsg ReadHello(opec_hw::StateReader& r);
void WriteWelcome(opec_hw::StateWriter& w, const WelcomeMsg& m);
WelcomeMsg ReadWelcome(opec_hw::StateReader& r);
void WriteAssign(opec_hw::StateWriter& w, SweepKind sweep, const AssignMsg& m);
AssignMsg ReadAssign(opec_hw::StateReader& r, SweepKind sweep);
void WriteResult(opec_hw::StateWriter& w, SweepKind sweep, const ResultMsg& m);
ResultMsg ReadResult(opec_hw::StateReader& r, SweepKind sweep);

// Single-struct serialization shared by AssignMsg/ResultMsg and the tests.
void WriteJobSpec(opec_hw::StateWriter& w, const opec_campaign::JobSpec& spec);
opec_campaign::JobSpec ReadJobSpec(opec_hw::StateReader& r);
void WriteJobResult(opec_hw::StateWriter& w, const opec_campaign::JobResult& result);
opec_campaign::JobResult ReadJobResult(opec_hw::StateReader& r);
void WriteCaseResult(opec_hw::StateWriter& w, const opec_fuzz::CaseResult& result);
opec_fuzz::CaseResult ReadCaseResult(opec_hw::StateReader& r);

// Helper: encode a payload-writing closure into a Frame.
template <typename Fn>
Frame MakeFrame(FrameType type, Fn&& fill) {
  opec_hw::StateWriter w;
  fill(w);
  Frame f;
  f.type = type;
  f.payload = w.Take();
  return f;
}

inline Frame MakeFrame(FrameType type) {
  Frame f;
  f.type = type;
  return f;
}

}  // namespace opec_dist

#endif  // SRC_DIST_WIRE_H_
