#include "src/dist/wire.h"

#include "src/support/check.h"

namespace opec_dist {

namespace {

using opec_hw::StateReader;
using opec_hw::StateWriter;

void WriteU64Vec(StateWriter& w, const std::vector<uint64_t>& v) {
  w.U64(v.size());
  for (uint64_t x : v) {
    w.U64(x);
  }
}

std::vector<uint64_t> ReadU64Vec(StateReader& r) {
  uint64_t n = r.U64();
  std::vector<uint64_t> v;
  for (uint64_t i = 0; i < n; ++i) {
    v.push_back(r.U64());
  }
  return v;
}

// Row k of an assign or result belongs to index k, so the two counts must
// match: a peer's receiver indexes one list by the other.
void CheckRowCount(size_t indexes, size_t rows) {
  OPEC_CHECK_MSG(rows == indexes, "frame carries " + std::to_string(rows) + " rows for " +
                                      std::to_string(indexes) + " indexes");
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kWelcome:
      return "welcome";
    case FrameType::kRequestWork:
      return "request-work";
    case FrameType::kAssign:
      return "assign";
    case FrameType::kNoWork:
      return "no-work";
    case FrameType::kResult:
      return "result";
    case FrameType::kShutdown:
      return "shutdown";
  }
  return "?";
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  uint32_t len = static_cast<uint32_t>(frame.payload.size());
  std::vector<uint8_t> out;
  out.reserve(5 + frame.payload.size());
  out.push_back(static_cast<uint8_t>(len));
  out.push_back(static_cast<uint8_t>(len >> 8));
  out.push_back(static_cast<uint8_t>(len >> 16));
  out.push_back(static_cast<uint8_t>(len >> 24));
  out.push_back(static_cast<uint8_t>(frame.type));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

void WriteHello(StateWriter& w, const HelloMsg& m) {
  w.U32(m.version);
  w.Str(m.worker_name);
  w.Str(m.token);
}

HelloMsg ReadHello(StateReader& r) {
  HelloMsg m;
  m.version = r.U32();
  if (m.version != kProtocolVersion) {
    return m;  // another dialect: the server refuses it on the version alone
  }
  m.worker_name = r.Str();
  m.token = r.Str();
  return m;
}

void WriteWelcome(StateWriter& w, const WelcomeMsg& m) {
  w.U32(m.version);
  w.U8(static_cast<uint8_t>(m.sweep));
  w.Bool(m.cold_boot);
  w.Str(m.snapshot_dir);
}

WelcomeMsg ReadWelcome(StateReader& r) {
  WelcomeMsg m;
  m.version = r.U32();
  uint8_t sweep = r.U8();
  OPEC_CHECK_MSG(sweep <= static_cast<uint8_t>(SweepKind::kFuzz), "bad sweep kind");
  m.sweep = static_cast<SweepKind>(sweep);
  m.cold_boot = r.Bool();
  m.snapshot_dir = r.Str();
  return m;
}

void WriteJobSpec(StateWriter& w, const opec_campaign::JobSpec& spec) {
  w.U8(static_cast<uint8_t>(spec.kind));
  w.Str(spec.app);
  w.U8(static_cast<uint8_t>(spec.mode));
  w.U8(static_cast<uint8_t>(spec.engine));
  w.U64(spec.seed);
  w.U8(static_cast<uint8_t>(spec.fault));
  w.U64(spec.timeout_ms);
  w.Str(spec.trace_path);
  w.Bool(spec.attach_counting_sink);
  w.Bool(spec.rv);
}

opec_campaign::JobSpec ReadJobSpec(StateReader& r) {
  opec_campaign::JobSpec spec;
  uint8_t kind = r.U8();
  OPEC_CHECK_MSG(kind <= static_cast<uint8_t>(opec_campaign::JobKind::kFault),
                 "bad job kind");
  spec.kind = static_cast<opec_campaign::JobKind>(kind);
  spec.app = r.Str();
  uint8_t mode = r.U8();
  OPEC_CHECK_MSG(mode <= static_cast<uint8_t>(opec_apps::BuildMode::kOpec), "bad mode");
  spec.mode = static_cast<opec_apps::BuildMode>(mode);
  uint8_t engine = r.U8();
  OPEC_CHECK_MSG(engine <= static_cast<uint8_t>(opec_apps::EngineKind::kBytecode),
                 "bad engine kind");
  spec.engine = static_cast<opec_apps::EngineKind>(engine);
  spec.seed = r.U64();
  uint8_t fault = r.U8();
  OPEC_CHECK_MSG(fault <= static_cast<uint8_t>(opec_campaign::FaultClass::kIcallForge),
                 "bad fault class");
  spec.fault = static_cast<opec_campaign::FaultClass>(fault);
  spec.timeout_ms = r.U64();
  spec.trace_path = r.Str();
  spec.attach_counting_sink = r.Bool();
  spec.rv = r.Bool();
  return spec;
}

void WriteJobResult(StateWriter& w, const opec_campaign::JobResult& result) {
  w.U64(result.index);
  WriteJobSpec(w, result.spec);
  w.Bool(result.ok);
  w.U8(static_cast<uint8_t>(result.outcome));
  w.Str(result.detail);
  w.U64(result.cycles);
  w.U64(result.statements);
  w.U32(result.return_value);
  w.Bool(result.attack_fired);
  w.Bool(result.attack_blocked);
  w.U64(result.events);
  w.U64(result.rv_states);
  w.U64(result.rv_violations);
  WriteU64Vec(w, result.rv_by_automaton);
  w.U64(result.snapshot_digest);
  w.U64(result.wall_ns);
}

opec_campaign::JobResult ReadJobResult(StateReader& r) {
  opec_campaign::JobResult result;
  result.index = static_cast<size_t>(r.U64());
  result.spec = ReadJobSpec(r);
  result.ok = r.Bool();
  uint8_t outcome = r.U8();
  OPEC_CHECK_MSG(outcome <= static_cast<uint8_t>(opec_campaign::Outcome::kRvViolation),
                 "bad outcome");
  result.outcome = static_cast<opec_campaign::Outcome>(outcome);
  result.detail = r.Str();
  result.cycles = r.U64();
  result.statements = r.U64();
  result.return_value = r.U32();
  result.attack_fired = r.Bool();
  result.attack_blocked = r.Bool();
  result.events = r.U64();
  result.rv_states = r.U64();
  result.rv_violations = r.U64();
  result.rv_by_automaton = ReadU64Vec(r);
  result.snapshot_digest = r.U64();
  result.wall_ns = r.U64();
  return result;
}

void WriteCaseResult(StateWriter& w, const opec_fuzz::CaseResult& result) {
  w.U64(result.seed);
  w.Str(result.summary);
  w.Str(result.digest);
  w.U64(result.divergences.size());
  for (const opec_fuzz::Divergence& d : result.divergences) {
    w.U8(static_cast<uint8_t>(d.oracle));
    w.Str(d.detail);
  }
}

opec_fuzz::CaseResult ReadCaseResult(StateReader& r) {
  opec_fuzz::CaseResult result;
  result.seed = r.U64();
  result.summary = r.Str();
  result.digest = r.Str();
  uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    opec_fuzz::Divergence d;
    uint8_t oracle = r.U8();
    OPEC_CHECK_MSG(oracle <= static_cast<uint8_t>(opec_fuzz::Oracle::kRv), "bad oracle");
    d.oracle = static_cast<opec_fuzz::Oracle>(oracle);
    d.detail = r.Str();
    result.divergences.push_back(std::move(d));
  }
  return result;
}

void WriteAssign(StateWriter& w, SweepKind sweep, const AssignMsg& m) {
  w.U64(m.unit_id);
  WriteU64Vec(w, m.indexes);
  if (sweep == SweepKind::kCampaign) {
    w.U64(m.jobs.size());
    for (const opec_campaign::JobSpec& spec : m.jobs) {
      WriteJobSpec(w, spec);
    }
  } else {
    WriteU64Vec(w, m.fuzz_seeds);
  }
}

AssignMsg ReadAssign(StateReader& r, SweepKind sweep) {
  AssignMsg m;
  m.unit_id = r.U64();
  m.indexes = ReadU64Vec(r);
  if (sweep == SweepKind::kCampaign) {
    uint64_t n = r.U64();
    for (uint64_t i = 0; i < n; ++i) {
      m.jobs.push_back(ReadJobSpec(r));
    }
  } else {
    m.fuzz_seeds = ReadU64Vec(r);
  }
  CheckRowCount(m.indexes.size(), m.jobs.size() + m.fuzz_seeds.size());
  return m;
}

void WriteResult(StateWriter& w, SweepKind sweep, const ResultMsg& m) {
  w.U64(m.unit_id);
  WriteU64Vec(w, m.indexes);
  if (sweep == SweepKind::kCampaign) {
    w.U64(m.jobs.size());
    for (const opec_campaign::JobResult& result : m.jobs) {
      WriteJobResult(w, result);
    }
  } else {
    w.U64(m.cases.size());
    for (const opec_fuzz::CaseResult& result : m.cases) {
      WriteCaseResult(w, result);
    }
  }
}

ResultMsg ReadResult(StateReader& r, SweepKind sweep) {
  ResultMsg m;
  m.unit_id = r.U64();
  m.indexes = ReadU64Vec(r);
  uint64_t n = r.U64();
  if (sweep == SweepKind::kCampaign) {
    for (uint64_t i = 0; i < n; ++i) {
      m.jobs.push_back(ReadJobResult(r));
    }
  } else {
    for (uint64_t i = 0; i < n; ++i) {
      m.cases.push_back(ReadCaseResult(r));
    }
  }
  CheckRowCount(m.indexes.size(), m.jobs.size() + m.cases.size());
  return m;
}

}  // namespace opec_dist
