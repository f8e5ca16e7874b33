// Tests of the distributed campaign service (src/dist, DESIGN.md §16):
// wire framing and struct round-trips, transport truncation/oversize error
// handling, bounded decoding of hostile counts, and — the load-bearing
// property — byte-identity of the distributed executor's DeterministicJson
// against the in-process serial executor across worker counts, worker death
// mid-sweep, lease expiry, a stalled peer and a dropped TCP link. Workers
// warm-start through the executor's own thread-local pool, so these sweeps
// cover it too.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/dist/server.h"
#include "src/dist/transport.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"
#include "src/fuzz/oracles.h"
#include "src/hw/state_io.h"
#include "src/support/check.h"

namespace {

using opec_dist::CampaignServer;
using opec_dist::Frame;
using opec_dist::FrameType;
using opec_dist::LocalPair;
using opec_dist::MakeFrame;
using opec_dist::RunWorker;
using opec_dist::SweepKind;
using opec_dist::Transport;
using opec_dist::WorkerOptions;
using opec_hw::StateReader;
using opec_hw::StateWriter;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/opec_dist_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : "";
}

std::vector<uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<uint8_t> out;
  for (int v : values) {
    out.push_back(static_cast<uint8_t>(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Framing and transport error model.

TEST(DistTransport, FrameRoundTrip) {
  auto [a, b] = LocalPair();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  Frame f;
  f.type = FrameType::kResult;
  f.payload = Bytes({1, 2, 3, 0xFF, 0});
  ASSERT_EQ(a->Send(f), Transport::Status::kOk);

  Frame got;
  ASSERT_EQ(b->Recv(&got), Transport::Status::kOk);
  EXPECT_EQ(got.type, FrameType::kResult);
  EXPECT_EQ(got.payload, f.payload);

  // Empty payload is a legal frame.
  ASSERT_EQ(b->Send(MakeFrame(FrameType::kRequestWork)), Transport::Status::kOk);
  ASSERT_EQ(a->Recv(&got), Transport::Status::kOk);
  EXPECT_EQ(got.type, FrameType::kRequestWork);
  EXPECT_TRUE(got.payload.empty());

  // Closing one end is an orderly EOF at the frame boundary, not an error.
  a->Close();
  EXPECT_EQ(b->Recv(&got), Transport::Status::kEof);
}

TEST(DistTransport, MaxSizePayloadAcceptedOversizedRejected) {
  // Small test-only cap so the boundary is exercised without 64 MiB frames.
  constexpr uint32_t kCap = 256;
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport sender(fds[0]);  // default cap: large payloads leave fine
  Transport receiver(fds[1], kCap);

  Frame f;
  f.type = FrameType::kResult;
  f.payload.assign(kCap, 0xAB);  // exactly at the cap: accepted
  ASSERT_EQ(sender.Send(f), Transport::Status::kOk);
  Frame got;
  ASSERT_EQ(receiver.Recv(&got), Transport::Status::kOk);
  EXPECT_EQ(got.payload.size(), kCap);

  f.payload.assign(kCap + 1, 0xAB);  // one past: rejected before allocation
  ASSERT_EQ(sender.Send(f), Transport::Status::kOk);
  EXPECT_EQ(receiver.Recv(&got), Transport::Status::kError);
  EXPECT_EQ(receiver.error(), "frame payload too large");
}

TEST(DistTransport, SenderRefusesOversizedPayload) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport sender(fds[0], 16);
  Transport receiver(fds[1]);
  Frame f;
  f.type = FrameType::kResult;
  f.payload.assign(17, 0);
  EXPECT_EQ(sender.Send(f), Transport::Status::kError);
  EXPECT_EQ(sender.error(), "frame payload too large");
}

TEST(DistTransport, TruncatedHeaderIsCleanError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport receiver(fds[1]);
  // Three header bytes, then hang up: EOF inside a frame.
  uint8_t partial[3] = {5, 0, 0};
  ASSERT_EQ(::send(fds[0], partial, sizeof(partial), 0), 3);
  ::close(fds[0]);
  Frame got;
  EXPECT_EQ(receiver.Recv(&got), Transport::Status::kError);
  EXPECT_EQ(receiver.error(), "truncated frame");
}

TEST(DistTransport, TruncatedPayloadIsCleanError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport receiver(fds[1]);
  // Full header claiming 10 payload bytes, only 4 delivered.
  uint8_t header[5] = {10, 0, 0, 0, static_cast<uint8_t>(FrameType::kResult)};
  uint8_t body[4] = {1, 2, 3, 4};
  ASSERT_EQ(::send(fds[0], header, sizeof(header), 0), 5);
  ASSERT_EQ(::send(fds[0], body, sizeof(body), 0), 4);
  ::close(fds[0]);
  Frame got;
  EXPECT_EQ(receiver.Recv(&got), Transport::Status::kError);
  EXPECT_EQ(receiver.error(), "truncated frame");
}

TEST(DistTransport, UnknownFrameTypeRejected) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport receiver(fds[1]);
  uint8_t header[5] = {0, 0, 0, 0, 0xEE};
  ASSERT_EQ(::send(fds[0], header, sizeof(header), 0), 5);
  ::close(fds[0]);
  Frame got;
  EXPECT_EQ(receiver.Recv(&got), Transport::Status::kError);
  EXPECT_EQ(receiver.error(), "unknown frame type");
}

// ---------------------------------------------------------------------------
// Message round-trips.

TEST(DistWire, WelcomeRoundTrip) {
  opec_dist::WelcomeMsg welcome;
  welcome.sweep = SweepKind::kFuzz;
  welcome.cold_boot = true;
  welcome.snapshot_dir = "/tmp/snaps";
  StateWriter ww;
  opec_dist::WriteWelcome(ww, welcome);
  std::vector<uint8_t> wb = ww.Take();
  StateReader wr(wb);
  opec_dist::WelcomeMsg welcome2 = opec_dist::ReadWelcome(wr);
  EXPECT_EQ(welcome2.sweep, SweepKind::kFuzz);
  EXPECT_TRUE(welcome2.cold_boot);
  EXPECT_EQ(welcome2.snapshot_dir, "/tmp/snaps");
}

TEST(DistWire, JobSpecRoundTrip) {
  opec_campaign::JobSpec spec;
  spec.kind = opec_campaign::JobKind::kFault;
  spec.app = "PinLock";
  spec.mode = opec_apps::BuildMode::kVanilla;
  spec.engine = opec_apps::EngineKind::kBytecode;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.fault = opec_campaign::FaultClass::kIcallForge;
  spec.timeout_ms = 1234;
  spec.trace_path = "/tmp/t.json";
  spec.attach_counting_sink = true;
  spec.rv = false;

  StateWriter w;
  opec_dist::WriteJobSpec(w, spec);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_campaign::JobSpec got = opec_dist::ReadJobSpec(r);
  EXPECT_EQ(got.kind, spec.kind);
  EXPECT_EQ(got.app, spec.app);
  EXPECT_EQ(got.mode, spec.mode);
  EXPECT_EQ(got.engine, spec.engine);
  EXPECT_EQ(got.seed, spec.seed);
  EXPECT_EQ(got.fault, spec.fault);
  EXPECT_EQ(got.timeout_ms, spec.timeout_ms);
  EXPECT_EQ(got.trace_path, spec.trace_path);
  EXPECT_EQ(got.attach_counting_sink, spec.attach_counting_sink);
  EXPECT_EQ(got.rv, spec.rv);
}

TEST(DistWire, JobResultRoundTrip) {
  opec_campaign::JobResult jr;
  jr.index = 17;
  jr.spec.app = "PinLock";
  jr.ok = true;
  jr.outcome = opec_campaign::Outcome::kDeniedMpu;
  jr.detail = "mpu denied write";
  jr.cycles = 123456;
  jr.statements = 789;
  jr.return_value = 42;
  jr.attack_fired = true;
  jr.attack_blocked = true;
  jr.events = 99;
  jr.rv_states = 7;
  jr.rv_violations = 1;
  jr.rv_by_automaton = {0, 1, 0};
  jr.snapshot_digest = 0x1122334455667788ull;
  jr.wall_ns = 555;

  StateWriter w;
  opec_dist::WriteJobResult(w, jr);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_campaign::JobResult got = opec_dist::ReadJobResult(r);
  EXPECT_EQ(got.index, jr.index);
  EXPECT_EQ(got.spec.app, "PinLock");
  EXPECT_EQ(got.ok, jr.ok);
  EXPECT_EQ(got.outcome, jr.outcome);
  EXPECT_EQ(got.detail, jr.detail);
  EXPECT_EQ(got.cycles, jr.cycles);
  EXPECT_EQ(got.statements, jr.statements);
  EXPECT_EQ(got.return_value, jr.return_value);
  EXPECT_EQ(got.attack_fired, jr.attack_fired);
  EXPECT_EQ(got.attack_blocked, jr.attack_blocked);
  EXPECT_EQ(got.events, jr.events);
  EXPECT_EQ(got.rv_states, jr.rv_states);
  EXPECT_EQ(got.rv_violations, jr.rv_violations);
  EXPECT_EQ(got.rv_by_automaton, jr.rv_by_automaton);
  EXPECT_EQ(got.snapshot_digest, jr.snapshot_digest);
  EXPECT_EQ(got.wall_ns, jr.wall_ns);
}

TEST(DistWire, CaseResultRoundTrip) {
  opec_fuzz::CaseResult cr;
  cr.seed = 31337;
  cr.summary = "3 sections, 2 ops";
  cr.digest = "abc123";
  opec_fuzz::Divergence d;
  d.oracle = opec_fuzz::Oracle::kExecDiff;
  d.detail = "cycles differ";
  cr.divergences.push_back(d);

  StateWriter w;
  opec_dist::WriteCaseResult(w, cr);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_fuzz::CaseResult got = opec_dist::ReadCaseResult(r);
  EXPECT_EQ(got.seed, cr.seed);
  EXPECT_EQ(got.summary, cr.summary);
  EXPECT_EQ(got.digest, cr.digest);
  ASSERT_EQ(got.divergences.size(), 1u);
  EXPECT_EQ(got.divergences[0].oracle, opec_fuzz::Oracle::kExecDiff);
  EXPECT_EQ(got.divergences[0].detail, "cycles differ");
}

TEST(DistWire, TruncatedPayloadDecodeIsCheckErrorNotHang) {
  opec_campaign::JobResult jr;
  jr.detail = "some detail text that makes the payload non-trivial";
  StateWriter w;
  opec_dist::WriteJobResult(w, jr);
  std::vector<uint8_t> bytes = w.Take();
  bytes.resize(bytes.size() / 2);  // chop mid-struct

  opec_support::ScopedCheckThrow capture;
  StateReader r(bytes);
  EXPECT_THROW(opec_dist::ReadJobResult(r), opec_support::CheckError);
}

// A count read off the wire sizes nothing up front: a payload of a few bytes
// that claims 2^40 elements is the same CheckError as any other truncation,
// never a terabyte-sized reservation or std::bad_alloc.
TEST(DistWire, HugeClaimedCountsAreCheckErrorsNotAllocations) {
  constexpr uint64_t kClaim = 1ull << 40;
  opec_support::ScopedCheckThrow capture;
  auto expect_check_error = [](const StateWriter& w, auto decode) {
    StateReader r(w.data());
    EXPECT_THROW(decode(r), opec_support::CheckError);
  };
  for (SweepKind sweep : {SweepKind::kCampaign, SweepKind::kFuzz}) {
    StateWriter indexes;  // ResultMsg: unit id, index count
    indexes.U64(1);
    indexes.U64(kClaim);
    expect_check_error(indexes, [sweep](StateReader& r) { opec_dist::ReadResult(r, sweep); });
    StateWriter rows;  // ResultMsg: unit id, no indexes, row count
    rows.U64(1);
    rows.U64(0);
    rows.U64(kClaim);
    expect_check_error(rows, [sweep](StateReader& r) { opec_dist::ReadResult(r, sweep); });
    // AssignMsg shares the layout: index count, then jobs or seeds.
    expect_check_error(indexes, [sweep](StateReader& r) { opec_dist::ReadAssign(r, sweep); });
    expect_check_error(rows, [sweep](StateReader& r) { opec_dist::ReadAssign(r, sweep); });
  }
  StateWriter divergences;  // CaseResult: seed, summary, digest, count
  divergences.U64(1);
  divergences.Str("");
  divergences.Str("");
  divergences.U64(kClaim);
  expect_check_error(divergences, [](StateReader& r) { opec_dist::ReadCaseResult(r); });
}

// Row k of an assign or result belongs to index k, and a worker indexes its
// job list by its index list: a frame whose counts differ (2 indexes, 1 row)
// is a decode error, never an out-of-bounds read at the receiver.
TEST(DistWire, RowCountMustMatchIndexCount) {
  opec_support::ScopedCheckThrow capture;
  auto decode = [](auto write, auto read) {
    StateWriter w;
    write(w);
    StateReader r(w.data());
    read(r);
  };
  for (SweepKind sweep : {SweepKind::kCampaign, SweepKind::kFuzz}) {
    opec_dist::AssignMsg assign;
    assign.indexes = {0, 1};
    opec_dist::ResultMsg result;
    result.indexes = {0, 1};
    if (sweep == SweepKind::kCampaign) {
      assign.jobs.emplace_back();
      result.jobs.emplace_back();
    } else {
      assign.fuzz_seeds = {5};
      result.cases.emplace_back();
    }
    auto write_assign = [&](StateWriter& w) { opec_dist::WriteAssign(w, sweep, assign); };
    auto read_assign = [&](StateReader& r) { opec_dist::ReadAssign(r, sweep); };
    auto write_result = [&](StateWriter& w) { opec_dist::WriteResult(w, sweep, result); };
    auto read_result = [&](StateReader& r) { opec_dist::ReadResult(r, sweep); };
    EXPECT_THROW(decode(write_assign, read_assign), opec_support::CheckError);
    EXPECT_THROW(decode(write_result, read_result), opec_support::CheckError);
    // Equal counts decode.
    assign.indexes.pop_back();
    result.indexes.pop_back();
    EXPECT_NO_THROW(decode(write_assign, read_assign));
    EXPECT_NO_THROW(decode(write_result, read_result));
  }
}

// ---------------------------------------------------------------------------
// Unwritable output directories fail fast with a clear message (never an
// OPEC_CHECK abort). Regression: Executor::Run used to OPEC_CHECK-abort mid-
// campaign when snapshot_dir could not be created.

TEST(DistOutputs, ExecutorSnapshotDirUnwritableThrowsRuntimeError) {
  std::string dir = MakeTempDir();
  std::string file = dir + "/blocker";
  {
    std::ofstream f(file);
    f << "x";
  }
  opec_campaign::CampaignSpec spec;
  spec.seed = 3;
  spec.AddFaultSweep({"PinLock"}, 1);
  opec_campaign::Executor::Options options;
  options.jobs = 1;
  options.snapshot_dir = file + "/snaps";
  EXPECT_THROW(opec_campaign::Executor::Run(spec, options), std::runtime_error);
}

TEST(DistOutputs, ServerSnapshotDirUnwritableFailsServe) {
  std::string dir = MakeTempDir();
  std::string file = dir + "/blocker";
  {
    std::ofstream f(file);
    f << "x";
  }
  opec_campaign::CampaignSpec spec;
  spec.seed = 3;
  spec.AddFaultSweep({"PinLock"}, 1);
  CampaignServer::Options options;
  options.snapshot_dir = file + "/snaps";
  CampaignServer server(spec, options);
  // Regression: a connected worker must be hung up on when Serve bails early,
  // or self-hosted children deadlock against the parent's waitpid.
  auto [server_end, worker_end] = LocalPair();
  server.AddWorker(std::move(server_end));
  std::string worker_error;
  std::thread worker_thread([&, transport = worker_end.get()] {
    worker_error = RunWorker(*transport, WorkerOptions{});
  });
  std::string err = server.Serve();
  worker_thread.join();
  EXPECT_NE(err.find("campaign output directory unusable"), std::string::npos);
  EXPECT_NE(worker_error, "");
}

// ---------------------------------------------------------------------------
// End-to-end distributed sweeps. Workers run in-process threads over
// socketpairs — the same Transport/RunWorker code the forked and TCP modes
// use, minus the process boundary.

opec_campaign::CampaignSpec SmallFaultSweep(size_t count) {
  opec_campaign::CampaignSpec spec;
  spec.seed = 7;
  spec.AddFaultSweep({"PinLock"}, count);
  return spec;
}

std::string SerialJson(const opec_campaign::CampaignSpec& spec) {
  opec_campaign::Executor::Options serial_options;
  serial_options.jobs = 1;
  return opec_campaign::Executor::Run(spec, serial_options).DeterministicJson();
}

struct DistRun {
  opec_campaign::CampaignResult result;
  std::string serve_error;
  std::vector<std::string> worker_errors;
};

DistRun RunDistCampaign(const opec_campaign::CampaignSpec& spec, size_t n_workers,
                        CampaignServer::Options options,
                        std::vector<WorkerOptions> worker_options = {}) {
  DistRun run;
  CampaignServer server(spec, options);
  std::vector<std::unique_ptr<Transport>> worker_ends;
  for (size_t i = 0; i < n_workers; ++i) {
    auto [server_end, worker_end] = LocalPair();
    server.AddWorker(std::move(server_end));
    worker_ends.push_back(std::move(worker_end));
  }
  run.worker_errors.resize(n_workers);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n_workers; ++i) {
    WorkerOptions wo = i < worker_options.size() ? worker_options[i] : WorkerOptions{};
    if (wo.name.empty()) {
      wo.name = "w" + std::to_string(i);
    }
    threads.emplace_back([&run, i, transport = worker_ends[i].get(), wo] {
      run.worker_errors[i] = RunWorker(*transport, wo);
    });
  }
  run.serve_error = server.Serve();
  for (std::thread& t : threads) {
    t.join();
  }
  run.result = server.TakeCampaignResult();
  return run;
}

TEST(DistSweep, MatchesInProcessExecutorAcrossWorkerCounts) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(10);
  std::string serial = SerialJson(spec);

  for (size_t n : {1u, 2u, 4u}) {
    CampaignServer::Options options;
    options.unit_size = 2;
    DistRun run = RunDistCampaign(spec, n, options);
    ASSERT_EQ(run.serve_error, "") << "workers=" << n;
    for (const std::string& we : run.worker_errors) {
      EXPECT_EQ(we, "");
    }
    EXPECT_EQ(run.result.DeterministicJson(), serial) << "workers=" << n;
    EXPECT_TRUE(run.result.dist.active);
    EXPECT_EQ(run.result.dist.workers, n);
  }
}

TEST(DistSweep, DistBlockInJsonButNotDeterministicJson) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(4);
  CampaignServer::Options options;
  options.unit_size = 2;
  DistRun run = RunDistCampaign(spec, 2, options);
  ASSERT_EQ(run.serve_error, "");
  EXPECT_NE(run.result.Json().find("\"dist\""), std::string::npos);
  EXPECT_EQ(run.result.DeterministicJson().find("\"dist\""), std::string::npos);
}

TEST(DistSweep, WorkerDeathMidSweepReissuesAndReportUnchanged) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(10);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  std::vector<WorkerOptions> worker_options(2);
  worker_options[0].chaos_drop_after = 1;  // hangs up mid-unit, result never sent
  DistRun run = RunDistCampaign(spec, 2, options, worker_options);
  ASSERT_EQ(run.serve_error, "");
  EXPECT_EQ(run.result.DeterministicJson(), serial);
  EXPECT_GE(run.result.dist.workers_died, 1u);
  EXPECT_GE(run.result.dist.units_reissued, 1u);
}

TEST(DistSweep, LeaseExpiryReissuesToLiveWorker) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(8);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  options.lease_ms = 50;
  CampaignServer server(spec, options);

  // Stub worker: takes one unit, then stalls (connected but silent) until
  // shutdown. Its lease must expire and the unit reissue to the real worker.
  auto [stub_server_end, stub_end] = LocalPair();
  server.AddWorker(std::move(stub_server_end));
  auto [real_server_end, real_end] = LocalPair();
  server.AddWorker(std::move(real_server_end));

  // Pre-queue the stub's hello + work request so the server grants it a unit
  // before the real worker has even said hello (stub is poll index 0).
  opec_dist::HelloMsg hello;
  hello.worker_name = "staller";
  ASSERT_EQ(stub_end->Send(MakeFrame(FrameType::kHello,
                                     [&](StateWriter& w) { opec_dist::WriteHello(w, hello); })),
            Transport::Status::kOk);
  ASSERT_EQ(stub_end->Send(MakeFrame(FrameType::kRequestWork)), Transport::Status::kOk);

  bool stub_got_assign = false;
  std::thread stub([&, transport = stub_end.get()] {
    Frame f;
    while (transport->Recv(&f) == Transport::Status::kOk) {
      if (f.type == FrameType::kAssign) {
        stub_got_assign = true;  // stall: never report the result
      }
      if (f.type == FrameType::kShutdown) {
        break;
      }
    }
    transport->Close();  // let the server's drain phase see EOF promptly
  });
  std::string real_error;
  std::thread real([&, transport = real_end.get()] {
    WorkerOptions wo;
    wo.name = "real";
    real_error = RunWorker(*transport, wo);
  });

  std::string err = server.Serve();
  stub.join();
  real.join();
  ASSERT_EQ(err, "");
  EXPECT_EQ(real_error, "");
  EXPECT_TRUE(stub_got_assign);
  EXPECT_GE(server.dist_stats().leases_expired, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

TEST(DistSweep, FuzzSweepMatchesSerialRunCase) {
  constexpr uint64_t kBase = 1000;
  constexpr uint64_t kCount = 6;
  CampaignServer::Options options;
  options.unit_size = 2;
  CampaignServer server(kBase, kCount, options);

  std::vector<std::unique_ptr<Transport>> ends;
  for (int i = 0; i < 2; ++i) {
    auto [server_end, worker_end] = LocalPair();
    server.AddWorker(std::move(server_end));
    ends.push_back(std::move(worker_end));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([transport = ends[static_cast<size_t>(i)].get()] {
      WorkerOptions wo;
      RunWorker(*transport, wo);
    });
  }
  std::string err = server.Serve();
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_EQ(err, "");

  std::vector<opec_fuzz::CaseResult> dist_results = server.TakeFuzzResults();
  ASSERT_EQ(dist_results.size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) {
    opec_fuzz::CaseResult serial = opec_fuzz::RunCase(kBase + i);
    EXPECT_EQ(dist_results[i].seed, serial.seed);
    EXPECT_EQ(dist_results[i].digest, serial.digest);
    EXPECT_EQ(dist_results[i].summary, serial.summary);
    EXPECT_EQ(dist_results[i].divergences.size(), serial.divergences.size());
  }
}

// ---------------------------------------------------------------------------
// Fleet hardening: version refusal, auth, CIDR allow-listing, truncation
// hygiene, streaming backpressure, a dropped TCP link.

TEST(DistWire, HelloRoundTrip) {
  opec_dist::HelloMsg hello;
  hello.worker_name = "w7";
  hello.token = "sesame";
  StateWriter w;
  opec_dist::WriteHello(w, hello);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_dist::HelloMsg got = opec_dist::ReadHello(r);
  EXPECT_EQ(got.version, opec_dist::kProtocolVersion);
  EXPECT_EQ(got.worker_name, "w7");
  EXPECT_EQ(got.token, "sesame");
  EXPECT_TRUE(r.AtEnd());
}

TEST(DistTransport, CidrParseAndMatch) {
  std::vector<opec_dist::Cidr> allow;
  std::string error;
  ASSERT_TRUE(opec_dist::ParseCidrList("127.0.0.1,10.0.0.0/8", &allow, &error)) << error;
  ASSERT_EQ(allow.size(), 2u);
  EXPECT_TRUE(opec_dist::CidrMatch(allow, 0x7F000001));   // 127.0.0.1
  EXPECT_FALSE(opec_dist::CidrMatch(allow, 0x7F000002));  // 127.0.0.2
  EXPECT_TRUE(opec_dist::CidrMatch(allow, 0x0A123456));   // inside 10/8
  EXPECT_FALSE(opec_dist::CidrMatch(allow, 0x0B000001));  // outside

  // An empty list means "no restriction configured".
  std::vector<opec_dist::Cidr> none;
  EXPECT_TRUE(opec_dist::CidrMatch(none, 0x01020304));
  // /0 matches everything.
  std::vector<opec_dist::Cidr> any;
  ASSERT_TRUE(opec_dist::ParseCidrList("0.0.0.0/0", &any, &error));
  EXPECT_TRUE(opec_dist::CidrMatch(any, 0xDEADBEEF));

  std::vector<opec_dist::Cidr> bad;
  EXPECT_FALSE(opec_dist::ParseCidrList("10.0.0.0/33", &bad, &error));
  EXPECT_FALSE(opec_dist::ParseCidrList("not-an-ip", &bad, &error));
  EXPECT_FALSE(opec_dist::ParseCidrList("10.0.0.0/x", &bad, &error));
  EXPECT_FALSE(opec_dist::ParseCidrList("", &bad, &error));
}

TEST(DistTransport, TruncationAtEveryOffsetIsCleanAndFreshLinkRecovers) {
  // Sweep a hello and a campaign result frame: EOF at any byte offset
  // inside the frame must surface as a clean "truncated frame", and a fresh
  // transport (what any later connection gets — the receive buffer is per
  // connection) must decode the full frame untainted.
  opec_dist::HelloMsg hello;
  hello.worker_name = "w-trunc";
  hello.token = "sesame";
  Frame hello_frame = MakeFrame(FrameType::kHello,
                                [&](StateWriter& w) { opec_dist::WriteHello(w, hello); });

  opec_dist::ResultMsg rm;
  rm.unit_id = 3;
  rm.indexes = {4};
  opec_campaign::JobResult jr;
  jr.spec.app = "PinLock";
  jr.detail = "a detail string that pads the result payload a bit";
  rm.jobs = {jr};
  Frame result_frame = MakeFrame(FrameType::kResult, [&](StateWriter& w) {
    opec_dist::WriteResult(w, SweepKind::kCampaign, rm);
  });

  for (const Frame& frame : {hello_frame, result_frame}) {
    std::vector<uint8_t> encoded = opec_dist::EncodeFrame(frame);
    ASSERT_GT(encoded.size(), 5u);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      int fds[2] = {-1, -1};
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      Transport receiver(fds[1]);
      if (cut > 0) {
        ASSERT_EQ(::send(fds[0], encoded.data(), cut, 0), static_cast<ssize_t>(cut));
      }
      ::close(fds[0]);
      Frame got;
      Transport::Status status = receiver.Recv(&got);
      if (cut == 0) {
        EXPECT_EQ(status, Transport::Status::kEof);
      } else {
        ASSERT_EQ(status, Transport::Status::kError) << "cut=" << cut;
        EXPECT_EQ(receiver.error(), "truncated frame") << "cut=" << cut;
      }
    }
    // The successor connection starts with a clean buffer by construction.
    auto [a, b] = LocalPair();
    ASSERT_EQ(a->Send(frame), Transport::Status::kOk);
    Frame got;
    ASSERT_EQ(b->Recv(&got), Transport::Status::kOk);
    EXPECT_EQ(got.type, frame.type);
    EXPECT_EQ(got.payload, frame.payload);
  }
}

// A refused peer gets no welcome and no error frame: the server hangs up
// before any reply byte (kEof, not a frame or a mid-frame error) and counts
// it in peers_rejected, while a good worker runs the sweep alone.
void ExpectRefusedBeforeAnyBytes(const std::string& auth_token, const Frame& hello) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(4);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  options.auth_token = auth_token;
  CampaignServer server(spec, options);

  auto [bad_server_end, bad_end] = LocalPair();
  server.AddWorker(std::move(bad_server_end));
  auto [good_server_end, good_end] = LocalPair();
  server.AddWorker(std::move(good_server_end));
  ASSERT_EQ(bad_end->Send(hello), Transport::Status::kOk);

  Transport::Status bad_status = Transport::Status::kOk;
  std::thread intruder([&, transport = bad_end.get()] {
    Frame f;
    bad_status = transport->Recv(&f);
  });
  std::string good_error;
  std::thread good([&, transport = good_end.get()] {
    WorkerOptions wo;
    wo.name = "legit";
    wo.token = auth_token;
    good_error = RunWorker(*transport, wo);
  });
  std::string err = server.Serve();
  intruder.join();
  good.join();
  ASSERT_EQ(err, "");
  EXPECT_EQ(good_error, "");
  EXPECT_EQ(bad_status, Transport::Status::kEof);
  EXPECT_EQ(server.dist_stats().peers_rejected, 1u);
  EXPECT_EQ(server.dist_stats().workers, 1u);  // the refused peer never joined
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

TEST(DistAuth, BadTokenHungUpOnBeforeAnyBytes) {
  opec_dist::HelloMsg hello;
  hello.worker_name = "intruder";
  hello.token = "wrong";
  ExpectRefusedBeforeAnyBytes("sesame", MakeFrame(FrameType::kHello, [&](StateWriter& w) {
                                opec_dist::WriteHello(w, hello);
                              }));
}

// Both ends ship from one tree, so a hello from any other protocol version
// is refused like a bad token: version 1 (version + worker name), version 2,
// whose welcome and result frames carried artifact-cache fields, and
// version 3, whose hello carried a worker id and a resume cursor.
TEST(DistAuth, OtherProtocolVersionHungUpOnBeforeAnyBytes) {
  ExpectRefusedBeforeAnyBytes("", MakeFrame(FrameType::kHello, [](StateWriter& w) {
                                w.U32(1);
                                w.Str("legacy");
                              }));
  opec_dist::HelloMsg v2;
  v2.version = 2;
  v2.worker_name = "previous-release";
  ExpectRefusedBeforeAnyBytes("", MakeFrame(FrameType::kHello, [&](StateWriter& w) {
                                opec_dist::WriteHello(w, v2);
                              }));
  ExpectRefusedBeforeAnyBytes("", MakeFrame(FrameType::kHello, [](StateWriter& w) {
                                w.U32(3);
                                w.Str("resumer");
                                w.Str("");       // token
                                w.Str("alpha");  // worker id
                                w.Bool(true);    // resumable
                                w.U64(~0ull);    // resume unit
                                w.U64(0);        // resume done
                              }));
}

TEST(DistAuth, TcpPeerOutsideAllowListRefusedAtAccept) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(4);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  std::string cidr_error;
  ASSERT_TRUE(opec_dist::ParseCidrList("10.0.0.0/8", &options.allow, &cidr_error));
  CampaignServer server(spec, options);

  std::string listen_error;
  int listen_fd = opec_dist::TcpListen(0, &listen_error);
  ASSERT_GE(listen_fd, 0) << listen_error;
  uint16_t port = opec_dist::TcpBoundPort(listen_fd);
  ASSERT_NE(port, 0);
  server.set_listen_fd(listen_fd);

  auto [server_end, worker_end] = LocalPair();
  server.AddWorker(std::move(server_end));

  std::string serve_error;
  std::thread serve_thread([&] { serve_error = server.Serve(); });

  // 127.0.0.1 is outside 10.0.0.0/8: the connection is closed at accept
  // time, before the server reads or writes a single frame.
  std::string connect_error;
  int cfd = opec_dist::TcpConnect("127.0.0.1:" + std::to_string(port), &connect_error);
  ASSERT_GE(cfd, 0) << connect_error;
  Transport refused(cfd);
  Frame f;
  EXPECT_EQ(refused.Recv(&f), Transport::Status::kEof);

  // Only now let the pre-connected (socketpair) worker run the sweep down.
  std::string worker_error;
  std::thread worker_thread([&, transport = worker_end.get()] {
    WorkerOptions wo;
    wo.name = "local";
    worker_error = RunWorker(*transport, wo);
  });
  serve_thread.join();
  worker_thread.join();
  ::close(listen_fd);
  ASSERT_EQ(serve_error, "");
  EXPECT_EQ(worker_error, "");
  EXPECT_GE(server.dist_stats().peers_rejected, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

// Regression (head-of-line blocking): a peer that stops reading used to
// freeze the whole fleet — the server sat in a blocking WriteAll to the
// stalled peer's socket and no other worker was served (this test timed out
// pre-fix). Post-fix the replies queue in the staller's per-peer outbox and
// everyone else proceeds.
TEST(DistSweep, StalledPeerDoesNotBlockTheFleet) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(6);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  options.lease_ms = 100;  // the staller's units come back to the real worker
  options.drain_ms = 200;  // the staller never drains; don't wait on it long
  CampaignServer server(spec, options);

  auto [stall_server_end, stall_end] = LocalPair();
  server.AddWorker(std::move(stall_server_end));
  auto [real_server_end, real_end] = LocalPair();
  server.AddWorker(std::move(real_server_end));

  // The staller's hello and first request are queued before the server runs,
  // so it leases the first unit. It then floods work requests without ever
  // reading a reply: every one is answered (assign, no-work or shutdown, 5+
  // bytes each), and the 300+ KiB of replies overflow the kernel pipe back to
  // it into its outbox.
  opec_dist::HelloMsg hello;
  hello.worker_name = "staller";
  ASSERT_EQ(stall_end->Send(MakeFrame(FrameType::kHello,
                                      [&](StateWriter& w) { opec_dist::WriteHello(w, hello); })),
            Transport::Status::kOk);
  ASSERT_EQ(stall_end->Send(MakeFrame(FrameType::kRequestWork)), Transport::Status::kOk);
  std::thread staller([transport = stall_end.get()] {
    for (int i = 0; i < 60000; ++i) {
      if (transport->Send(MakeFrame(FrameType::kRequestWork)) != Transport::Status::kOk) {
        break;
      }
    }
    // Keep the fd open (never read).
  });

  std::string real_error;
  std::thread real([&, transport = real_end.get()] {
    WorkerOptions wo;
    wo.name = "real";
    real_error = RunWorker(*transport, wo);
  });
  std::string err = server.Serve();
  // Should the flood outlast the drain, the staller is blocked in send():
  // shutting its socket down fails that send and ends the thread.
  ::shutdown(stall_end->fd(), SHUT_RDWR);
  staller.join();
  real.join();
  ASSERT_EQ(err, "");
  EXPECT_EQ(real_error, "");
  EXPECT_GE(server.dist_stats().leases_expired, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

// Regression (lease stats race): a full result that lands *after* its lease
// expired completes the unit; the copy some other worker still holds must be
// cancelled silently. Pre-fix the holder's EOF re-queued the already-complete
// unit and units_reissued double-counted the recovery.
TEST(DistSweep, LateResultAfterLeaseExpiryCountedOnce) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(2);
  opec_campaign::Executor::Options serial_options;
  serial_options.jobs = 1;
  opec_campaign::CampaignResult serial_result = opec_campaign::Executor::Run(spec, serial_options);
  std::string serial = serial_result.DeterministicJson();

  CampaignServer::Options options;
  options.unit_size = 2;  // one unit covers the whole sweep
  options.lease_ms = 100;
  CampaignServer server(spec, options);

  auto [slow_server_end, slow_end] = LocalPair();
  server.AddWorker(std::move(slow_server_end));
  auto [holder_server_end, holder_end] = LocalPair();
  server.AddWorker(std::move(holder_server_end));

  // Slow worker: takes the only unit, stalls past the lease, then delivers
  // the full (byte-identical) result late.
  std::thread slow([&, transport = slow_end.get()] {
    opec_dist::HelloMsg hello;
    hello.worker_name = "slow";
    transport->Send(MakeFrame(FrameType::kHello,
                              [&](StateWriter& w) { opec_dist::WriteHello(w, hello); }));
    Frame f;
    if (transport->Recv(&f) != Transport::Status::kOk) {  // welcome
      return;
    }
    transport->Send(MakeFrame(FrameType::kRequestWork));
    if (transport->Recv(&f) != Transport::Status::kOk || f.type != FrameType::kAssign) {
      return;
    }
    StateReader r(f.payload);
    opec_dist::AssignMsg assign = opec_dist::ReadAssign(r, SweepKind::kCampaign);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    opec_dist::ResultMsg rm;
    rm.unit_id = assign.unit_id;
    rm.indexes = assign.indexes;
    for (uint64_t index : assign.indexes) {
      rm.jobs.push_back(serial_result.results[index]);
    }
    transport->Send(MakeFrame(FrameType::kResult, [&](StateWriter& w) {
      opec_dist::WriteResult(w, SweepKind::kCampaign, rm);
    }));
    while (transport->Recv(&f) == Transport::Status::kOk) {
      if (f.type == FrameType::kShutdown) {
        break;
      }
    }
    transport->Close();
  });
  // Holder: waits out the expiry, grabs the re-issued copy, and sits on it
  // until shutdown — its EOF after the late completion must not re-queue.
  std::thread holder([&, transport = holder_end.get()] {
    opec_dist::HelloMsg hello;
    hello.worker_name = "holder";
    transport->Send(MakeFrame(FrameType::kHello,
                              [&](StateWriter& w) { opec_dist::WriteHello(w, hello); }));
    Frame f;
    if (transport->Recv(&f) != Transport::Status::kOk) {  // welcome
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    transport->Send(MakeFrame(FrameType::kRequestWork));
    while (transport->Recv(&f) == Transport::Status::kOk) {
      if (f.type == FrameType::kShutdown) {
        break;
      }
    }
    transport->Close();
  });

  std::string err = server.Serve();
  slow.join();
  holder.join();
  ASSERT_EQ(err, "");
  // The slow worker's expiry is the only legitimate bump (a heavily loaded
  // host can expire the holder's copy too, hence >=); the holder's EOF on the
  // already-complete unit must not count as a reissue — that double-count is
  // the regression.
  EXPECT_GE(server.dist_stats().leases_expired, 1u);
  EXPECT_EQ(server.dist_stats().units_reissued, 0u);
  EXPECT_GE(server.dist_stats().late_results, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

// Real TCP on 127.0.0.1, two authenticated workers, one of which drops its
// link mid-unit and exits. A dropped link is a dead worker: the server
// requeues the unit at the front, the other worker re-runs it, and the report
// is byte-identical to `campaign --jobs 1`.
TEST(DistSweep, TcpDroppedLinkRequeuesLikeDeadWorker) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(12);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 4;
  options.auth_token = "sesame";
  CampaignServer server(spec, options);

  std::string listen_error;
  int listen_fd = opec_dist::TcpListen(0, &listen_error);
  ASSERT_GE(listen_fd, 0) << listen_error;
  uint16_t port = opec_dist::TcpBoundPort(listen_fd);
  ASSERT_NE(port, 0);
  server.set_listen_fd(listen_fd);

  std::string serve_error;
  std::thread serve_thread([&] { serve_error = server.Serve(); });

  auto run_worker = [port](WorkerOptions wo) {
    std::string error;
    int fd = opec_dist::TcpConnect("127.0.0.1:" + std::to_string(port), &error);
    if (fd < 0) {
      return error;
    }
    Transport transport(fd);
    return RunWorker(transport, wo);
  };
  std::string alpha_error = "not run";
  std::thread alpha([&] {
    WorkerOptions wo;
    wo.name = "alpha";
    wo.token = "sesame";
    wo.chaos_drop_after = 1;  // hang up mid-unit and exit
    alpha_error = run_worker(wo);
  });
  std::string beta_error = "not run";
  std::thread beta([&] {
    WorkerOptions wo;
    wo.name = "beta";
    wo.token = "sesame";
    beta_error = run_worker(wo);
  });
  serve_thread.join();
  alpha.join();
  beta.join();
  ::close(listen_fd);

  ASSERT_EQ(serve_error, "");
  EXPECT_EQ(alpha_error, "");
  EXPECT_EQ(beta_error, "");
  const opec_campaign::DistStats& d = server.dist_stats();
  EXPECT_EQ(d.workers, 2u);
  EXPECT_GE(d.workers_died, 1u);
  EXPECT_GE(d.units_reissued, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

}  // namespace
