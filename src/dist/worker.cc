#include "src/dist/worker.h"

#include <chrono>
#include <thread>

#include "src/campaign/campaign.h"
#include "src/fuzz/oracles.h"
#include "src/support/check.h"
#include "src/support/fs.h"

namespace opec_dist {

namespace {

// How long an idle worker waits after a kNoWork before asking again.
constexpr auto kNoWorkRetry = std::chrono::milliseconds(20);

}  // namespace

std::string RunWorker(Transport& transport, const WorkerOptions& options) {
  // Close on every exit path: the server's drain phase waits for worker EOF,
  // and embeddings (threads, tests) may keep the transport object alive well
  // past the worker loop.
  struct Closer {
    Transport& t;
    ~Closer() { t.Close(); }
  } closer{transport};
  HelloMsg hello;
  hello.worker_name = options.name;
  hello.token = options.token;
  if (transport.Send(MakeFrame(FrameType::kHello, [&](opec_hw::StateWriter& w) {
        WriteHello(w, hello);
      })) != Transport::Status::kOk) {
    return "hello failed: " + transport.error();
  }
  Frame frame;
  if (transport.Recv(&frame) != Transport::Status::kOk ||
      frame.type != FrameType::kWelcome) {
    // An auth/allow-list refusal is a silent hangup right here —
    // indistinguishable from a crashed server.
    return "no welcome from server: " + transport.error();
  }
  WelcomeMsg welcome;
  try {
    opec_support::ScopedCheckThrow capture;
    opec_hw::StateReader r(frame.payload);
    welcome = ReadWelcome(r);
  } catch (const std::exception& e) {
    return std::string("bad welcome frame: ") + e.what();
  }
  if (welcome.version != kProtocolVersion) {
    return "protocol version mismatch";
  }
  if (!welcome.snapshot_dir.empty()) {
    std::string err = opec_support::EnsureDirs(welcome.snapshot_dir);
    if (!err.empty()) {
      return "campaign output directory unusable: " + err;
    }
  }

  opec_campaign::JobEnv env;
  env.cold_boot = welcome.cold_boot;
  env.snapshot_dir = welcome.snapshot_dir;
  opec_campaign::JobRunner runner;
  uint64_t jobs_done = 0;

  for (;;) {
    if (transport.Send(MakeFrame(FrameType::kRequestWork)) != Transport::Status::kOk) {
      return "request failed: " + transport.error();
    }
    Transport::Status st = transport.Recv(&frame);
    if (st == Transport::Status::kEof) {
      return "server disconnected";
    }
    if (st == Transport::Status::kError) {
      return "recv failed: " + transport.error();
    }
    switch (frame.type) {
      case FrameType::kShutdown:
        return "";
      case FrameType::kNoWork:
        std::this_thread::sleep_for(kNoWorkRetry);
        break;
      case FrameType::kAssign: {
        AssignMsg assign;
        try {
          opec_support::ScopedCheckThrow capture;
          opec_hw::StateReader r(frame.payload);
          assign = ReadAssign(r, welcome.sweep);
        } catch (const std::exception& e) {
          return std::string("bad assign frame: ") + e.what();
        }
        ResultMsg result;
        result.unit_id = assign.unit_id;
        result.indexes = assign.indexes;
        for (size_t k = 0; k < assign.indexes.size(); ++k) {
          size_t index = static_cast<size_t>(assign.indexes[k]);
          if (welcome.sweep == SweepKind::kCampaign) {
            result.jobs.push_back(runner.Run(assign.jobs[k], index, env));
          } else {
            result.cases.push_back(opec_fuzz::RunCase(assign.fuzz_seeds[k]));
          }
          ++jobs_done;
          if (options.chaos_drop_after != 0 && jobs_done >= options.chaos_drop_after) {
            // Chaos hook: vanish mid-unit without delivering — the server
            // must see the hangup and requeue this unit for another worker.
            return "";
          }
        }
        if (transport.Send(MakeFrame(FrameType::kResult, [&](opec_hw::StateWriter& w) {
              WriteResult(w, welcome.sweep, result);
            })) != Transport::Status::kOk) {
          return "result send failed: " + transport.error();
        }
        break;
      }
      default:
        return std::string("unexpected frame: ") + FrameTypeName(frame.type);
    }
  }
}

}  // namespace opec_dist
