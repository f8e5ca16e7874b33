#include "src/dist/worker.h"

#include <chrono>
#include <thread>

#include "src/campaign/campaign.h"
#include "src/fuzz/oracles.h"
#include "src/support/check.h"
#include "src/support/fs.h"

namespace opec_dist {

namespace {

// Everything that must survive a dropped link: the job runner and — the
// resume cursor — the finished rows of the unit that was in flight when the
// connection died. (The warm pool is thread-local and survives on its own.)
struct WorkerSession {
  explicit WorkerSession(const WorkerOptions& options)
      : chaos_drop_after(options.chaos_drop_after) {}

  opec_campaign::JobRunner runner;
  uint64_t jobs_done = 0;
  uint64_t chaos_drop_after;  // zeroed once fired
  bool have_partial = false;
  ResultMsg partial;  // rows finished of the in-flight unit
};

enum class ConnStatus {
  kDone,      // server sent kShutdown (or die_after_jobs fired): clean exit
  kLinkLost,  // connection-level failure; redialing may recover
  kFatal,     // config/protocol failure; redialing cannot help
};

ConnStatus RunConnection(Transport& transport, const WorkerOptions& options,
                         WorkerSession& s, std::string* error) {
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
  hello.worker_id = options.worker_id;
  hello.resumable = !options.worker_id.empty();
  if (s.have_partial) {
    hello.resume_unit = s.partial.unit_id;
    hello.resume_done = s.partial.indexes.size();
  }
  if (transport.Send(MakeFrame(FrameType::kHello, [&](opec_hw::StateWriter& w) {
        WriteHello(w, hello);
      })) != Transport::Status::kOk) {
    *error = "hello failed: " + transport.error();
    return ConnStatus::kLinkLost;
  }
  Frame frame;
  if (transport.Recv(&frame) != Transport::Status::kOk ||
      frame.type != FrameType::kWelcome) {
    // An auth/allow-list refusal is a silent hangup right here —
    // indistinguishable from a crashed server, so the reconnect budget bounds
    // both.
    *error = "no welcome from server: " + transport.error();
    return ConnStatus::kLinkLost;
  }
  WelcomeMsg welcome;
  try {
    opec_support::ScopedCheckThrow capture;
    opec_hw::StateReader r(frame.payload);
    welcome = ReadWelcome(r);
  } catch (const std::exception& e) {
    *error = std::string("bad welcome frame: ") + e.what();
    return ConnStatus::kFatal;
  }
  if (welcome.version != kProtocolVersion) {
    *error = "protocol version mismatch";
    return ConnStatus::kFatal;
  }
  if (!welcome.snapshot_dir.empty()) {
    std::string err = opec_support::EnsureDirs(welcome.snapshot_dir);
    if (!err.empty()) {
      *error = "campaign output directory unusable: " + err;
      return ConnStatus::kFatal;
    }
  }

  opec_campaign::JobEnv env;
  env.cold_boot = welcome.cold_boot;
  env.snapshot_dir = welcome.snapshot_dir;

  if (s.have_partial) {
    // Deliver what we finished before the drop; the server records the rows
    // (first write wins) and answers the next request with the remainder of
    // the same unit.
    if (transport.Send(MakeFrame(FrameType::kResult, [&](opec_hw::StateWriter& w) {
          WriteResult(w, welcome.sweep, s.partial);
        })) != Transport::Status::kOk) {
      *error = "partial result send failed: " + transport.error();
      return ConnStatus::kLinkLost;
    }
    s.have_partial = false;
  }

  for (;;) {
    if (transport.Send(MakeFrame(FrameType::kRequestWork)) != Transport::Status::kOk) {
      *error = "request failed: " + transport.error();
      return ConnStatus::kLinkLost;
    }
    Transport::Status st = transport.Recv(&frame);
    if (st == Transport::Status::kEof) {
      *error = "server disconnected";
      return ConnStatus::kLinkLost;
    }
    if (st == Transport::Status::kError) {
      *error = "recv failed: " + transport.error();
      return ConnStatus::kLinkLost;
    }
    switch (frame.type) {
      case FrameType::kShutdown:
        return ConnStatus::kDone;
      case FrameType::kNoWork: {
        uint32_t retry_ms = 20;
        try {
          opec_support::ScopedCheckThrow capture;
          opec_hw::StateReader r(frame.payload);
          retry_ms = ReadNoWork(r).retry_ms;
        } catch (const std::exception&) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
        break;
      }
      case FrameType::kAssign: {
        AssignMsg assign;
        try {
          opec_support::ScopedCheckThrow capture;
          opec_hw::StateReader r(frame.payload);
          assign = ReadAssign(r, welcome.sweep);
        } catch (const std::exception& e) {
          *error = std::string("bad assign frame: ") + e.what();
          return ConnStatus::kFatal;
        }
        // Accumulate rows into the session's partial result as they finish,
        // so a dropped link mid-unit loses the connection, not the work.
        s.partial = ResultMsg{};
        s.partial.unit_id = assign.unit_id;
        s.have_partial = true;
        for (size_t k = 0; k < assign.indexes.size(); ++k) {
          size_t index = static_cast<size_t>(assign.indexes[k]);
          s.partial.indexes.push_back(assign.indexes[k]);
          if (welcome.sweep == SweepKind::kCampaign) {
            s.partial.jobs.push_back(s.runner.Run(assign.jobs[k], index, env));
          } else {
            s.partial.cases.push_back(opec_fuzz::RunCase(assign.fuzz_seeds[k]));
          }
          ++s.jobs_done;
          if (options.die_after_jobs != 0 && s.jobs_done >= options.die_after_jobs) {
            // Test hook: vanish mid-unit without delivering — the server must
            // detect the EOF and re-issue this unit elsewhere.
            transport.Close();
            return ConnStatus::kDone;
          }
          if (s.chaos_drop_after != 0 && s.jobs_done >= s.chaos_drop_after) {
            // Chaos hook: sever the link mid-unit but keep the session —
            // exercises reconnect-and-resume with a real partial unit.
            s.chaos_drop_after = 0;
            transport.Close();
            *error = "chaos: link dropped mid-unit";
            return ConnStatus::kLinkLost;
          }
        }
        if (transport.Send(MakeFrame(FrameType::kResult, [&](opec_hw::StateWriter& w) {
              WriteResult(w, welcome.sweep, s.partial);
            })) != Transport::Status::kOk) {
          *error = "result send failed: " + transport.error();
          return ConnStatus::kLinkLost;
        }
        s.have_partial = false;
        break;
      }
      default:
        *error = std::string("unexpected frame: ") + FrameTypeName(frame.type);
        return ConnStatus::kFatal;
    }
  }
}

}  // namespace

std::string RunWorker(Transport& transport, const WorkerOptions& options) {
  WorkerSession session(options);
  std::string error;
  ConnStatus st = RunConnection(transport, options, session, &error);
  return st == ConnStatus::kDone ? "" : error;
}

std::string RunWorkerLoop(const std::function<std::unique_ptr<Transport>()>& connect,
                          const WorkerOptions& options) {
  WorkerSession session(options);
  uint32_t attempts = 0;
  std::string error = "never connected";
  for (;;) {
    std::unique_ptr<Transport> transport = connect();
    if (transport == nullptr) {
      error = "connect failed";
    } else {
      ConnStatus st = RunConnection(*transport, options, session, &error);
      if (st == ConnStatus::kDone) {
        return "";
      }
      if (st == ConnStatus::kFatal) {
        return error;
      }
    }
    if (attempts >= options.reconnect_max) {
      return error;
    }
    ++attempts;
    std::this_thread::sleep_for(std::chrono::milliseconds(options.reconnect_delay_ms));
  }
}

}  // namespace opec_dist
