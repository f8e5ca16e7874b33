#include "src/dist/fleet.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "src/dist/transport.h"

namespace opec_dist {

namespace {

// Runs `server` in the --serve or --workers role until the sweep is done.
std::string ServeFleet(CampaignServer& server, const FleetOptions& fleet) {
  if (server.total_jobs() == 0) {
    return "";  // nothing to lease, so no worker to start or wait for
  }
  int listen_fd = -1;
  if (fleet.serve_port > 0) {
    std::string err;
    listen_fd = TcpListen(static_cast<uint16_t>(fleet.serve_port), &err);
    if (listen_fd < 0) {
      return err;
    }
    server.set_listen_fd(listen_fd);
    std::fprintf(stderr, "dist: serving %zu jobs on port %d\n", server.total_jobs(),
                 fleet.serve_port);
  }

  // Fork before any thread exists (the server is poll-based and threadless,
  // so the children inherit a clean process). All pairs first, then fork:
  // each child closes every fd except its own worker end, so no child holds
  // another channel open past its death and a SIGKILLed worker is an
  // immediate EOF at the server.
  std::vector<std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>> pairs;
  for (int i = 0; i < fleet.workers; ++i) {
    pairs.push_back(LocalPair());
    if (pairs.back().first == nullptr) {
      return "socketpair failed";
    }
  }
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> children;
  for (size_t i = 0; i < pairs.size(); ++i) {
    pid_t pid = ::fork();
    if (pid < 0) {
      return std::string("fork: ") + std::strerror(errno);
    }
    if (pid == 0) {
      for (size_t j = 0; j < pairs.size(); ++j) {
        pairs[j].first->Close();
        if (j != i) {
          pairs[j].second->Close();
        }
      }
      if (listen_fd >= 0) {
        ::close(listen_fd);
      }
      WorkerOptions options;
      options.name = "w" + std::to_string(i);
      options.token = fleet.worker.token;
      std::string err = RunWorker(*pairs[i].second, options);
      if (!err.empty()) {
        std::fprintf(stderr, "dist: %s: %s\n", options.name.c_str(), err.c_str());
        std::fflush(stderr);
      }
      ::_exit(err.empty() ? 0 : 1);
    }
    children.push_back(pid);
    pairs[i].second->Close();  // the parent keeps the server end
  }
  for (auto& pair : pairs) {
    server.AddWorker(std::move(pair.first));
  }

  bool chaos_fired = false;
  pid_t stopped_pid = -1;
  server.set_on_progress([&](size_t done, size_t total) {
    if (!chaos_fired && !children.empty()) {
      pid_t target = children.front();
      if (fleet.chaos_kill_after > 0 && done >= static_cast<size_t>(fleet.chaos_kill_after)) {
        std::fprintf(stderr, "dist: chaos: killing worker pid %d after %zu/%zu\n",
                     static_cast<int>(target), done, total);
        ::kill(target, SIGKILL);
        chaos_fired = true;
      } else if (fleet.chaos_stop_after > 0 &&
                 done >= static_cast<size_t>(fleet.chaos_stop_after)) {
        std::fprintf(stderr, "dist: chaos: stopping worker pid %d after %zu/%zu\n",
                     static_cast<int>(target), done, total);
        ::kill(target, SIGSTOP);
        stopped_pid = target;
        chaos_fired = true;
      }
    }
    // Resume the stalled worker once the sweep is done: it delivers its stale
    // unit (a late, duplicate result; first write wins) and exits on the
    // shutdown frame, so the drain phase and waitpid() stay clean.
    if (stopped_pid >= 0 && done == total) {
      std::fprintf(stderr, "dist: chaos: resuming worker pid %d\n",
                   static_cast<int>(stopped_pid));
      ::kill(stopped_pid, SIGCONT);
      stopped_pid = -1;
    }
  });

  std::string err = server.Serve();
  server.set_on_progress(nullptr);  // it captures this frame by reference
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }
  if (stopped_pid >= 0) {
    // Never leave a child frozen if the sweep errored out before the resume.
    ::kill(stopped_pid, SIGCONT);
  }
  for (pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  return err;
}

}  // namespace

void AddFleetFlags(opec_support::FlagSet& flags, FleetOptions* fleet) {
  flags.Int("--workers", &fleet->workers, 1, 256);
  flags.Int("--serve", &fleet->serve_port, 1, 65535);
  flags.Str("--connect", &fleet->connect);
  flags.Int("--unit-size", &fleet->server.unit_size, 1, 100000);
  flags.Int("--lease-ms", &fleet->server.lease_ms, 1, 3600000);
  flags.Custom("--auth-token", [fleet](const std::string& v) {
    fleet->server.auth_token = v;
    fleet->worker.token = v;
    return std::string();
  });
  flags.Custom("--allow", [fleet](const std::string& v) {
    std::string err;
    ParseCidrList(v, &fleet->server.allow, &err);
    return err;
  });
  flags.Int("--chaos-kill-after", &fleet->chaos_kill_after, 1, 1000000);
  flags.Int("--chaos-stop-after", &fleet->chaos_stop_after, 1, 1000000);
  flags.Int("--chaos-drop-after", &fleet->worker.chaos_drop_after, 1, 1000000);
}

std::string CheckFleetRoles(const FleetOptions& fleet) {
  int roles = (fleet.workers > 0) + (fleet.serve_port > 0) + !fleet.connect.empty();
  return roles > 1 ? "--workers, --serve and --connect are mutually exclusive" : "";
}

int RunFleetWorker(const FleetOptions& fleet) {
  std::string err;
  int fd = TcpConnect(fleet.connect, &err);
  if (fd >= 0) {
    Transport transport(fd);
    WorkerOptions options = fleet.worker;
    options.name = "tcp-worker";
    err = RunWorker(transport, options);
  }
  if (!err.empty()) {
    std::fprintf(stderr, "dist: worker: %s\n", err.c_str());
    return 2;
  }
  return 0;
}

std::string ServeCampaign(const opec_campaign::CampaignSpec& spec, const FleetOptions& fleet,
                          opec_campaign::CampaignResult* out) {
  CampaignServer server(spec, fleet.server);
  auto t0 = std::chrono::steady_clock::now();
  std::string err = ServeFleet(server, fleet);
  if (!err.empty()) {
    return err;
  }
  *out = server.TakeCampaignResult();
  out->wall_ns = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - t0)
                                           .count());
  return "";
}

std::string ServeFuzz(uint64_t base_seed, uint64_t count, const FleetOptions& fleet,
                      std::vector<opec_fuzz::CaseResult>* out) {
  CampaignServer server(base_seed, count, fleet.server);
  std::string err = ServeFleet(server, fleet);
  if (err.empty()) {
    *out = server.TakeFuzzResults();
  }
  return err;
}

}  // namespace opec_dist
