// The campaign server (DESIGN.md §16): owns the sharded job queue, leases
// work units to connected workers, and reassembles results index-ordered.
// It ships resolved job specs only; each worker builds and warm-starts its
// apps itself (worker.h).
//
// Single-threaded by construction — one poll() loop multiplexes every worker
// transport (and, optionally, a TCP accept socket). There is no shared
// mutable state with any other thread, which keeps the server trivially
// TSan-clean and makes the aggregation order a non-issue: results land in a
// pre-sized, index-addressed vector, first write wins.
//
// Fleet hardening (wire.h):
//   * Auth: a hello from another protocol version, or (when `auth_token` is
//     set) one whose token does not match, is hung up on before the server
//     emits a single byte; `allow` restricts TCP peers by CIDR at accept
//     time, before any frame is read.
//   * Backpressure: every send goes through a per-peer outbox drained with
//     POLLOUT via non-blocking partial writes — a peer that stops reading
//     stalls only itself (and is killed when its outbox exceeds 128 MiB),
//     never the fleet. Reads are equally non-blocking
//     (Transport::RecvAsync), so a peer dribbling half a frame cannot stall
//     the loop either.
//
// Units: the sweep is carved once, at construction, into fixed units of
// `unit_size` consecutive indexes; unit id u covers indexes
// [u * unit_size, (u + 1) * unit_size).
//
// Fault tolerance: each issued unit carries a lease (worker + deadline).
// There is one recovery path. A worker whose link ends (EOF, I/O error,
// SIGKILL, a dropped TCP connection) and any lease that expires get their
// units requeued at the *front* of the queue, so recovery work is reissued
// before untouched work. Because every job is a pure function of its
// resolved spec, a re-executed unit reproduces byte-identical rows and the
// first-write-wins rule makes duplicate deliveries harmless — the final
// DeterministicJson is unchanged by worker count, join order or mid-sweep
// death (tests/dist_test.cc pins all of these). A unit whose rows were all
// recorded by a late/duplicate delivery is dropped silently wherever it is
// still tracked: it never bumps units_reissued or leases_expired a second
// time.

#ifndef SRC_DIST_SERVER_H_
#define SRC_DIST_SERVER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/dist/transport.h"
#include "src/dist/wire.h"
#include "src/fuzz/oracles.h"

namespace opec_dist {

class CampaignServer {
 public:
  struct Options {
    size_t unit_size = 4;       // jobs per leased work unit
    uint64_t lease_ms = 30000;  // lease expiry; 0 = leases never expire
    // Fleet hardening.
    std::string auth_token;   // "" = no auth; else hellos must present it
    std::vector<Cidr> allow;  // TCP peer allow-list; empty = accept any
    uint64_t drain_ms = 10000;  // post-sweep straggler drain deadline
    // Job environment shipped in kWelcome / baked into resolved specs.
    bool cold_boot = false;
    std::string snapshot_dir;
    std::string trace_dir;
    uint64_t default_timeout_ms = 0;
  };

  // Campaign sweep: jobs are resolved (seed/timeout/trace path) up front, so
  // workers execute exactly what `campaign --jobs 1` would.
  CampaignServer(const opec_campaign::CampaignSpec& spec, const Options& options);
  // Fuzz sweep over seeds base_seed + [0, count).
  CampaignServer(uint64_t fuzz_base_seed, uint64_t fuzz_count, const Options& options);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  // Adds a pre-connected worker transport (self-hosted mode, tests).
  void AddWorker(std::unique_ptr<Transport> transport);
  // Accept new TCP workers on this listening socket (not owned) during Serve.
  void set_listen_fd(int fd) { listen_fd_ = fd; }
  // Called after every recorded result row — progress lines, chaos kills.
  void set_on_progress(std::function<void(size_t done, size_t total)> cb) {
    on_progress_ = std::move(cb);
  }

  size_t total_jobs() const { return total_; }

  // Runs the poll loop until every index has a result, then shuts workers
  // down. Returns "" on success, else an error (unusable output directory,
  // every worker gone with work outstanding and no way for more to join).
  std::string Serve();

  // Valid after a successful Serve(). Campaign sweeps only; wall_ns is left 0
  // for the caller to stamp.
  opec_campaign::CampaignResult TakeCampaignResult();
  // Fuzz sweeps only, in index order.
  std::vector<opec_fuzz::CaseResult> TakeFuzzResults();

  const opec_campaign::DistStats& dist_stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Lease {
    size_t worker = 0;  // connection index
    Clock::time_point deadline;
  };

  struct WorkerState {
    std::unique_ptr<Transport> transport;
    std::string name;
    bool hello_done = false;
    bool dead = false;
    bool shutdown_sent = false;
    // Outbox: encoded frames awaiting a writable peer; drained by POLLOUT.
    std::deque<std::vector<uint8_t>> outbox;
    size_t outbox_off = 0;    // bytes of outbox.front() already written
    uint64_t outbox_bytes = 0;
  };

  void BuildQueue(size_t total);
  bool HandleFrame(size_t wi, const Frame& frame);
  bool HandleHello(size_t wi, const HelloMsg& hello);
  void EnqueueFrame(size_t wi, const Frame& frame);
  void DrainOutbox(size_t wi);
  // Closes the connection and drops its unsent frames.
  void Hangup(size_t wi);
  // Hangs up on a joined worker and requeues every unit it holds.
  void KillWorker(size_t wi, const char* why);
  // Ends the unit's lease and returns it to the front of the queue — unless
  // every row is already recorded, in which case it is dropped silently (no
  // stat double-count). `units` is ascending, so the front stays ascending.
  void RequeueUnits(const std::vector<uint64_t>& units, bool expired);
  void ExpireLeases(Clock::time_point now);
  void RecordResult(size_t wi, const ResultMsg& msg);
  void SendAssign(size_t wi, uint64_t unit);
  // Index range [first, end) of a unit.
  size_t UnitFirst(uint64_t unit) const { return static_cast<size_t>(unit) * unit_size_; }
  size_t UnitEnd(uint64_t unit) const { return std::min(UnitFirst(unit) + unit_size_, total_); }
  bool UnitRecorded(uint64_t unit) const;
  size_t AliveWorkers() const;
  bool Done() const { return done_count_ == total_; }

  Options options_;
  SweepKind sweep_;
  std::vector<opec_campaign::JobSpec> resolved_;  // campaign sweeps
  uint64_t fuzz_base_seed_ = 0;                   // fuzz sweeps

  size_t total_ = 0;
  size_t unit_size_ = 1;
  std::deque<uint64_t> pending_;      // unit ids not leased; issued from the front
  std::map<uint64_t, Lease> leases_;  // unit id -> its live lease

  std::vector<opec_campaign::JobResult> job_results_;
  std::vector<opec_fuzz::CaseResult> case_results_;
  std::vector<uint8_t> have_;  // per index; first write wins
  size_t done_count_ = 0;

  std::vector<WorkerState> workers_;
  int listen_fd_ = -1;
  std::function<void(size_t, size_t)> on_progress_;

  opec_campaign::DistStats stats_;
};

}  // namespace opec_dist

#endif  // SRC_DIST_SERVER_H_
