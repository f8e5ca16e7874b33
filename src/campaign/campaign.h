// opec_campaign: parallel campaign execution over isolated Machine/AppRun
// instances (DESIGN.md Section 11).
//
// A campaign is a job matrix — apps x build modes x seeds, scenario runs or
// fault-injection runs — executed by ParallelMap's worker threads. Every job
// runs on a Module/Machine/AppRun no other job touches while it runs: built
// from scratch under cold_boot, else checked out of the process-wide warm
// pool and rewound to its post-boot snapshot (the obs Hub is thread-local),
// so jobs are fully isolated and the aggregated result is bit-identical
// whether the campaign runs on one thread or many:
//   * results are placed by job index, never by completion order;
//   * each job derives all randomness from a SplitMix64 PRNG seeded by
//     (campaign seed, job index) — nothing touches global rand();
//   * a crashing job (host exception, OPEC_CHECK failure via ScopedCheckThrow,
//     wall-clock timeout) becomes a structured JobResult failure and never
//     takes down the campaign;
//   * DeterministicJson() excludes wall-clock fields, so `--jobs 1` and
//     `--jobs N` reports compare byte-identical.

#ifndef SRC_CAMPAIGN_CAMPAIGN_H_
#define SRC_CAMPAIGN_CAMPAIGN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/support/hash.h"

namespace opec_campaign {

// ---------------------------------------------------------------------------
// Deterministic parallel map.

// Runs fn(0), ..., fn(count - 1) and returns the results in index order.
// jobs <= 1 runs inline on the calling thread — exactly the serial path.
// Otherwise min(jobs, count, 4 x hardware threads) fresh threads claim
// indexes from one atomic counter and the caller joins them; every call
// starts its own threads, so thread-local state lives for one call.
// Exceptions propagate: after all jobs finish, the lowest-index captured
// exception (if any) is rethrown.
template <typename Fn>
auto ParallelMap(int jobs, size_t count, Fn&& fn)
    -> std::vector<decltype(fn(size_t{0}))> {
  using T = decltype(fn(size_t{0}));
  std::vector<T> results(count);
  if (jobs <= 1) {
    for (size_t i = 0; i < count; ++i) {
      results[i] = fn(i);
    }
    return results;
  }
  std::vector<std::exception_ptr> errors(count);
  unsigned hw = std::thread::hardware_concurrency();
  size_t cap = hw == 0 ? 4 : size_t{hw} * 4;
  std::vector<std::thread> threads(std::min({static_cast<size_t>(jobs), count, cap}));
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < count;) {
      try {
        results[i] = fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  for (std::thread& t : threads) {
    t = std::thread(work);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }
  return results;
}

// Per-job PRNG (src/support/hash.h); JobSeed derives each job's seed.
using opec_support::SplitMix64;

// ---------------------------------------------------------------------------
// Job and campaign descriptions.

enum class JobKind : uint8_t {
  kScenario,  // clean run: build, execute, check scenario outputs
  kFault,     // fault-injection run: mutate guest state, classify the outcome
};

// The fault-injection taxonomy (DESIGN.md Section 11.3).
enum class FaultClass : uint8_t {
  kAny,            // planner picks per-seed
  kStackBitFlip,   // flip a bit in the operation stack region
  kShadowBitFlip,  // flip a bit in an operation data section / shadow copy
  kSvcArgCorrupt,  // corrupt an argument of an operation-entry SVC
  kIcallForge,     // overwrite a function-pointer global with a forged target
};

const char* JobKindName(JobKind kind);
const char* FaultClassName(FaultClass fault);
// Inverse of FaultClassName; false for an unknown name.
bool ParseFaultClass(const std::string& name, FaultClass* out);

struct JobSpec {
  JobKind kind = JobKind::kScenario;
  std::string app;  // registry name, e.g. "PinLock" (see opec_apps::AllApps)
  opec_apps::BuildMode mode = opec_apps::BuildMode::kOpec;
  // Execution tier. Modeled outputs are bit-identical across tiers, so the
  // deterministic report only records it when it is not the default.
  opec_apps::EngineKind engine = opec_apps::EngineKind::kInterp;
  uint64_t seed = 0;          // per-job PRNG seed (0 = derive from campaign)
  FaultClass fault = FaultClass::kAny;
  bool attach_counting_sink = false;  // obs-invariance checks
  // Runtime-verification monitors (src/rv, DESIGN.md §15). On by default: a
  // clean-looking run that trips a safety automaton becomes kRvViolation;
  // denied/crashed fault jobs keep their outcome with the violation counts
  // recorded alongside.
  bool rv = true;
};

struct CampaignSpec {
  uint64_t seed = 1;
  uint64_t timeout_ms = 0;  // 0 = no timeout
  std::vector<JobSpec> jobs;

  // One scenario job per (app x mode). App names are registry names.
  void AddScenarioMatrix(const std::vector<std::string>& apps,
                         const std::vector<opec_apps::BuildMode>& modes);
  // `count` fault jobs round-robined over `apps` (OPEC mode), classes chosen
  // per-seed when `fault` is kAny.
  void AddFaultSweep(const std::vector<std::string>& apps, size_t count,
                     FaultClass fault = FaultClass::kAny);

  // Parses a line-oriented spec file:
  //   seed <u64>
  //   timeout-ms <u64>
  //   scenario <app-key|all> <opec|vanilla|both>
  //   fault <app-key|all> <count 1..1000000> [stack-bit-flip|shadow-bit-flip|
  //                                          svc-arg|icall-forge|any]
  // '#' starts a comment. Numbers parse as strictly as flags (flags.h) and a
  // line with extra tokens is an error. Returns an empty string on success,
  // else the error as "origin:line: message".
  std::string ParseFile(const std::string& path);
  std::string ParseText(const std::string& text, const std::string& origin);
};

// How a job ended. The first four are the fault-injection outcome taxonomy;
// the rest report harness-level failures.
enum class Outcome : uint8_t {
  kOk,                // scenario job: ran and checked clean
  kNotFired,          // fault job: the planned attack never triggered
  kDeniedMpu,         // the MPU/privilege rules blocked the injected write
  kDeniedMonitor,     // the monitor detected it (rejected entry/sanitization)
  kCrash,             // the corrupted guest aborted (fault, bad icall, ...)
  kBenign,            // landed, run bit-identical to the clean baseline
  kSilentCorruption,  // landed, outputs diverged, nothing detected it (FAIL)
  kCheckFailed,       // scenario job: run ok but scenario outputs wrong
  kViolation,         // scenario job: run aborted with a violation
  kException,         // host exception / OPEC_CHECK captured by the executor
  kTimeout,           // wall-clock deadline expired; run canceled
  kRvViolation,       // run looked clean but a safety automaton fired (FAIL)
};

const char* OutcomeName(Outcome outcome);

struct JobResult {
  size_t index = 0;
  JobSpec spec;           // echo (with the effective seed/fault class filled in)
  bool ok = false;        // "this job is a success" — silent corruption never is
  Outcome outcome = Outcome::kException;
  std::string detail;     // violation text / exception message / attack note
  // Modeled outputs (host-invariant; part of the deterministic report).
  uint64_t cycles = 0;
  uint64_t statements = 0;
  uint32_t return_value = 0;
  bool attack_fired = false;
  bool attack_blocked = false;
  uint64_t events = 0;    // counting-sink total, when attached
  // Runtime-verification summary (when the job ran with spec.rv): distinct
  // automaton states visited, total violations, and per-automaton violation
  // counts in StandardMonitorNames() order. Modeled data — part of the
  // deterministic report.
  uint64_t rv_states = 0;
  uint64_t rv_violations = 0;
  std::vector<uint64_t> rv_by_automaton;
  // Final-state snapshot digest for diverging jobs when the executor ran with
  // a snapshot dir (0 = no snapshot taken). Derived from modeled state only,
  // so it is part of the deterministic report.
  uint64_t snapshot_digest = 0;
  // Host timing (excluded from the deterministic report).
  uint64_t wall_ns = 0;
};

struct CampaignResult {
  std::vector<JobResult> results;  // indexed by job; always |spec.jobs| long
  int jobs_used = 1;
  uint64_t wall_ns = 0;  // elapsed campaign wall-clock

  uint64_t SerialWallNs() const;  // sum of per-job wall times
  size_t CountOutcome(Outcome outcome) const;
  bool AllOk() const;

  // Aggregated report without any wall-clock field: byte-identical across
  // thread counts for the same spec.
  std::string DeterministicJson() const;
  // Full report: deterministic fields + per-job and campaign timing.
  std::string Json() const;
  // Table-1-style robustness matrix: app x fault class x outcome counts.
  std::string FaultMatrix() const;
};

// ---------------------------------------------------------------------------
// Executor.

class Executor {
 public:
  struct Options {
    int jobs = 1;
    uint64_t default_timeout_ms = 0;  // overrides spec.timeout_ms when nonzero
    std::string trace_dir;  // non-empty: per-job Chrome traces written here
    // Warm start (DESIGN.md §13.3): a job borrows a booted AppRun of its
    // (app, mode, engine) from the process-wide warm pool and forks from its
    // post-boot snapshot instead of rebuilding module + compile + image from
    // scratch; the pool builds a run only when every one of that key is in
    // use, and keeps it for later jobs and later Run calls. Results are
    // bit-identical to cold boots (campaign_test.cc pins this); set
    // cold_boot to force the from-scratch path anyway.
    bool cold_boot = false;
    // Non-empty: diverging jobs (outcome other than ok / not-fired / benign)
    // dump their final machine+monitor+engine snapshot here as
    // job%04d_<app>_<mode>.snap, plus one raw machine-state dump per denied
    // access (crash-state forensics; fault-state capture is enabled on the
    // engine so FaultReport::machine_state is populated).
    std::string snapshot_dir;
  };

  // Runs the campaign on the in-process thread pool. Throws std::runtime_error
  // (not an OPEC_CHECK abort) when options.snapshot_dir cannot be created —
  // parents are created up front so jobs never trip over a missing directory.
  static CampaignResult Run(const CampaignSpec& spec, const Options& options);
};

}  // namespace opec_campaign

#endif  // SRC_CAMPAIGN_CAMPAIGN_H_
