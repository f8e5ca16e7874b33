// The campaign worker (DESIGN.md §16): connects to a campaign server over
// any Transport, executes leased work units through the exact per-job path
// the in-process executor uses (opec_campaign::JobRunner), and streams
// results back. Single-threaded; the self-hosted fleet (`--workers N`)
// forks one process per worker, and each `campaign --connect HOST:PORT` or
// `fuzz --connect HOST:PORT` invocation runs one remote worker.
//
// Warm starts are the executor's own: unless the welcome says cold_boot, the
// worker's one thread keeps one booted AppRun per (app, mode, engine) in
// RunJobImpl's thread-local pool, built and captured on first use and
// rewound (RestoreBoot, sharing the lowered bytecode) for every later job.
// No build product crosses the wire, so no peer can hand a worker code.
//
// Reconnect-and-resume: a worker with a stable `worker_id`
// that loses the link mid-unit keeps its session state — the warm pool and
// the rows of the current unit it already finished — redials through
// RunWorkerLoop, presents its resume cursor in the hello, delivers the
// partial result, and the server re-assigns only the remainder under the
// original unit id.

#ifndef SRC_DIST_WORKER_H_
#define SRC_DIST_WORKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/dist/transport.h"
#include "src/dist/wire.h"

namespace opec_dist {

struct WorkerOptions {
  std::string name;       // for server logs
  // Fleet hardening.
  std::string token;      // shared secret; must match the server's --auth-token
  std::string worker_id;  // stable across reconnects; "" = not resumable
  // Reconnect policy for RunWorkerLoop: how many times to redial after a
  // lost link, and how long to back off between attempts.
  uint32_t reconnect_max = 0;
  uint32_t reconnect_delay_ms = 100;
  // Test/chaos hook: drop the connection (keeping session state, so the
  // reconnect path resumes the unit) after this many completed jobs. Fires
  // once. 0 = never.
  uint64_t chaos_drop_after = 0;
  // Test hook: exit the work loop (cleanly, without sending the pending
  // result) after this many completed jobs. 0 = run to shutdown.
  uint64_t die_after_jobs = 0;
};

// Runs the worker loop on one connection until the server sends kShutdown
// (returns "") or the connection/protocol fails (returns the error). No
// reconnects. Blocking; owns no threads.
std::string RunWorker(Transport& transport, const WorkerOptions& options);

// Runs the worker loop with reconnect-and-resume: `connect` dials the server
// (returns nullptr on failure). Session state — warm pool, partially-executed
// unit — survives across connections. Returns "" after a
// server shutdown, else the last error once `reconnect_max` is exhausted.
std::string RunWorkerLoop(const std::function<std::unique_ptr<Transport>()>& connect,
                          const WorkerOptions& options);

}  // namespace opec_dist

#endif  // SRC_DIST_WORKER_H_
