// The campaign worker (DESIGN.md §16): talks to a campaign server over one
// Transport, executes leased work units through the exact per-job path the
// in-process executor uses (opec_campaign::JobRunner), and streams results
// back. Single-threaded; the self-hosted fleet (`--workers N`) forks one
// process per worker, and each `campaign --connect HOST:PORT` or
// `fuzz --connect HOST:PORT` invocation runs one remote worker.
//
// Warm starts are the executor's own: unless the welcome says cold_boot, the
// worker's one thread keeps one booted AppRun per (app, mode, engine) in
// RunJobImpl's thread-local pool, built and captured on first use and
// rewound (RestoreBoot, sharing the lowered bytecode) for every later job.
// No build product crosses the wire, so no peer can hand a worker code.
//
// A worker never redials. A lost link ends it, and the server requeues the
// units it held exactly as it does a killed worker's.

#ifndef SRC_DIST_WORKER_H_
#define SRC_DIST_WORKER_H_

#include <cstdint>
#include <string>

#include "src/dist/transport.h"

namespace opec_dist {

struct WorkerOptions {
  std::string name;   // for server logs
  std::string token;  // shared secret; must match the server's --auth-token
  // Chaos hook: after this many completed jobs, sever the link mid-unit
  // without delivering and return "" (exit 0). 0 = never.
  uint64_t chaos_drop_after = 0;
};

// Runs the worker loop on one connection until the server sends kShutdown
// or the chaos hook fires (returns ""), or the connection or protocol fails
// (returns the error). Blocking; owns no threads.
std::string RunWorker(Transport& transport, const WorkerOptions& options);

}  // namespace opec_dist

#endif  // SRC_DIST_WORKER_H_
