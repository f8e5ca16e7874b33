// The distributed roles of the sweep CLIs `campaign` and `fuzz` (DESIGN.md
// §16). Without a role a CLI runs its sweep in-process; with one, the same
// sweep runs through a CampaignServer and the CLI prints the same report:
//
//   --workers N          self-hosted: fork N local workers over socketpairs
//                        and run the server in this process
//   --serve PORT         TCP server; workers join live with --connect
//   --connect HOST:PORT  one TCP worker; the sweep comes from the server
//
// The roles are mutually exclusive. The other fleet flags tune the server
// (--unit-size N, --lease-ms, --allow CIDR) or both ends (--auth-token), and
// arm the chaos hooks that prove a report survives a killed
// (--chaos-kill-after R), stalled (--chaos-stop-after R) or disconnected
// (--chaos-drop-after J) worker. Every worker warm-starts like an in-process
// pool thread (worker.h).

#ifndef SRC_DIST_FLEET_H_
#define SRC_DIST_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/dist/server.h"
#include "src/dist/worker.h"
#include "src/fuzz/oracles.h"
#include "src/support/flags.h"

namespace opec_dist {

struct FleetOptions {
  int workers = 0;      // --workers
  int serve_port = 0;   // --serve
  std::string connect;  // --connect
  CampaignServer::Options server;
  WorkerOptions worker;
  // Self-hosted chaos: SIGKILL / SIGSTOP one worker after this many results.
  int chaos_kill_after = 0;
  int chaos_stop_after = 0;

  bool distributed() const { return workers > 0 || serve_port > 0 || !connect.empty(); }
};

// Declares the ten fleet flags.
void AddFleetFlags(opec_support::FlagSet& flags, FleetOptions* fleet);

// "" unless more than one role is set.
std::string CheckFleetRoles(const FleetOptions& fleet);

// --connect: runs one worker until the server shuts it down. Returns the exit
// status: 0, or 2 after logging why.
int RunFleetWorker(const FleetOptions& fleet);

// --workers / --serve: runs the sweep through a CampaignServer, forking the
// local fleet or listening for TCP workers, and reaps every child before
// returning. Returns "" or the error; on success `out` holds what the
// in-process path would have produced (plus the "dist" stats).
std::string ServeCampaign(const opec_campaign::CampaignSpec& spec, const FleetOptions& fleet,
                          opec_campaign::CampaignResult* out);
std::string ServeFuzz(uint64_t base_seed, uint64_t count, const FleetOptions& fleet,
                      std::vector<opec_fuzz::CaseResult>* out);

}  // namespace opec_dist

#endif  // SRC_DIST_FLEET_H_
