// Figure 9 (load sweep): OPEC monitor overhead and RV work vs request rate
// for the long-running TCP-Echo server (ISSUE: traffic-at-saturation layer).
//
// For each request rate the generated workload (fixed conns/requests/seed) is
// run under vanilla and OPEC builds, plus an OPEC+RV pass, over both device
// models (PIO Ethernet and descriptor-ring EthernetDma) and both execution
// tiers. Every reported number is *modeled* (machine cycles, cycles/request,
// overhead %, RV monitor steps and states) — no wall clock — so the output
// is byte-identical across `--jobs` values and engines can be diffed
// byte-for-byte in CI. At low rates the inter-frame gap dominates the cycle
// count and the monitor overhead is diluted toward zero; as the rate rises
// the gap collapses and the overhead converges to the busy-loop figure — the
// saturation effect EXPERIMENTS.md's Figure 9 footnote predicts.
//
// Usage: figure9_load [--jobs N] [--engine interp|bytecode|both]
//                     [--requests N] [--seed S]

#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/apps/tcp_echo.h"
#include "src/campaign/campaign.h"
#include "src/support/check.h"
#include "src/support/flags.h"
#include "src/support/table.h"
#include "src/support/text.h"
#include "src/traffic/traffic.h"

namespace {

constexpr uint32_t kRates[] = {200, 1000, 5000, 20000, 100000, 500000};

struct Row {
  uint32_t rate = 0;
  const char* variant = "";
  const char* engine = "";
  uint64_t vanilla_cycles = 0;
  uint64_t opec_cycles = 0;
  uint64_t rv_steps = 0;
  uint64_t rv_states = 0;
  uint32_t echoes = 0;
};

struct Unit {
  uint32_t rate;
  opec_apps::TcpEchoApp::EthVariant variant;
  opec_apps::EngineKind engine;
};

uint64_t RunCycles(const opec_apps::Application& app, opec_apps::BuildMode mode,
                   opec_apps::EngineKind engine, bool rv, uint64_t* rv_steps,
                   uint64_t* rv_states, uint32_t* echoes) {
  opec_apps::AppRun run(app, mode, engine);
  if (rv) {
    run.EnableRv();
  }
  opec_rt::RunResult result = run.Execute();
  OPEC_CHECK_MSG(result.ok, app.name() + " run failed: " + result.violation);
  OPEC_CHECK_MSG(run.Check().empty(), app.name() + ": " + run.Check());
  if (rv) {
    OPEC_CHECK_MSG(run.rv()->total_violations() == 0,
                   app.name() + ": rv violation on a clean load run:\n" +
                       run.rv()->Report());
    // Summed over the monitors, each of which steps on every event.
    *rv_steps = run.rv()->steps() * opec_rv::StandardMonitorNames().size();
    *rv_states = run.rv()->states_visited();
  }
  if (echoes != nullptr) {
    *echoes = result.return_value;
  }
  return result.cycles;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1;
  int requests = 96;
  uint64_t seed = 1;
  std::string engine_arg = "both";
  opec_support::FlagSet flags;
  flags.Int("--jobs", &jobs, 1, 1024);
  flags.Int("--requests", &requests, 1, 1000000);
  flags.Int("--seed", &seed, 0, 1000000000);
  flags.Choice("--engine", &engine_arg, {"interp", "bytecode", "both"});
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  std::vector<opec_apps::EngineKind> engines;
  if (engine_arg == "interp" || engine_arg == "both") {
    engines.push_back(opec_apps::EngineKind::kInterp);
  }
  if (engine_arg == "bytecode" || engine_arg == "both") {
    engines.push_back(opec_apps::EngineKind::kBytecode);
  }

  std::vector<Unit> units;
  for (uint32_t rate : kRates) {
    for (auto variant : {opec_apps::TcpEchoApp::EthVariant::kPio,
                         opec_apps::TcpEchoApp::EthVariant::kDma}) {
      for (opec_apps::EngineKind engine : engines) {
        units.push_back({rate, variant, engine});
      }
    }
  }

  std::vector<Row> rows = opec_campaign::ParallelMap(jobs, units.size(), [&](size_t u) {
    const Unit& unit = units[u];
    opec_traffic::TrafficSpec spec;
    spec.rate_rps = unit.rate;
    spec.requests = static_cast<uint32_t>(requests);
    spec.seed = seed;
    opec_apps::TcpEchoApp app(spec, unit.variant);
    Row row;
    row.rate = unit.rate;
    row.variant = unit.variant == opec_apps::TcpEchoApp::EthVariant::kDma ? "dma" : "pio";
    row.engine = opec_apps::EngineKindName(unit.engine);
    row.vanilla_cycles = RunCycles(app, opec_apps::BuildMode::kVanilla, unit.engine,
                                   false, nullptr, nullptr, &row.echoes);
    row.opec_cycles = RunCycles(app, opec_apps::BuildMode::kOpec, unit.engine, false,
                                nullptr, nullptr, nullptr);
    // RV is a passive observer (modeled cycles are unchanged by construction);
    // its cost is reported as deterministic automaton work per request.
    uint64_t rv_cycles = RunCycles(app, opec_apps::BuildMode::kOpec, unit.engine, true,
                                   &row.rv_steps, &row.rv_states, nullptr);
    OPEC_CHECK_MSG(rv_cycles == row.opec_cycles,
                   "RV observer changed modeled cycles on the load run");
    return row;
  });

  std::printf("Figure 9 (load sweep): OPEC overhead and RV work vs request rate\n");
  std::printf("TCP-Echo server, %d requests, seed %llu; modeled cycles only\n\n", requests,
              static_cast<unsigned long long>(seed));
  opec_support::Table table({"rate (req/s)", "dev", "engine", "vanilla cycles",
                             "opec cycles", "overhead %", "rv steps/req", "rv states",
                             "echoes"});
  for (const Row& row : rows) {
    double overhead = row.vanilla_cycles == 0
                          ? 0.0
                          : 100.0 *
                                (static_cast<double>(row.opec_cycles) -
                                 static_cast<double>(row.vanilla_cycles)) /
                                static_cast<double>(row.vanilla_cycles);
    double steps_per_req =
        row.echoes == 0 ? 0.0
                        : static_cast<double>(row.rv_steps) / static_cast<double>(row.echoes);
    table.AddRow({opec_support::StrPrintf("%u", row.rate), row.variant, row.engine,
                  opec_support::StrPrintf("%llu",
                                          static_cast<unsigned long long>(row.vanilla_cycles)),
                  opec_support::StrPrintf("%llu",
                                          static_cast<unsigned long long>(row.opec_cycles)),
                  opec_support::StrPrintf("%.2f", overhead),
                  opec_support::StrPrintf("%.1f", steps_per_req),
                  opec_support::StrPrintf("%llu",
                                          static_cast<unsigned long long>(row.rv_states)),
                  opec_support::StrPrintf("%u", row.echoes)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}
