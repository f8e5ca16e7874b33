// campaign: the parallel campaign-execution CLI (DESIGN.md Section 11).
//
// Runs a matrix of isolated scenario and/or fault-injection jobs on
// ParallelMap's worker threads and prints a deterministic report: modeled
// outputs and the aggregated JSON are bit-identical across --jobs values;
// only the wall clock changes.
//
// Usage:
//   campaign [--spec FILE] [--apps a,b|all] [--modes opec|vanilla|both]
//            [--engine interp|bytecode] [--rv on|off|report]
//            [--fault-sweep N] [--fault-class CLASS] [--figures] [--jobs N]
//            [--seed S] [--timeout-ms T] [--report-json FILE] [--deterministic]
//            [--trace-dir DIR] [--snapshot-dir DIR] [--cold-boot]
//            [--traffic rate=N,conns=M,seed=S[,requests=R,...]]
//
//   --engine        execution tier for every job (default interp); modeled
//                   outputs are bit-identical across tiers, so the
//                   --deterministic reports of `--engine interp` and
//                   `--engine bytecode` differ only in the `"engine":
//                   "bytecode"` field every bytecode row carries
//   --rv            runtime-verification monitors on every job (default on);
//                   `report` also prints the per-automaton aggregate
//   --spec FILE     line-oriented campaign spec (see CampaignSpec::ParseFile)
//   --apps/--modes  scenario matrix (default: all apps, both modes) used when
//                   no --spec/--fault-sweep is given; also the app pool for
//                   --fault-sweep
//   --fault-sweep N N fault-injection jobs round-robined over the app pool
//   --fault-class   stack-bit-flip | shadow-bit-flip | svc-arg | icall-forge |
//                   any (default)
//   --figures       instead of a job campaign, print Figures 9, 10 and 11,
//                   Tables 1, 2 and 3 and the two ablations (bench/
//                   figures_lib.h); the figures and ablations fan out over
//                   --jobs, and the text does not depend on it. Table 3's
//                   Time(s) column is host time, the only text that varies
//                   from run to run
//   --report-json   write the full report (with timing); with --deterministic
//                   write the timing-free report (byte-identical across
//                   thread counts)
//   --trace-dir     write a per-job Chrome trace into DIR
//   --snapshot-dir  diverging jobs dump final-state snapshots (and per-fault
//                   machine-state dumps) into DIR; also records a
//                   snapshot_digest per diverging job in the JSON report
//   --cold-boot     rebuild every job from scratch instead of forking from
//                   a booted run of the process-wide warm pool (warm start,
//                   the default); results are bit-identical either way
//   --traffic       load spec for the traffic apps, read by every job that
//                   builds one
//
// Exit status: 0 when every job succeeded (AllOk), 1 otherwise, 2 on a usage
// error.

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/figures_lib.h"
#include "src/apps/all_apps.h"
#include "src/campaign/campaign.h"
#include "src/rv/monitors.h"
#include "src/support/flags.h"
#include "src/traffic/traffic.h"

namespace {

using opec_campaign::CampaignResult;
using opec_campaign::CampaignSpec;
using opec_campaign::Executor;
using opec_campaign::FaultClass;
using opec_campaign::Outcome;

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string apps_arg = "all";
  std::string modes_arg = "both";
  opec_apps::EngineKind engine = opec_apps::EngineKind::kInterp;
  std::string rv_arg = "on";
  size_t fault_sweep = 0;
  FaultClass fault_class = FaultClass::kAny;
  bool figures = false;
  uint64_t seed = 1;
  std::string report_path;
  bool deterministic = false;
  Executor::Options options;

  opec_support::FlagSet flags;
  flags.Str("--spec", &spec_path);
  flags.Str("--apps", &apps_arg);
  flags.Choice("--modes", &modes_arg, {"opec", "vanilla", "both"});
  flags.Enum("--engine", &engine, opec_apps::ParseEngineKind, "expected interp|bytecode");
  flags.Choice("--rv", &rv_arg, {"on", "off", "report"});
  flags.Int("--fault-sweep", &fault_sweep, 1, 1000000);
  flags.Enum("--fault-class", &fault_class, opec_campaign::ParseFaultClass,
             "expected any|stack-bit-flip|shadow-bit-flip|svc-arg|icall-forge");
  flags.Bool("--figures", &figures);
  flags.Int("--jobs", &options.jobs, 1, 1024);
  flags.U64("--seed", &seed);
  flags.U64("--timeout-ms", &options.default_timeout_ms);
  flags.Str("--report-json", &report_path);
  flags.Bool("--deterministic", &deterministic);
  flags.Str("--trace-dir", &options.trace_dir);
  flags.Str("--snapshot-dir", &options.snapshot_dir);
  flags.Bool("--cold-boot", &options.cold_boot);
  flags.Custom("--traffic", [&](const std::string& v) {
    opec_traffic::TrafficSpec traffic_spec;
    std::string error;
    if (!opec_traffic::ParseTrafficSpec(v, &traffic_spec, &error)) {
      return error;
    }
    // Set before any worker spawns: the traffic app factories read it.
    opec_traffic::SetDefaultLoadSpec(traffic_spec);
    return std::string();
  });
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  if (figures) {
    std::fputs(opec_bench::Figure9Text(options.jobs).c_str(), stdout);
    std::fputs(opec_bench::Figure10Text(options.jobs).c_str(), stdout);
    std::fputs(opec_bench::Figure11Text(options.jobs).c_str(), stdout);
    std::fputs(opec_bench::Table1Text().c_str(), stdout);
    std::fputs(opec_bench::Table2Text().c_str(), stdout);
    std::fputs(opec_bench::Table3Text().c_str(), stdout);
    std::fputs(opec_bench::AblationShadowSyncText(options.jobs).c_str(), stdout);
    std::fputs(opec_bench::AblationSwitchFrequencyText(options.jobs).c_str(), stdout);
    return 0;
  }

  std::vector<std::string> apps;
  if (apps_arg == "all") {
    for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
      apps.push_back(factory.name);
    }
  } else {
    apps = SplitCommas(apps_arg);
  }
  std::vector<opec_apps::BuildMode> modes;
  if (modes_arg != "opec") {
    modes.push_back(opec_apps::BuildMode::kVanilla);
  }
  if (modes_arg != "vanilla") {
    modes.push_back(opec_apps::BuildMode::kOpec);
  }

  CampaignSpec spec;
  spec.seed = seed;
  if (!spec_path.empty()) {
    std::string err = spec.ParseFile(spec_path);
    if (!err.empty()) {
      std::fprintf(stderr, "campaign: %s\n", err.c_str());
      return 2;
    }
  }
  if (fault_sweep > 0) {
    spec.AddFaultSweep(apps, fault_sweep, fault_class);
  }
  if (spec.jobs.empty()) {
    spec.AddScenarioMatrix(apps, modes);
  }
  for (opec_campaign::JobSpec& job : spec.jobs) {
    job.engine = engine;
    job.rv = rv_arg != "off";
  }

  CampaignResult result;
  try {
    result = Executor::Run(spec, options);
  } catch (const std::runtime_error& e) {
    // Environment problems (unwritable --snapshot-dir/--trace-dir, unknown
    // app) are usage-class errors, not crashes: clear message, exit 2.
    std::fprintf(stderr, "campaign: %s\n", e.what());
    return 2;
  }

  // Per-outcome summary, then the robustness matrix when faults were swept.
  std::printf("campaign: %zu jobs on %d worker(s), wall %.2f ms (serial %.2f ms, %.2fx)\n",
              result.results.size(), result.jobs_used, result.wall_ns / 1e6,
              result.SerialWallNs() / 1e6,
              result.wall_ns > 0
                  ? static_cast<double>(result.SerialWallNs()) /
                        static_cast<double>(result.wall_ns)
                  : 0.0);
  for (int o = 0; o <= static_cast<int>(Outcome::kRvViolation); ++o) {
    size_t n = result.CountOutcome(static_cast<Outcome>(o));
    if (n > 0) {
      std::printf("  %-18s %zu\n", opec_campaign::OutcomeName(static_cast<Outcome>(o)), n);
    }
  }
  bool have_faults = false;
  for (const opec_campaign::JobResult& r : result.results) {
    if (r.spec.kind == opec_campaign::JobKind::kFault) {
      have_faults = true;
    }
    if (!r.ok) {
      std::printf("  job %zu [%s %s]: %s — %s\n", r.index, r.spec.app.c_str(),
                  opec_campaign::JobKindName(r.spec.kind),
                  opec_campaign::OutcomeName(r.outcome), r.detail.c_str());
    }
  }
  if (have_faults) {
    std::fputs(result.FaultMatrix().c_str(), stdout);
  }
  if (rv_arg == "report") {
    // Deterministic per-automaton aggregate over every job that ran with RV.
    const std::vector<std::string>& names = opec_rv::StandardMonitorNames();
    std::vector<unsigned long long> by_automaton(names.size(), 0);
    unsigned long long rv_jobs = 0, states = 0, violations = 0;
    for (const opec_campaign::JobResult& r : result.results) {
      if (!r.spec.rv) {
        continue;
      }
      ++rv_jobs;
      states += r.rv_states;
      violations += r.rv_violations;
      for (size_t a = 0; a < r.rv_by_automaton.size() && a < by_automaton.size(); ++a) {
        by_automaton[a] += r.rv_by_automaton[a];
      }
    }
    std::printf("RV report (%llu job(s)): states-visited=%llu violations=%llu\n", rv_jobs,
                states, violations);
    for (size_t a = 0; a < names.size(); ++a) {
      std::printf("  %-20s violations=%llu\n", names[a].c_str(), by_automaton[a]);
    }
  }

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out.good()) {
      std::fprintf(stderr, "campaign: cannot write %s\n", report_path.c_str());
      return 2;
    }
    out << (deterministic ? result.DeterministicJson() : result.Json());
    std::printf("wrote %s\n", report_path.c_str());
  }
  return result.AllOk() ? 0 : 1;
}
