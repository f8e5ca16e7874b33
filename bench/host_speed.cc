// Host-speed benchmark: wall-clock cost of the simulation pipeline itself.
//
// Times image build + execution for the three hottest tier-1 workloads
// (CoreMark, FatFs-uSD, TCP-Echo) under both configurations and writes
// BENCH_host_speed.json. Modeled outputs (cycles, statements) are recorded so
// a --baseline comparison can verify that host-side optimizations never
// change the modeled numbers (the invariant documented in DESIGN.md,
// "Performance of the harness").
//
// Usage:
//   host_speed [--engine interp|bytecode] [--iters N] [--jobs N] [--out FILE]
//              [--baseline FILE] [--smoke] [--trace-out FILE] [--self-check-obs]
//              [--rv on|off|report]
//
// --engine selects the execution tier (default interp). Modeled outputs are
// bit-identical across tiers, so `--engine bytecode --baseline interp.json`
// measures the tier speedup while hard-failing on any modeled drift.
//
// --baseline is read before anything is measured: a missing, unreadable or
// metric-less file is a usage error (exit 2).
//
// --jobs N measures the workload/configuration units concurrently on the
// campaign thread pool (each unit is a fully isolated Machine/AppRun, so the
// modeled outputs are unchanged); the JSON records the job count plus total
// vs sum-of-units wall time so serial and parallel runs can be compared.
//
// With --baseline, the previous run's metrics are embedded in the output and
// per-configuration "speedup" factors (baseline wall_ns / current wall_ns)
// are computed; a modeled-cycle mismatch against the baseline is a hard
// error (exit 1).
//
// --trace-out writes a combined Chrome trace-event JSON of one recorded run
// per workload/configuration (untimed; the timed iterations always run with
// no sink attached). --self-check-obs skips the benchmark and instead runs
// each workload with and without an event sink attached, failing (exit 1) on
// any modeled cycle/statement drift — the observability overhead contract —
// and then re-runs with a Recorder sized to hold the full stream, failing on
// any dropped event (truncated traces must never pass silently).
//
// --rv on adds a second timed pass per unit with the runtime-verification
// monitors (src/rv) attached, emitting <unit>.rv_exec_ns and
// <unit>.rv_overhead_pct so the RV cost is tracked next to the base numbers
// (EXPERIMENTS.md pins the CoreMark-OPEC budget). --rv report additionally
// prints each unit's deterministic RV report. Default off: baseline files
// from earlier versions stay comparable.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/campaign/campaign.h"
#include "src/obs/export.h"
#include "src/obs/recorder.h"
#include "src/support/check.h"
#include "src/support/flags.h"
#include "src/traffic/traffic.h"

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

struct Sample {
  uint64_t build_ns = 0;  // AppRun construction: compile/analysis + image load
  uint64_t exec_ns = 0;   // Execute(): the interpreter + monitor
  uint64_t cycles = 0;    // modeled machine cycles (must be host-invariant)
  uint64_t statements = 0;
  uint64_t wall_ns() const { return build_ns + exec_ns; }
};

Sample RunOnce(const opec_apps::Application& app, opec_apps::BuildMode mode,
               opec_apps::EngineKind engine, opec_obs::Sink* sink = nullptr,
               bool rv = false, std::string* rv_report = nullptr) {
  Sample s;
  Clock::time_point t0 = Clock::now();
  opec_apps::AppRun run(app, mode, engine);
  s.build_ns = NsSince(t0);
  if (sink != nullptr) {
    run.AttachSink(sink);
  }
  if (rv) {
    run.EnableRv();
  }
  Clock::time_point t1 = Clock::now();
  opec_rt::RunResult r = run.Execute();
  s.exec_ns = NsSince(t1);
  OPEC_CHECK_MSG(r.ok, app.name() + " run failed: " + r.violation);
  OPEC_CHECK_MSG(run.Check().empty(), app.name() + ": " + run.Check());
  if (rv) {
    OPEC_CHECK_MSG(run.rv()->total_violations() == 0,
                   app.name() + ": rv violation on a clean benchmark run:\n" +
                       run.rv()->Report());
    if (rv_report != nullptr) {
      *rv_report = run.rv()->Report();
    }
  }
  s.cycles = r.cycles;
  s.statements = r.statements;
  return s;
}

// A sink that only counts, so the with-sink self-check run observes every
// event while keeping memory flat on the long workloads.
class CountingSink : public opec_obs::Sink {
 public:
  void OnEvent(const opec_obs::Event&) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// Parses the flat "metrics" section of a previous host_speed output. The
// format is line-oriented by construction: every metric is emitted on its own
// line as `"<key>": <integer-or-float>,` so a full JSON parser is not needed.
// Returns false when the file cannot be read or holds no metrics.
bool LoadBaseline(const std::string& path, std::map<std::string, double>* out) {
  std::ifstream in(path);
  std::string line;
  bool in_metrics = false;
  while (std::getline(in, line)) {
    if (line.find("\"metrics\"") != std::string::npos) {
      in_metrics = true;
      continue;
    }
    if (!in_metrics) {
      continue;
    }
    if (line.find('}') != std::string::npos && line.find(':') == std::string::npos) {
      break;  // end of the metrics object
    }
    size_t k0 = line.find('"');
    size_t k1 = line.find('"', k0 + 1);
    size_t colon = line.find(':', k1 == std::string::npos ? 0 : k1);
    if (k0 == std::string::npos || k1 == std::string::npos || colon == std::string::npos) {
      continue;
    }
    std::string key = line.substr(k0 + 1, k1 - k0 - 1);
    (*out)[key] = std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return !out->empty();
}

struct Config {
  const char* name;
  opec_apps::BuildMode mode;
};
constexpr Config kConfigs[] = {{"vanilla", opec_apps::BuildMode::kVanilla},
                               {"opec", opec_apps::BuildMode::kOpec}};

// The observability overhead contract (DESIGN.md Section 9): an attached sink
// must not change any modeled output. Runs every workload/configuration with
// no sink and with a counting sink; any cycle/statement drift is a failure.
// The printed lines carry no engine name on purpose: CI diffs the interp and
// bytecode outputs byte for byte, which doubles as the cross-tier
// modeled-output check.
// AllApps() ∪ TrafficApps(): the wanted-name filter picks the measured set.
std::vector<opec_apps::AppFactory> BenchRegistry() {
  std::vector<opec_apps::AppFactory> apps = opec_apps::AllApps();
  for (opec_apps::AppFactory& factory : opec_apps::TrafficApps()) {
    apps.push_back(std::move(factory));
  }
  return apps;
}

int SelfCheckObs(const std::vector<std::string>& wanted, opec_apps::EngineKind engine) {
  bool drift = false;
  bool lost = false;
  for (const opec_apps::AppFactory& factory : BenchRegistry()) {
    if (std::find(wanted.begin(), wanted.end(), factory.name) == wanted.end()) {
      continue;
    }
    std::unique_ptr<opec_apps::Application> app = factory.make();
    for (const Config& cfg : kConfigs) {
      Sample plain = RunOnce(*app, cfg.mode, engine);
      CountingSink sink;
      Sample observed = RunOnce(*app, cfg.mode, engine, &sink);
      bool same =
          plain.cycles == observed.cycles && plain.statements == observed.statements;
      std::printf("self-check %-12s %-8s cycles %llu/%llu statements %llu/%llu "
                  "(%llu events)  %s\n",
                  factory.name.c_str(), cfg.name,
                  static_cast<unsigned long long>(plain.cycles),
                  static_cast<unsigned long long>(observed.cycles),
                  static_cast<unsigned long long>(plain.statements),
                  static_cast<unsigned long long>(observed.statements),
                  static_cast<unsigned long long>(sink.count()), same ? "OK" : "DRIFT");
      if (!same) {
        drift = true;
      }
      // Loss check: a Recorder sized from the counting run must retain the
      // entire stream. Any drop here means a truncated trace export would
      // have claimed to be complete.
      opec_obs::Recorder recorder(
          std::max<size_t>(opec_obs::Recorder::kDefaultCapacity, sink.count()));
      RunOnce(*app, cfg.mode, engine, &recorder);
      std::printf("self-check %-12s %-8s recorded %zu/%llu events dropped %llu  %s\n",
                  factory.name.c_str(), cfg.name, recorder.size(),
                  static_cast<unsigned long long>(recorder.total()),
                  static_cast<unsigned long long>(recorder.dropped()),
                  recorder.dropped() == 0 ? "OK" : "LOSS");
      if (recorder.dropped() != 0) {
        lost = true;
      }
    }
  }
  if (drift) {
    std::fprintf(stderr, "FAIL: attached sink changed modeled outputs\n");
  }
  if (lost) {
    std::fprintf(stderr, "FAIL: a full-capacity recorder dropped events\n");
  }
  if (drift || lost) {
    return 1;
  }
  std::printf("self-check passed: event sinks leave modeled outputs bit-identical "
              "and lose no events\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 5;
  int jobs = 1;
  opec_apps::EngineKind engine = opec_apps::EngineKind::kInterp;
  std::string out_path = "BENCH_host_speed.json";
  std::string baseline_path;
  std::string trace_path;
  std::string rv_arg = "off";
  bool self_check_obs = false;
  bool smoke = false;
  bool measure_traffic = false;

  opec_support::FlagSet flags;
  flags.Int("--iters", &iters, 1, 1000000);
  flags.Int("--jobs", &jobs, 1, 1024);
  flags.Enum("--engine", &engine, opec_apps::ParseEngineKind, "expected interp|bytecode");
  flags.Str("--out", &out_path);
  flags.Str("--baseline", &baseline_path);
  flags.Str("--trace-out", &trace_path);
  flags.Choice("--rv", &rv_arg, {"on", "off", "report"});
  flags.Bool("--self-check-obs", &self_check_obs);
  flags.Bool("--smoke", &smoke);
  flags.Custom("--traffic", [&](const std::string& v) {
    opec_traffic::TrafficSpec traffic_spec;
    std::string error;
    if (!opec_traffic::ParseTrafficSpec(v, &traffic_spec, &error)) {
      return error;
    }
    opec_traffic::SetDefaultLoadSpec(traffic_spec);
    measure_traffic = true;
    return std::string();
  });
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (smoke) {
    iters = 1;
  }
  // Check the baseline before measuring: a bad path must not cost a full run.
  std::map<std::string, double> baseline;
  if (!baseline_path.empty() && !LoadBaseline(baseline_path, &baseline)) {
    return flags.Fail("no metrics in baseline file '" + baseline_path + "'");
  }

  std::vector<std::string> wanted = {"CoreMark", "FatFs-uSD", "TCP-Echo"};
  if (measure_traffic) {
    // --traffic adds the long-running load variants to the measured set; the
    // paper-line-up units and their metric keys stay untouched.
    wanted.push_back("TCP-Echo-Load");
    wanted.push_back("TCP-Echo-DMA");
  }
  if (self_check_obs) {
    return SelfCheckObs(wanted, engine);
  }
  std::vector<opec_obs::TraceProcess> trace_processes;

  // key -> value, in insertion order for stable output.
  std::vector<std::pair<std::string, double>> metrics;
  auto emit = [&](const std::string& key, double v) { metrics.emplace_back(key, v); };

  // One measurement unit per (workload, configuration). Units run inline with
  // --jobs 1 or concurrently on the campaign pool; every unit builds its own
  // Application/AppRun, so the modeled outputs are identical either way.
  // Printing and metric emission happen on the main thread afterwards, in
  // unit order, so the report is also identical.
  struct Unit {
    const opec_apps::AppFactory* factory;
    const Config* cfg;
  };
  struct UnitResult {
    Sample best;
    uint64_t unit_wall_ns = 0;  // elapsed inside this unit (all iterations)
    bool has_trace = false;
    opec_obs::TraceProcess trace;
    bool has_rv = false;
    Sample best_rv;
    std::string rv_report;
  };
  const std::vector<opec_apps::AppFactory> all_apps = BenchRegistry();
  std::vector<Unit> units;
  for (const opec_apps::AppFactory& factory : all_apps) {
    if (std::find(wanted.begin(), wanted.end(), factory.name) == wanted.end()) {
      continue;
    }
    for (const Config& cfg : kConfigs) {
      units.push_back({&factory, &cfg});
    }
  }

  Clock::time_point total_t0 = Clock::now();
  std::vector<UnitResult> unit_results =
      opec_campaign::ParallelMap(jobs, units.size(), [&](size_t u) {
        const opec_apps::AppFactory& factory = *units[u].factory;
        const Config& cfg = *units[u].cfg;
        std::unique_ptr<opec_apps::Application> app = factory.make();
        UnitResult out;
        Clock::time_point u0 = Clock::now();
        for (int it = 0; it < iters; ++it) {
          Sample s = RunOnce(*app, cfg.mode, engine);
          if (it == 0 || s.wall_ns() < out.best.wall_ns()) {
            out.best = s;
          }
          if (it > 0) {
            OPEC_CHECK_MSG(s.cycles == out.best.cycles,
                           factory.name + ": modeled cycles vary across iterations");
          }
        }
        if (rv_arg != "off") {
          // Second timed pass with the runtime-verification monitors attached.
          // Modeled outputs must not move: RV is an observer.
          for (int it = 0; it < iters; ++it) {
            Sample s = RunOnce(*app, cfg.mode, engine, nullptr, /*rv=*/true,
                               it == 0 ? &out.rv_report : nullptr);
            OPEC_CHECK_MSG(s.cycles == out.best.cycles,
                           factory.name + ": rv monitors changed modeled cycles");
            OPEC_CHECK_MSG(s.statements == out.best.statements,
                           factory.name + ": rv monitors changed statement count");
            if (it == 0 || s.wall_ns() < out.best_rv.wall_ns()) {
              out.best_rv = s;
            }
          }
          out.has_rv = true;
        }
        if (!trace_path.empty()) {
          // Untimed recorded run; one process track per workload/configuration.
          opec_apps::AppRun run(*app, cfg.mode, engine);
          run.EnableEventRecording();
          opec_rt::RunResult r = run.Execute();
          OPEC_CHECK_MSG(r.ok, factory.name + " trace run failed: " + r.violation);
          OPEC_CHECK_MSG(r.cycles == out.best.cycles,
                         factory.name + ": recorded run changed modeled cycles");
          out.has_trace = true;
          out.trace = {opec_apps::AppKey(factory.name) + "." + cfg.name, run.recorder()->Snapshot(),
                       run.EventNaming(), run.recorder()->dropped()};
        }
        out.unit_wall_ns = NsSince(u0);
        return out;
      });
  uint64_t total_wall_ns = NsSince(total_t0);
  uint64_t units_wall_ns = 0;

  for (size_t u = 0; u < units.size(); ++u) {
    const opec_apps::AppFactory& factory = *units[u].factory;
    const Config& cfg = *units[u].cfg;
    const Sample& best = unit_results[u].best;
    units_wall_ns += unit_results[u].unit_wall_ns;
    std::string prefix = opec_apps::AppKey(factory.name) + "." + cfg.name + ".";
    emit(prefix + "wall_ns", static_cast<double>(best.wall_ns()));
    emit(prefix + "build_ns", static_cast<double>(best.build_ns));
    emit(prefix + "exec_ns", static_cast<double>(best.exec_ns));
    emit(prefix + "cycles", static_cast<double>(best.cycles));
    emit(prefix + "statements", static_cast<double>(best.statements));
    emit(prefix + "ns_per_statement",
         opec_bench::NsPerStatement(best.exec_ns, best.statements));
    std::printf("%-12s %-8s wall %8.2f ms  (build %6.2f ms, exec %8.2f ms)  "
                "%.1f ns/stmt  cycles=%llu\n",
                factory.name.c_str(), cfg.name, best.wall_ns() / 1e6, best.build_ns / 1e6,
                best.exec_ns / 1e6,
                opec_bench::NsPerStatement(best.exec_ns, best.statements),
                static_cast<unsigned long long>(best.cycles));
    if (unit_results[u].has_rv) {
      const Sample& rv = unit_results[u].best_rv;
      double overhead_pct =
          best.exec_ns == 0
              ? 0.0
              : (static_cast<double>(rv.exec_ns) - static_cast<double>(best.exec_ns)) *
                    100.0 / static_cast<double>(best.exec_ns);
      emit(prefix + "rv_exec_ns", static_cast<double>(rv.exec_ns));
      emit(prefix + "rv_overhead_pct", overhead_pct);
      std::printf("%-12s %-8s   rv exec %8.2f ms  (overhead %+.1f%%)\n",
                  factory.name.c_str(), cfg.name, rv.exec_ns / 1e6, overhead_pct);
    }
    if (unit_results[u].has_trace) {
      trace_processes.push_back(std::move(unit_results[u].trace));
    }
  }
  if (rv_arg == "report") {
    for (size_t u = 0; u < units.size(); ++u) {
      if (!unit_results[u].has_rv) {
        continue;
      }
      std::printf("--- %s.%s\n%s", opec_apps::AppKey(units[u].factory->name).c_str(),
                  units[u].cfg->name, unit_results[u].rv_report.c_str());
    }
  }
  std::printf("jobs %d: total wall %.2f ms, sum of units %.2f ms (%.2fx)\n", jobs,
              total_wall_ns / 1e6, units_wall_ns / 1e6,
              static_cast<double>(units_wall_ns) / static_cast<double>(total_wall_ns));

  if (!trace_path.empty()) {
    OPEC_CHECK_MSG(opec_obs::WriteFile(trace_path, opec_obs::ChromeTraceJson(trace_processes)),
                   "cannot write " + trace_path);
    std::printf("wrote %s (%zu process tracks)\n", trace_path.c_str(),
                trace_processes.size());
  }

  bool modeled_mismatch = false;

  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": \"opec-host-speed-v1\",\n";
  json << "  \"engine\": \"" << opec_apps::EngineKindName(engine) << "\",\n";
  json << "  \"iterations\": " << iters << ",\n";
  json << "  \"jobs\": " << jobs << ",\n";
  json << "  \"metrics\": {\n";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", metrics[i].second);
    json << "    \"" << metrics[i].first << "\": " << buf
         << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  json << "  }";
  {
    // Serial-vs-parallel accounting: `units_wall_ns` is what the same
    // measurement costs end to end on one thread; `total_wall_ns` is what
    // this run actually took with `jobs` workers.
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"timing\": {\n"
                  "    \"total_wall_ns\": %llu,\n"
                  "    \"units_wall_ns\": %llu,\n"
                  "    \"parallel_speedup\": %.2f\n  }",
                  static_cast<unsigned long long>(total_wall_ns),
                  static_cast<unsigned long long>(units_wall_ns),
                  static_cast<double>(units_wall_ns) / static_cast<double>(total_wall_ns));
    json << buf;
  }
  if (!baseline.empty()) {
    json << ",\n  \"baseline\": {\n";
    size_t i = 0;
    for (const auto& [key, value] : baseline) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", value);
      json << "    \"" << key << "\": " << buf << (++i < baseline.size() ? ",\n" : "\n");
    }
    json << "  },\n  \"speedup\": {\n";
    std::vector<std::string> lines;
    for (const auto& [key, value] : metrics) {
      const std::string suffix = ".wall_ns";
      if (key.size() <= suffix.size() ||
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
        // Modeled outputs must be bit-identical to the baseline.
        if ((key.find(".cycles") != std::string::npos ||
             key.find(".statements") != std::string::npos) &&
            baseline.count(key) != 0 && baseline[key] != value) {
          std::fprintf(stderr, "MODELED OUTPUT CHANGED: %s baseline=%.0f now=%.0f\n",
                       key.c_str(), baseline[key], value);
          modeled_mismatch = true;
        }
        continue;
      }
      if (baseline.count(key) == 0) {
        continue;
      }
      std::string name = key.substr(0, key.size() - suffix.size());
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.2f", baseline[key] / value);
      lines.push_back("    \"" + name + "\": " + buf);
      std::printf("speedup %-22s %sx\n", name.c_str(), buf);
    }
    for (size_t j = 0; j < lines.size(); ++j) {
      json << lines[j] << (j + 1 < lines.size() ? ",\n" : "\n");
    }
    json << "  }";
  }
  json << "\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", out_path.c_str());
  if (modeled_mismatch) {
    std::fprintf(stderr, "FAIL: modeled outputs changed relative to baseline\n");
    return 1;
  }
  return 0;
}
