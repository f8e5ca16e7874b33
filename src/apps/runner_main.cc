// runner: command-line driver around AppRun with the observability layer
// attached — runs one workload, optionally exporting the recorded event
// stream (Chrome trace-event JSON for Perfetto / chrome://tracing, or JSONL
// for scripting), printing the per-operation profile table, and rendering
// fault forensic reports for any denied access.
//
//   $ ./build/src/apps/runner --app pinlock --trace-out=trace.json --profile
//
// Usage: runner [--app NAME] [--mode opec|vanilla] [--engine interp|bytecode]
//               [--rv on|off|report] [--trace-out FILE] [--jsonl-out FILE]
//               [--traffic rate=N,conns=M,seed=S[,requests=R,...]]
//               [--profile] [--list]
//
// Flags accept both `--flag value` and `--flag=value` spellings.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/obs/export.h"
#include "src/obs/profile.h"
#include "src/support/flags.h"
#include "src/support/text.h"
#include "src/traffic/traffic.h"

int main(int argc, char** argv) {
  std::string app_name = "pinlock";
  std::string mode_name = "opec";
  opec_apps::EngineKind engine_kind = opec_apps::EngineKind::kInterp;
  std::string trace_out;
  std::string jsonl_out;
  std::string rv_name = "on";
  bool profile = false;
  bool list = false;

  opec_support::FlagSet flags;
  flags.Str("--app", &app_name);
  flags.Choice("--mode", &mode_name, {"opec", "vanilla"});
  flags.Enum("--engine", &engine_kind, opec_apps::ParseEngineKind, "expected interp|bytecode");
  flags.Str("--trace-out", &trace_out);
  flags.Str("--jsonl-out", &jsonl_out);
  flags.Choice("--rv", &rv_name, {"on", "off", "report"});
  flags.Custom("--traffic", [](const std::string& v) {
    opec_traffic::TrafficSpec spec;
    std::string error;
    if (!opec_traffic::ParseTrafficSpec(v, &spec, &error)) {
      return error;
    }
    opec_traffic::SetDefaultLoadSpec(spec);
    return std::string();
  });
  flags.Bool("--profile", &profile);
  flags.Bool("--list", &list);
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  std::vector<std::string> keys;
  for (const auto& registry : {opec_apps::AllApps(), opec_apps::TrafficApps()}) {
    for (const opec_apps::AppFactory& f : registry) {
      keys.push_back(opec_apps::AppKey(f.name));
    }
  }
  if (list) {
    std::printf("%s\n", opec_support::Join(keys, "\n").c_str());
    return 0;
  }
  opec_apps::BuildMode mode =
      mode_name == "opec" ? opec_apps::BuildMode::kOpec : opec_apps::BuildMode::kVanilla;

  std::unique_ptr<opec_apps::Application> app;
  if (std::optional<opec_apps::AppFactory> factory = opec_apps::FindAppFactory(app_name)) {
    app = factory->make();
  }
  if (app == nullptr) {
    return flags.Fail("unknown --app '" + app_name + "'; valid apps are: " +
                      opec_support::Join(keys, " "));
  }

  opec_apps::AppRun run(*app, mode, engine_kind);
  if (!trace_out.empty() || !jsonl_out.empty() || profile) {
    run.EnableEventRecording();  // only the outputs that read the events
  }
  if (rv_name != "off") {
    run.EnableRv();
  }
  opec_rt::RunResult result = run.Execute();
  std::string check = run.Check();
  std::printf("%s [%s/%s]: ok=%d cycles=%llu statements=%llu\n", app->name().c_str(),
              mode_name.c_str(), opec_apps::EngineKindName(engine_kind), result.ok,
              static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.statements));
  if (!result.ok) {
    std::printf("violation: %s\n", result.violation.c_str());
  }
  if (!check.empty()) {
    std::printf("scenario check: %s\n", check.c_str());
  }
  if (run.rv() != nullptr) {
    if (rv_name == "report") {
      std::printf("%s", run.rv()->Report().c_str());
    } else if (run.rv()->total_violations() != 0) {
      std::printf("rv: %llu violation(s) — rerun with --rv report for details\n",
                  static_cast<unsigned long long>(run.rv()->total_violations()));
    }
  }

  if (const opec_obs::Recorder* recorder = run.recorder(); recorder != nullptr) {
    std::vector<opec_obs::Event> events = recorder->Snapshot();
    opec_obs::Naming naming = run.EventNaming();
    if (recorder->dropped() != 0) {
      std::printf("note: ring buffer wrapped, %llu oldest events dropped from exports\n",
                  static_cast<unsigned long long>(recorder->dropped()));
    }

    if (!trace_out.empty()) {
      if (!opec_obs::WriteFile(trace_out, opec_obs::ChromeTraceJson(events, naming,
                                                                    app->name(),
                                                                    recorder->dropped()))) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu events, Chrome trace-event JSON)\n", trace_out.c_str(),
                  events.size());
    }
    if (!jsonl_out.empty()) {
      if (!opec_obs::WriteFile(jsonl_out,
                               opec_obs::JsonLines(events, naming, recorder->dropped()))) {
        std::fprintf(stderr, "cannot write %s\n", jsonl_out.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu events, JSONL)\n", jsonl_out.c_str(), events.size());
    }
    if (profile) {
      std::printf("%s", opec_obs::RenderProfileTable(opec_obs::AggregateProfiles(events), naming)
                            .c_str());
    }
  }
  for (const opec_obs::FaultReport& report : run.engine().fault_reports()) {
    std::printf("\n%s", report.Render().c_str());
  }
  return result.ok && check.empty() ? 0 : 1;
}
