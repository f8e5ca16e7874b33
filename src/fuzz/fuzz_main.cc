// Differential fuzzing CLI (DESIGN.md Section 12).
//
//   fuzz [--seed S] [--count N] [--jobs N] [--shrink] [--corpus-dir DIR]
//        [--traffic-count N] [--traffic-seed S]
//
//   --seed S           base program seed (default 1)
//   --count N          number of programs (default 100; 0 = skip)
//   --jobs N           worker threads (default 1; serial == parallel)
//   --shrink           minimize each diverging program
//   --corpus-dir D     write diverging recipes (IR + oracle report) to D,
//                      created before the sweep
//   --traffic-count N  traffic cases over the net apps + ethernet device
//                      models (default 0)
//   --traffic-seed S   base traffic-case seed (default 1)
//
// Case i runs the full oracle stack on program seed (--seed + i), fanned out
// over the campaign ParallelMap. Stdout is one deterministic digest line per
// case plus divergence details: byte-identical for any --jobs value, which
// is oracle 4 (CI runs the same sweep serial and parallel and cmps).
// --shrink and --corpus-dir post-process the returned cases. Exit status: 0
// clean, 1 divergences found, 2 usage error (or an unusable --corpus-dir).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/program.h"
#include "src/fuzz/shrink.h"
#include "src/fuzz/traffic_fuzz.h"
#include "src/ir/printer.h"
#include "src/support/flags.h"
#include "src/support/fs.h"

namespace {

// The shrink predicate covers the recipe-level oracles (execution and
// points-to); the MPU and injected-graph oracles are seed-driven and have
// nothing to shrink.
bool SpecDiverges(const opec_fuzz::ProgramSpec& spec) {
  opec_fuzz::ExecObservation vanilla =
      opec_fuzz::RunOnce(spec, opec_apps::BuildMode::kVanilla);
  opec_fuzz::ExecObservation opec = opec_fuzz::RunOnce(spec, opec_apps::BuildMode::kOpec);
  if (!opec_fuzz::CompareExec(spec, vanilla, opec).empty()) {
    return true;
  }
  return !opec_fuzz::DiffPointsTo(spec).empty();
}

void DumpCorpusEntry(const std::string& dir, const opec_fuzz::CaseResult& result,
                     const opec_fuzz::ProgramSpec& spec, const char* suffix) {
  std::string path = dir + "/seed_" + std::to_string(result.seed) + suffix + ".txt";
  std::ofstream out(path);
  out << "# fuzz divergence, program seed " << result.seed << "\n";
  out << "# " << result.summary << "\n";
  for (const opec_fuzz::Divergence& d : result.divergences) {
    out << "# [" << opec_fuzz::OracleName(d.oracle) << "] " << d.detail << "\n";
  }
  out << "\n" << opec_ir::PrintModule(*opec_fuzz::BuildModule(spec));
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  uint64_t count = 100;
  int jobs = 1;
  uint64_t traffic_count = 0;
  uint64_t traffic_seed = 1;
  bool shrink = false;
  std::string corpus_dir;

  opec_support::FlagSet flags;
  flags.U64("--seed", &seed);
  flags.U64("--count", &count);
  flags.Int("--jobs", &jobs, 1, 1024);
  flags.Bool("--shrink", &shrink);
  flags.Str("--corpus-dir", &corpus_dir);
  flags.U64("--traffic-count", &traffic_count);
  flags.U64("--traffic-seed", &traffic_seed);
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  // Checked before the sweep: a recipe that cannot be written is lost.
  if (!corpus_dir.empty()) {
    if (std::string err = opec_support::EnsureDirs(corpus_dir); !err.empty()) {
      return flags.Fail(err);
    }
  }

  std::vector<opec_fuzz::CaseResult> results = opec_campaign::ParallelMap(
      jobs, static_cast<size_t>(count), [seed](size_t i) { return opec_fuzz::RunCase(seed + i); });

  size_t diverging_cases = 0;
  size_t divergences = 0;
  for (const opec_fuzz::CaseResult& result : results) {
    std::printf("%s\n", result.digest.c_str());
    if (result.divergences.empty()) {
      continue;
    }
    ++diverging_cases;
    divergences += result.divergences.size();
    std::printf("  program: %s\n", result.summary.c_str());
    for (const opec_fuzz::Divergence& d : result.divergences) {
      std::printf("  [%s] %s\n", opec_fuzz::OracleName(d.oracle), d.detail.c_str());
    }
    opec_fuzz::ProgramSpec spec = opec_fuzz::GenerateProgram(result.seed);
    if (!corpus_dir.empty()) {
      DumpCorpusEntry(corpus_dir, result, spec, "");
    }
    if (shrink && SpecDiverges(spec)) {
      opec_fuzz::ShrinkStats stats;
      opec_fuzz::ProgramSpec small = opec_fuzz::ShrinkProgram(spec, SpecDiverges, &stats);
      std::printf("  shrunk: %zu -> %zu statements (%zu probes)\n", stats.initial_statements,
                  stats.final_statements, stats.probes);
      if (!corpus_dir.empty()) {
        opec_fuzz::CaseResult small_report = result;
        small_report.summary = opec_fuzz::SpecSummary(small);
        DumpCorpusEntry(corpus_dir, small_report, small, "_min");
      }
    }
  }

  std::printf("fuzz: %llu cases, %zu diverging, %zu divergences\n",
              static_cast<unsigned long long>(count), diverging_cases, divergences);

  size_t traffic_diverging = 0;
  if (traffic_count > 0) {
    std::vector<opec_fuzz::TrafficCaseResult> traffic_results = opec_campaign::ParallelMap(
        jobs, static_cast<size_t>(traffic_count),
        [traffic_seed](size_t i) { return opec_fuzz::RunTrafficCase(traffic_seed + i); });
    for (const opec_fuzz::TrafficCaseResult& result : traffic_results) {
      std::printf("%s\n", result.digest.c_str());
      if (result.divergences.empty()) {
        continue;
      }
      ++traffic_diverging;
      divergences += result.divergences.size();
      for (const std::string& d : result.divergences) {
        std::printf("  %s\n", d.c_str());
      }
    }
    std::printf("traffic fuzz: %llu cases, %zu diverging\n",
                static_cast<unsigned long long>(traffic_count), traffic_diverging);
  }
  return divergences == 0 ? 0 : 1;
}
