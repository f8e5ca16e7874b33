// Shared helpers for the table/figure bench binaries.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/support/check.h"

namespace opec_bench {

// exec_ns / statements with the zero-statement guard: a workload that aborts
// before its first statement (or a malformed sample) must render as 0.0, not
// nan/inf, which would corrupt the emitted JSON (nan/inf are not valid JSON
// tokens and broke --baseline parsing downstream).
inline double NsPerStatement(uint64_t exec_ns, uint64_t statements) {
  if (statements == 0) {
    return 0.0;
  }
  return static_cast<double>(exec_ns) / static_cast<double>(statements);
}

// Runs an application in both configurations and reports the Figure 9 / Table
// 2 ratios.
struct OverheadResult {
  std::string app;
  uint64_t vanilla_cycles = 0;
  uint64_t opec_cycles = 0;
  uint32_t vanilla_flash = 0;
  uint32_t opec_flash = 0;
  uint32_t vanilla_sram = 0;
  uint32_t opec_sram = 0;
  uint32_t flash_capacity = 0;
  uint32_t sram_capacity = 0;

  double runtime_overhead() const {
    return static_cast<double>(opec_cycles) / static_cast<double>(vanilla_cycles) - 1.0;
  }
  double runtime_ratio() const {
    return static_cast<double>(opec_cycles) / static_cast<double>(vanilla_cycles);
  }
  double flash_overhead() const {
    return static_cast<double>(opec_flash - vanilla_flash) / flash_capacity;
  }
  double sram_overhead() const {
    return static_cast<double>(opec_sram - vanilla_sram) / sram_capacity;
  }
};

inline OverheadResult MeasureOverhead(const opec_apps::Application& app) {
  OverheadResult r;
  r.app = app.name();
  opec_hw::BoardSpec spec = opec_hw::GetBoardSpec(app.board());
  r.flash_capacity = spec.flash_size;
  r.sram_capacity = spec.sram_size;

  opec_apps::AppRun vanilla(app, opec_apps::BuildMode::kVanilla);
  opec_rt::RunResult rv = vanilla.Execute();
  OPEC_CHECK_MSG(rv.ok, app.name() + " vanilla run failed: " + rv.violation);
  OPEC_CHECK_MSG(vanilla.Check().empty(), app.name() + ": " + vanilla.Check());
  r.vanilla_cycles = rv.cycles;
  r.vanilla_flash = vanilla.accounting().flash_total();
  r.vanilla_sram = vanilla.accounting().sram_total();

  opec_apps::AppRun opec(app, opec_apps::BuildMode::kOpec);
  opec_rt::RunResult ro = opec.Execute();
  OPEC_CHECK_MSG(ro.ok, app.name() + " OPEC run failed: " + ro.violation);
  OPEC_CHECK_MSG(opec.Check().empty(), app.name() + ": " + opec.Check());
  r.opec_cycles = ro.cycles;
  r.opec_flash = opec.accounting().flash_total();
  r.opec_sram = opec.accounting().sram_total();
  return r;
}

}  // namespace opec_bench

#endif  // BENCH_BENCH_UTIL_H_
