// Scenario tests for every guest application: each must pass its output check
// both vanilla and under OPEC, and the OPEC build must produce the expected
// operation structure.

#include <gtest/gtest.h>

#include "src/apps/animation.h"
#include "src/apps/fatfs_usd.h"
#include "src/apps/camera.h"
#include "src/apps/coremark.h"
#include "src/apps/lcd_usd.h"
#include "src/apps/pinlock.h"
#include "src/apps/tcp_echo.h"
#include "src/apps/runner.h"

namespace opec_apps {
namespace {

void ExpectScenarioPasses(const Application& app, BuildMode mode) {
  AppRun run(app, mode);
  opec_rt::RunResult result = run.Execute();
  ASSERT_TRUE(result.ok) << app.name() << ": " << result.violation;
  EXPECT_EQ(run.Check(), "") << app.name();
  if (mode == BuildMode::kOpec) {
    EXPECT_GT(run.monitor()->stats().operation_switches, 0u) << app.name();
  }
}

TEST(AppScenarios, AnimationVanilla) { ExpectScenarioPasses(AnimationApp(), BuildMode::kVanilla); }
TEST(AppScenarios, AnimationOpec) { ExpectScenarioPasses(AnimationApp(), BuildMode::kOpec); }

TEST(AppScenarios, AnimationOperationCount) {
  AnimationApp app;
  AppRun run(app, BuildMode::kOpec);
  // 7 entries + default main = 8, matching Table 1's #OPs for Animation.
  EXPECT_EQ(run.compile()->policy.operations.size(), 8u);
}

TEST(AppScenarios, FatFsVanilla) { ExpectScenarioPasses(FatFsUsdApp(), BuildMode::kVanilla); }
TEST(AppScenarios, FatFsOpec) { ExpectScenarioPasses(FatFsUsdApp(), BuildMode::kOpec); }

TEST(AppScenarios, LcdUsdVanilla) { ExpectScenarioPasses(LcdUsdApp(), BuildMode::kVanilla); }
TEST(AppScenarios, LcdUsdOpec) { ExpectScenarioPasses(LcdUsdApp(), BuildMode::kOpec); }

TEST(AppScenarios, TcpEchoVanilla) { ExpectScenarioPasses(TcpEchoApp(), BuildMode::kVanilla); }
TEST(AppScenarios, TcpEchoOpec) { ExpectScenarioPasses(TcpEchoApp(), BuildMode::kOpec); }

TEST(AppScenarios, CameraVanilla) { ExpectScenarioPasses(CameraApp(), BuildMode::kVanilla); }
TEST(AppScenarios, CameraOpec) { ExpectScenarioPasses(CameraApp(), BuildMode::kOpec); }

TEST(AppScenarios, CoreMarkVanilla) { ExpectScenarioPasses(CoreMarkApp(), BuildMode::kVanilla); }
TEST(AppScenarios, CoreMarkOpec) { ExpectScenarioPasses(CoreMarkApp(), BuildMode::kOpec); }

// Table 1's #OPs column: 6/8/10/11/9/9/9 operations (including the default
// main operation for the apps built here).
TEST(AppScenarios, OperationCountsMatchTable1) {
  struct Expectation {
    std::unique_ptr<Application> app;
    size_t ops;
  };
  std::vector<Expectation> expectations;
  expectations.push_back({std::make_unique<LcdUsdApp>(), 11});
  expectations.push_back({std::make_unique<TcpEchoApp>(), 9});
  expectations.push_back({std::make_unique<CameraApp>(), 9});
  expectations.push_back({std::make_unique<CoreMarkApp>(), 9});
  for (const auto& e : expectations) {
    AppRun run(*e.app, BuildMode::kOpec);
    EXPECT_EQ(run.compile()->policy.operations.size(), e.ops) << e.app->name();
  }
}

TEST(AppScenarios, FatFsOperationCount) {
  FatFsUsdApp app;
  AppRun run(app, BuildMode::kOpec);
  // 9 entries + default main = 10, matching Table 1's #OPs for FatFs-uSD.
  EXPECT_EQ(run.compile()->policy.operations.size(), 10u);
  // MyFile and SDFatFs must be shared (external) variables.
  EXPECT_GE(run.compile()->policy.FindExternalIndex(run.module().FindGlobal("MyFile")), 0);
  EXPECT_GE(run.compile()->policy.FindExternalIndex(run.module().FindGlobal("SDFatFs")), 0);
}

// Verdicts survive operation switches: the MPU builds each interned region
// set's verdict table once and the VM's slots key on the set's id, so a warm
// run re-enters each operation's set with its table built and makes no
// region walk at all. Dropping every verdict at each reconfiguration costs
// 11-48 region walks per switch on these runs, well above the bound.
// Counted in region walks, so no host timing is involved.
TEST(AppScenarios, MpuVerdictsSurviveOperationSwitches) {
  const PinLockApp pinlock;
  const TcpEchoApp tcp_echo;
  for (const Application* app : {static_cast<const Application*>(&pinlock),
                                 static_cast<const Application*>(&tcp_echo)}) {
    for (EngineKind engine : {EngineKind::kInterp, EngineKind::kBytecode}) {
      std::string label = app->name() + (engine == EngineKind::kInterp ? "/interp" : "/bytecode");
      AppRun run(*app, BuildMode::kOpec, engine);
      run.CaptureBoot();
      ASSERT_TRUE(run.Execute().ok) << label;
      run.RestoreBoot();
      const uint64_t walks_before = run.machine().mpu().region_walks();
      ASSERT_TRUE(run.Execute().ok) << label;
      EXPECT_EQ(run.Check(), "") << label;
      const uint64_t walks = run.machine().mpu().region_walks() - walks_before;
      const uint64_t switches = run.monitor()->stats().operation_switches;
      ASSERT_GT(switches, 0u) << label;
      EXPECT_LE(walks, 8 * switches) << label << ": " << walks << " region walks over "
                                     << switches << " operation switches";
    }
  }
}

}  // namespace
}  // namespace opec_apps
