// Tests for the runtime-verification subsystem (src/rv, DESIGN.md §15): the
// four standard monitors against hand-built protocol breaks, the exact report
// text on synthetic event streams, and the end-to-end contract on real
// workloads — clean runs trip nothing on either engine, blocked attacks trip
// the matching monitor, and the deterministic report is byte-identical
// across execution tiers.

#include "src/rv/rv.h"

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/hw/mpu.h"
#include "src/obs/event.h"
#include "src/rv/monitors.h"

namespace {

using opec_obs::Event;
using opec_obs::EventKind;
using opec_rv::RvEnv;
using opec_rv::RvSink;
using opec_rv::StandardMonitorNames;

Event Ev(EventKind kind, uint32_t arg0 = 0, uint32_t arg1 = 0, uint32_t arg2 = 0,
         int32_t op = -1, int32_t depth = 0) {
  return Event::Make(kind, /*cycle=*/0, op, depth, arg0, arg1, arg2);
}

// --- Standard monitors on synthetic streams ------------------------------

std::unique_ptr<RvSink> SyntheticSink() {
  RvEnv env;  // no MPU, no shadow owners, vanilla-style
  return std::make_unique<RvSink>(env);
}

TEST(StandardMonitors, CleanSwitchWindowPasses) {
  RvEnv env;
  env.shadow_owners = {{2, 0}, {2, 1}};
  RvSink sink(env);
  // enter op 2: svc, write-back, copy-in, reconfig, enter.
  sink.OnEvent(Ev(EventKind::kSvc, /*op target=*/2, /*enter=*/0, 0, /*op=*/-1));
  sink.OnEvent(Ev(EventKind::kShadowSync, 1, 4, opec_obs::kSyncWriteBack, 2));
  sink.OnEvent(Ev(EventKind::kShadowSync, 0, 4, opec_obs::kSyncCopyIn, 2));
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, 0, Event::kNoOperation));
  sink.OnEvent(Ev(EventKind::kOperationEnter, 2, static_cast<uint32_t>(-1), 0, 2));
  // exit op 2 mirrored.
  sink.OnEvent(Ev(EventKind::kSvc, 2, /*exit=*/1, 0, 2));
  sink.OnEvent(Ev(EventKind::kShadowSync, 1, 4, opec_obs::kSyncWriteBack, 2));
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, 0, Event::kNoOperation));
  sink.OnEvent(Ev(EventKind::kOperationExit, 2, static_cast<uint32_t>(-1), 0, 2));
  sink.Finish(/*run_aborted=*/false);
  EXPECT_EQ(sink.total_violations(), 0u) << sink.Report();
}

TEST(StandardMonitors, LooseShadowSyncViolatesSwitchProtocol) {
  auto sink = SyntheticSink();
  sink->OnEvent(Ev(EventKind::kShadowSync, 0, 4, opec_obs::kSyncCopyIn));
  sink->Finish(false);
  std::vector<uint64_t> by = sink->ViolationsByMonitor();
  EXPECT_GE(by[0], 1u);  // switch-protocol
  ASSERT_FALSE(sink->details().empty());
  EXPECT_EQ(sink->details()[0].automaton, "switch-protocol");
}

TEST(StandardMonitors, MidWindowAbortIsFlaggedByFinish) {
  auto sink = SyntheticSink();
  // A window opens but the run aborts before the enter event: the unwind's
  // kFunctionExit lands in a strict window state.
  sink->OnEvent(Ev(EventKind::kSvc, 2, 0));
  sink->OnEvent(Ev(EventKind::kShadowSync, 0, 4, opec_obs::kSyncWriteBack));
  sink->OnEvent(Ev(EventKind::kFunctionExit, 5, 0, 0, -1, 1));
  sink->Finish(/*run_aborted=*/true);
  std::vector<uint64_t> by = sink->ViolationsByMonitor();
  EXPECT_GE(by[0], 1u) << sink->Report();
}

TEST(StandardMonitors, UnresolvedFaultViolatesShadowIsolation) {
  auto sink = SyntheticSink();
  sink->OnEvent(Ev(EventKind::kMemFault, 0x20001000, 4,
                   opec_obs::kFaultWrite | opec_obs::kFaultAttack));
  sink->Finish(false);
  std::vector<uint64_t> by = sink->ViolationsByMonitor();
  EXPECT_EQ(by[1], 1u);  // shadow-isolation
  // A resolved fault (demand-mapped peripheral) is not a violation.
  auto sink2 = SyntheticSink();
  sink2->OnEvent(Ev(EventKind::kMemFault, 0x40000000, 4,
                    opec_obs::kFaultWrite | opec_obs::kFaultResolved));
  sink2->Finish(false);
  EXPECT_EQ(sink2->total_violations(), 0u);
}

TEST(StandardMonitors, UnownedShadowSyncViolatesShadowIsolation) {
  RvEnv env;
  env.shadow_owners = {{1, 0}};
  RvSink sink(env);
  // Open a window so switch-protocol accepts the sync; attribute the sync to
  // op 2 which owns nothing.
  sink.OnEvent(Ev(EventKind::kSvc, 2, 0));
  sink.OnEvent(Ev(EventKind::kShadowSync, 0, 4, opec_obs::kSyncCopyIn, /*op=*/2));
  std::vector<uint64_t> by = sink.ViolationsByMonitor();
  EXPECT_EQ(by[1], 1u) << sink.Report();
}

TEST(StandardMonitors, MpuCoherenceCrossChecksTheLiveMpu) {
  opec_hw::Mpu mpu;
  RvEnv env;
  env.mpu = &mpu;
  RvSink sink(env);

  opec_hw::MpuRegionConfig cfg;
  cfg.enabled = true;
  cfg.base = 0x20000000;
  cfg.size_log2 = 8;
  cfg.ap = opec_hw::AccessPerm::kFullAccess;
  mpu.ConfigureRegion(0, cfg);
  uint32_t packed = opec_obs::PackMpuConfig(true, 8, 0,
                                            static_cast<uint8_t>(cfg.ap));
  // Matching payload + bumped generation: clean.
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, packed, Event::kNoOperation));
  EXPECT_EQ(sink.total_violations(), 0u) << sink.Report();

  // Replaying the event without any reconfiguration: the verdict cache was
  // not invalidated since the last observed reconfig.
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0x20000000, packed, Event::kNoOperation));
  std::vector<uint64_t> by = sink.ViolationsByMonitor();
  EXPECT_EQ(by[2], 1u) << sink.Report();
  ASSERT_FALSE(sink.details().empty());
  EXPECT_NE(sink.details()[0].message.find("verdict-cache"), std::string::npos);

  // Reconfigure for real but report a payload that disagrees with the live
  // region state.
  mpu.ConfigureRegion(0, cfg);
  sink.OnEvent(Ev(EventKind::kMpuReconfig, 0, 0xDEAD0000, packed, Event::kNoOperation));
  by = sink.ViolationsByMonitor();
  EXPECT_EQ(by[2], 2u) << sink.Report();
}

TEST(StandardMonitors, CallDepthPairsLifo) {
  auto sink = SyntheticSink();
  sink->OnEvent(Ev(EventKind::kFunctionEnter, 1, 0, 0, -1, 1));
  sink->OnEvent(Ev(EventKind::kFunctionEnter, 2, 0, 0, -1, 2));
  sink->OnEvent(Ev(EventKind::kFunctionExit, 2, 0, 0, -1, 2));
  sink->OnEvent(Ev(EventKind::kFunctionExit, 1, 0, 0, -1, 1));
  sink->Finish(false);
  EXPECT_EQ(sink->total_violations(), 0u);

  auto bad = SyntheticSink();
  bad->OnEvent(Ev(EventKind::kFunctionEnter, 1, 0, 0, -1, 1));
  bad->OnEvent(Ev(EventKind::kFunctionExit, 9, 0, 0, -1, 1));  // wrong function
  bad->Finish(false);
  std::vector<uint64_t> by = bad->ViolationsByMonitor();
  EXPECT_EQ(by[3], 1u) << bad->Report();

  auto open = SyntheticSink();
  open->OnEvent(Ev(EventKind::kFunctionEnter, 1, 0, 0, -1, 1));
  open->Finish(/*run_aborted=*/false);  // clean end with an open frame
  by = open->ViolationsByMonitor();
  EXPECT_EQ(by[3], 1u) << open->Report();
}

// --- Report pins on synthetic streams --------------------------------------
//
// The exact RvSink::Report() text for every violation message, the
// strict-window default, a clean window, the reset after a violation and a
// repeated Finish. Each stream runs through a fresh sink and ends the run.

constexpr uint32_t kNoPrev = static_cast<uint32_t>(-1);  // "returned to" op -1

Event Svc(uint32_t target, uint32_t exit_side, int32_t op = -1) {
  return Ev(EventKind::kSvc, target, exit_side, 0, op);
}
Event Sync(uint32_t var, uint32_t dir, int32_t op) {
  return Ev(EventKind::kShadowSync, var, 4, dir, op);
}
Event Reconfig() {
  return Ev(EventKind::kMpuReconfig, 0, 0x20000000, 0, Event::kNoOperation);
}
Event OpEnter(int32_t op) {
  return Ev(EventKind::kOperationEnter, static_cast<uint32_t>(op), kNoPrev, 0, op);
}
Event OpExit(int32_t op) {
  return Ev(EventKind::kOperationExit, static_cast<uint32_t>(op), kNoPrev, 0, op);
}
Event FnEnter(uint32_t fn, int32_t depth) {
  return Ev(EventKind::kFunctionEnter, fn, 0, 0, -1, depth);
}
Event FnExit(uint32_t fn, int32_t depth) {
  return Ev(EventKind::kFunctionExit, fn, 0, 0, -1, depth);
}
Event Fault(EventKind kind, uint32_t addr, uint32_t flags, int32_t op = Event::kNoOperation) {
  return Ev(kind, addr, 4, flags, op);
}

std::string ReportAfter(const std::vector<std::pair<int32_t, uint32_t>>& owners,
                        const std::vector<Event>& events, bool aborted) {
  RvEnv env;
  env.shadow_owners = owners;
  RvSink sink(env);
  for (const Event& e : events) {
    sink.OnEvent(e);
  }
  sink.Finish(aborted);
  return sink.Report();
}

struct ReportPin {
  const char* name;
  std::vector<std::pair<int32_t, uint32_t>> owners;
  std::vector<Event> events;
  bool aborted;
  const char* report;
};

TEST(RvReportPins, EveryViolationMessage) {
  const uint32_t kWb = opec_obs::kSyncWriteBack;
  const uint32_t kCi = opec_obs::kSyncCopyIn;
  const std::vector<ReportPin> pins = {
      {"exit SVC without an active operation",
       {},
       {Svc(3, 1)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=1 steps=1 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=1 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=1 violations=0\n"
       "  call-depth: states=1 visited=1 steps=1 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=idle exit-side SVC does not match the "
       "innermost active operation\n"
       "    event: svc cycle=0 op=-1 depth=0 arg0=0x3 arg1=0x1 arg2=0x0\n"},
      {"shadow sync while idle",
       {{-1, 0}},
       {Sync(0, kCi, -1)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=1 steps=1 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=1 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=1 violations=0\n"
       "  call-depth: states=1 visited=1 steps=1 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=idle shadow sync outside an "
       "operation-switch window\n"
       "    event: shadow_sync cycle=0 op=-1 depth=0 arg0=0x0 arg1=0x4 arg2=0x0\n"},
      {"operation enter while idle",
       {},
       {OpEnter(2)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=1 steps=1 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=1 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=1 violations=0\n"
       "  call-depth: states=1 visited=1 steps=1 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=idle operation enter without an SVC window\n"
       "    event: operation_enter cycle=0 op=2 depth=0 arg0=0x2 arg1=0xFFFFFFFF arg2=0x0\n"},
      {"operation exit while idle",
       {},
       {OpExit(2)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=1 steps=1 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=1 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=1 violations=0\n"
       "  call-depth: states=1 visited=1 steps=1 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=idle operation exit without an SVC window\n"
       "    event: operation_exit cycle=0 op=2 depth=0 arg0=0x2 arg1=0xFFFFFFFF arg2=0x0\n"},
      {"write-back after copy-in, enter side",
       {{2, 0}, {2, 1}},
       {Svc(2, 0), Sync(0, kCi, 2), Sync(1, kWb, 2)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=3 steps=3 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=3 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=3 violations=0\n"
       "  call-depth: states=1 visited=1 steps=3 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=enter-copy-in write-back after copy-in in an "
       "enter window\n"
       "    event: shadow_sync cycle=0 op=2 depth=0 arg0=0x1 arg1=0x4 arg2=0x1\n"},
      {"enter of another operation than the SVC target",
       {},
       {Svc(2, 0), Reconfig(), OpEnter(3)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=3 steps=3 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=3 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=3 violations=0\n"
       "  call-depth: states=1 visited=1 steps=3 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=enter-mpu-reconfig operation enter does not "
       "match the SVC target\n"
       "    event: operation_enter cycle=0 op=3 depth=0 arg0=0x3 arg1=0xFFFFFFFF arg2=0x0\n"},
      {"write-back after copy-in, exit side",
       {{2, 0}, {2, 1}},
       {Svc(2, 0), Reconfig(), OpEnter(2), Svc(2, 1, 2), Sync(0, kCi, 2), Sync(1, kWb, 2)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=5 steps=6 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=6 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=6 violations=0\n"
       "  call-depth: states=1 visited=1 steps=6 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=exit-copy-in write-back after copy-in in an "
       "exit window\n"
       "    event: shadow_sync cycle=0 op=2 depth=0 arg0=0x1 arg1=0x4 arg2=0x1\n"},
      {"exit of another operation than the SVC'd one",
       {},
       {Svc(2, 0), Reconfig(), OpEnter(2), Svc(2, 1, 2), Reconfig(), OpExit(3)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=5 steps=6 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=6 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=6 violations=0\n"
       "  call-depth: states=1 visited=1 steps=6 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=exit-mpu-reconfig operation exit does not "
       "match the SVC'd operation\n"
       "    event: operation_exit cycle=0 op=3 depth=0 arg0=0x3 arg1=0xFFFFFFFF arg2=0x0\n"},
      {"aborted run ends inside a window",
       {},
       {Svc(2, 0)},
       true,
       "RV report\n"
       "  switch-protocol: states=7 visited=2 steps=1 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=1 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=1 violations=0\n"
       "  call-depth: states=1 visited=1 steps=1 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=enter-write-back run ended inside an "
       "operation-switch window\n"
       "    event: function_enter cycle=0 op=-1 depth=0 arg0=0x0 arg1=0x0 arg2=0x0\n"},
      {"clean end with an operation still active",
       {},
       {Svc(2, 0), Reconfig(), OpEnter(2)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=3 steps=3 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=3 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=3 violations=0\n"
       "  call-depth: states=1 visited=1 steps=3 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=idle 1 operation(s) still active at clean "
       "end of run\n"
       "    event: function_enter cycle=0 op=-1 depth=0 arg0=0x0 arg1=0x0 arg2=0x0\n"},
      {"MMIO inside a window (strict-window default)",
       {},
       {Svc(2, 0), Ev(EventKind::kMmioAccess, 0x40000000, 4, 0)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=2 steps=2 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=2 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=2 violations=0\n"
       "  call-depth: states=1 visited=1 steps=2 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=enter-write-back unexpected mmio_access in "
       "state enter-write-back\n"
       "    event: mmio_access cycle=0 op=-1 depth=0 arg0=0x40000000 arg1=0x4 arg2=0x0\n"},
      {"copy-in after the MPU reconfig (strict-window default)",
       {{2, 0}},
       {Svc(2, 0), Reconfig(), Sync(0, kCi, 2)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=3 steps=3 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=3 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=3 violations=0\n"
       "  call-depth: states=1 visited=1 steps=3 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [switch-protocol] state=enter-mpu-reconfig unexpected shadow_sync in "
       "state enter-mpu-reconfig\n"
       "    event: shadow_sync cycle=0 op=2 depth=0 arg0=0x0 arg1=0x4 arg2=0x0\n"},
      {"shadow sync by an operation that owns no shadow",
       {{1, 0}},
       {Svc(2, 0), Sync(0, kCi, 2), Reconfig(), OpEnter(2), Svc(2, 1, 2), Reconfig(),
        OpExit(2)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=6 steps=7 violations=0\n"
       "  shadow-isolation: states=1 visited=1 steps=7 violations=1\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=7 violations=0\n"
       "  call-depth: states=1 visited=1 steps=7 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [shadow-isolation] state=watch shadow sync attributed to an operation "
       "that does not own the shadow\n"
       "    event: shadow_sync cycle=0 op=2 depth=0 arg0=0x0 arg1=0x4 arg2=0x0\n"},
      {"unresolved fault inside a window",
       {},
       {Svc(2, 0), Fault(EventKind::kMemFault, 0x20001000, opec_obs::kFaultWrite)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=2 steps=2 violations=1\n"
       "  shadow-isolation: states=1 visited=1 steps=2 violations=1\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=2 violations=0\n"
       "  call-depth: states=1 visited=1 steps=2 violations=0\n"
       "  total violations: 2\n"
       "  violation 0: [switch-protocol] state=enter-write-back unexpected mem_fault in "
       "state enter-write-back\n"
       "    event: mem_fault cycle=0 op=-2147483648 depth=0 arg0=0x20001000 arg1=0x4 "
       "arg2=0x1\n"
       "  violation 1: [shadow-isolation] state=watch unresolved fault inside an "
       "operation-switch window\n"
       "    event: mem_fault cycle=0 op=-2147483648 depth=0 arg0=0x20001000 arg1=0x4 "
       "arg2=0x1\n"},
      {"blocked attack write outside a window",
       {},
       {Fault(EventKind::kMemFault, 0x20001000, opec_obs::kFaultWrite | opec_obs::kFaultAttack)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=1 steps=1 violations=0\n"
       "  shadow-isolation: states=1 visited=1 steps=1 violations=1\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=1 violations=0\n"
       "  call-depth: states=1 visited=1 steps=1 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [shadow-isolation] state=watch write denied by the MPU/privilege "
       "rules\n"
       "    event: mem_fault cycle=0 op=-2147483648 depth=0 arg0=0x20001000 arg1=0x4 "
       "arg2=0x5\n"},
      {"unresolved bus fault outside a window",
       {},
       {Fault(EventKind::kBusFault, 0xE000E010, opec_obs::kFaultWrite, -1)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=1 steps=1 violations=0\n"
       "  shadow-isolation: states=1 visited=1 steps=1 violations=1\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=1 violations=0\n"
       "  call-depth: states=1 visited=1 steps=1 violations=0\n"
       "  total violations: 1\n"
       "  violation 0: [shadow-isolation] state=watch write denied by the MPU/privilege "
       "rules\n"
       "    event: bus_fault cycle=0 op=-1 depth=0 arg0=0xE000E010 arg1=0x4 arg2=0x1\n"},
      {"function exit that pairs with no open enter",
       {},
       {FnEnter(1, 1), FnExit(9, 1)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=1 steps=2 violations=0\n"
       "  shadow-isolation: states=1 visited=1 steps=2 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=2 violations=0\n"
       "  call-depth: states=1 visited=1 steps=2 violations=1\n"
       "  total violations: 1\n"
       "  violation 0: [call-depth] state=watch function exit does not pair with the "
       "innermost open function enter\n"
       "    event: function_exit cycle=0 op=-1 depth=1 arg0=0x9 arg1=0x0 arg2=0x0\n"},
      {"clean end with frames still open",
       {},
       {FnEnter(1, 1), FnEnter(2, 2)},
       false,
       "RV report\n"
       "  switch-protocol: states=7 visited=1 steps=2 violations=0\n"
       "  shadow-isolation: states=1 visited=1 steps=2 violations=0\n"
       "  mpu-cache-coherence: states=1 visited=1 steps=2 violations=0\n"
       "  call-depth: states=1 visited=1 steps=2 violations=1\n"
       "  total violations: 1\n"
       "  violation 0: [call-depth] state=watch 2 function frame(s) still open at clean end "
       "of run\n"
       "    event: function_enter cycle=0 op=-1 depth=0 arg0=0x0 arg1=0x0 arg2=0x0\n"},
  };
  for (const ReportPin& pin : pins) {
    EXPECT_EQ(ReportAfter(pin.owners, pin.events, pin.aborted), pin.report) << pin.name;
  }
}

// The coherence monitor tries "no invalidation" before "payload disagrees",
// also when the region index is out of range, and resyncs its watermark to
// the MPU after each violation.
TEST(RvReportPins, MpuCoherenceMessagesAndRuleOrder) {
  opec_hw::Mpu mpu;
  RvEnv env;
  env.mpu = &mpu;
  RvSink sink(env);
  opec_hw::MpuRegionConfig cfg;
  cfg.enabled = true;
  cfg.base = 0x20000000;
  cfg.size_log2 = 8;
  cfg.ap = opec_hw::AccessPerm::kFullAccess;
  const uint32_t packed = opec_obs::PackMpuConfig(true, 8, 0, static_cast<uint8_t>(cfg.ap));
  auto reconfig = [&](uint32_t region, uint32_t base) {
    sink.OnEvent(Ev(EventKind::kMpuReconfig, region, base, packed, Event::kNoOperation));
  };
  reconfig(0, 0x20000000);  // no register write since the start
  reconfig(9, 0x20000000);  // out of range, still no register write
  mpu.ConfigureRegion(0, cfg);
  reconfig(9, 0x20000000);  // written, but no region 9
  mpu.ConfigureRegion(0, cfg);
  reconfig(0, 0x20000000);  // clean
  mpu.ConfigureRegion(0, cfg);
  reconfig(0, 0xDEAD0000);  // written, wrong base
  sink.Finish(false);
  EXPECT_EQ(sink.Report(),
            "RV report\n"
            "  switch-protocol: states=7 visited=1 steps=5 violations=0\n"
            "  shadow-isolation: states=1 visited=1 steps=5 violations=0\n"
            "  mpu-cache-coherence: states=1 visited=1 steps=5 violations=4\n"
            "  call-depth: states=1 visited=1 steps=5 violations=0\n"
            "  total violations: 4\n"
            "  violation 0: [mpu-cache-coherence] state=watch MPU reconfig without a "
            "verdict-cache invalidation\n"
            "    event: mpu_reconfig cycle=0 op=-2147483648 depth=0 arg0=0x0 arg1=0x20000000 "
            "arg2=0x807\n"
            "  violation 1: [mpu-cache-coherence] state=watch MPU reconfig without a "
            "verdict-cache invalidation\n"
            "    event: mpu_reconfig cycle=0 op=-2147483648 depth=0 arg0=0x9 arg1=0x20000000 "
            "arg2=0x807\n"
            "  violation 2: [mpu-cache-coherence] state=watch kMpuReconfig payload disagrees "
            "with the live MPU region state\n"
            "    event: mpu_reconfig cycle=0 op=-2147483648 depth=0 arg0=0x9 arg1=0x20000000 "
            "arg2=0x807\n"
            "  violation 3: [mpu-cache-coherence] state=watch kMpuReconfig payload disagrees "
            "with the live MPU region state\n"
            "    event: mpu_reconfig cycle=0 op=-2147483648 depth=0 arg0=0x0 arg1=0xDEAD0000 "
            "arg2=0x807\n");
}

TEST(RvReportPins, CleanEnterAndExitWindowVisitsEveryState) {
  const uint32_t kWb = opec_obs::kSyncWriteBack;
  const uint32_t kCi = opec_obs::kSyncCopyIn;
  EXPECT_EQ(ReportAfter({{2, 0}, {2, 1}},
                        {Svc(2, 0), Sync(1, kWb, 2), Sync(0, kCi, 2), Reconfig(), OpEnter(2),
                         Svc(2, 1, 2), Sync(1, kWb, 2), Sync(0, kCi, 2), Reconfig(), OpExit(2)},
                        false),
            "RV report\n"
            "  switch-protocol: states=7 visited=7 steps=10 violations=0\n"
            "  shadow-isolation: states=1 visited=1 steps=10 violations=0\n"
            "  mpu-cache-coherence: states=1 visited=1 steps=10 violations=0\n"
            "  call-depth: states=1 visited=1 steps=10 violations=0\n"
            "  total violations: 0\n");
}

// A violation returns the monitor to its initial state and clears its
// context: the operation entered before it no longer counts as active at the
// end, the window flag no longer marks a later fault, and the frames opened
// before it no longer count as open.
TEST(RvReportPins, ViolationResetsStateAndContext) {
  EXPECT_EQ(ReportAfter({},
                        {Svc(2, 0), Reconfig(), OpEnter(2),  // op 2 active
                         Svc(5, 0), Fault(EventKind::kMemFault, 0x20001000, opec_obs::kFaultWrite),
                         Fault(EventKind::kMemFault, 0x20001004, opec_obs::kFaultWrite),
                         Svc(3, 0), Reconfig(), OpEnter(3), Svc(3, 1, 3), Reconfig(), OpExit(3)},
                        false),
            "RV report\n"
            "  switch-protocol: states=7 visited=5 steps=12 violations=1\n"
            "  shadow-isolation: states=1 visited=1 steps=12 violations=2\n"
            "  mpu-cache-coherence: states=1 visited=1 steps=12 violations=0\n"
            "  call-depth: states=1 visited=1 steps=12 violations=0\n"
            "  total violations: 3\n"
            "  violation 0: [switch-protocol] state=enter-write-back unexpected mem_fault in "
            "state enter-write-back\n"
            "    event: mem_fault cycle=0 op=-2147483648 depth=0 arg0=0x20001000 arg1=0x4 "
            "arg2=0x1\n"
            "  violation 1: [shadow-isolation] state=watch unresolved fault inside an "
            "operation-switch window\n"
            "    event: mem_fault cycle=0 op=-2147483648 depth=0 arg0=0x20001000 arg1=0x4 "
            "arg2=0x1\n"
            "  violation 2: [shadow-isolation] state=watch write denied by the MPU/privilege "
            "rules\n"
            "    event: mem_fault cycle=0 op=-2147483648 depth=0 arg0=0x20001004 arg1=0x4 "
            "arg2=0x1\n");
  EXPECT_EQ(ReportAfter({}, {FnEnter(1, 1), FnEnter(2, 2), FnExit(7, 2), FnEnter(3, 1),
                             FnExit(3, 1)},
                        false),
            "RV report\n"
            "  switch-protocol: states=7 visited=1 steps=5 violations=0\n"
            "  shadow-isolation: states=1 visited=1 steps=5 violations=0\n"
            "  mpu-cache-coherence: states=1 visited=1 steps=5 violations=0\n"
            "  call-depth: states=1 visited=1 steps=5 violations=1\n"
            "  total violations: 1\n"
            "  violation 0: [call-depth] state=watch function exit does not pair with the "
            "innermost open function enter\n"
            "    event: function_exit cycle=0 op=-1 depth=2 arg0=0x7 arg1=0x0 arg2=0x0\n");
}

// Campaign aggregation labels ViolationsByMonitor() with these names, so
// they must follow the report's monitor order.
TEST(RvReportPins, StandardMonitorNamesFollowReportOrder) {
  EXPECT_EQ(StandardMonitorNames(),
            (std::vector<std::string>{"switch-protocol", "shadow-isolation",
                                      "mpu-cache-coherence", "call-depth"}));
}

// Only the first Finish checks: a second one after more events neither fires
// nor counts.
TEST(RvReportPins, FinishCountsOnce) {
  RvSink sink(RvEnv{});
  sink.OnEvent(FnEnter(1, 1));
  sink.Finish(false);
  sink.OnEvent(FnEnter(2, 1));
  sink.Finish(false);
  EXPECT_EQ(sink.Report(),
            "RV report\n"
            "  switch-protocol: states=7 visited=1 steps=2 violations=0\n"
            "  shadow-isolation: states=1 visited=1 steps=2 violations=0\n"
            "  mpu-cache-coherence: states=1 visited=1 steps=2 violations=0\n"
            "  call-depth: states=1 visited=1 steps=2 violations=1\n"
            "  total violations: 1\n"
            "  violation 0: [call-depth] state=watch 1 function frame(s) still open at clean "
            "end of run\n"
            "    event: function_enter cycle=0 op=-1 depth=0 arg0=0x0 arg1=0x0 arg2=0x0\n");
}

// --- End-to-end on the real workloads ------------------------------------

TEST(RvEndToEnd, CleanRunsHaveZeroViolationsOnBothEngines) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    for (opec_apps::BuildMode mode :
         {opec_apps::BuildMode::kVanilla, opec_apps::BuildMode::kOpec}) {
      for (opec_apps::EngineKind engine :
           {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
        opec_apps::AppRun run(*app, mode, engine);
        run.EnableRv();
        opec_rt::RunResult r = run.Execute();
        ASSERT_TRUE(r.ok) << factory.name << ": " << r.violation;
        EXPECT_EQ(run.rv()->total_violations(), 0u)
            << factory.name << " "
            << (mode == opec_apps::BuildMode::kOpec ? "opec" : "vanilla") << " "
            << opec_apps::EngineKindName(engine) << "\n"
            << run.rv()->Report();
        // OPEC runs actually exercise the protocol automaton.
        if (mode == opec_apps::BuildMode::kOpec) {
          EXPECT_GT(run.rv()->states_visited(),
                    static_cast<uint64_t>(StandardMonitorNames().size()))
              << factory.name;
        }
      }
    }
  }
}

TEST(RvEndToEnd, ReportIsByteIdenticalAcrossEngines) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    for (opec_apps::BuildMode mode :
         {opec_apps::BuildMode::kVanilla, opec_apps::BuildMode::kOpec}) {
      std::string reports[2];
      int i = 0;
      for (opec_apps::EngineKind engine :
           {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
        opec_apps::AppRun run(*app, mode, engine);
        run.EnableRv();
        ASSERT_TRUE(run.Execute().ok);
        reports[i++] = run.rv()->Report();
      }
      EXPECT_EQ(reports[0], reports[1]) << factory.name;
      EXPECT_EQ(reports[0].rfind("RV report", 0), 0u);
    }
  }
}

TEST(RvEndToEnd, BlockedCrossSectionWriteTripsShadowIsolation) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    opec_apps::AppRun run(*app, opec_apps::BuildMode::kOpec);
    const opec_compiler::Policy& policy = run.compile()->policy;
    const opec_compiler::OperationPolicy* attacker = nullptr;
    const opec_compiler::OperationPolicy* victim = nullptr;
    for (const auto& op : policy.operations) {
      if (op.id != policy.default_op_id && attacker == nullptr) {
        attacker = &op;
      } else if (op.has_section && attacker != nullptr && op.id != attacker->id) {
        victim = &op;
      }
    }
    if (attacker == nullptr || victim == nullptr) {
      continue;
    }
    opec_rt::AttackSpec attack;
    attack.function = attacker->entry;
    attack.addr = victim->section_base;
    attack.value = 0x41414141;
    run.AddAttack(attack);
    run.EnableRv();
    opec_rt::RunResult r = run.Execute();
    ASSERT_TRUE(r.ok) << factory.name << ": " << r.violation;
    const opec_rt::AttackSpec& echoed = run.engine().attacks()[0];
    if (!echoed.fired || !echoed.blocked) {
      continue;
    }
    std::vector<uint64_t> by = run.rv()->ViolationsByMonitor();
    EXPECT_GE(by[1], 1u) << factory.name << ": blocked attack tripped no monitor\n"
                         << run.rv()->Report();
    ASSERT_FALSE(run.rv()->details().empty()) << factory.name;
    const opec_rv::RvViolation& v = run.rv()->details()[0];
    EXPECT_EQ(v.automaton, "shadow-isolation");
    EXPECT_FALSE(v.recent.empty()) << "violation carries no event context";
  }
}

TEST(RvEndToEnd, ViolationDetailsCarryOffendingEventAndContext) {
  auto sink = SyntheticSink();
  for (int i = 0; i < 5; ++i) {
    sink->OnEvent(Ev(EventKind::kFunctionEnter, static_cast<uint32_t>(i), 0, 0, -1, i));
  }
  sink->OnEvent(Ev(EventKind::kMemFault, 0x20001000, 4, opec_obs::kFaultWrite));
  ASSERT_EQ(sink->details().size(), 1u);
  const opec_rv::RvViolation& v = sink->details()[0];
  EXPECT_EQ(v.event.kind, EventKind::kMemFault);
  EXPECT_EQ(v.recent.size(), 5u);
  EXPECT_NE(opec_rv::FormatEvent(v.event).find("mem_fault"), std::string::npos)
      << opec_rv::FormatEvent(v.event);
}

}  // namespace
