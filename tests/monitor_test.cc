// OPEC-Monitor runtime tests: shadow synchronization semantics (Figure 7),
// sanitization aborts, stack protection (Figure 8), MPU virtualization,
// core-peripheral emulation, and the switch plan (the relocation table each
// switch installs and the SRAM grant every switch requires).

#include <gtest/gtest.h>

#include "src/apps/all_apps.h"
#include "src/apps/pinlock.h"
#include "src/apps/runner.h"
#include "src/compiler/opec_compiler.h"
#include "src/hw/address_map.h"
#include "src/hw/devices/gpio.h"
#include "src/ir/builder.h"
#include "src/monitor/monitor.h"
#include "src/obs/event.h"
#include "src/rt/engine.h"
#include "src/support/text.h"

namespace opec_monitor {
namespace {

using opec_compiler::CompileOpec;
using opec_compiler::CompileResult;
using opec_compiler::PartitionConfig;
using opec_ir::FunctionBuilder;
using opec_ir::Module;
using opec_ir::Type;
using opec_ir::Val;

// Harness that compiles a module for OPEC and runs it under the monitor.
struct OpecHarness {
  explicit OpecHarness(opec_hw::Board board = opec_hw::Board::kStm32F4Discovery)
      : module("t"), machine(board) {}

  opec_rt::RunResult Compile(const PartitionConfig& config,
                             const opec_hw::SocDescription& soc_in = {}) {
    soc = soc_in;
    compile = std::make_unique<CompileResult>(
        CompileOpec(module, soc, config, machine.board().board));
    monitor = std::make_unique<Monitor>(machine, compile->policy, soc);
    opec_compiler::LoadGlobals(machine, module, compile->layout);
    engine = std::make_unique<opec_rt::ExecutionEngine>(machine, module, compile->layout,
                                                        monitor.get());
    return engine->Run("main");
  }

  uint32_t DebugRead32(uint32_t addr) {
    uint32_t v = 0;
    machine.bus().DebugRead(addr, 4, &v);
    return v;
  }

  Module module;
  opec_hw::Machine machine;
  opec_hw::SocDescription soc;
  std::unique_ptr<CompileResult> compile;
  std::unique_ptr<Monitor> monitor;
  std::unique_ptr<opec_rt::ExecutionEngine> engine;
};

// Figure 7 reproduction: nested operations share `y`; values must travel
// shadow -> public -> shadow across switches.
//   main: y=1; TaskB();   check y==7 afterwards
//   TaskB: seen_b = y (must be 1); y=5; TaskC(); after_c = y (must be 7)
//   TaskC: seen_c = y (must be 5); y=7
TEST(Monitor, ShadowSynchronizationAcrossNestedSwitches) {
  OpecHarness h;
  auto& tt = h.module.types();
  h.module.AddGlobal("y", tt.U32());
  h.module.AddGlobal("seen_b", tt.U32());   // internal to TaskB
  h.module.AddGlobal("seen_c", tt.U32());   // internal to TaskC
  h.module.AddGlobal("after_c", tt.U32());  // internal to TaskB

  {
    auto* fn = h.module.AddFunction("TaskC", tt.FunctionTy(tt.VoidTy(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.G("seen_c"), b.G("y"));
    b.Assign(b.G("y"), b.U32(7));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("TaskB", tt.FunctionTy(tt.VoidTy(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.G("seen_b"), b.G("y"));
    b.Assign(b.G("y"), b.U32(5));
    b.Call("TaskC");
    b.Assign(b.G("after_c"), b.G("y"));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.G("y"), b.U32(1));
    b.Call("TaskB");
    b.Ret(b.G("y"));
    b.Finish();
  }
  PartitionConfig config;
  config.entries.push_back({"TaskB", {}});
  config.entries.push_back({"TaskC", {}});
  opec_rt::RunResult r = h.Compile(config);
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.return_value, 7u) << "main must observe TaskC's final write";

  // Internal recorder variables live at fixed addresses; read them directly.
  EXPECT_EQ(h.DebugRead32(h.compile->layout.AddrOf(h.module.FindGlobal("seen_b"))), 1u);
  EXPECT_EQ(h.DebugRead32(h.compile->layout.AddrOf(h.module.FindGlobal("seen_c"))), 5u);
  EXPECT_EQ(h.DebugRead32(h.compile->layout.AddrOf(h.module.FindGlobal("after_c"))), 7u);
  EXPECT_GE(h.monitor->stats().operation_switches, 4u);
  EXPECT_GT(h.monitor->stats().synced_bytes, 0u);
}

TEST(Monitor, SanitizationAbortsOnOutOfRangeValue) {
  OpecHarness h;
  auto& tt = h.module.types();
  h.module.AddGlobal("speed", tt.U32());
  {
    auto* fn = h.module.AddFunction("TaskBad", tt.FunctionTy(tt.VoidTy(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.G("speed"), b.U32(9999));  // outside the developer range
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("TaskRead", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Ret(b.G("speed"));
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Call("TaskBad");
    b.Ret(b.CallV("TaskRead"));
    b.Finish();
  }
  PartitionConfig config;
  config.entries.push_back({"TaskBad", {}});
  config.entries.push_back({"TaskRead", {}});
  config.sanitize.push_back({"speed", 0, 100});
  opec_rt::RunResult r = h.Compile(config);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("sanitization"), std::string::npos) << r.violation;
  EXPECT_NE(h.monitor->last_violation().find("speed"), std::string::npos);
  // The corrupted value must NOT have propagated to the public copy.
  uint32_t public_addr = h.compile->layout.AddrOf(h.module.FindGlobal("speed"));
  EXPECT_NE(h.DebugRead32(public_addr), 9999u);
}

TEST(Monitor, InRangeValuesPassSanitization) {
  OpecHarness h;
  auto& tt = h.module.types();
  h.module.AddGlobal("speed", tt.U32());
  {
    auto* fn = h.module.AddFunction("TaskOk", tt.FunctionTy(tt.VoidTy(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.G("speed"), b.U32(55));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Call("TaskOk");
    b.Ret(b.G("speed"));
    b.Finish();
  }
  PartitionConfig config;
  config.entries.push_back({"TaskOk", {}});
  config.sanitize.push_back({"speed", 0, 100});
  opec_rt::RunResult r = h.Compile(config);
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.return_value, 55u);
  EXPECT_GT(h.monitor->stats().sanitization_checks, 0u);
}

// Figure 8 reproduction: a pointer argument into the caller's stack is
// relocated onto the callee operation's stack portion and copied back.
TEST(Monitor, StackArgumentRelocationAndCopyBack) {
  OpecHarness h;
  auto& tt = h.module.types();
  const Type* p_u8 = tt.PointerTo(tt.U8());
  {
    auto* fn = h.module.AddFunction("Fill", tt.FunctionTy(tt.VoidTy(), {p_u8, tt.U32()}),
                                    {"buf", "n"});
    FunctionBuilder b(h.module, fn);
    Val i = b.Local("i", tt.U32());
    b.Assign(i, b.U32(0));
    b.While(i < b.L("n"));
    {
      b.Assign(b.Idx(b.L("buf"), i), b.U8('B'));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    Val buf = b.Local("buf", tt.ArrayOf(tt.U8(), 16));
    Val i = b.Local("i", tt.U32());
    b.Assign(i, b.U32(0));
    b.While(i < b.U32(16));
    {
      b.Assign(b.Idx(buf, i), b.U8('A'));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.Call("Fill", {b.Addr(b.Idx(buf, 0u)), b.U32(16)});
    // After copy-back, main's buffer must hold 'B's.
    b.Ret(b.CastTo(tt.U32(), b.Idx(buf, 0u)) * b.U32(256) +
          b.CastTo(tt.U32(), b.Idx(buf, 15u)));
    b.Finish();
  }
  PartitionConfig config;
  config.entries.push_back({"Fill", {{0, 16}}});
  opec_rt::RunResult r = h.Compile(config);
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.return_value, uint32_t('B') * 256 + 'B');
  EXPECT_EQ(h.monitor->stats().relocated_stack_bytes, 16u);
}

// An operation must not be able to write the previous operation's stack
// portion (the disabled sub-regions).
TEST(Monitor, WriteToPreviousStackSubRegionIsBlocked) {
  OpecHarness h;
  auto& tt = h.module.types();
  {
    auto* fn = h.module.AddFunction("Task", tt.FunctionTy(tt.VoidTy(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    Val sentinel = b.Local("sentinel", tt.U32());
    b.Assign(sentinel, b.U32(0x5AFE5AFE));
    b.Call("Task");
    b.Ret(sentinel);
    b.Finish();
  }
  PartitionConfig config;
  config.entries.push_back({"Task", {}});
  // The attack fires inside Task and targets main's frame (near stack top).
  // Build first to learn the stack layout, then attack.
  OpecHarness probe;
  // (compile once on h below; attack uses the policy's stack top)
  opec_rt::RunResult dry = h.Compile(config);
  ASSERT_TRUE(dry.ok) << dry.violation;
  uint32_t target = h.compile->policy.stack.top - 16;  // inside main's sub-region

  // Fresh run with the attack injected.
  OpecHarness h2;
  auto& tt2 = h2.module.types();
  {
    auto* fn = h2.module.AddFunction("Task", tt2.FunctionTy(tt2.VoidTy(), {}), {});
    FunctionBuilder b(h2.module, fn);
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h2.module.AddFunction("main", tt2.FunctionTy(tt2.U32(), {}), {});
    FunctionBuilder b(h2.module, fn);
    Val sentinel = b.Local("sentinel", tt2.U32());
    b.Assign(sentinel, b.U32(0x5AFE5AFE));
    b.Call("Task");
    b.Ret(sentinel);
    b.Finish();
  }
  h2.compile = std::make_unique<CompileResult>(
      CompileOpec(h2.module, h2.soc, config, h2.machine.board().board));
  h2.monitor = std::make_unique<Monitor>(h2.machine, h2.compile->policy, h2.soc);
  opec_compiler::LoadGlobals(h2.machine, h2.module, h2.compile->layout);
  h2.engine = std::make_unique<opec_rt::ExecutionEngine>(h2.machine, h2.module,
                                                         h2.compile->layout, h2.monitor.get());
  opec_rt::AttackSpec attack;
  attack.function = "Task";
  attack.addr = target;
  attack.value = 0xBADBAD;
  h2.engine->AddAttack(attack);
  opec_rt::RunResult r = h2.engine->Run("main");
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(h2.engine->attacks()[0].fired);
  EXPECT_TRUE(h2.engine->attacks()[0].blocked);
  EXPECT_EQ(r.return_value, 0x5AFE5AFEu) << "main's stack frame was corrupted";
}

TEST(Monitor, PeripheralVirtualizationRoundRobin) {
  OpecHarness h;
  auto& tt = h.module.types();
  std::vector<uint32_t> bases = {0x40000000, 0x40002000, 0x40004000,
                                 0x40006000, 0x40008000, 0x4000A000};
  std::vector<std::unique_ptr<opec_hw::Gpio>> devices;
  for (size_t i = 0; i < bases.size(); ++i) {
    devices.push_back(std::make_unique<opec_hw::Gpio>("P" + std::to_string(i), bases[i]));
    h.machine.bus().AttachDevice(devices.back().get());
  }
  {
    auto* fn = h.module.AddFunction("Task", tt.FunctionTy(tt.VoidTy(), {}), {});
    FunctionBuilder b(h.module, fn);
    // Touch all six peripherals twice (exceeds the four reserved regions).
    for (int round = 0; round < 2; ++round) {
      for (uint32_t base : bases) {
        b.Assign(b.Mmio32(base + 0x14), b.U32(static_cast<uint32_t>(round + 1)));
      }
    }
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Call("Task");
    b.Ret(b.U32(0));
    b.Finish();
  }
  opec_hw::SocDescription soc = opec_hw::SocDescription::WithCorePeripherals();
  for (size_t i = 0; i < bases.size(); ++i) {
    soc.AddPeripheral({"P" + std::to_string(i), bases[i], 0x400, false});
  }
  PartitionConfig config;
  config.entries.push_back({"Task", {}});
  opec_rt::RunResult r = h.Compile(config, soc);
  ASSERT_TRUE(r.ok) << r.violation;
  // The demand-mapper had to swap regions in.
  EXPECT_GT(h.monitor->stats().virtualization_faults, 0u);
  // All writes landed.
  for (const auto& d : devices) {
    EXPECT_EQ(d->output(), 2u) << d->name();
  }
}

TEST(Monitor, AccessToUnlistedPeripheralIsDenied) {
  OpecHarness h;
  auto& tt = h.module.types();
  opec_hw::Gpio allowed("ALLOWED", 0x40000000);
  opec_hw::Gpio forbidden("FORBIDDEN", 0x40002000);
  h.machine.bus().AttachDevice(&allowed);
  h.machine.bus().AttachDevice(&forbidden);
  {
    auto* fn = h.module.AddFunction("Task", tt.FunctionTy(tt.VoidTy(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.Mmio32(0x40000014), b.U32(1));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Call("Task");
    b.Ret(b.U32(0));
    b.Finish();
  }
  opec_hw::SocDescription soc;
  soc.AddPeripheral({"ALLOWED", 0x40000000, 0x400, false});
  soc.AddPeripheral({"FORBIDDEN", 0x40002000, 0x400, false});
  PartitionConfig config;
  config.entries.push_back({"Task", {}});
  // Attack: from inside Task, write the forbidden peripheral.
  h.compile = std::make_unique<CompileResult>(
      CompileOpec(h.module, soc, config, h.machine.board().board));
  h.monitor = std::make_unique<Monitor>(h.machine, h.compile->policy, soc);
  opec_compiler::LoadGlobals(h.machine, h.module, h.compile->layout);
  h.engine = std::make_unique<opec_rt::ExecutionEngine>(h.machine, h.module, h.compile->layout,
                                                        h.monitor.get());
  opec_rt::AttackSpec attack;
  attack.function = "Task";
  attack.addr = 0x40002014;
  attack.value = 0xFF;
  h.engine->AddAttack(attack);
  opec_rt::RunResult r = h.engine->Run("main");
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(h.engine->attacks()[0].blocked);
  EXPECT_EQ(forbidden.output(), 0u);
  EXPECT_EQ(allowed.output(), 1u);
}

TEST(Monitor, CorePeripheralLoadIsEmulated) {
  OpecHarness h;
  auto& tt = h.module.types();
  h.module.AddGlobal("cycles_lo", tt.U32());
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.G("cycles_lo"), b.Mmio32(opec_hw::kDwtCyccnt));
    b.Ret(b.G("cycles_lo") > b.U32(0));
    b.Finish();
  }
  PartitionConfig config;  // only the default main operation
  opec_rt::RunResult r =
      h.Compile(config, opec_hw::SocDescription::WithCorePeripherals());
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.return_value, 1u);
  EXPECT_GT(h.monitor->stats().emulated_core_accesses, 0u);
}

TEST(Monitor, PointerFieldsAreRedirectedAcrossSwitches) {
  // A shared handle holds a pointer to a shared buffer. TaskW writes through
  // the handle, TaskR reads through it; the monitor must repoint the pointer
  // field to each operation's own shadow of the buffer.
  OpecHarness h;
  auto& tt = h.module.types();
  const Type* p_u8 = tt.PointerTo(tt.U8());
  const Type* handle_ty = tt.StructTy("H", {{"buf", p_u8, 0}, {"len", tt.U32(), 0}});
  h.module.AddGlobal("handle", handle_ty);
  h.module.AddGlobal("buffer", tt.ArrayOf(tt.U8(), 8));
  {
    auto* fn = h.module.AddFunction("TaskW", tt.FunctionTy(tt.VoidTy(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.Idx(b.Fld(b.G("handle"), "buf"), 0u), b.U8(0x42));
    b.Assign(b.Fld(b.G("handle"), "len"), b.U32(1));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("TaskR", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Ret(b.CastTo(tt.U32(), b.Idx(b.Fld(b.G("handle"), "buf"), 0u)));
    b.Finish();
  }
  {
    auto* fn = h.module.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    FunctionBuilder b(h.module, fn);
    b.Assign(b.Fld(b.G("handle"), "buf"), b.Addr(b.Idx(b.G("buffer"), 0u)));
    b.Call("TaskW");
    b.Ret(b.CallV("TaskR"));
    b.Finish();
  }
  PartitionConfig config;
  config.entries.push_back({"TaskW", {}});
  config.entries.push_back({"TaskR", {}});
  opec_rt::RunResult r = h.Compile(config);
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.return_value, 0x42u);
  EXPECT_GT(h.monitor->stats().pointer_redirections, 0u);
}

// A count read from a monitor snapshot section sizes nothing up front:
// claims of 2^40 and 2^62 contexts, or of relocations within one context,
// are the same CheckError as a truncated payload.
TEST(Monitor, HugeClaimedCountsAreCheckErrors) {
  opec_support::ScopedCheckThrow guard;
  opec_hw::Machine machine(opec_hw::Board::kStm32F4Discovery);
  opec_compiler::Policy policy;
  opec_hw::SocDescription soc;
  Monitor monitor(machine, policy, soc);
  for (uint64_t claim : {1ull << 40, 1ull << 62}) {
    opec_hw::StateWriter contexts;
    contexts.U64(claim);
    opec_hw::StateReader r1(contexts.data());
    EXPECT_THROW(monitor.LoadState(r1), opec_support::CheckError) << claim;

    opec_hw::StateWriter relocs;
    relocs.U64(1);  // one context
    relocs.U32(1);  // entered operation
    relocs.U32(0);  // previous operation
    relocs.U32(0);  // saved SP
    relocs.U8(0);   // saved SRD
    for (int i = 0; i < 5; ++i) {  // saved peripheral and section regions
      relocs.Bool(false);
      relocs.U32(0);
      relocs.U8(0);
      relocs.U8(0);
      relocs.U8(0);
      relocs.Bool(false);
    }
    relocs.U32(0);      // saved round-robin cursor
    relocs.U64(claim);  // argument relocations
    opec_hw::StateReader r2(relocs.data());
    EXPECT_THROW(monitor.LoadState(r2), opec_support::CheckError) << claim;
  }
}

// --- Switch plans ---

// Checks the relocation table at every operation switch the engine reports.
// Each entry must point where the policy's shadow placement says the
// now-current operation sees the variable: its own shadow, else the public
// copy. The table is read straight from memory and the targets are derived
// from OperationPolicy::shadows, independently of the precomputed plan.
class RelocTableChecker : public opec_obs::Sink {
 public:
  RelocTableChecker(opec_hw::Bus& bus, const opec_compiler::Policy& policy)
      : bus_(bus), policy_(policy) {}

  void OnEvent(const opec_obs::Event& e) override {
    // kOperationEnter carries the entered operation, kOperationExit the one
    // returned to; -1 is the engine's name for the default operation.
    int op = 0;
    if (e.kind == opec_obs::EventKind::kOperationEnter) {
      op = static_cast<int>(e.arg0);
    } else if (e.kind == opec_obs::EventKind::kOperationExit) {
      op = static_cast<int>(e.arg1);
    } else {
      return;
    }
    Check(op < 0 ? policy_.default_op_id : op);
  }

  void Check(int op_id) {
    ++checks_;
    const opec_compiler::OperationPolicy& op = policy_.operations.at(static_cast<size_t>(op_id));
    for (size_t i = 0; i < policy_.externals.size(); ++i) {
      const opec_compiler::ExternalVar& ev = policy_.externals[i];
      uint32_t want = ev.public_addr;
      for (const opec_compiler::ShadowPlacement& sp : op.shadows) {
        if (static_cast<size_t>(sp.var_index) == i) {
          want = sp.addr;
        }
      }
      uint32_t got = 0;
      if (!bus_.DebugRead(ev.reloc_entry_addr, 4, &got) || got != want) {
        if (mismatches_.size() < 4) {
          mismatches_.push_back(opec_support::StrPrintf(
              "check %llu, %s: entry %zu (%s) holds %s, want %s",
              static_cast<unsigned long long>(checks_), op.name.c_str(), i,
              ev.gv->name().c_str(), opec_support::HexAddr(got).c_str(),
              opec_support::HexAddr(want).c_str()));
        }
      }
    }
  }

  uint64_t checks() const { return checks_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  opec_hw::Bus& bus_;
  const opec_compiler::Policy& policy_;
  uint64_t checks_ = 0;
  std::vector<std::string> mismatches_;
};

TEST(SwitchPlan, RelocTableMatchesPolicyAtEverySwitch) {
  std::vector<opec_apps::AppFactory> apps = opec_apps::AllApps();
  for (const opec_apps::AppFactory& f : opec_apps::TrafficApps()) {
    apps.push_back(f);
  }
  for (const opec_apps::AppFactory& factory : apps) {
    for (opec_apps::EngineKind engine :
         {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
      std::unique_ptr<opec_apps::Application> app = factory.make();
      std::string label = factory.name + "/" + opec_apps::EngineKindName(engine);
      opec_apps::AppRun run(*app, opec_apps::BuildMode::kOpec, engine);
      RelocTableChecker checker(run.machine().bus(), run.compile()->policy);
      run.AttachSink(&checker);
      opec_rt::RunResult r = run.Execute();
      ASSERT_TRUE(r.ok) << label << ": " << r.violation;
      EXPECT_EQ(run.Check(), "") << label;
      EXPECT_GT(checker.checks(), 0u) << label;
      EXPECT_EQ(checker.checks(), run.monitor()->stats().operation_switches) << label;
      for (const std::string& m : checker.mismatches()) {
        ADD_FAILURE() << label << ": " << m;
      }
    }
  }
}

// The SRAM grant is a precondition of every switch. This supervisor stands
// in for the run's monitor and forwards every hook to it, but before the
// first entry it installs a privileged-read-only region over the public copy
// of the variable main shadows, which denies the grant: the entry stops at
// the grant check. A monitor that copied without checking the grant would
// write past the MPU and run on instead.
class DenyPublicCopyOnFirstEntry : public opec_rt::Supervisor {
 public:
  DenyPublicCopyOnFirstEntry(opec_apps::AppRun& run, uint32_t public_addr)
      : run_(run), monitor_(*run.monitor()), public_addr_(public_addr) {
    run.engine().set_supervisor(this);
  }

  void OnProgramStart(opec_rt::Engine* engine) override {
    monitor_.OnProgramStart(engine);
  }
  void OnProgramEnd() override { monitor_.OnProgramEnd(); }
  bool OnOperationEnter(int op_id, std::vector<uint32_t>& args) override {
    if (++entries_ == 1) {
      opec_hw::MpuRegionConfig deny;
      deny.enabled = true;
      deny.base = public_addr_ & ~31u;
      deny.size_log2 = 5;
      deny.ap = opec_hw::AccessPerm::kPrivRo;
      run_.machine().mpu().ConfigureRegion(7, deny);
    }
    return monitor_.OnOperationEnter(op_id, args);
  }
  bool OnOperationExit(int op_id) override { return monitor_.OnOperationExit(op_id); }
  bool OnMemFault(uint32_t addr, opec_hw::AccessKind kind) override {
    return monitor_.OnMemFault(addr, kind);
  }
  bool OnBusFault(uint32_t addr, uint32_t size, opec_hw::AccessKind kind, uint32_t write_value,
                  uint32_t* read_value) override {
    return monitor_.OnBusFault(addr, size, kind, write_value, read_value);
  }

 private:
  opec_apps::AppRun& run_;
  Monitor& monitor_;
  uint32_t public_addr_;
  int entries_ = 0;
};

TEST(SwitchPlan, SwitchWithoutTheSramGrantIsACheckError) {
  const opec_apps::PinLockApp app;
  for (opec_apps::EngineKind engine :
       {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
    const char* label = opec_apps::EngineKindName(engine);
    opec_apps::AppRun run(app, opec_apps::BuildMode::kOpec, engine);
    const opec_compiler::Policy& policy = run.compile()->policy;
    const opec_compiler::OperationPolicy& main_op =
        policy.operations[static_cast<size_t>(policy.default_op_id)];
    ASSERT_FALSE(main_op.shadows.empty());
    const opec_compiler::ShadowPlacement& sp = main_op.shadows[0];
    uint32_t public_addr = policy.externals[static_cast<size_t>(sp.var_index)].public_addr;
    DenyPublicCopyOnFirstEntry deny(run, public_addr);
    opec_support::ScopedCheckThrow guard;
    try {
      run.Execute();
      ADD_FAILURE() << label << ": the switch ran without its SRAM grant";
    } catch (const opec_support::CheckError& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("monitor switch without its SRAM grant"), std::string::npos)
          << label << ": " << what;
    }
  }
}

}  // namespace
}  // namespace opec_monitor
