// Engine: runs guest IR on the machine model.
//
// Two execution tiers implement the same contract:
//   * ExecutionEngine — the tree-walking interpreter over the IR AST. This is
//     the reference semantics: every modeled cycle, statement count and obs
//     event is defined by what this engine does.
//   * bytecode::VM (src/rt/bytecode) — a register-based bytecode tier lowered
//     from the same IR, required to be bit-identical to the interpreter in
//     modeled cycles, statements, obs events, fault reports and results. The
//     interpreter stays as the differential oracle for it.
//
// The call protocol is written once, here in Engine, and both tiers call it:
// Run drives a run, BeginCall/EndCall wrap a call site (the call charge, the
// operation switch's SVC before and after the call, the supervisor's hooks),
// and PushFrame/SpillParams/PopFrame build and tear down the callee's frame.
// The interpreter nests those calls in its host recursion; the VM keeps them
// on an explicit frame stack and pops what is left in Unwind after an abort.
//
// Fidelity properties that matter for OPEC (both tiers):
//   * Local variables live in frames on the emulated stack in guest SRAM; the
//     frame layout is deterministic, so the monitor's stack sub-region
//     protection and argument relocation act on real addresses.
//   * Every load and store — locals, globals, MMIO — goes through the bus and
//     therefore through the MPU at the machine's current privilege level.
//   * MemManage/BusFaults are delivered to the installed Supervisor, which
//     may resolve them (MPU virtualization, core-peripheral emulation); an
//     unresolved fault aborts the run with a diagnosis.
//   * Operation-entry call sites marked by OPEC-Compiler instrumentation
//     raise the SVC-based operation switch around the call.
//   * A calibrated cycle-cost model charges each construct, and devices add
//     transfer latencies, which is what the DWT cycle counter reads.

#ifndef SRC_RT_ENGINE_H_
#define SRC_RT_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/ir/module.h"
#include "src/obs/event.h"
#include "src/obs/forensics.h"
#include "src/rt/address_assignment.h"
#include "src/rt/supervisor.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_rt {

// An injected exploit: when `fn` is entered for the `occurrence`-th time
// (1-based), perform an arbitrary unprivileged write — the paper's threat
// model primitive (Section 3.3). If the MPU/privilege rules block the write,
// `blocked` is set and the write is discarded.
struct AttackSpec {
  std::string function;
  int occurrence = 1;
  uint32_t addr = 0;
  uint32_t value = 0;
  uint32_t size = 4;
  // When set, the write is `old ^ value` instead of `value`: `value` acts as
  // a bit-flip mask over the current memory contents (campaign fault mode).
  bool xor_with_old = false;
  // Outputs:
  bool fired = false;
  bool blocked = false;
};

// An injected malformed operation-switch argument: on the `occurrence`-th
// entry (1-based) into operation `op_id`, argument `arg_index` of the entry
// call is replaced with `value` *before* the SVC is raised — modeling an
// attacker (or corrupted caller state) handing the monitor a forged pointer
// or out-of-range scalar. The monitor's argument relocation / validation is
// what stands between this and a cross-operation write.
struct ArgAttackSpec {
  int op_id = -1;
  int occurrence = 1;
  size_t arg_index = 0;
  uint32_t value = 0;
  // Output:
  bool fired = false;
};

struct RunResult {
  bool ok = false;
  std::string violation;        // diagnosis when !ok
  uint32_t return_value = 0;    // entry function's return value
  uint64_t cycles = 0;          // machine cycles consumed by the run
  uint64_t statements = 0;      // interpreter statements executed
};

// Per-construct cycle costs (calibrated to Thumb-2 orders of magnitude).
struct CostModel {
  uint64_t op = 1;            // ALU op / operand fetch
  uint64_t memory = 2;        // load/store
  uint64_t branch = 2;        // taken branch
  uint64_t call = 6;          // call + prologue
  uint64_t ret = 4;           // epilogue + return
  uint64_t svc = 40;          // exception entry + exit for one SVC
};

// Internal unwinding for guest failures (faults, supervisor aborts, limits).
// Shared between the execution tiers so the common memory/call helpers can
// throw it from either.
struct ExecutionAborted {
  std::string reason;
};

// The common engine contract and all state shared between execution tiers.
// Everything observable across a run — attack bookkeeping, entry counters,
// cost model, fault reports, the serialized snapshot payload — lives here so
// the tiers cannot drift apart on it.
class Engine {
 public:
  Engine(opec_hw::Machine& machine, const opec_ir::Module& module,
         const AddressAssignment& layout, Supervisor* supervisor);
  virtual ~Engine() = default;

  // Optional instrumentation. Function-level tracing is event-based: attach
  // an ExecutionTrace (or any obs sink) to the opec_obs::Hub around Run().
  void AddAttack(const AttackSpec& attack) { attacks_.push_back(attack); }
  const std::vector<AttackSpec>& attacks() const { return attacks_; }
  void AddArgAttack(const ArgAttackSpec& attack) { arg_attacks_.push_back(attack); }
  const std::vector<ArgAttackSpec>& arg_attacks() const { return arg_attacks_; }
  void set_statement_limit(uint64_t limit) { statement_limit_ = limit; }
  // Wall-clock deadline (a campaign job's timeout): a run still going past
  // it aborts within a bounded number of statements. Both tiers read the
  // clock once every 8192 statements.
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();
  void set_deadline(Clock::time_point deadline) { deadline_ = deadline; }
  // Replaces the supervisor (not owned). Lets a decorator interpose on the
  // SVC hooks — the snapshot round-trip probe wraps the monitor this way.
  void set_supervisor(Supervisor* supervisor) { supervisor_ = supervisor; }
  Supervisor* supervisor() const { return supervisor_; }
  // When enabled, every FaultReport captured during Run() carries the full
  // serialized machine state at the instant of the fault (see
  // opec_obs::FaultReport::machine_state). Off by default: the blob is
  // machine-memory-sized.
  void set_fault_state_capture(bool on) { fault_state_capture_ = on; }

  // Runs `entry` (default "main") to completion. Never throws; failures are
  // reported in the result.
  RunResult Run(const std::string& entry = "main", const std::vector<uint32_t>& args = {});

  // The stack pointer (the supervisor relocates entry arguments through it)
  // and the address assignment in effect.
  uint32_t sp() const { return sp_; }
  void set_sp(uint32_t sp) { sp_ = sp; }
  const AddressAssignment& layout() const { return layout_; }

  // Pseudo code addresses for functions (for function pointers / icalls).
  uint32_t FuncAddr(const opec_ir::Function* fn) const;
  const opec_ir::Function* FuncAt(uint32_t addr) const;

  // The operation id the engine is currently executing in (-1 = default /
  // vanilla). Maintained around operation-entry calls; used by the tracer.
  int current_operation() const { return current_operation_; }

  // Fault forensics captured during the last Run(): one report per denied
  // access — blocked attack writes (the run continues) and the unresolved
  // fault that aborted the run (always last, when the run failed).
  const std::vector<opec_obs::FaultReport>& fault_reports() const { return fault_reports_; }

  // Snapshot support (DESIGN.md §13): the engine's machine-visible register
  // state — stack pointer, call depth, active operation, statement count and
  // the per-function/per-operation entry counters. The host-recursive
  // interpreter call stack is NOT serializable, so Save/LoadState are only
  // meaningful at quiescent points: before Run(), after Run() returns, or
  // in-place at an SVC boundary where the state is restored into the same
  // engine whose host recursion is still live (the snapshot probe's
  // capture→restore→resume oracle). Non-virtual on purpose: both tiers
  // serialize the identical shared fields, so snapshot payloads (and their
  // digests) cannot differ between tiers.
  void SaveState(opec_hw::StateWriter& w) const;
  void LoadState(opec_hw::StateReader& r);

  struct FrameLayout {
    std::vector<uint32_t> offsets;  // per local slot, from frame base
    uint32_t size = 0;              // total frame bytes (8-aligned)
  };

  // Lowering-time introspection (src/rt/bytecode): the deterministic frame
  // layouts, module and global placement both tiers agree on. The bytecode
  // lowerer bakes these into instructions; the interpreter reads them live.
  const opec_ir::Module& module() const { return module_; }
  const std::vector<FrameLayout>& frame_layouts() const { return frame_layouts_; }
  // Guest address of a global, 0 when unassigned (the engines abort only when
  // an unassigned global's address is actually needed at execution time).
  uint32_t GlobalAddrOf(const opec_ir::GlobalVariable* gv) const;

 protected:
  // One active call as PushFrame leaves it: where the callee's locals live
  // and everything PopFrame hands back to the caller.
  struct Frame {
    const opec_ir::Function* fn = nullptr;
    const FrameLayout* layout = nullptr;  // fn's, looked up once per call
    uint32_t base = 0;                    // lowest address of the frame
    uint32_t saved_sp = 0;
    const opec_ir::Function* saved_fn = nullptr;
    int caller_operation = -1;
  };

  // Runs `entry` to its return on this tier; throws ExecutionAborted when the
  // guest fails. Run has already reset the per-run state.
  virtual uint32_t Execute(const opec_ir::Function* entry, const std::vector<uint32_t>& args) = 0;
  // Called by Run after an abort to pop the frames the tier still holds. The
  // interpreter's host recursion has popped its own on the way out.
  virtual void Unwind() {}

  // The caller side of a call site (paper §5.3): the call charge, then for an
  // operation entry the argument attacks, the SVC before the call and the
  // monitor's entry switch, or for a plain call the supervisor's call hook.
  // May rewrite `args` (relocated pointers, forged values). Returns the
  // operation the call enters, -1 for a plain call.
  int BeginCall(const opec_ir::Function* fn, std::vector<uint32_t>& args,
                int operation_entry_id);
  // The return side, after PopFrame: the SVC after the call and the
  // monitor's exit switch (with sanitization) for an operation entry, the
  // supervisor's return hook for a plain call.
  void EndCall(const opec_ir::Function* fn, int op_id);
  // Pushes `fn`'s frame below the stack pointer, enters it and fires the
  // attacks armed for it. A rejected call (depth limit, stack overflow)
  // throws with nothing pushed and the operation handed back to the caller.
  Frame PushFrame(const opec_ir::Function* fn, size_t nargs, int caller_operation);
  // Stores the parameters into their stack slots through the checked bus: a
  // disabled stack sub-region faults here, which is the stack protection.
  void SpillParams(const Frame& frame, const uint32_t* args, size_t nargs);
  // Leaves `frame`, on a return or while unwinding an abort: the exit event,
  // then the caller's function, depth, stack pointer and operation.
  void PopFrame(const Frame& frame);

  uint32_t MemRead(uint32_t addr, uint32_t size);
  void MemWrite(uint32_t addr, uint32_t size, uint32_t value);

  uint32_t Truncate(const opec_ir::Type* type, uint32_t value) const;

  void MaybeFireAttacks(const opec_ir::Function* fn);
  void Charge(uint64_t cycles) { machine_.AddCycles(cycles); }

  // Resets all per-run state so a second Run() on the same engine starts
  // clean: attack occurrence counts and the fired/blocked outputs of a
  // previous run must not leak into this one.
  void ResetRunState();

  // Captures a forensic report for a denied access (MPU/bus decision, active
  // operation and function, MPU region dump) and appends it to
  // fault_reports_; returns the stored report.
  const opec_obs::FaultReport& CaptureFault(uint32_t addr, uint32_t size,
                                            opec_hw::AccessKind kind,
                                            opec_hw::AccessStatus status, bool attack);

  opec_hw::Machine& machine_;
  const opec_ir::Module& module_;
  const AddressAssignment& layout_;
  Supervisor* supervisor_;

  // Dense per-function state, indexed by Function::ordinal(). Precomputed at
  // construction; the hot paths never touch a map. Function code addresses
  // are arithmetic on the ordinal (kFuncAddrBase + ordinal * kFuncAddrStride),
  // so FuncAddr/FuncAt are O(1) both ways.
  std::vector<FrameLayout> frame_layouts_;
  std::vector<int> entry_counts_;
  // Guest address per global ordinal (0 = unassigned), mirroring layout_.
  std::vector<uint32_t> global_addrs_;
  std::vector<AttackSpec> attacks_;
  std::vector<ArgAttackSpec> arg_attacks_;
  // Entries observed per operation id during the current run; drives
  // ArgAttackSpec occurrence matching. Sparse (few ops per app), reset by
  // Run().
  std::map<int, int> arg_entry_counts_;

  uint32_t sp_ = 0;
  int depth_ = 0;
  int current_operation_ = -1;
  const opec_ir::Function* current_fn_ = nullptr;  // innermost active function
  uint64_t statements_ = 0;
  uint64_t statement_limit_ = 200'000'000;
  Clock::time_point deadline_ = kNoDeadline;
  CostModel costs_;
  bool fault_state_capture_ = false;
  std::vector<opec_obs::FaultReport> fault_reports_;

  static constexpr int kMaxDepth = 256;
  static constexpr uint32_t kFuncAddrStride = 0x40;
};

// The tree-walking interpreter tier — the reference semantics.
class ExecutionEngine : public Engine {
 public:
  ExecutionEngine(opec_hw::Machine& machine, const opec_ir::Module& module,
                  const AddressAssignment& layout, Supervisor* supervisor = nullptr);

 private:
  // Control-flow signal from statement execution.
  enum class Flow { kNext, kBreak, kContinue, kReturn };

  uint32_t GlobalAddr(const opec_ir::Expr& e) const;

  uint32_t Eval(const opec_ir::Expr& e, const Frame& frame);
  // Flattened Eval for operand position: handles the two dominant operand
  // shapes (integer constant, scalar local) without re-entering the full
  // dispatch switch, with accounting identical to Eval's.
  uint32_t EvalOperand(const opec_ir::Expr& e, const Frame& frame);
  uint32_t EvalAddr(const opec_ir::Expr& e, const Frame& frame);
  uint32_t EvalBinary(const opec_ir::Expr& e, const Frame& frame);

  uint32_t Execute(const opec_ir::Function* entry, const std::vector<uint32_t>& args) override;
  uint32_t CallFunction(const opec_ir::Function* fn, std::vector<uint32_t> args,
                        int operation_entry_id);
  uint32_t DoCall(const opec_ir::Function* fn, const std::vector<uint32_t>& args,
                  int caller_operation);

  Flow ExecBlock(const std::vector<opec_ir::StmtPtr>& body, const Frame& frame,
                 uint32_t* ret_value);
  Flow ExecStmt(const opec_ir::Stmt& s, const Frame& frame, uint32_t* ret_value);
};

// The call protocol is defined here so both tiers' call paths inline it.

inline int Engine::BeginCall(const opec_ir::Function* fn, std::vector<uint32_t>& args,
                             int operation_entry_id) {
  Charge(costs_.call + costs_.op * args.size());
  if (supervisor_ == nullptr) {
    return -1;
  }
  if (operation_entry_id < 0) {
    if (!supervisor_->OnFunctionCall(fn)) {
      throw ExecutionAborted{"supervisor rejected call to " + fn->name()};
    }
    return -1;
  }
  // Injected malformed-argument attacks corrupt the entry call's argument
  // list before the SVC is raised, so the monitor sees the forged value —
  // its relocation/validation of entry arguments is what is under test.
  if (!arg_attacks_.empty()) {
    int count = ++arg_entry_counts_[operation_entry_id];
    for (ArgAttackSpec& a : arg_attacks_) {
      if (a.fired || a.op_id != operation_entry_id || a.occurrence != count ||
          a.arg_index >= args.size()) {
        continue;
      }
      a.fired = true;
      args[a.arg_index] = a.value;
    }
  }
  int caller_operation = current_operation_;
  Charge(costs_.svc);  // SVC before the call site
  OPEC_OBS_EVENT(opec_obs::EventKind::kSvc, machine_.cycles(), caller_operation, depth_,
                 static_cast<uint32_t>(operation_entry_id), 0);
  if (!supervisor_->OnOperationEnter(operation_entry_id, args)) {
    throw ExecutionAborted{opec_support::StrPrintf(
        "monitor rejected entry into operation %d (%s)", operation_entry_id, fn->name().c_str())};
  }
  current_operation_ = operation_entry_id;
  OPEC_OBS_EVENT(opec_obs::EventKind::kOperationEnter, machine_.cycles(), current_operation_,
                 depth_, static_cast<uint32_t>(operation_entry_id),
                 static_cast<uint32_t>(caller_operation));
  return operation_entry_id;
}

inline void Engine::EndCall(const opec_ir::Function* fn, int op_id) {
  if (op_id < 0) {
    if (supervisor_ != nullptr && !supervisor_->OnFunctionReturn(fn)) {
      throw ExecutionAborted{"supervisor rejected return from " + fn->name()};
    }
    return;
  }
  Charge(costs_.svc);  // SVC after the call site
  OPEC_OBS_EVENT(opec_obs::EventKind::kSvc, machine_.cycles(), op_id, depth_,
                 static_cast<uint32_t>(op_id), 1);
  if (!supervisor_->OnOperationExit(op_id)) {
    throw ExecutionAborted{opec_support::StrPrintf(
        "monitor aborted at exit of operation %d (%s) — data sanitization failed", op_id,
        fn->name().c_str())};
  }
  OPEC_OBS_EVENT(opec_obs::EventKind::kOperationExit, machine_.cycles(), current_operation_,
                 depth_, static_cast<uint32_t>(op_id), static_cast<uint32_t>(current_operation_));
}

inline Engine::Frame Engine::PushFrame(const opec_ir::Function* fn, size_t nargs,
                                       int caller_operation) {
  if (++depth_ > kMaxDepth) {
    --depth_;
    current_operation_ = caller_operation;
    throw ExecutionAborted{"call depth limit exceeded in " + fn->name()};
  }
  OPEC_CHECK_MSG(static_cast<int>(nargs) == fn->param_count(),
                 "arity mismatch calling " + fn->name());
  const FrameLayout& fl = frame_layouts_[static_cast<size_t>(fn->ordinal())];
  uint32_t base = (sp_ - fl.size) & ~7u;
  if (base < layout_.stack_base) {
    --depth_;
    current_operation_ = caller_operation;
    throw ExecutionAborted{"guest stack overflow in " + fn->name()};
  }
  Frame frame{fn, &fl, base, sp_, current_fn_, caller_operation};
  sp_ = base;
  current_fn_ = fn;
  OPEC_OBS_EVENT(opec_obs::EventKind::kFunctionEnter, machine_.cycles(), current_operation_,
                 depth_, static_cast<uint32_t>(fn->ordinal()));
  MaybeFireAttacks(fn);
  return frame;
}

inline void Engine::SpillParams(const Frame& frame, const uint32_t* args, size_t nargs) {
  for (size_t i = 0; i < nargs; ++i) {
    const opec_ir::Type* pt = frame.fn->locals()[i].type;
    MemWrite(frame.base + frame.layout->offsets[i], pt->size(), Truncate(pt, args[i]));
  }
}

inline void Engine::PopFrame(const Frame& frame) {
  OPEC_OBS_EVENT(opec_obs::EventKind::kFunctionExit, machine_.cycles(), current_operation_,
                 depth_, static_cast<uint32_t>(frame.fn->ordinal()));
  current_fn_ = frame.saved_fn;
  --depth_;
  sp_ = frame.saved_sp;
  current_operation_ = frame.caller_operation;
}

}  // namespace opec_rt

#endif  // SRC_RT_ENGINE_H_
