#include "src/rt/engine.h"

#include <algorithm>

#include "src/hw/address_map.h"
#include "src/obs/event.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_rt {

using opec_hw::AccessKind;
using opec_hw::AccessResult;
using opec_hw::AccessStatus;
using opec_ir::BinaryOp;
using opec_ir::Expr;
using opec_ir::ExprKind;
using opec_ir::Function;
using opec_ir::Stmt;
using opec_ir::StmtKind;
using opec_ir::StmtPtr;
using opec_ir::Type;
using opec_ir::UnaryOp;

namespace {

uint32_t AlignUp(uint32_t v, uint32_t a) { return (v + a - 1) & ~(a - 1); }

}  // namespace

Engine::Engine(opec_hw::Machine& machine, const opec_ir::Module& module,
               const AddressAssignment& layout, Supervisor* supervisor)
    : machine_(machine), module_(module), layout_(layout), supervisor_(supervisor) {
  // Precompute dense per-function indices once, so the interpreter's per-call
  // and per-access paths are flat array reads instead of map lookups. Pseudo
  // code addresses (for function pointers / icalls) are pure arithmetic on
  // the function ordinal inside the flash code region.
  const auto& fns = module.functions();
  frame_layouts_.resize(fns.size());
  entry_counts_.assign(fns.size(), 0);
  for (size_t i = 0; i < fns.size(); ++i) {
    OPEC_CHECK_MSG(fns[i]->ordinal() == static_cast<int>(i), "non-dense function ordinals");
    FrameLayout& fl = frame_layouts_[i];
    uint32_t offset = 0;
    for (const opec_ir::LocalVariable& lv : fns[i]->locals()) {
      offset = AlignUp(offset, lv.type->alignment());
      fl.offsets.push_back(offset);
      offset += lv.type->size();
    }
    fl.size = AlignUp(offset, 8);
  }
  const auto& gvs = module.globals();
  global_addrs_.resize(gvs.size());
  for (size_t i = 0; i < gvs.size(); ++i) {
    OPEC_CHECK_MSG(gvs[i]->ordinal() == static_cast<int>(i), "non-dense global ordinals");
    global_addrs_[i] = layout.AddrOf(gvs[i].get());
  }
}

uint32_t Engine::FuncAddr(const Function* fn) const {
  int ord = fn->ordinal();
  OPEC_CHECK_MSG(ord >= 0 && static_cast<size_t>(ord) < module_.functions().size() &&
                     module_.functions()[static_cast<size_t>(ord)].get() == fn,
                 "function not in module: " + fn->name());
  return opec_hw::kFlashBase + 0x1000 + static_cast<uint32_t>(ord) * kFuncAddrStride;
}

const Function* Engine::FuncAt(uint32_t addr) const {
  constexpr uint32_t base = opec_hw::kFlashBase + 0x1000;
  if (addr < base || (addr - base) % kFuncAddrStride != 0) {
    return nullptr;
  }
  size_t idx = (addr - base) / kFuncAddrStride;
  return idx < module_.functions().size() ? module_.functions()[idx].get() : nullptr;
}

uint32_t Engine::GlobalAddrOf(const opec_ir::GlobalVariable* gv) const {
  int ord = gv->ordinal();
  return (ord >= 0 && static_cast<size_t>(ord) < global_addrs_.size())
             ? global_addrs_[static_cast<size_t>(ord)]
             : layout_.AddrOf(gv);
}

void Engine::ResetRunState() {
  sp_ = layout_.stack_top;
  depth_ = 0;
  statements_ = 0;
  current_operation_ = -1;
  current_fn_ = nullptr;
  fault_reports_.clear();
  std::fill(entry_counts_.begin(), entry_counts_.end(), 0);
  for (AttackSpec& a : attacks_) {
    a.fired = false;
    a.blocked = false;
  }
  arg_entry_counts_.clear();
  for (ArgAttackSpec& a : arg_attacks_) {
    a.fired = false;
  }
}

RunResult Engine::Run(const std::string& entry, const std::vector<uint32_t>& args) {
  RunResult result;
  const Function* fn = module_.FindFunction(entry);
  if (fn == nullptr) {
    result.violation = "no such entry function: " + entry;
    return result;
  }
  ResetRunState();

  uint64_t start_cycles = machine_.cycles();
  if (supervisor_ != nullptr) {
    supervisor_->OnProgramStart(this);
  }
  try {
    result.return_value = Execute(fn, args);
    result.ok = true;
    if (supervisor_ != nullptr) {
      supervisor_->OnProgramEnd();
    }
  } catch (const ExecutionAborted& aborted) {
    Unwind();
    result.ok = false;
    result.violation = aborted.reason;
  }
  result.cycles = machine_.cycles() - start_cycles;
  result.statements = statements_;
  return result;
}

ExecutionEngine::ExecutionEngine(opec_hw::Machine& machine, const opec_ir::Module& module,
                                 const AddressAssignment& layout, Supervisor* supervisor)
    : Engine(machine, module, layout, supervisor) {}

uint32_t ExecutionEngine::GlobalAddr(const Expr& e) const {
  uint32_t addr = GlobalAddrOf(e.global);
  if (addr == 0) {
    throw ExecutionAborted{"global has no assigned address: " + e.global->name()};
  }
  return addr;
}

uint32_t Engine::MemRead(uint32_t addr, uint32_t size) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    AccessResult r = machine_.bus().Read(addr, size, machine_.privileged());
    Charge(costs_.memory);
    if (r.ok()) {
      return r.value;
    }
    if (r.status == AccessStatus::kMemFault && supervisor_ != nullptr &&
        supervisor_->OnMemFault(addr, AccessKind::kRead)) {
      OPEC_OBS_EVENT(opec_obs::EventKind::kMemFault, machine_.cycles(), current_operation_,
                     depth_, addr, size, opec_obs::kFaultResolved);
      continue;  // resolved (e.g. peripheral region virtualized in); retry
    }
    if (r.status == AccessStatus::kBusFault && supervisor_ != nullptr) {
      uint32_t value = 0;
      if (supervisor_->OnBusFault(addr, size, AccessKind::kRead, 0, &value)) {
        OPEC_OBS_EVENT(opec_obs::EventKind::kBusFault, machine_.cycles(), current_operation_,
                       depth_, addr, size, opec_obs::kFaultResolved);
        return value;  // emulated core-peripheral load
      }
    }
    OPEC_OBS_EVENT(r.status == AccessStatus::kMemFault ? opec_obs::EventKind::kMemFault
                                                       : opec_obs::EventKind::kBusFault,
                   machine_.cycles(), current_operation_, depth_, addr, size, 0);
    throw ExecutionAborted{
        CaptureFault(addr, size, AccessKind::kRead, r.status, /*attack=*/false).Summary()};
  }
  throw ExecutionAborted{"unresolvable fault loop on read at " + opec_support::HexAddr(addr)};
}

void Engine::MemWrite(uint32_t addr, uint32_t size, uint32_t value) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    AccessResult r = machine_.bus().Write(addr, size, value, machine_.privileged());
    Charge(costs_.memory);
    if (r.ok()) {
      return;
    }
    if (r.status == AccessStatus::kMemFault && supervisor_ != nullptr &&
        supervisor_->OnMemFault(addr, AccessKind::kWrite)) {
      OPEC_OBS_EVENT(opec_obs::EventKind::kMemFault, machine_.cycles(), current_operation_,
                     depth_, addr, size, opec_obs::kFaultWrite | opec_obs::kFaultResolved);
      continue;
    }
    if (r.status == AccessStatus::kBusFault && supervisor_ != nullptr) {
      if (supervisor_->OnBusFault(addr, size, AccessKind::kWrite, value, nullptr)) {
        OPEC_OBS_EVENT(opec_obs::EventKind::kBusFault, machine_.cycles(), current_operation_,
                       depth_, addr, size, opec_obs::kFaultWrite | opec_obs::kFaultResolved);
        return;  // emulated core-peripheral store
      }
    }
    OPEC_OBS_EVENT(r.status == AccessStatus::kMemFault ? opec_obs::EventKind::kMemFault
                                                       : opec_obs::EventKind::kBusFault,
                   machine_.cycles(), current_operation_, depth_, addr, size,
                   opec_obs::kFaultWrite);
    throw ExecutionAborted{
        CaptureFault(addr, size, AccessKind::kWrite, r.status, /*attack=*/false).Summary()};
  }
  throw ExecutionAborted{"unresolvable fault loop on write at " + opec_support::HexAddr(addr)};
}

const opec_obs::FaultReport& Engine::CaptureFault(uint32_t addr, uint32_t size,
                                                           AccessKind kind, AccessStatus status,
                                                           bool attack) {
  opec_obs::FaultReport report;
  report.bus_fault = status == AccessStatus::kBusFault;
  report.write = kind == AccessKind::kWrite;
  report.attack = attack;
  report.addr = addr;
  report.size = size;
  report.privileged = machine_.privileged();
  report.operation_id = current_operation_;
  report.function = current_fn_ != nullptr ? current_fn_->name() : "(no function)";
  report.depth = depth_;
  report.cycle = machine_.cycles();
  report.deny_reason =
      report.bus_fault ? machine_.bus().ExplainFault(addr, size, kind, report.privileged)
                       : machine_.mpu().ExplainAccess(addr, size, kind, report.privileged);
  if (!report.bus_fault) {
    for (int i = 0; i < opec_hw::Mpu::kNumRegions; ++i) {
      report.mpu_regions.push_back(opec_support::StrPrintf(
          "region %d: %s", i, machine_.mpu().region(i).ToString().c_str()));
    }
  }
  if (fault_state_capture_) {
    opec_hw::StateWriter w;
    machine_.SaveState(w);
    auto blob = std::make_shared<const std::vector<uint8_t>>(w.Take());
    report.machine_state_digest = opec_hw::Fnv1a64(blob->data(), blob->size());
    report.machine_state = std::move(blob);
  }
  fault_reports_.push_back(std::move(report));
  return fault_reports_.back();
}

void Engine::SaveState(opec_hw::StateWriter& w) const {
  w.U32(sp_);
  w.U32(static_cast<uint32_t>(depth_));
  w.U32(static_cast<uint32_t>(current_operation_));
  w.U64(statements_);
  w.U64(entry_counts_.size());
  for (int c : entry_counts_) {
    w.U32(static_cast<uint32_t>(c));
  }
  w.U64(arg_entry_counts_.size());
  for (const auto& [op, count] : arg_entry_counts_) {
    w.U32(static_cast<uint32_t>(op));
    w.U32(static_cast<uint32_t>(count));
  }
}

void Engine::LoadState(opec_hw::StateReader& r) {
  sp_ = r.U32();
  depth_ = static_cast<int>(r.U32());
  current_operation_ = static_cast<int>(r.U32());
  statements_ = r.U64();
  uint64_t n = r.U64();
  OPEC_CHECK_MSG(n == entry_counts_.size(),
                 "engine snapshot entry-count table does not match the module");
  for (int& c : entry_counts_) {
    c = static_cast<int>(r.U32());
  }
  arg_entry_counts_.clear();
  uint64_t m = r.U64();
  for (uint64_t i = 0; i < m; ++i) {
    int op = static_cast<int>(r.U32());
    arg_entry_counts_[op] = static_cast<int>(r.U32());
  }
}

uint32_t Engine::Truncate(const Type* type, uint32_t value) const {
  if (type->IsPointer() || type->size() == 4) {
    return value;
  }
  uint32_t bits = type->size() * 8;
  return value & ((1u << bits) - 1);
}

uint32_t ExecutionEngine::EvalAddr(const Expr& e, const Frame& frame) {
  Charge(costs_.op);
  switch (e.kind) {
    case ExprKind::kLocal:
      return frame.base + frame.layout->offsets[static_cast<size_t>(e.local_slot)];
    case ExprKind::kGlobal:
      return GlobalAddr(e);
    case ExprKind::kDeref:
      return EvalOperand(*e.operands[0], frame);
    case ExprKind::kIndex: {
      const Expr& base = *e.operands[0];
      uint32_t base_addr = base.type->IsPointer() ? Eval(base, frame) : EvalAddr(base, frame);
      uint32_t idx = EvalOperand(*e.operands[1], frame);
      return base_addr + idx * e.type->size();
    }
    case ExprKind::kField: {
      uint32_t base_addr = EvalAddr(*e.operands[0], frame);
      const auto& fields = e.operands[0]->type->fields();
      return base_addr + fields[static_cast<size_t>(e.field_index)].offset;
    }
    default:
      throw ExecutionAborted{"EvalAddr on non-lvalue expression"};
  }
}

uint32_t ExecutionEngine::EvalOperand(const Expr& e, const Frame& frame) {
  // Mirrors Eval exactly for the handled shapes: same statement count, same
  // charges in the same order (Charge is a plain accumulator, so the two op
  // charges of the local-load path fold into one call losslessly).
  if (e.kind == ExprKind::kIntConst) {
    if (++statements_ > statement_limit_) {
      throw ExecutionAborted{"statement limit exceeded (possible guest infinite loop)"};
    }
    return static_cast<uint32_t>(e.int_value);
  }
  if ((e.kind == ExprKind::kLocal || e.kind == ExprKind::kGlobal) &&
      (e.type->IsInt() || e.type->IsPointer())) {
    if (++statements_ > statement_limit_) {
      throw ExecutionAborted{"statement limit exceeded (possible guest infinite loop)"};
    }
    Charge(costs_.op * 2);  // Eval's operation charge + EvalAddr's charge
    uint32_t addr = e.kind == ExprKind::kLocal
                        ? frame.base + frame.layout->offsets[static_cast<size_t>(e.local_slot)]
                        : GlobalAddr(e);
    return MemRead(addr, e.type->size());
  }
  return Eval(e, frame);
}

uint32_t ExecutionEngine::EvalBinary(const Expr& e, const Frame& frame) {
  // Short-circuit logical operators.
  if (e.binary_op == BinaryOp::kLogAnd) {
    return (EvalOperand(*e.operands[0], frame) != 0 && EvalOperand(*e.operands[1], frame) != 0)
               ? 1
               : 0;
  }
  if (e.binary_op == BinaryOp::kLogOr) {
    return (EvalOperand(*e.operands[0], frame) != 0 || EvalOperand(*e.operands[1], frame) != 0)
               ? 1
               : 0;
  }
  uint32_t a = EvalOperand(*e.operands[0], frame);
  uint32_t b = EvalOperand(*e.operands[1], frame);
  const Type* t = e.operands[0]->type;
  bool sign = t->IsInt() && t->is_signed();
  // Sign-extend sub-word signed operands to 32 bits for the operation.
  auto sext = [&](uint32_t v) -> int32_t {
    uint32_t bits = t->size() * 8;
    if (bits == 32) {
      return static_cast<int32_t>(v);
    }
    uint32_t m = 1u << (bits - 1);
    return static_cast<int32_t>((v ^ m) - m);
  };
  int32_t sa = sign ? sext(a) : 0;
  int32_t sb = sign ? sext(b) : 0;
  uint32_t r = 0;
  switch (e.binary_op) {
    case BinaryOp::kAdd:
      r = a + b;
      break;
    case BinaryOp::kSub:
      r = a - b;
      break;
    case BinaryOp::kMul:
      r = a * b;
      break;
    case BinaryOp::kDiv:
      if (b == 0) {
        throw ExecutionAborted{"division by zero"};
      }
      r = sign ? static_cast<uint32_t>(sa / sb) : a / b;
      break;
    case BinaryOp::kRem:
      if (b == 0) {
        throw ExecutionAborted{"remainder by zero"};
      }
      r = sign ? static_cast<uint32_t>(sa % sb) : a % b;
      break;
    case BinaryOp::kAnd:
      r = a & b;
      break;
    case BinaryOp::kOr:
      r = a | b;
      break;
    case BinaryOp::kXor:
      r = a ^ b;
      break;
    case BinaryOp::kShl:
      r = a << (b & 31);
      break;
    case BinaryOp::kShr:
      r = sign ? static_cast<uint32_t>(sa >> (b & 31)) : a >> (b & 31);
      break;
    case BinaryOp::kEq:
      r = a == b;
      break;
    case BinaryOp::kNe:
      r = a != b;
      break;
    case BinaryOp::kLt:
      r = sign ? (sa < sb) : (a < b);
      break;
    case BinaryOp::kLe:
      r = sign ? (sa <= sb) : (a <= b);
      break;
    case BinaryOp::kGt:
      r = sign ? (sa > sb) : (a > b);
      break;
    case BinaryOp::kGe:
      r = sign ? (sa >= sb) : (a >= b);
      break;
    case BinaryOp::kLogAnd:
    case BinaryOp::kLogOr:
      OPEC_UNREACHABLE("handled above");
  }
  return Truncate(e.type, r);
}

uint32_t ExecutionEngine::Eval(const Expr& e, const Frame& frame) {
  if (++statements_ > statement_limit_) {
    throw ExecutionAborted{"statement limit exceeded (possible guest infinite loop)"};
  }
  // Immediates, casts and address-of fold into the consuming instruction on
  // Thumb-2 (literal operands / addressing modes); only real operations and
  // memory traffic cost cycles.
  if (e.kind != ExprKind::kIntConst && e.kind != ExprKind::kCast &&
      e.kind != ExprKind::kAddrOf) {
    Charge(costs_.op);
  }
  switch (e.kind) {
    case ExprKind::kIntConst:
      return static_cast<uint32_t>(e.int_value);
    case ExprKind::kFuncAddr:
      return FuncAddr(e.func);
    case ExprKind::kLocal:
    case ExprKind::kGlobal:
    case ExprKind::kDeref:
    case ExprKind::kIndex:
    case ExprKind::kField: {
      if (!e.type->IsInt() && !e.type->IsPointer()) {
        throw ExecutionAborted{"rvalue load of aggregate type " + e.type->ToString()};
      }
      // Flattened fast paths for the two dominant load shapes: the address is
      // one array read, with the same cycle charge EvalAddr would make.
      uint32_t addr;
      if (e.kind == ExprKind::kLocal) {
        Charge(costs_.op);
        addr = frame.base + frame.layout->offsets[static_cast<size_t>(e.local_slot)];
      } else if (e.kind == ExprKind::kGlobal) {
        Charge(costs_.op);
        addr = GlobalAddr(e);
      } else {
        addr = EvalAddr(e, frame);
      }
      return MemRead(addr, e.type->size());
    }
    case ExprKind::kAddrOf:
      return EvalAddr(*e.operands[0], frame);
    case ExprKind::kUnary: {
      uint32_t v = EvalOperand(*e.operands[0], frame);
      switch (e.unary_op) {
        case UnaryOp::kNeg:
          return Truncate(e.type, 0u - v);
        case UnaryOp::kBitNot:
          return Truncate(e.type, ~v);
        case UnaryOp::kLogNot:
          return v == 0 ? 1 : 0;
      }
      OPEC_UNREACHABLE("bad UnaryOp");
    }
    case ExprKind::kBinary:
      return EvalBinary(e, frame);
    case ExprKind::kCast: {
      uint32_t v = EvalOperand(*e.operands[0], frame);
      const Type* from = e.operands[0]->type;
      // Sign-extend when widening a signed source.
      if (from->IsInt() && from->is_signed() && from->size() < e.type->size()) {
        uint32_t bits = from->size() * 8;
        uint32_t m = 1u << (bits - 1);
        v = static_cast<uint32_t>(static_cast<int32_t>((v ^ m) - m));
      }
      return Truncate(e.type, v);
    }
    case ExprKind::kCall: {
      std::vector<uint32_t> args;
      args.reserve(e.operands.size());
      for (const opec_ir::ExprPtr& a : e.operands) {
        args.push_back(EvalOperand(*a, frame));
      }
      return CallFunction(e.func, std::move(args), e.operation_entry_id);
    }
    case ExprKind::kICall: {
      uint32_t target = Eval(*e.operands[0], frame);
      const Function* fn = FuncAt(target);
      if (fn == nullptr) {
        throw ExecutionAborted{"indirect call to non-function address " +
                               opec_support::HexAddr(target)};
      }
      if (fn->type()->params().size() != e.signature->params().size()) {
        throw ExecutionAborted{"indirect call signature mismatch calling " + fn->name()};
      }
      std::vector<uint32_t> args;
      for (size_t i = 1; i < e.operands.size(); ++i) {
        args.push_back(EvalOperand(*e.operands[i], frame));
      }
      return CallFunction(fn, std::move(args), e.operation_entry_id);
    }
  }
  OPEC_UNREACHABLE("bad ExprKind");
}

void Engine::MaybeFireAttacks(const Function* fn) {
  if (attacks_.empty()) {
    return;
  }
  int count = ++entry_counts_[static_cast<size_t>(fn->ordinal())];
  for (AttackSpec& a : attacks_) {
    if (a.fired || a.function != fn->name() || a.occurrence != count) {
      continue;
    }
    a.fired = true;
    // The exploited code performs an arbitrary write at its own (unprivileged)
    // level. The MPU decides whether it lands. In xor_with_old mode the value
    // is a bit-flip mask over the current contents (read via the debug port so
    // the probe itself cannot fault; only the write is subject to the MPU).
    uint32_t write_value = a.value;
    if (a.xor_with_old) {
      uint32_t old = 0;
      machine_.bus().DebugRead(a.addr, a.size, &old);  // unreadable -> flips over 0
      write_value = old ^ a.value;
    }
    AccessResult r = machine_.bus().Write(a.addr, a.size, write_value, machine_.privileged());
    if (!r.ok()) {
      // If a supervisor is installed, give it the chance to (wrongly) resolve
      // it — a correctly configured monitor only virtualizes allowlisted
      // peripherals, so illegal writes stay blocked.
      bool resolved = false;
      if (r.status == AccessStatus::kMemFault && supervisor_ != nullptr &&
          supervisor_->OnMemFault(a.addr, AccessKind::kWrite)) {
        resolved = machine_.bus().Write(a.addr, a.size, write_value, machine_.privileged()).ok();
      }
      a.blocked = !resolved;
      if (a.blocked) {
        OPEC_OBS_EVENT(r.status == AccessStatus::kMemFault ? opec_obs::EventKind::kMemFault
                                                           : opec_obs::EventKind::kBusFault,
                       machine_.cycles(), current_operation_, depth_, a.addr, a.size,
                       opec_obs::kFaultWrite | opec_obs::kFaultAttack);
        // The denied exploit write does not abort the run (the guest carries
        // on), but it leaves a forensic report behind.
        CaptureFault(a.addr, a.size, AccessKind::kWrite, r.status, /*attack=*/true);
      }
    }
  }
}

uint32_t ExecutionEngine::CallFunction(const Function* fn, std::vector<uint32_t> args,
                                       int operation_entry_id) {
  int caller_operation = current_operation_;
  int op_id = BeginCall(fn, args, operation_entry_id);
  uint32_t ret = DoCall(fn, args, caller_operation);
  EndCall(fn, op_id);
  return ret;
}

uint32_t ExecutionEngine::DoCall(const Function* fn, const std::vector<uint32_t>& args,
                                 int caller_operation) {
  const Frame frame = PushFrame(fn, args.size(), caller_operation);
  uint32_t ret_value = 0;
  try {
    SpillParams(frame, args.data(), args.size());
    ExecBlock(fn->body(), frame, &ret_value);
  } catch (...) {
    PopFrame(frame);
    throw;
  }
  Charge(costs_.ret);
  PopFrame(frame);
  return ret_value;
}

ExecutionEngine::Flow ExecutionEngine::ExecBlock(const std::vector<StmtPtr>& body,
                                                 const Frame& frame, uint32_t* ret_value) {
  for (const StmtPtr& s : body) {
    Flow flow = ExecStmt(*s, frame, ret_value);
    if (flow != Flow::kNext) {
      return flow;
    }
  }
  return Flow::kNext;
}

ExecutionEngine::Flow ExecutionEngine::ExecStmt(const Stmt& s, const Frame& frame,
                                                uint32_t* ret_value) {
  if (++statements_ > statement_limit_) {
    throw ExecutionAborted{"statement limit exceeded (possible guest infinite loop)"};
  }
  // Poll the deadline every 8192 statements: cheap enough to be invisible on
  // the hot path, frequent enough to bound a runaway job's wall clock to
  // milliseconds past its deadline.
  if ((statements_ & 0x1FFF) == 0 && deadline_ != kNoDeadline &&
      Clock::now() >= deadline_) [[unlikely]] {
    throw ExecutionAborted{"canceled: wall-clock deadline exceeded"};
  }
  switch (s.kind) {
    case StmtKind::kAssign: {
      uint32_t value = EvalOperand(*s.expr, frame);
      const Expr& lhs = *s.lhs;
      // Same flattened store fast paths as the load side of Eval.
      uint32_t addr;
      if (lhs.kind == ExprKind::kLocal) {
        Charge(costs_.op);
        addr = frame.base + frame.layout->offsets[static_cast<size_t>(lhs.local_slot)];
      } else if (lhs.kind == ExprKind::kGlobal) {
        Charge(costs_.op);
        addr = GlobalAddr(lhs);
      } else {
        addr = EvalAddr(lhs, frame);
      }
      MemWrite(addr, lhs.type->size(), Truncate(lhs.type, value));
      return Flow::kNext;
    }
    case StmtKind::kExpr:
      Eval(*s.expr, frame);
      return Flow::kNext;
    case StmtKind::kIf: {
      Charge(costs_.branch);
      if (EvalOperand(*s.expr, frame) != 0) {
        return ExecBlock(s.body, frame, ret_value);
      }
      return ExecBlock(s.orelse, frame, ret_value);
    }
    case StmtKind::kWhile: {
      while (true) {
        Charge(costs_.branch);
        if (EvalOperand(*s.expr, frame) == 0) {
          return Flow::kNext;
        }
        Flow flow = ExecBlock(s.body, frame, ret_value);
        if (flow == Flow::kBreak) {
          return Flow::kNext;
        }
        if (flow == Flow::kReturn) {
          return Flow::kReturn;
        }
        // kContinue and kNext both loop.
      }
    }
    case StmtKind::kBreak:
      return Flow::kBreak;
    case StmtKind::kContinue:
      return Flow::kContinue;
    case StmtKind::kReturn:
      if (s.expr != nullptr) {
        *ret_value = Eval(*s.expr, frame);
      }
      return Flow::kReturn;
  }
  OPEC_UNREACHABLE("bad StmtKind");
}

uint32_t ExecutionEngine::Execute(const Function* entry, const std::vector<uint32_t>& args) {
  // The entry call has no call site: no call charge, no operation switch and
  // no supervisor call hooks.
  return DoCall(entry, args, current_operation_);
}

}  // namespace opec_rt
