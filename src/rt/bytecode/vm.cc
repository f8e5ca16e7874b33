#include "src/rt/bytecode/vm.h"

#include <algorithm>

#include "src/obs/event.h"
#include "src/rt/bytecode/lowerer.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_rt {
namespace bytecode {

using opec_hw::AccessKind;
using opec_ir::BinaryOp;
using opec_ir::Function;
using opec_ir::UnaryOp;

namespace {

// Sentinel return_pc of the entry frame: returning from it ends the run.
constexpr uint32_t kHaltPc = 0xFFFFFFFFu;

inline int32_t SextBits(uint32_t v, uint32_t bits) {
  if (bits == 32) {
    return static_cast<int32_t>(v);
  }
  uint32_t m = 1u << (bits - 1);
  return static_cast<int32_t>((v ^ m) - m);
}

// Shared arithmetic/comparison core of kBinary, kBinaryImm and the fused
// kBrCmp* branches. imm2 carries (signed << 8) | operand bit width.
inline uint32_t EvalBinary(BinaryOp op, uint32_t x, uint32_t y, uint32_t imm2) {
  uint32_t bits = imm2 & 0xFFu;
  bool sign = (imm2 & 0x100u) != 0;
  switch (op) {
    case BinaryOp::kAdd:
      return x + y;
    case BinaryOp::kSub:
      return x - y;
    case BinaryOp::kMul:
      return x * y;
    case BinaryOp::kAnd:
      return x & y;
    case BinaryOp::kOr:
      return x | y;
    case BinaryOp::kXor:
      return x ^ y;
    case BinaryOp::kShl:
      return x << (y & 31);
    case BinaryOp::kShr:
      return sign ? static_cast<uint32_t>(SextBits(x, bits) >> (y & 31)) : x >> (y & 31);
    case BinaryOp::kEq:
      return x == y;
    case BinaryOp::kNe:
      return x != y;
    case BinaryOp::kLt:
      return sign ? SextBits(x, bits) < SextBits(y, bits) : x < y;
    case BinaryOp::kLe:
      return sign ? SextBits(x, bits) <= SextBits(y, bits) : x <= y;
    case BinaryOp::kGt:
      return sign ? SextBits(x, bits) > SextBits(y, bits) : x > y;
    case BinaryOp::kGe:
      return sign ? SextBits(x, bits) >= SextBits(y, bits) : x >= y;
    case BinaryOp::kDiv:
    case BinaryOp::kRem:
    case BinaryOp::kLogAnd:
    case BinaryOp::kLogOr:
      break;  // lowered to kDivRem / branches
  }
  OPEC_UNREACHABLE("lowered to kDivRem / branches");
}

// kBinaryImm result masks, selected by imm2 bits 10:9.
constexpr uint32_t kMaskTab[4] = {0xFFu, 0xFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu};

}  // namespace

VM::VM(opec_hw::Machine& machine, const opec_ir::Module& module,
       const AddressAssignment& layout, Supervisor* supervisor)
    : Engine(machine, module, layout, supervisor) {}

const BytecodeModule& VM::Bytecode() {
  EnsureLowered();
  return *bc_;
}

void VM::EnsureLowered() {
  if (bc_ == nullptr) {
    Install(std::make_shared<const BytecodeModule>(Lowerer::Lower(*this, costs_)));
  }
}

void VM::ShareBytecode(VM& next) const {
  if (bc_ != nullptr) {
    next.Install(bc_);
  }
}

void VM::Install(std::shared_ptr<const BytecodeModule> bc) {
  bc_ = std::move(bc);
  vcache_.assign(bc_->code.size(), VSlot{});
  // One register window per possible frame, preallocated so register pointers
  // never move mid-run. Zero-filled once: register values are never
  // observable, but deterministic contents keep any latent read-before-write
  // lowering bug deterministic too.
  size_t window = std::max<size_t>(bc_->max_regs, 1);
  regs_.assign(static_cast<size_t>(kMaxDepth + 1) * window + 16, 0);
  frames_.reserve(kMaxDepth + 1);
}

void VM::PushVFrame(const Frame& frame, uint32_t return_pc, uint16_t ret_dst, int op_id) {
  uint32_t reg_base = 0;
  if (!frames_.empty()) {
    const VFrame& caller = frames_.back();
    reg_base = caller.reg_base + bc_->funcs[static_cast<size_t>(caller.frame.fn->ordinal())].nregs;
  }
  frames_.push_back(VFrame{frame, return_pc, reg_base, ret_dst, op_id});
}

void VM::EnterCall(const Insn& ins, const Function* fn, uint32_t ret_pc, const uint32_t* R) {
  size_t nargs = ins.sub;
  call_args_.clear();
  const uint16_t* pool = bc_->arg_pool.data() + ins.b;
  for (size_t i = 0; i < nargs; ++i) {
    call_args_.push_back(R[pool[i]]);
  }
  int caller_operation = current_operation_;
  int op_id = BeginCall(fn, call_args_, static_cast<int>(ins.imm2) - 1);
  PushVFrame(PushFrame(fn, nargs, caller_operation), ret_pc, ins.a, op_id);
  SpillParams(frames_.back().frame, call_args_.data(), nargs);
}

void VM::Unwind() {
  // Innermost out, like the interpreter's nested catch blocks.
  while (!frames_.empty()) {
    PopFrame(frames_.back().frame);
    frames_.pop_back();
  }
}

void VM::ReplayAcct(uint32_t pc) {
  auto [ofs, len] = bc_->acct[pc];
  OPEC_CHECK_MSG(len != 0, "statement batch crossed the limit without a replay script");
  for (uint32_t i = 0; i < len; ++i) {
    int64_t e = bc_->acct_pool[ofs + i];
    if (e == kAcctStmt) {
      if (++statements_ > statement_limit_) {
        throw ExecutionAborted{"statement limit exceeded (possible guest infinite loop)"};
      }
    } else {
      Charge(static_cast<uint64_t>(e));
    }
  }
  OPEC_UNREACHABLE("statement batch crossed the limit but the replay did not");
}

uint64_t VM::VerdictKey() const {
  return (machine_.mpu().region_set() << 1) | static_cast<uint64_t>(machine_.privileged());
}

void VM::Fill(VSlot& slot, const VCache& v) {
  slot.way[1] = slot.way[0];
  slot.way[0] = v;
}

inline uint32_t VM::RawLoad(const VCache& v, uint32_t addr, uint32_t size) {
  const opec_hw::Bus& bus = machine_.bus();
  uint32_t value = v.backing == 0 ? bus.RawSramRead(addr, size) : bus.RawFlashRead(addr, size);
  Charge(costs_.memory);
  return value;
}

inline void VM::RawStore(uint32_t addr, uint32_t size, uint32_t value) {
  machine_.bus().RawSramWrite(addr, size, value);
  Charge(costs_.memory);
}

inline uint32_t VM::CachedLoad(uint32_t pc_index, uint32_t addr, uint32_t size) {
  VSlot& slot = vcache_[pc_index];
  const uint64_t key = VerdictKey();
  if (Covers(slot.way[0], key, addr, size)) [[likely]] {
    return RawLoad(slot.way[0], addr, size);
  }
  return LoadMiss(slot, key, addr, size);
}

inline void VM::CachedStore(uint32_t pc_index, uint32_t addr, uint32_t size, uint32_t value) {
  VSlot& slot = vcache_[pc_index];
  const uint64_t key = VerdictKey();
  if (Covers(slot.way[0], key, addr, size)) [[likely]] {
    RawStore(addr, size, value);
    return;
  }
  StoreMiss(slot, key, addr, size, value);
}

uint32_t VM::LoadMiss(VSlot& slot, uint64_t key, uint32_t addr, uint32_t size) {
  if (Covers(slot.way[1], key, addr, size)) {
    std::swap(slot.way[0], slot.way[1]);
    return RawLoad(slot.way[0], addr, size);
  }
  // Only plain memory is ever cached: devices, the PPB and accesses
  // straddling out of a backing store go straight to MemRead's full
  // fault/route semantics, without a verdict lookup whose result they could
  // not keep. For plain memory, one lookup decides the verdict and yields the
  // uniform-verdict interval; an allow whose clipped interval covers the
  // whole access fills the slot and completes through the raw backing path
  // (the same single memory charge the shared path makes). Denies fall back
  // to MemRead and are never cached.
  const opec_hw::Bus& bus = machine_.bus();
  uint8_t backing;
  uint32_t store_lo;
  uint32_t store_hi;
  if (bus.InSram(addr, size)) {
    backing = 0;
    store_lo = opec_hw::kSramBase;
    store_hi = bus.sram_end() - 1;
  } else if (bus.InFlash(addr, size)) {
    backing = 1;
    store_lo = opec_hw::kFlashBase;
    store_hi = bus.flash_end() - 1;
  } else {
    return MemRead(addr, size);
  }
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (machine_.mpu().AllowedRange(addr, AccessKind::kRead, machine_.privileged(), &lo, &hi)) {
    VCache v{key, std::max(lo, store_lo), std::min(hi, store_hi), backing};
    if (Covers(v, key, addr, size)) {
      Fill(slot, v);
      return RawLoad(v, addr, size);
    }
  }
  return MemRead(addr, size);  // shared slow path: full fault semantics
}

void VM::StoreMiss(VSlot& slot, uint64_t key, uint32_t addr, uint32_t size, uint32_t value) {
  if (Covers(slot.way[1], key, addr, size)) {
    std::swap(slot.way[0], slot.way[1]);
    RawStore(addr, size, value);
    return;
  }
  const opec_hw::Bus& bus = machine_.bus();
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (bus.InSram(addr, size) &&
      machine_.mpu().AllowedRange(addr, AccessKind::kWrite, machine_.privileged(), &lo, &hi)) {
    VCache v{key, std::max(lo, opec_hw::kSramBase), std::min(hi, bus.sram_end() - 1), 0};
    if (Covers(v, key, addr, size)) {
      Fill(slot, v);
      RawStore(addr, size, value);
      return;
    }
  }
  MemWrite(addr, size, value);
}

// Direct-threaded dispatch: every handler ends by jumping straight to the
// next instruction's handler.
#define OPEC_VM_CASE(name) L_##name:
#define OPEC_VM_NEXT()                        \
  do {                                        \
    I = &code[pc];                            \
    goto* kDispatch[static_cast<int>(I->op)]; \
  } while (0)

// Applies a flushing instruction's batched accounting: statement increments
// (with exact limit replay on crossing and the interpreter's 8192-statement
// deadline poll cadence), then the batched cycle charge.
#define OPEC_VM_FLUSH()                                                      \
  do {                                                                       \
    if (I->stmt != 0) {                                                      \
      uint64_t before_ = statements_;                                        \
      statements_ += I->stmt;                                                \
      if (statements_ > statement_limit_) [[unlikely]] {                     \
        statements_ = before_;                                               \
        ReplayAcct(static_cast<uint32_t>(I - code));                         \
      }                                                                      \
      if (deadline_ != kNoDeadline &&                                        \
          ((before_ ^ statements_) & ~0x1FFFull) != 0) [[unlikely]] {        \
        if (Clock::now() >= deadline_) {                                     \
          throw ExecutionAborted{"canceled: wall-clock deadline exceeded"};  \
        }                                                                    \
      }                                                                      \
    }                                                                        \
    if (I->charge != 0) {                                                    \
      Charge(I->charge);                                                     \
    }                                                                        \
  } while (0)

uint32_t VM::Execute(const Function* entry, const std::vector<uint32_t>& args) {
  EnsureLowered();
  const BytecodeModule& bc = *bc_;
  const Insn* const code = bc.code.data();

  // Entry frame: pushed directly, like the interpreter's Execute — no call
  // charge, no operation switch, no supervisor call hooks.
  frames_.clear();
  PushVFrame(PushFrame(entry, args.size(), current_operation_), kHaltPc, 0, -1);
  SpillParams(frames_.back().frame, args.data(), args.size());

  uint32_t pc = bc.funcs[static_cast<size_t>(entry->ordinal())].entry;
  uint32_t* R = regs_.data() + frames_.back().reg_base;
  uint32_t fp = frames_.back().frame.base;
  const Insn* I = nullptr;

  static const void* const kDispatch[] = {
      &&L_kConst,     &&L_kMove,       &&L_kUnary,      &&L_kBinary,
      &&L_kBinaryImm, &&L_kLea,        &&L_kAddImm,     &&L_kIndexAddr,
      &&L_kSext,      &&L_kAndImm,     &&L_kAcct,       &&L_kDivRem,
      &&L_kLoadLocal, &&L_kStoreLocal, &&L_kLoadAbs,    &&L_kStoreAbs,
      &&L_kLoadInd,   &&L_kStoreInd,   &&L_kLoadIdx,    &&L_kStoreIdx,
      &&L_kJump,      &&L_kBrFalse,    &&L_kBrTrue,     &&L_kBrCmpFalse,
      &&L_kBrCmpTrue, &&L_kBrCmpImmFalse, &&L_kBrCmpImmTrue, &&L_kCall,
      &&L_kCallInd,   &&L_kICallCheck, &&L_kRet,        &&L_kAbort,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                static_cast<size_t>(Op::kAbort) + 1);
  OPEC_VM_NEXT();

  OPEC_VM_CASE(kConst) {
    R[I->a] = I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kMove) {
    R[I->a] = R[I->b];
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kUnary) {
    uint32_t v = R[I->b];
    uint32_t r = 0;
    switch (static_cast<UnaryOp>(I->sub)) {
      case UnaryOp::kNeg:
        r = 0u - v;
        break;
      case UnaryOp::kBitNot:
        r = ~v;
        break;
      case UnaryOp::kLogNot:
        r = v == 0 ? 1u : 0u;
        break;
    }
    R[I->a] = r & I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kBinary) {
    R[I->a] =
        EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], R[I->c], I->imm2) & I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kBinaryImm) {
    R[I->a] = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], I->imm, I->imm2) &
              kMaskTab[(I->imm2 >> 9) & 3];
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kLea) {
    R[I->a] = fp + I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kAddImm) {
    R[I->a] = R[I->b] + I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kIndexAddr) {
    R[I->a] = R[I->b] + R[I->c] * I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kSext) {
    R[I->a] = static_cast<uint32_t>(SextBits(R[I->b], I->imm2)) & I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kAndImm) {
    R[I->a] = R[I->b] & I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kAcct) {
    OPEC_VM_FLUSH();
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kDivRem) {
    OPEC_VM_FLUSH();
    uint32_t x = R[I->b];
    uint32_t y = R[I->c];
    bool div = static_cast<BinaryOp>(I->sub) == BinaryOp::kDiv;
    if (y == 0) {
      throw ExecutionAborted{div ? "division by zero" : "remainder by zero"};
    }
    uint32_t r;
    if ((I->imm2 & 0x100u) != 0) {
      uint32_t bits = I->imm2 & 0xFFu;
      int32_t sx = SextBits(x, bits);
      int32_t sy = SextBits(y, bits);
      r = static_cast<uint32_t>(div ? sx / sy : sx % sy);
    } else {
      r = div ? x / y : x % y;
    }
    R[I->a] = r & I->imm;
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kLoadLocal) {
    OPEC_VM_FLUSH();
    R[I->a] = CachedLoad(static_cast<uint32_t>(I - code), fp + I->imm, I->sub);
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kStoreLocal) {
    OPEC_VM_FLUSH();
    CachedStore(static_cast<uint32_t>(I - code), fp + I->imm, I->sub,
                R[I->a] & I->imm2);
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kLoadAbs) {
    OPEC_VM_FLUSH();
    R[I->a] = CachedLoad(static_cast<uint32_t>(I - code), I->imm, I->sub);
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kStoreAbs) {
    OPEC_VM_FLUSH();
    CachedStore(static_cast<uint32_t>(I - code), I->imm, I->sub, R[I->a] & I->imm2);
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kLoadInd) {
    OPEC_VM_FLUSH();
    R[I->a] = CachedLoad(static_cast<uint32_t>(I - code), R[I->b] + I->imm, I->sub);
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kStoreInd) {
    OPEC_VM_FLUSH();
    CachedStore(static_cast<uint32_t>(I - code), R[I->b] + I->imm, I->sub,
                R[I->a] & I->imm2);
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kLoadIdx) {
    OPEC_VM_FLUSH();
    R[I->a] =
        CachedLoad(static_cast<uint32_t>(I - code), R[I->b] + R[I->c] * I->imm, I->sub);
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kStoreIdx) {
    OPEC_VM_FLUSH();
    CachedStore(static_cast<uint32_t>(I - code), R[I->b] + R[I->c] * I->imm, I->sub,
                R[I->a] & I->imm2);
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kJump) {
    OPEC_VM_FLUSH();
    pc = I->imm;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kBrFalse) {
    OPEC_VM_FLUSH();
    pc = R[I->a] == 0 ? I->imm : pc + 1;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kBrTrue) {
    OPEC_VM_FLUSH();
    pc = R[I->a] != 0 ? I->imm : pc + 1;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kBrCmpFalse) {
    OPEC_VM_FLUSH();
    pc = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], R[I->c], I->imm2) == 0
             ? I->imm
             : pc + 1;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kBrCmpTrue) {
    OPEC_VM_FLUSH();
    pc = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], R[I->c], I->imm2) != 0
             ? I->imm
             : pc + 1;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kBrCmpImmFalse) {
    OPEC_VM_FLUSH();
    uint32_t y = I->a | static_cast<uint32_t>(I->c) << 16;
    pc = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], y, I->imm2) == 0
             ? I->imm
             : pc + 1;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kBrCmpImmTrue) {
    OPEC_VM_FLUSH();
    uint32_t y = I->a | static_cast<uint32_t>(I->c) << 16;
    pc = EvalBinary(static_cast<BinaryOp>(I->sub), R[I->b], y, I->imm2) != 0
             ? I->imm
             : pc + 1;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kCall) {
    OPEC_VM_FLUSH();
    const Function* fn = module_.functions()[I->imm].get();
    EnterCall(*I, fn, pc + 1, R);
    const VFrame& fr = frames_.back();
    R = regs_.data() + fr.reg_base;
    fp = fr.frame.base;
    pc = bc.funcs[static_cast<size_t>(fn->ordinal())].entry;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kCallInd) {
    OPEC_VM_FLUSH();
    const Function* fn = module_.functions()[R[I->c]].get();
    EnterCall(*I, fn, pc + 1, R);
    const VFrame& fr = frames_.back();
    R = regs_.data() + fr.reg_base;
    fp = fr.frame.base;
    pc = bc.funcs[static_cast<size_t>(fn->ordinal())].entry;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kICallCheck) {
    OPEC_VM_FLUSH();
    uint32_t target = R[I->b];
    const Function* fn = FuncAt(target);
    if (fn == nullptr) {
      throw ExecutionAborted{"indirect call to non-function address " +
                             opec_support::HexAddr(target)};
    }
    if (fn->type()->params().size() != I->imm) {
      throw ExecutionAborted{"indirect call signature mismatch calling " + fn->name()};
    }
    R[I->a] = static_cast<uint32_t>(fn->ordinal());
    ++pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kRet) {
    OPEC_VM_FLUSH();
    uint32_t rv = I->sub != 0 ? R[I->a] : 0;
    const VFrame fr = frames_.back();
    frames_.pop_back();
    Charge(costs_.ret);
    PopFrame(fr.frame);
    if (frames_.empty()) {
      return rv;  // the entry frame has no call site to return through
    }
    EndCall(fr.frame.fn, fr.op_id);
    const VFrame& caller = frames_.back();
    R = regs_.data() + caller.reg_base;
    fp = caller.frame.base;
    R[fr.ret_dst] = rv;
    pc = fr.return_pc;
    OPEC_VM_NEXT();
  }
  OPEC_VM_CASE(kAbort) {
    OPEC_VM_FLUSH();
    throw ExecutionAborted{bc.messages[I->imm]};
  }
}

#undef OPEC_VM_FLUSH
#undef OPEC_VM_CASE
#undef OPEC_VM_NEXT

}  // namespace bytecode
}  // namespace opec_rt
