#include "src/fuzz/program.h"

#include <utility>

#include "src/hw/address_map.h"
#include "src/ir/builder.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_fuzz {

using opec_ir::FunctionBuilder;
using opec_ir::Module;
using opec_ir::StructField;
using opec_ir::Type;
using opec_ir::TypeTable;
using opec_ir::Val;

namespace {

const Type* ScalarTy(TypeTable& tt, Scalar s) {
  switch (s) {
    case Scalar::kU8:
      return tt.U8();
    case Scalar::kU16:
      return tt.U16();
    case Scalar::kU32:
      return tt.U32();
    case Scalar::kI32:
      return tt.I32();
  }
  OPEC_UNREACHABLE("bad scalar");
}

struct BuildCtx {
  Module* m = nullptr;
  FunctionBuilder* b = nullptr;
  const Type* icall_sig = nullptr;
};

Val BuildVal(BuildCtx& ctx, const FExpr& e) {
  FunctionBuilder& b = *ctx.b;
  TypeTable& tt = ctx.m->types();
  switch (e.k) {
    case FExpr::K::kConst:
      return b.C(ScalarTy(tt, e.scalar), static_cast<int64_t>(e.value));
    case FExpr::K::kGlobal:
      return b.G(e.name);
    case FExpr::K::kLocal:
      return b.L(e.name);
    case FExpr::K::kBin: {
      Val l = BuildVal(ctx, e.kids[0]);
      Val r = BuildVal(ctx, e.kids[1]);
      switch (e.bin) {
        case FBinOp::kAdd:
          return l + r;
        case FBinOp::kSub:
          return l - r;
        case FBinOp::kMul:
          return l * r;
        case FBinOp::kDiv:
          return l / r;
        case FBinOp::kRem:
          return l % r;
        case FBinOp::kAnd:
          return l & r;
        case FBinOp::kOr:
          return l | r;
        case FBinOp::kXor:
          return l ^ r;
        case FBinOp::kShl:
          return l << r;
        case FBinOp::kShr:
          return l >> r;
        case FBinOp::kEq:
          return l == r;
        case FBinOp::kNe:
          return l != r;
        case FBinOp::kLt:
          return l < r;
        case FBinOp::kLe:
          return l <= r;
        case FBinOp::kGt:
          return l > r;
        case FBinOp::kGe:
          return l >= r;
        case FBinOp::kLAnd:
          return l && r;
        case FBinOp::kLOr:
          return l || r;
      }
      OPEC_UNREACHABLE("bad binop");
    }
    case FExpr::K::kUn: {
      Val v = BuildVal(ctx, e.kids[0]);
      switch (e.un) {
        case FUnOp::kNeg:
          return -v;
        case FUnOp::kBitNot:
          return ~v;
      }
      OPEC_UNREACHABLE("bad unop");
    }
    case FExpr::K::kIdx:
      return b.Idx(BuildVal(ctx, e.kids[0]), BuildVal(ctx, e.kids[1]));
    case FExpr::K::kFld:
      return b.Fld(BuildVal(ctx, e.kids[0]), e.name);
    case FExpr::K::kAddr: {
      Val v = BuildVal(ctx, e.kids[0]);
      return b.Addr(v);
    }
    case FExpr::K::kDeref:
      return b.Deref(BuildVal(ctx, e.kids[0]));
    case FExpr::K::kMmio:
      return b.Mmio32(e.addr);
    case FExpr::K::kCall: {
      std::vector<Val> args;
      args.reserve(e.kids.size());
      for (const FExpr& kid : e.kids) {
        args.push_back(BuildVal(ctx, kid));
      }
      return b.CallV(e.name, std::move(args));
    }
    case FExpr::K::kICall: {
      std::vector<Val> args;
      args.reserve(e.kids.size());
      for (const FExpr& kid : e.kids) {
        args.push_back(BuildVal(ctx, kid));
      }
      return b.ICallV(ctx.icall_sig, b.G(e.name), std::move(args));
    }
    case FExpr::K::kCast:
      return b.CastTo(ScalarTy(tt, e.scalar), BuildVal(ctx, e.kids[0]));
    case FExpr::K::kFnAddr:
      return b.FnPtr(e.name);
  }
  OPEC_UNREACHABLE("bad expr kind");
}

void BuildStmts(BuildCtx& ctx, const std::vector<FStmt>& body) {
  FunctionBuilder& b = *ctx.b;
  for (const FStmt& s : body) {
    switch (s.k) {
      case FStmt::K::kAssign:
        b.Assign(BuildVal(ctx, s.lhs), BuildVal(ctx, s.rhs));
        break;
      case FStmt::K::kExpr:
        b.Do(BuildVal(ctx, s.rhs));
        break;
      case FStmt::K::kIf:
        b.If(BuildVal(ctx, s.rhs));
        BuildStmts(ctx, s.body);
        if (!s.orelse.empty()) {
          b.Else();
          BuildStmts(ctx, s.orelse);
        }
        b.End();
        break;
      case FStmt::K::kLoop:
        b.Assign(b.L(s.loop_var), b.U32(0));
        b.While(b.L(s.loop_var) < b.U32(s.loop_count));
        BuildStmts(ctx, s.body);
        b.Assign(b.L(s.loop_var), b.L(s.loop_var) + b.U32(1));
        b.End();
        break;
      case FStmt::K::kCall: {
        std::vector<Val> args;
        args.reserve(s.args.size());
        for (const FExpr& a : s.args) {
          args.push_back(BuildVal(ctx, a));
        }
        b.Call(s.callee, std::move(args));
        break;
      }
      case FStmt::K::kRet:
        b.Ret(BuildVal(ctx, s.rhs));
        break;
    }
  }
}

}  // namespace

std::unique_ptr<Module> BuildModule(const ProgramSpec& spec) {
  auto m = std::make_unique<Module>("fuzz");
  TypeTable& tt = m->types();
  const Type* u32 = tt.U32();
  const Type* p_u8 = tt.PointerTo(tt.U8());
  const Type* icall_sig = tt.FunctionTy(u32, {u32, u32});

  // --- Globals ---
  for (const FGlobal& g : spec.globals) {
    switch (g.k) {
      case FGlobal::K::kScalar:
        m->AddGlobal(g.name, ScalarTy(tt, g.scalar));
        break;
      case FGlobal::K::kArray:
        m->AddGlobal(g.name, tt.ArrayOf(ScalarTy(tt, g.scalar), g.count));
        break;
      case FGlobal::K::kStruct: {
        std::vector<StructField> fields;
        for (const FField& f : g.fields) {
          fields.push_back({f.name, f.is_ptr_u8 ? p_u8 : ScalarTy(tt, f.scalar), 0});
        }
        m->AddGlobal(g.name, tt.StructTy(g.struct_name, fields));
        break;
      }
      case FGlobal::K::kPtr:
        m->AddGlobal(g.name, tt.PointerTo(ScalarTy(tt, g.ptr_elem)));
        break;
      case FGlobal::K::kFnPtr:
        m->AddGlobal(g.name, tt.PointerTo(icall_sig));
        break;
      case FGlobal::K::kConstArray: {
        auto* gv =
            m->AddGlobal(g.name, tt.ArrayOf(ScalarTy(tt, g.scalar), g.count), /*is_const=*/true);
        gv->set_initial_data(g.init);
        break;
      }
    }
  }

  // --- Function declarations first (bodies may call forward) ---
  for (const FFunc& f : spec.funcs) {
    std::vector<const Type*> params;
    std::vector<std::string> names;
    for (const FParam& p : f.params) {
      params.push_back(p.is_ptr_u8 ? p_u8 : u32);
      names.push_back(p.name);
    }
    const Type* ret = f.returns_u32 ? u32 : tt.VoidTy();
    auto* fn = m->AddFunction(f.name, tt.FunctionTy(ret, params), names);
    fn->set_source_file(f.is_entry ? "tasks.c" : (f.name == "main" ? "main.c" : "lib.c"));
  }

  // --- Bodies ---
  for (const FFunc& f : spec.funcs) {
    FunctionBuilder b(*m, m->FindFunction(f.name));
    BuildCtx ctx{m.get(), &b, icall_sig};
    for (const auto& [name, scalar] : f.locals) {
      Val l = b.Local(name, ScalarTy(tt, scalar));
      b.Assign(l, b.C(ScalarTy(tt, scalar), 0));
    }
    for (const auto& [name, count] : f.u8_array_locals) {
      Val buf = b.Local(name, tt.ArrayOf(tt.U8(), count));
      for (uint32_t i = 0; i < count; ++i) {
        b.Assign(b.Idx(buf, i), b.U8(0));
      }
    }
    BuildStmts(ctx, f.body);
    // Always end with an explicit return so shrinking any recipe statement
    // (including a trailing kRet) keeps the function well-formed.
    if (f.returns_u32) {
      b.Ret(b.U32(0));
    } else {
      b.RetVoid();
    }
    b.Finish();
  }
  return m;
}

size_t CountStatements(const std::vector<FStmt>& body) {
  size_t n = 0;
  for (const FStmt& s : body) {
    n += 1 + CountStatements(s.body) + CountStatements(s.orelse);
  }
  return n;
}

size_t CountStatements(const ProgramSpec& spec) {
  size_t n = 0;
  for (const FFunc& f : spec.funcs) {
    n += CountStatements(f.body);
  }
  return n;
}

namespace {

void ScanExpr(const FExpr& e, std::map<std::string, int>* callees,
              std::map<std::string, int>* globals) {
  if (callees != nullptr && (e.k == FExpr::K::kCall || e.k == FExpr::K::kFnAddr)) {
    ++(*callees)[e.name];
  }
  if (globals != nullptr && (e.k == FExpr::K::kGlobal || e.k == FExpr::K::kICall)) {
    ++(*globals)[e.name];
  }
  for (const FExpr& kid : e.kids) {
    ScanExpr(kid, callees, globals);
  }
}

void ScanStmts(const std::vector<FStmt>& body, std::map<std::string, int>* callees,
               std::map<std::string, int>* globals) {
  for (const FStmt& s : body) {
    ScanExpr(s.lhs, callees, globals);
    ScanExpr(s.rhs, callees, globals);
    for (const FExpr& a : s.args) {
      ScanExpr(a, callees, globals);
    }
    if (callees != nullptr && s.k == FStmt::K::kCall) {
      ++(*callees)[s.callee];
    }
    ScanStmts(s.body, callees, globals);
    ScanStmts(s.orelse, callees, globals);
  }
}

}  // namespace

void CollectCalleeRefs(const ProgramSpec& spec, std::map<std::string, int>* refs) {
  for (const FFunc& f : spec.funcs) {
    ScanStmts(f.body, refs, nullptr);
  }
}

void CollectGlobalRefs(const ProgramSpec& spec, std::map<std::string, int>* refs) {
  for (const FFunc& f : spec.funcs) {
    ScanStmts(f.body, nullptr, refs);
  }
  for (const FSanitize& s : spec.sanitize) {
    ++(*refs)[s.global];
  }
}

std::string SpecSummary(const ProgramSpec& spec) {
  size_t entries = 0;
  for (const FFunc& f : spec.funcs) {
    entries += f.is_entry ? 1 : 0;
  }
  return opec_support::StrPrintf(
      "seed=%llu globals=%zu funcs=%zu entries=%zu stmts=%zu rx=%zu sanitize=%zu",
      static_cast<unsigned long long>(spec.seed), spec.globals.size(), spec.funcs.size(), entries,
      CountStatements(spec), spec.rx_input.size(), spec.sanitize.size());
}

// --- FuzzApplication -------------------------------------------------------

std::string FuzzApplication::name() const {
  return "fuzz_" + std::to_string(spec_.seed);
}

std::unique_ptr<opec_ir::Module> FuzzApplication::BuildModule() const {
  return opec_fuzz::BuildModule(spec_);
}

opec_compiler::PartitionConfig FuzzApplication::Partition() const {
  opec_compiler::PartitionConfig config;
  for (const FFunc& f : spec_.funcs) {
    if (f.is_entry) {
      opec_compiler::EntrySpec entry;
      entry.function = f.name;
      entry.pointer_arg_sizes = f.pointer_arg_sizes;
      config.entries.push_back(std::move(entry));
    }
  }
  for (const FSanitize& s : spec_.sanitize) {
    config.sanitize.push_back({s.global, s.min, s.max});
  }
  return config;
}

opec_hw::SocDescription FuzzApplication::Soc() const {
  opec_hw::SocDescription soc = opec_hw::SocDescription::WithCorePeripherals();
  soc.AddPeripheral({"USART2", opec_hw::kUsart2Base, 0x400, false});
  soc.AddPeripheral({"GPIOA", opec_hw::kGpioABase, 0x400, false});
  return soc;
}

std::unique_ptr<opec_apps::AppDevices> FuzzApplication::CreateDevices(
    opec_hw::Machine& machine) const {
  auto devices = std::make_unique<FuzzDevices>();
  auto uart = std::make_unique<opec_hw::Uart>("USART2", opec_hw::kUsart2Base);
  auto gpio = std::make_unique<opec_hw::Gpio>("GPIOA", opec_hw::kGpioABase);
  devices->uart = uart.get();
  devices->gpio = gpio.get();
  machine.bus().AttachDevice(uart.get());
  machine.bus().AttachDevice(gpio.get());
  devices->owned.push_back(std::move(uart));
  devices->owned.push_back(std::move(gpio));
  return devices;
}

void FuzzApplication::PrepareScenario(opec_apps::AppDevices& devices) const {
  auto& d = static_cast<FuzzDevices&>(devices);
  if (!spec_.rx_input.empty()) {
    d.uart->PushRxString(spec_.rx_input);
  }
}

std::string FuzzApplication::CheckScenario(const opec_apps::AppDevices& devices,
                                           const opec_rt::RunResult& result) const {
  (void)devices;
  (void)result;
  return "";  // the differential oracles judge the outputs
}

}  // namespace opec_fuzz
