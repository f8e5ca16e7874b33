#include "src/ir/builder.h"

#include "src/support/check.h"

namespace opec_ir {

namespace {
Val Bin(BinaryOp op, const Val& a, const Val& b) {
  return {MakeBinary(op, a.expr->type, a.expr, b.expr)};
}
}  // namespace

Val operator+(const Val& a, const Val& b) { return Bin(BinaryOp::kAdd, a, b); }
Val operator-(const Val& a, const Val& b) { return Bin(BinaryOp::kSub, a, b); }
Val operator*(const Val& a, const Val& b) { return Bin(BinaryOp::kMul, a, b); }
Val operator/(const Val& a, const Val& b) { return Bin(BinaryOp::kDiv, a, b); }
Val operator%(const Val& a, const Val& b) { return Bin(BinaryOp::kRem, a, b); }
Val operator&(const Val& a, const Val& b) { return Bin(BinaryOp::kAnd, a, b); }
Val operator|(const Val& a, const Val& b) { return Bin(BinaryOp::kOr, a, b); }
Val operator^(const Val& a, const Val& b) { return Bin(BinaryOp::kXor, a, b); }
Val operator<<(const Val& a, const Val& b) { return Bin(BinaryOp::kShl, a, b); }
Val operator>>(const Val& a, const Val& b) { return Bin(BinaryOp::kShr, a, b); }
Val operator==(const Val& a, const Val& b) { return Bin(BinaryOp::kEq, a, b); }
Val operator!=(const Val& a, const Val& b) { return Bin(BinaryOp::kNe, a, b); }
Val operator<(const Val& a, const Val& b) { return Bin(BinaryOp::kLt, a, b); }
Val operator<=(const Val& a, const Val& b) { return Bin(BinaryOp::kLe, a, b); }
Val operator>(const Val& a, const Val& b) { return Bin(BinaryOp::kGt, a, b); }
Val operator>=(const Val& a, const Val& b) { return Bin(BinaryOp::kGe, a, b); }
Val operator&&(const Val& a, const Val& b) { return Bin(BinaryOp::kLogAnd, a, b); }
Val operator||(const Val& a, const Val& b) { return Bin(BinaryOp::kLogOr, a, b); }
Val operator-(const Val& a) { return {MakeUnary(UnaryOp::kNeg, a.expr)}; }
Val operator~(const Val& a) { return {MakeUnary(UnaryOp::kBitNot, a.expr)}; }

// A control-flow scope currently being built.
struct FunctionBuilder::Scope {
  enum class Kind { kFunction, kIfThen, kIfElse, kWhile } kind;
  ExprPtr cond;                    // for kIfThen/kIfElse/kWhile
  std::vector<StmtPtr> stmts;      // statements of the active block
  std::vector<StmtPtr> then_save;  // kIfElse: the completed then-block
};

FunctionBuilder::FunctionBuilder(Module& module, Function* fn) : module_(module), fn_(fn) {
  OPEC_CHECK(fn != nullptr);
  scopes_.push_back({Scope::Kind::kFunction, nullptr, {}, {}});
}

FunctionBuilder::~FunctionBuilder() {
  // Builders must be finished explicitly; an unfinished builder in a test
  // usually indicates a missing End()/Finish() pair, surfaced via CHECK in
  // Finish(), not here (destructors must not abort during unwinding).
}

std::vector<StmtPtr>& FunctionBuilder::CurrentBlock() {
  OPEC_CHECK(!finished_);
  return scopes_.back().stmts;
}

void FunctionBuilder::Emit(StmtPtr s) { CurrentBlock().push_back(std::move(s)); }

Val FunctionBuilder::C(const Type* type, int64_t v) { return {MakeIntConst(type, v)}; }

Val FunctionBuilder::Null(const Type* ptr_type) {
  OPEC_CHECK(ptr_type->IsPointer());
  return {MakeIntConst(ptr_type, 0)};
}

Val FunctionBuilder::L(const std::string& name) const {
  const auto& locals = fn_->locals();
  for (size_t i = 0; i < locals.size(); ++i) {
    if (locals[i].name == name) {
      return {MakeLocal(locals[i].type, static_cast<int>(i))};
    }
  }
  OPEC_UNREACHABLE("no such local: " + name + " in " + fn_->name());
}

Val FunctionBuilder::Local(const std::string& name, const Type* type) {
  int slot = fn_->AddLocal(name, type);
  return {MakeLocal(type, slot)};
}

Val FunctionBuilder::G(const std::string& name) const {
  GlobalVariable* gv = module_.FindGlobal(name);
  OPEC_CHECK_MSG(gv != nullptr, "no such global: " + name);
  return {MakeGlobal(gv)};
}

Val FunctionBuilder::FnPtr(const std::string& fn_name) {
  Function* fn = module_.FindFunction(fn_name);
  OPEC_CHECK_MSG(fn != nullptr, "no such function: " + fn_name);
  return {MakeFuncAddr(module_.types().PointerTo(fn->type()), fn)};
}

Val FunctionBuilder::Addr(const Val& lvalue) {
  return {MakeAddrOf(module_.types().PointerTo(lvalue.expr->type), lvalue.expr)};
}

Val FunctionBuilder::Idx(const Val& base, uint32_t index) { return Idx(base, U32(index)); }

Val FunctionBuilder::Fld(const Val& base, const std::string& field) const {
  int idx = base.expr->type->FieldIndex(field);
  OPEC_CHECK_MSG(idx >= 0, "no field '" + field + "' in " + base.expr->type->ToString());
  return {MakeField(base.expr, idx)};
}

Val FunctionBuilder::Mmio32(uint32_t addr) {
  const Type* p = module_.types().PointerTo(module_.types().U32());
  return {MakeDeref(MakeCast(p, MakeIntConst(module_.types().U32(), addr)))};
}

Val FunctionBuilder::Coerce(const Type* want, const Val& v) const {
  if (want == v.expr->type) {
    return v;
  }
  if (want->IsInt() && v.expr->type->IsInt()) {
    return {MakeCast(want, v.expr)};
  }
  if (want->IsPointer() && v.expr->type->IsPointer()) {
    return {MakeCast(want, v.expr)};
  }
  if (want->IsPointer() && v.expr->type->IsInt()) {
    // Integer literal 0 as a null pointer.
    OPEC_CHECK_MSG(v.expr->kind == ExprKind::kIntConst && v.expr->int_value == 0,
                   "implicit int-to-pointer conversion (only literal 0 allowed)");
    return {MakeIntConst(want, 0)};
  }
  OPEC_UNREACHABLE("cannot convert " + v.expr->type->ToString() + " to " + want->ToString());
}

std::vector<ExprPtr> FunctionBuilder::CoerceArgs(const Type* signature, std::vector<Val>& args) {
  OPEC_CHECK_MSG(args.size() == signature->params().size(),
                 "call arity mismatch (" + std::to_string(args.size()) + " vs " +
                     std::to_string(signature->params().size()) + ")");
  std::vector<ExprPtr> out;
  out.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    out.push_back(Coerce(signature->params()[i], args[i]).expr);
  }
  return out;
}

Val FunctionBuilder::CallV(const std::string& fn_name, std::vector<Val> args) {
  Function* fn = module_.FindFunction(fn_name);
  OPEC_CHECK_MSG(fn != nullptr, "no such function: " + fn_name);
  return {MakeCall(fn, CoerceArgs(fn->type(), args))};
}

void FunctionBuilder::Call(const std::string& fn_name, std::vector<Val> args) {
  Emit(MakeExprStmt(CallV(fn_name, std::move(args)).expr));
}

Val FunctionBuilder::ICallV(const Type* signature, const Val& fn_ptr, std::vector<Val> args) {
  std::vector<ExprPtr> coerced = CoerceArgs(signature, args);
  return {MakeICall(signature, fn_ptr.expr, std::move(coerced))};
}

void FunctionBuilder::ICall(const Type* signature, const Val& fn_ptr, std::vector<Val> args) {
  Emit(MakeExprStmt(ICallV(signature, fn_ptr, std::move(args)).expr));
}

void FunctionBuilder::Assign(const Val& lvalue, const Val& value) {
  Emit(MakeAssign(lvalue.expr, Coerce(lvalue.expr->type, value).expr));
}

void FunctionBuilder::Do(const Val& expr) { Emit(MakeExprStmt(expr.expr)); }

void FunctionBuilder::If(const Val& cond) {
  scopes_.push_back({Scope::Kind::kIfThen, cond.expr, {}, {}});
}

void FunctionBuilder::Else() {
  OPEC_CHECK_MSG(scopes_.back().kind == Scope::Kind::kIfThen, "Else() without open If()");
  Scope s = std::move(scopes_.back());
  scopes_.pop_back();
  scopes_.push_back({Scope::Kind::kIfElse, s.cond, {}, std::move(s.stmts)});
}

void FunctionBuilder::While(const Val& cond) {
  scopes_.push_back({Scope::Kind::kWhile, cond.expr, {}, {}});
}

void FunctionBuilder::End() {
  OPEC_CHECK_MSG(scopes_.size() > 1, "End() without open scope");
  Scope s = std::move(scopes_.back());
  scopes_.pop_back();
  switch (s.kind) {
    case Scope::Kind::kIfThen:
      Emit(MakeIf(s.cond, std::move(s.stmts), {}));
      break;
    case Scope::Kind::kIfElse:
      Emit(MakeIf(s.cond, std::move(s.then_save), std::move(s.stmts)));
      break;
    case Scope::Kind::kWhile:
      Emit(MakeWhile(s.cond, std::move(s.stmts)));
      break;
    case Scope::Kind::kFunction:
      OPEC_UNREACHABLE("End() on function scope; call Finish()");
  }
}

void FunctionBuilder::Break() { Emit(MakeBreak()); }

void FunctionBuilder::Continue() { Emit(MakeContinue()); }

void FunctionBuilder::Ret(const Val& value) {
  const Type* want = fn_->type()->return_type();
  OPEC_CHECK_MSG(!want->IsVoid(), fn_->name() + " returns void; use RetVoid()");
  Emit(MakeReturn(Coerce(want, value).expr));
}

void FunctionBuilder::RetVoid() {
  OPEC_CHECK_MSG(fn_->type()->return_type()->IsVoid(),
                 fn_->name() + " returns a value; use Ret(v)");
  Emit(MakeReturn(nullptr));
}

void FunctionBuilder::Finish() {
  OPEC_CHECK_MSG(scopes_.size() == 1, "Finish() with unclosed control-flow scopes in " +
                                          fn_->name());
  OPEC_CHECK(!finished_);
  fn_->set_body(std::move(scopes_.back().stmts));
  scopes_.clear();
  finished_ = true;
}

}  // namespace opec_ir
