// FunctionBuilder: an embedded DSL for authoring guest IR.
//
// Guest applications (src/apps) are written against this builder the way the
// paper's applications are written in C against the STM32 HAL. Example:
//
//   opec_ir::Module m("demo");
//   auto* fn = m.AddFunction("count", m.types().FunctionTy(m.types().VoidTy(), {}), {});
//   opec_ir::FunctionBuilder b(m, fn);
//   Val i = b.Local("i", m.types().U32());
//   b.Assign(i, b.U32(0));
//   b.While(i < b.U32(10));
//     b.Assign(b.G("counter"), b.G("counter") + b.U32(1));
//     b.Assign(i, i + b.U32(1));
//   b.End();
//   b.Finish();
//
// Binary operators take the left operand's type as the result type; integer
// widths are converted implicitly on Assign and on call-argument passing
// (truncate / zero- or sign-extend), matching C's usual conversions closely
// enough for the guest programs we author.

#ifndef SRC_IR_BUILDER_H_
#define SRC_IR_BUILDER_H_

#include <string>
#include <vector>

#include "src/ir/module.h"

namespace opec_ir {

// A value handle: wraps an ExprPtr so guest code reads like C.
struct Val {
  ExprPtr expr;
  const Type* type() const { return expr->type; }
};

Val operator+(const Val& a, const Val& b);
Val operator-(const Val& a, const Val& b);
Val operator*(const Val& a, const Val& b);
Val operator/(const Val& a, const Val& b);
Val operator%(const Val& a, const Val& b);
Val operator&(const Val& a, const Val& b);
Val operator|(const Val& a, const Val& b);
Val operator^(const Val& a, const Val& b);
Val operator<<(const Val& a, const Val& b);
Val operator>>(const Val& a, const Val& b);
Val operator==(const Val& a, const Val& b);
Val operator!=(const Val& a, const Val& b);
Val operator<(const Val& a, const Val& b);
Val operator<=(const Val& a, const Val& b);
Val operator>(const Val& a, const Val& b);
Val operator>=(const Val& a, const Val& b);
Val operator&&(const Val& a, const Val& b);
Val operator||(const Val& a, const Val& b);
Val operator-(const Val& a);
Val operator~(const Val& a);

class FunctionBuilder {
 public:
  // Begins building `fn`'s body. `fn` must belong to `module`.
  FunctionBuilder(Module& module, Function* fn);
  ~FunctionBuilder();

  FunctionBuilder(const FunctionBuilder&) = delete;
  FunctionBuilder& operator=(const FunctionBuilder&) = delete;

  Module& module() { return module_; }
  TypeTable& types() { return module_.types(); }

  // --- Values ---

  // Integer constants.
  Val C(const Type* type, int64_t v);
  Val U8(uint32_t v) { return C(types().U8(), v); }
  Val U16(uint32_t v) { return C(types().U16(), v); }
  Val U32(uint32_t v) { return C(types().U32(), v); }
  Val I32(int32_t v) { return C(types().I32(), v); }
  // Null pointer of the given pointer type.
  Val Null(const Type* ptr_type);

  // Reference to a parameter or previously declared local, by name.
  Val L(const std::string& name) const;
  // Declares a new local variable and returns a reference to it.
  Val Local(const std::string& name, const Type* type);
  // Reference to a module global, by name (must exist).
  Val G(const std::string& name) const;
  // Address of a function, as a function-pointer value.
  Val FnPtr(const std::string& fn_name);

  // --- Compound lvalues / memory ---
  Val Deref(const Val& ptr) const { return {MakeDeref(ptr.expr)}; }
  Val Addr(const Val& lvalue);
  Val Idx(const Val& base, const Val& index) const { return {MakeIndex(base.expr, index.expr)}; }
  Val Idx(const Val& base, uint32_t index);
  Val Fld(const Val& base, const std::string& field) const;
  Val CastTo(const Type* type, const Val& v) const { return {MakeCast(type, v.expr)}; }

  // Memory-mapped I/O register at a constant address, as a u32 lvalue. This is
  // the idiom the peripheral-access analysis recognizes (a constant address
  // flowing into a load/store, per Section 4.2 of the paper).
  Val Mmio32(uint32_t addr);

  // --- Calls ---
  Val CallV(const std::string& fn_name, std::vector<Val> args = {});
  void Call(const std::string& fn_name, std::vector<Val> args = {});
  Val ICallV(const Type* signature, const Val& fn_ptr, std::vector<Val> args = {});
  void ICall(const Type* signature, const Val& fn_ptr, std::vector<Val> args = {});

  // --- Statements ---
  void Assign(const Val& lvalue, const Val& value);
  void Do(const Val& expr);  // evaluate for effect

  void If(const Val& cond);
  void Else();
  void While(const Val& cond);
  void End();  // closes the innermost If/Else or While

  void Break();
  void Continue();
  void Ret(const Val& value);
  void RetVoid();

  // Finalizes the function body. Must be called exactly once, with all
  // control-flow scopes closed.
  void Finish();

 private:
  struct Scope;
  std::vector<StmtPtr>& CurrentBlock();
  void Emit(StmtPtr s);
  // Inserts an implicit integer conversion so `v` has type `want`.
  Val Coerce(const Type* want, const Val& v) const;
  std::vector<ExprPtr> CoerceArgs(const Type* signature, std::vector<Val>& args);

  Module& module_;
  Function* fn_;
  std::vector<Scope> scopes_;
  bool finished_ = false;
};

}  // namespace opec_ir

#endif  // SRC_IR_BUILDER_H_
