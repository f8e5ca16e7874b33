// Module-level IR containers: global variables, functions, the module itself.

#ifndef SRC_IR_MODULE_H_
#define SRC_IR_MODULE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/stmt.h"
#include "src/ir/type.h"

namespace opec_ir {

// A module-level variable living in guest SRAM (.data/.bss) or, when
// `is_const`, in guest Flash (.rodata). Initial bytes shorter than the type
// size are zero-extended (bss semantics).
class GlobalVariable {
 public:
  GlobalVariable(std::string name, const Type* type, bool is_const)
      : name_(std::move(name)), type_(type), is_const_(is_const) {}

  const std::string& name() const { return name_; }
  const Type* type() const { return type_; }
  bool is_const() const { return is_const_; }
  uint32_t size() const { return type_->size(); }

  // Dense position in Module::globals(), assigned by Module::AddGlobal. Lets
  // per-run consumers (the execution engine) index flat arrays instead of
  // pointer-keyed maps on the hot path.
  int ordinal() const { return ordinal_; }
  void set_ordinal(int o) { ordinal_ = o; }

  const std::vector<uint8_t>& initial_data() const { return initial_data_; }
  void set_initial_data(std::vector<uint8_t> bytes) { initial_data_ = std::move(bytes); }

 private:
  std::string name_;
  const Type* type_;
  bool is_const_;
  int ordinal_ = -1;
  std::vector<uint8_t> initial_data_;
};

// A local variable or parameter of a function. Parameters occupy the first
// `Function::param_count()` slots.
struct LocalVariable {
  std::string name;
  const Type* type = nullptr;
};

class Function {
 public:
  Function(std::string name, const Type* fn_type, std::vector<std::string> param_names)
      : name_(std::move(name)), type_(fn_type) {
    for (size_t i = 0; i < param_names.size(); ++i) {
      locals_.push_back({param_names[i], fn_type->params()[i]});
    }
    param_count_ = static_cast<int>(param_names.size());
  }

  const std::string& name() const { return name_; }
  const Type* type() const { return type_; }
  int param_count() const { return param_count_; }

  const std::vector<LocalVariable>& locals() const { return locals_; }
  // Adds a (non-parameter) local and returns its slot index.
  int AddLocal(const std::string& name, const Type* type) {
    locals_.push_back({name, type});
    return static_cast<int>(locals_.size()) - 1;
  }

  const std::vector<StmtPtr>& body() const { return body_; }
  void set_body(std::vector<StmtPtr> body) { body_ = std::move(body); }

  // Source file attribute, used by the ACES baseline's filename-based
  // partition strategies (the IR equivalent of the translation unit).
  const std::string& source_file() const { return source_file_; }
  void set_source_file(std::string f) { source_file_ = std::move(f); }

  // Dense position in Module::functions(), assigned by Module::AddFunction.
  int ordinal() const { return ordinal_; }
  void set_ordinal(int o) { ordinal_ = o; }

 private:
  std::string name_;
  const Type* type_;
  int param_count_ = 0;
  int ordinal_ = -1;
  std::vector<LocalVariable> locals_;
  std::vector<StmtPtr> body_;
  std::string source_file_;
};

// A guest program: the statically linked bare-metal image's IR, equivalent to
// the linked LLVM bitcode OPEC-Compiler consumes.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }
  TypeTable& types() { return types_; }
  const TypeTable& types() const { return types_; }

  GlobalVariable* AddGlobal(const std::string& name, const Type* type, bool is_const = false);
  Function* AddFunction(const std::string& name, const Type* fn_type,
                        std::vector<std::string> param_names);

  GlobalVariable* FindGlobal(const std::string& name) const;
  Function* FindFunction(const std::string& name) const;

  const std::vector<std::unique_ptr<GlobalVariable>>& globals() const { return globals_; }
  const std::vector<std::unique_ptr<Function>>& functions() const { return functions_; }

 private:
  std::string name_;
  TypeTable types_;
  std::vector<std::unique_ptr<GlobalVariable>> globals_;
  std::vector<std::unique_ptr<Function>> functions_;
  std::map<std::string, GlobalVariable*> global_index_;
  std::map<std::string, Function*> function_index_;
};

}  // namespace opec_ir

#endif  // SRC_IR_MODULE_H_
