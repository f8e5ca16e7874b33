// Fuzz program recipes (DESIGN.md Section 12).
//
// A ProgramSpec is a small, self-contained AST over the opec_ir eDSL: typed
// globals (scalars, arrays, structs with pointer fields, pointer and
// function-pointer globals), helper functions, operation-entry tasks and a
// main routine. The recipe — not a built module — is the unit the fuzzer
// passes around, because the OPEC compile mutates modules: every build
// (vanilla image, OPEC image, shrink probe) must start from pristine IR, so
// BuildModule() reconstructs a fresh module from the recipe each time.
//
// The grammar is restricted so every generated program terminates and is
// deterministic: loops are bounded counter loops, division is by non-zero
// constants, there is no recursion, and all device input comes from the
// scenario's pinned UART bytes.

#ifndef SRC_FUZZ_PROGRAM_H_
#define SRC_FUZZ_PROGRAM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/hw/devices/gpio.h"
#include "src/hw/devices/uart.h"
#include "src/ir/module.h"

namespace opec_fuzz {

// Scalar value types the generator draws from.
enum class Scalar : uint8_t { kU8, kU16, kU32, kI32 };

// Operators, mirroring the FunctionBuilder overloads.
enum class FBinOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kRem, kAnd, kOr, kXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe, kLAnd, kLOr,
};
enum class FUnOp : uint8_t { kNeg, kBitNot };

// Expression node. Children live in `kids` (vector of incomplete type is
// fine since C++17): unary/Addr/Deref/Cast use kids[0]; binary and Idx use
// kids[0..1]; Fld uses kids[0]; calls use kids as the argument list.
struct FExpr {
  enum class K : uint8_t {
    kConst,   // integer literal of type `scalar`
    kGlobal,  // module global `name`
    kLocal,   // local or parameter `name`
    kBin,     // kids[0] <bin> kids[1]
    kUn,      // <un> kids[0]
    kIdx,     // kids[0][kids[1]]
    kFld,     // kids[0].name
    kAddr,    // &kids[0]
    kDeref,   // *kids[0]
    kMmio,    // 32-bit MMIO register at constant `addr`
    kCall,    // direct call of `name` with kids as args (u32-returning helper)
    kICall,   // indirect call through fn-ptr global `name` with kids as args
    kCast,    // (scalar)kids[0]
    kFnAddr,  // &function `name`, as a function-pointer value
  };
  K k = K::kConst;
  Scalar scalar = Scalar::kU32;  // kConst value type / kCast target
  uint64_t value = 0;            // kConst
  std::string name;              // kGlobal/kLocal: variable; kFld: field; kCall/kICall
  FBinOp bin = FBinOp::kAdd;
  FUnOp un = FUnOp::kNeg;
  uint32_t addr = 0;  // kMmio
  std::vector<FExpr> kids;
};

// Statement node. Bounded loops carry their own counter variable so the
// shrinker can never separate a loop from its increment.
struct FStmt {
  enum class K : uint8_t {
    kAssign,  // lhs = rhs
    kExpr,    // rhs evaluated for effect (a call, usually)
    kIf,      // if (rhs) body [else orelse]
    kLoop,    // for (loop_var = 0; loop_var < loop_count; ++loop_var) body
    kCall,    // void call of `callee` with args
    kRet,     // return rhs (u32 functions only)
  };
  K k = K::kAssign;
  FExpr lhs;
  FExpr rhs;
  std::string callee;
  std::vector<FExpr> args;
  std::string loop_var;
  uint32_t loop_count = 0;
  std::vector<FStmt> body;
  std::vector<FStmt> orelse;
};

struct FField {
  std::string name;
  Scalar scalar = Scalar::kU32;
  bool is_ptr_u8 = false;  // pointer-to-u8 field (shadow pointer redirection)
};

struct FGlobal {
  enum class K : uint8_t { kScalar, kArray, kStruct, kPtr, kFnPtr, kConstArray };
  K k = K::kScalar;
  std::string name;
  Scalar scalar = Scalar::kU32;  // kScalar type / kArray & kConstArray element
  uint32_t count = 0;            // kArray / kConstArray length
  std::string struct_name;       // kStruct nominal type name
  std::vector<FField> fields;    // kStruct
  Scalar ptr_elem = Scalar::kU32;  // kPtr pointee
  std::vector<uint8_t> init;       // kConstArray initial bytes
};

struct FParam {
  std::string name;
  bool is_ptr_u8 = false;  // pointer-to-u8 parameter, else u32
};

struct FFunc {
  std::string name;
  bool returns_u32 = false;  // else void
  std::vector<FParam> params;
  // Locals are all pre-declared and zero-initialized at function entry, so
  // removing any body statement keeps the function well-formed.
  std::vector<std::pair<std::string, Scalar>> locals;
  // u8 stack buffers (name, length), zero-filled at entry; passed by address
  // into entry functions to exercise the monitor's stack relocation.
  std::vector<std::pair<std::string, uint32_t>> u8_array_locals;
  std::vector<FStmt> body;
  bool is_entry = false;                      // operation entry function
  std::map<int, uint32_t> pointer_arg_sizes;  // entry stack info
};

struct FSanitize {
  std::string global;
  uint32_t min = 0;
  uint32_t max = 0xFFFFFFFFu;
};

struct ProgramSpec {
  uint64_t seed = 0;
  std::vector<FGlobal> globals;
  std::vector<FFunc> funcs;  // helpers and tasks; the last entry must be "main"
  std::vector<FSanitize> sanitize;
  std::string rx_input;  // UART bytes the scenario feeds in
};

// Builds a fresh pristine module from the recipe. Deterministic: the same
// spec always produces structurally identical IR.
std::unique_ptr<opec_ir::Module> BuildModule(const ProgramSpec& spec);

// Total number of recipe statements (recursing into if/loop bodies) — the
// shrinker's size metric.
size_t CountStatements(const ProgramSpec& spec);
size_t CountStatements(const std::vector<FStmt>& body);

// Names of functions referenced by any remaining call/icall/fn-ptr use, and
// of globals referenced by any remaining expression. The shrinker uses these
// to drop dead declarations safely.
void CollectCalleeRefs(const ProgramSpec& spec, std::map<std::string, int>* refs);
void CollectGlobalRefs(const ProgramSpec& spec, std::map<std::string, int>* refs);

// One-line structural summary (counts), for logs and corpus dumps.
std::string SpecSummary(const ProgramSpec& spec);

// --- Application wrapper -------------------------------------------------

struct FuzzDevices : public opec_apps::AppDevices {
  opec_hw::Uart* uart = nullptr;
  opec_hw::Gpio* gpio = nullptr;
  std::vector<std::unique_ptr<opec_hw::MmioDevice>> owned;
};

// Adapts a recipe to the AppRun harness: STM32F4-Discovery board, USART2 +
// GPIOA devices, scenario input = spec.rx_input. CheckScenario is empty —
// the differential oracles judge the outputs.
class FuzzApplication : public opec_apps::Application {
 public:
  explicit FuzzApplication(ProgramSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override;
  opec_hw::Board board() const override { return opec_hw::Board::kStm32F4Discovery; }
  std::unique_ptr<opec_ir::Module> BuildModule() const override;
  opec_compiler::PartitionConfig Partition() const override;
  opec_hw::SocDescription Soc() const override;
  std::unique_ptr<opec_apps::AppDevices> CreateDevices(opec_hw::Machine& machine) const override;
  void PrepareScenario(opec_apps::AppDevices& devices) const override;
  std::string CheckScenario(const opec_apps::AppDevices& devices,
                            const opec_rt::RunResult& result) const override;

  const ProgramSpec& spec() const { return spec_; }

 private:
  ProgramSpec spec_;
};

}  // namespace opec_fuzz

#endif  // SRC_FUZZ_PROGRAM_H_
