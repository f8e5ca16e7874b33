// Inclusion-based (Andersen-style) points-to analysis over guest IR.
//
// This is the reproduction's stand-in for SVF (Section 4.1/4.2): a
// conservative, over-approximating, flow- and field-insensitive
// inter-procedural analysis. Abstract locations are globals, locals,
// functions (as icall targets), and constant memory addresses (peripheral
// registers cast from integer literals). Indirect calls are resolved
// on-the-fly while solving.
//
// The analysis is deliberately imprecise in the same ways the paper reports
// for SVF: arrays and struct fields collapse onto their base variable, and
// icall target sets may contain spurious functions — which surfaces as
// execution-time over-privilege in Figure 11.

#ifndef SRC_ANALYSIS_POINTS_TO_H_
#define SRC_ANALYSIS_POINTS_TO_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/ir/module.h"

namespace opec_analysis {

// Fixpoint strategy. kWorklist is the default: nodes whose points-to set grew
// are revisited, load/store constraints materialize copy edges incrementally,
// and new edges are deduplicated — near-linear in practice. kExhaustive
// re-scans every constraint until quiescence (the reference semantics); both
// compute the same least fixpoint, which the differential tests check.
enum class SolverMode {
  kWorklist,
  kExhaustive,
};

// An abstract memory location / pointer node.
struct PtaNode {
  enum class Kind {
    kGlobal,    // a global variable (collapsed: includes its elements/fields)
    kLocal,     // a local variable of some function
    kFunc,      // a function, as the target of function pointers
    kMemConst,  // a constant address (peripheral register window)
    kTemp,      // the value of an expression
    kRet,       // a function's return value
  };
  Kind kind = Kind::kTemp;
  const opec_ir::GlobalVariable* global = nullptr;
  const opec_ir::Function* func = nullptr;  // kLocal: owner; kFunc/kRet: subject
  int local_slot = -1;
  uint32_t const_addr = 0;
  const opec_ir::Expr* expr = nullptr;  // kTemp
};

class PointsToAnalysis {
 public:
  explicit PointsToAnalysis(const opec_ir::Module& module,
                            SolverMode mode = SolverMode::kWorklist);

  // Builds constraints and solves to fixpoint. Idempotent.
  void Run();

  // --- Queries (valid after Run) ---

  // Functions a given indirect-call expression may target.
  std::set<const opec_ir::Function*> ICallTargets(const opec_ir::Expr* icall) const;

  // Abstract locations a pointer-valued expression may point to.
  // Returns global variables / constant addresses reachable from the
  // expression's temp node.
  std::set<const opec_ir::GlobalVariable*> PointeeGlobals(const opec_ir::Expr* e) const;
  std::set<uint32_t> PointeeConstAddrs(const opec_ir::Expr* e) const;
  // True if the expression may point to stack (local-variable) storage.
  bool MayPointToLocal(const opec_ir::Expr* e) const;

  double solve_seconds() const { return solve_seconds_; }
  SolverMode solver_mode() const { return mode_; }

  const opec_ir::Module& module() const { return module_; }

  // --- Synthetic-constraint interface (differential solver testing) ---
  //
  // Lets a test build an arbitrary constraint graph without walking a module,
  // solve it with the configured mode, and read raw points-to sets back, so
  // the worklist and exhaustive solvers can be compared on randomized inputs.
  int InjectNode();                    // fresh abstract node; returns its id
  void InjectBase(int node, int loc);  // loc ∈ pts(node)
  void InjectCopy(int from, int to);   // pts(from) ⊆ pts(to)
  void InjectLoad(int ptr, int dst);   // ∀ l ∈ pts(ptr): pts(l) ⊆ pts(dst)
  void InjectStore(int ptr, int src);  // ∀ l ∈ pts(ptr): pts(src) ⊆ pts(l)
  // Solves the injected constraints directly (no constraint generation from
  // the module). Idempotent, like Run().
  void SolveInjected();
  const std::set<int>& PointsToSetOf(int node) const;

 private:
  int NewNode(PtaNode node);
  int GlobalNode(const opec_ir::GlobalVariable* gv);
  int LocalNode(const opec_ir::Function* fn, int slot);
  int FuncNode(const opec_ir::Function* fn);
  int MemConstNode(uint32_t addr);
  int RetNode(const opec_ir::Function* fn);
  int TempNode(const opec_ir::Expr* e);

  void AddBase(int node, int loc);       // loc ∈ pts(node)
  void AddCopy(int from, int to);        // pts(from) ⊆ pts(to)
  void AddLoad(int ptr, int dst);        // ∀ l ∈ pts(ptr): pts(l) ⊆ pts(dst)
  void AddStore(int ptr, int src);       // ∀ l ∈ pts(ptr): pts(src) ⊆ pts(l)

  // Constraint generation.
  void ProcessFunction(const opec_ir::Function& fn);
  void ProcessStmt(const opec_ir::Function& fn, const opec_ir::Stmt& s);
  // Returns the temp node holding the expression's pointer value (creating
  // constraints for sub-expressions), or -1 when the expression cannot carry
  // a pointer we track.
  int ProcessExpr(const opec_ir::Function& fn, const opec_ir::Expr& e);
  // Returns the node of the *location* an lvalue denotes (collapsed), or -1.
  int LocationOf(const opec_ir::Function& fn, const opec_ir::Expr& lvalue);
  void WireCall(const opec_ir::Function& fn, const opec_ir::Expr& call, int temp);
  void WireCallee(const opec_ir::Expr& call, const opec_ir::Function* callee);

  void Solve();
  void SolveExhaustive();
  void SolveWorklist();

  const opec_ir::Module& module_;
  SolverMode mode_ = SolverMode::kWorklist;
  std::vector<PtaNode> nodes_;
  std::vector<std::set<int>> pts_;
  std::map<const opec_ir::GlobalVariable*, int> global_nodes_;
  std::map<std::pair<const opec_ir::Function*, int>, int> local_nodes_;
  std::map<const opec_ir::Function*, int> func_nodes_;
  std::map<uint32_t, int> memconst_nodes_;
  std::map<const opec_ir::Function*, int> ret_nodes_;
  std::map<const opec_ir::Expr*, int> temp_nodes_;

  std::vector<std::pair<int, int>> copy_edges_;
  std::vector<std::pair<int, int>> loads_;   // (ptr, dst)
  std::vector<std::pair<int, int>> stores_;  // (ptr, src)
  // Pending icall sites: (fnptr temp node, call expr) for on-the-fly wiring.
  std::vector<std::pair<int, const opec_ir::Expr*>> icall_sites_;
  std::set<std::pair<const opec_ir::Expr*, const opec_ir::Function*>> wired_;

  bool solved_ = false;
  double solve_seconds_ = 0;
};

}  // namespace opec_analysis

#endif  // SRC_ANALYSIS_POINTS_TO_H_
