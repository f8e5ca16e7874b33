// Call graph construction with indirect-call resolution (Section 4.1).
//
// Direct edges come straight from the IR. Indirect calls are resolved by the
// points-to analysis; icalls the points-to cannot resolve fall back to
// type-based matching: two function types are identical when the argument
// count, the struct argument types, the pointer argument types and the return
// type agree. The result is a sound (over-approximated) call graph.

#ifndef SRC_ANALYSIS_CALL_GRAPH_H_
#define SRC_ANALYSIS_CALL_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/points_to.h"
#include "src/ir/module.h"

namespace opec_analysis {

// One indirect-call site and how it was resolved — feeds Table 3.
struct ICallSite {
  const opec_ir::Function* caller = nullptr;
  const opec_ir::Expr* expr = nullptr;
  std::set<const opec_ir::Function*> targets;
  bool resolved_by_pta = false;   // SVF column in Table 3
  bool resolved_by_type = false;  // Type column in Table 3
};

struct ICallStats {
  int num_icalls = 0;
  int resolved_by_pta = 0;
  int resolved_by_type = 0;
  int unresolved = 0;
  double pta_seconds = 0;
  double avg_targets = 0;  // over resolved icalls
  int max_targets = 0;
};

class CallGraph {
 public:
  // Builds the graph. The points-to analysis is Run() if it has not been.
  static CallGraph Build(const opec_ir::Module& module, PointsToAnalysis& pta);

  const std::set<const opec_ir::Function*>& Callees(const opec_ir::Function* fn) const;
  ICallStats Stats() const;

  // Depth-first traversal from `root` over the call graph, backtracking at
  // any function in `stop_at` (the other operation entries, per Section 4.3).
  // The root is always included, even if it is also in `stop_at`.
  std::set<const opec_ir::Function*> Reachable(
      const opec_ir::Function* root, const std::set<const opec_ir::Function*>& stop_at) const;

 private:
  std::map<const opec_ir::Function*, std::set<const opec_ir::Function*>> edges_;
  std::vector<ICallSite> icall_sites_;
  double pta_seconds_ = 0;
  std::set<const opec_ir::Function*> empty_;
};

// The paper's type-identity rule for the fallback matching.
bool TypesCompatibleForICall(const opec_ir::Type* signature, const opec_ir::Type* candidate);

}  // namespace opec_analysis

#endif  // SRC_ANALYSIS_CALL_GRAPH_H_
