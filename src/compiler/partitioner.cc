#include "src/compiler/partitioner.h"

#include "src/support/check.h"

namespace opec_compiler {

using opec_analysis::CallGraph;
using opec_analysis::FunctionResources;
using opec_ir::Function;
using opec_ir::GlobalVariable;
using opec_ir::Module;

PartitionResult PartitionOperations(
    const Module& module, const CallGraph& cg,
    const std::map<const Function*, FunctionResources>& resources, const PartitionConfig& config) {
  PartitionResult result;

  const Function* main_fn = module.FindFunction("main");
  OPEC_CHECK_MSG(main_fn != nullptr, "program has no main function");

  // The stop set: all operation entries (the DFS backtracks when it reaches
  // another operation's entry, Section 4.3).
  std::set<const Function*> entries;
  std::vector<std::pair<const Function*, EntrySpec>> roots;
  // The default operation for main comes first (operation id 0).
  EntrySpec main_spec;
  main_spec.function = "main";
  roots.emplace_back(main_fn, main_spec);
  for (const EntrySpec& spec : config.entries) {
    const Function* fn = module.FindFunction(spec.function);
    OPEC_CHECK_MSG(fn != nullptr, "operation entry does not exist: " + spec.function);
    OPEC_CHECK_MSG(!fn->type()->is_variadic(),
                   "operation entry cannot be variadic: " + spec.function);
    OPEC_CHECK_MSG(fn != main_fn, "main is implicitly the default operation");
    entries.insert(fn);
    roots.emplace_back(fn, spec);
  }

  for (const auto& [root, spec] : roots) {
    PartitionedOperation op;
    op.id = static_cast<int>(result.operations.size());
    op.entry = root;
    op.spec = spec;
    op.members = cg.Reachable(root, entries);
    for (const Function* member : op.members) {
      auto it = resources.find(member);
      if (it == resources.end()) {
        continue;
      }
      const FunctionResources& res = it->second;
      for (const GlobalVariable* gv : res.AllGlobals()) {
        if (gv->is_const()) {
          op.ro_globals.insert(gv);
        } else {
          op.globals.insert(gv);
        }
      }
      op.peripherals.insert(res.peripherals.begin(), res.peripherals.end());
      op.core_peripherals.insert(res.core_peripherals.begin(), res.core_peripherals.end());
      result.function_ops[member].push_back(op.id);
    }
    result.operations.push_back(std::move(op));
  }
  return result;
}

}  // namespace opec_compiler
