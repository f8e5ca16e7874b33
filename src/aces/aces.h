// ACES baseline (Clements et al., USENIX Security '18), re-implemented to the
// published behaviour needed for the paper's comparison (Section 6.4):
//
//   * Three partition strategies: filename with compartment-merging
//     optimization (ACES1), filename without optimization (ACES2), and
//     peripheral-based grouping (ACES3).
//   * Global variables are grouped into MPU data regions. A compartment may
//     use at most kDataRegionBudget regions; when a compartment needs more,
//     regions are merged — the *partition-time over-privilege* of Section
//     3.1: every compartment allowed on a merged region can access all of its
//     variables, needed or not.
//   * Compartments containing core-peripheral accesses are lifted to the
//     privileged level (the PAC column of Table 2).
//   * A runtime model (AcesRuntime) counts and charges compartment switches
//     at cross-compartment call edges for the RO comparison.

#ifndef SRC_ACES_ACES_H_
#define SRC_ACES_ACES_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/call_graph.h"
#include "src/analysis/resource_analysis.h"
#include "src/hw/machine.h"
#include "src/hw/soc.h"
#include "src/ir/module.h"
#include "src/rt/supervisor.h"

namespace opec_aces {

enum class AcesStrategy {
  kFilename,       // ACES1: filename + merge optimization
  kFilenameNoOpt,  // ACES2: one compartment per source file
  kPeripheral,     // ACES3: group by accessed peripheral
};

const char* StrategyName(AcesStrategy s);

struct Compartment {
  int id = -1;
  std::string name;
  std::set<const opec_ir::Function*> functions;
  // Globals the compartment's code actually needs (writable only).
  std::set<const opec_ir::GlobalVariable*> needed_globals;
  // Globals reachable through its assigned data regions (>= needed: the
  // partition-time over-privilege).
  std::set<const opec_ir::GlobalVariable*> accessible_globals;
  std::set<std::string> peripherals;
  std::set<std::string> core_peripherals;
  bool privileged = false;  // lifted because of core-peripheral access
  uint32_t code_bytes = 0;
};

struct DataRegion {
  std::set<const opec_ir::GlobalVariable*> vars;
  std::set<int> compartments;  // compartments allowed to access the region
  uint32_t bytes = 0;
};

struct AcesResult {
  AcesStrategy strategy = AcesStrategy::kFilename;
  std::vector<Compartment> compartments;
  std::map<const opec_ir::Function*, int> function_compartment;
  std::vector<DataRegion> regions;
  int merge_steps = 0;  // how many region merges the MPU budget forced

  // Overhead model (Table 2 FO/SO columns).
  uint32_t flash_overhead_bytes = 0;
  uint32_t sram_overhead_bytes = 0;

  int CompartmentOf(const opec_ir::Function* fn) const {
    auto it = function_compartment.find(fn);
    return it == function_compartment.end() ? -1 : it->second;
  }
};

// MPU regions ACES can spend on data. Of the 8 regions, ACES uses the
// default/background map, the compartment code region, common code, the stack
// window and at least one peripheral region — leaving about two regions for
// global-variable data, which is what forces the region merging of Figure 3.
inline constexpr int kDataRegionBudget = 2;

AcesResult PartitionAces(
    const opec_ir::Module& module, const opec_analysis::CallGraph& cg,
    const std::map<const opec_ir::Function*, opec_analysis::FunctionResources>& resources,
    const opec_hw::SocDescription& soc, AcesStrategy strategy);

// Runtime model: counts cross-compartment call edges and charges the ACES
// compartment-switch cost (SVC entry, region reconfiguration, stack-window
// micro-emulation). Install as the engine's supervisor on a vanilla image.
class AcesRuntime : public opec_rt::Supervisor {
 public:
  // Derived from the ACES paper's reported switch costs on Cortex-M4.
  static constexpr uint64_t kSwitchCycles = 400;

  AcesRuntime(opec_hw::Machine& machine, const AcesResult& result)
      : machine_(machine), result_(result) {}

  void OnProgramStart(opec_rt::Engine* engine) override;
  bool OnOperationEnter(int op_id, std::vector<uint32_t>& args) override;
  bool OnOperationExit(int op_id) override;
  bool OnFunctionCall(const opec_ir::Function* callee) override;
  bool OnFunctionReturn(const opec_ir::Function* callee) override;

  uint64_t compartment_switches() const { return switches_; }

 private:
  opec_hw::Machine& machine_;
  const AcesResult& result_;
  std::vector<int> compartment_stack_;
  uint64_t switches_ = 0;
};

}  // namespace opec_aces

#endif  // SRC_ACES_ACES_H_
