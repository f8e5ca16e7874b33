#include "src/aces/aces.h"

#include <algorithm>

#include "src/compiler/image.h"
#include "src/support/check.h"

namespace opec_aces {

using opec_analysis::CallGraph;
using opec_analysis::FunctionResources;
using opec_hw::SocDescription;
using opec_ir::Function;
using opec_ir::GlobalVariable;
using opec_ir::Module;

const char* StrategyName(AcesStrategy s) {
  switch (s) {
    case AcesStrategy::kFilename:
      return "ACES1";
    case AcesStrategy::kFilenameNoOpt:
      return "ACES2";
    case AcesStrategy::kPeripheral:
      return "ACES3";
  }
  return "?";
}

namespace {

uint32_t NextPow2(uint32_t v) {
  uint32_t p = 32;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// Groups functions into compartments by a string key.
std::map<std::string, std::vector<const Function*>> GroupBy(
    const Module& module,
    const std::map<const Function*, FunctionResources>& resources, AcesStrategy strategy) {
  std::map<std::string, std::vector<const Function*>> groups;
  for (const auto& fn : module.functions()) {
    std::string key;
    switch (strategy) {
      case AcesStrategy::kFilename:
      case AcesStrategy::kFilenameNoOpt:
        key = fn->source_file().empty() ? "unknown.c" : fn->source_file();
        break;
      case AcesStrategy::kPeripheral: {
        // Peripheral-based grouping: functions touching the same peripheral
        // set share a compartment; peripheral-free code groups by file.
        auto it = resources.find(fn.get());
        if (it != resources.end() && !it->second.peripherals.empty()) {
          for (const std::string& p : it->second.peripherals) {
            key += p + "+";
          }
        } else {
          key = "file:" + (fn->source_file().empty() ? "unknown.c" : fn->source_file());
        }
        break;
      }
    }
    groups[key].push_back(fn.get());
  }
  return groups;
}

}  // namespace

AcesResult PartitionAces(const Module& module, const CallGraph& cg,
                         const std::map<const Function*, FunctionResources>& resources,
                         const SocDescription& soc, AcesStrategy strategy) {
  (void)soc;
  AcesResult result;
  result.strategy = strategy;

  // --- Form compartments ---
  auto groups = GroupBy(module, resources, strategy);
  for (auto& [key, fns] : groups) {
    Compartment c;
    c.id = static_cast<int>(result.compartments.size());
    c.name = key;
    for (const Function* fn : fns) {
      c.functions.insert(fn);
      c.code_bytes += opec_compiler::FunctionCodeBytes(*fn);
      auto it = resources.find(fn);
      if (it == resources.end()) {
        continue;
      }
      for (const GlobalVariable* gv : it->second.AllGlobals()) {
        if (!gv->is_const()) {
          c.needed_globals.insert(gv);
        }
      }
      c.peripherals.insert(it->second.peripherals.begin(), it->second.peripherals.end());
      c.core_peripherals.insert(it->second.core_peripherals.begin(),
                                it->second.core_peripherals.end());
    }
    // ACES lifts compartments that touch core peripherals to the privileged
    // level (Section 6.2, "Privileged Code").
    c.privileged = !c.core_peripherals.empty();
    result.compartments.push_back(std::move(c));
  }

  // ACES1's optimization: merge small compartments into their most-coupled
  // (call-edge) neighbour to reduce switch counts — at the cost of larger
  // compartments (and more privileged code when a merged partner touched core
  // peripherals).
  if (strategy == AcesStrategy::kFilename && result.compartments.size() > 3) {
    size_t target = std::max<size_t>(3, result.compartments.size() / 2);
    while (result.compartments.size() > target) {
      // Find the smallest compartment (by code bytes).
      size_t smallest = 0;
      for (size_t i = 1; i < result.compartments.size(); ++i) {
        if (result.compartments[i].code_bytes < result.compartments[smallest].code_bytes) {
          smallest = i;
        }
      }
      // Find its most-coupled neighbour (most call edges between them).
      int best = -1;
      int best_edges = -1;
      for (size_t j = 0; j < result.compartments.size(); ++j) {
        if (j == smallest) {
          continue;
        }
        int edges = 0;
        for (const Function* fn : result.compartments[smallest].functions) {
          for (const Function* callee : cg.Callees(fn)) {
            if (result.compartments[j].functions.count(callee) > 0) {
              ++edges;
            }
          }
        }
        for (const Function* fn : result.compartments[j].functions) {
          for (const Function* callee : cg.Callees(fn)) {
            if (result.compartments[smallest].functions.count(callee) > 0) {
              ++edges;
            }
          }
        }
        if (edges > best_edges) {
          best_edges = edges;
          best = static_cast<int>(j);
        }
      }
      OPEC_CHECK(best >= 0);
      Compartment& dst = result.compartments[static_cast<size_t>(best)];
      Compartment& src = result.compartments[smallest];
      dst.functions.insert(src.functions.begin(), src.functions.end());
      dst.needed_globals.insert(src.needed_globals.begin(), src.needed_globals.end());
      dst.peripherals.insert(src.peripherals.begin(), src.peripherals.end());
      dst.core_peripherals.insert(src.core_peripherals.begin(), src.core_peripherals.end());
      dst.privileged = dst.privileged || src.privileged;
      dst.code_bytes += src.code_bytes;
      dst.name += "+" + src.name;
      result.compartments.erase(result.compartments.begin() + static_cast<long>(smallest));
    }
    // Re-number.
    for (size_t i = 0; i < result.compartments.size(); ++i) {
      result.compartments[i].id = static_cast<int>(i);
    }
  }

  for (const Compartment& c : result.compartments) {
    for (const Function* fn : c.functions) {
      result.function_compartment[fn] = c.id;
    }
  }

  // --- Data regions ---
  // Optimal start: variables with identical accessor sets share a region
  // (no over-privilege yet).
  std::map<std::set<int>, DataRegion> by_accessors;
  for (const auto& g : module.globals()) {
    if (g->is_const()) {
      continue;
    }
    std::set<int> accessors;
    for (const Compartment& c : result.compartments) {
      if (c.needed_globals.count(g.get()) > 0) {
        accessors.insert(c.id);
      }
    }
    if (accessors.empty()) {
      continue;  // unused variable: lives in an always-inaccessible region
    }
    DataRegion& r = by_accessors[accessors];
    r.vars.insert(g.get());
    r.compartments = accessors;
    r.bytes += g->size();
  }
  for (auto& [key, region] : by_accessors) {
    result.regions.push_back(region);
  }

  // MPU budget: every compartment may use at most kDataRegionBudget regions.
  // While any compartment exceeds the budget, merge the pair of its regions
  // whose union adds the least over-privileged bytes (Section 3.1 / Figure 3a).
  auto regions_of = [&](int cid) {
    std::vector<size_t> out;
    for (size_t i = 0; i < result.regions.size(); ++i) {
      if (result.regions[i].compartments.count(cid) > 0) {
        out.push_back(i);
      }
    }
    return out;
  };
  bool merged = true;
  while (merged) {
    merged = false;
    for (const Compartment& c : result.compartments) {
      std::vector<size_t> rs = regions_of(c.id);
      if (rs.size() <= static_cast<size_t>(kDataRegionBudget)) {
        continue;
      }
      // Merge the two cheapest regions of this compartment. Cost of merging
      // r1,r2: bytes newly exposed to compartments that did not need them.
      uint64_t best_cost = ~0ull;
      size_t b1 = 0;
      size_t b2 = 0;
      for (size_t i = 0; i < rs.size(); ++i) {
        for (size_t j = i + 1; j < rs.size(); ++j) {
          const DataRegion& r1 = result.regions[rs[i]];
          const DataRegion& r2 = result.regions[rs[j]];
          std::set<int> union_comps = r1.compartments;
          union_comps.insert(r2.compartments.begin(), r2.compartments.end());
          uint64_t cost = 0;
          // r1's bytes become visible to compartments only in r2's set & v.v.
          cost += static_cast<uint64_t>(r1.bytes) * (union_comps.size() - r1.compartments.size());
          cost += static_cast<uint64_t>(r2.bytes) * (union_comps.size() - r2.compartments.size());
          if (cost < best_cost) {
            best_cost = cost;
            b1 = rs[i];
            b2 = rs[j];
          }
        }
      }
      DataRegion& keep = result.regions[b1];
      DataRegion& gone = result.regions[b2];
      keep.vars.insert(gone.vars.begin(), gone.vars.end());
      keep.compartments.insert(gone.compartments.begin(), gone.compartments.end());
      keep.bytes += gone.bytes;
      result.regions.erase(result.regions.begin() + static_cast<long>(b2));
      ++result.merge_steps;
      merged = true;
      break;
    }
  }

  // Accessible globals per compartment: everything in its regions.
  for (Compartment& c : result.compartments) {
    c.accessible_globals.clear();
    for (const DataRegion& r : result.regions) {
      if (r.compartments.count(c.id) > 0) {
        c.accessible_globals.insert(r.vars.begin(), r.vars.end());
      }
    }
  }

  // --- Overhead model (Table 2) ---
  // Flash: per-compartment metadata (region table, entry gateways) plus an
  // instrumented stub per cross-compartment call edge.
  uint32_t cross_edges = 0;
  for (const auto& fn : module.functions()) {
    int from = result.CompartmentOf(fn.get());
    for (const Function* callee : cg.Callees(fn.get())) {
      if (result.CompartmentOf(callee) != from) {
        ++cross_edges;
      }
    }
  }
  // ACES links its runtime (SVC dispatcher + micro-emulator, ~8 KB per its
  // paper) plus per-compartment region tables and a gateway stub per
  // cross-compartment call edge.
  result.flash_overhead_bytes = 8192 + static_cast<uint32_t>(result.compartments.size()) * 256 +
                                cross_edges * 24;
  // SRAM: MPU padding of each data region to a power of two (ACES moves
  // variables, it does not duplicate them — smaller SRAM cost than OPEC).
  for (const DataRegion& r : result.regions) {
    result.sram_overhead_bytes += NextPow2(r.bytes) - r.bytes;
  }
  return result;
}

// --- AcesRuntime ---

void AcesRuntime::OnProgramStart(opec_rt::Engine* engine) {
  (void)engine;
  compartment_stack_.clear();
  const Function* main_fn = nullptr;
  for (const auto& [fn, cid] : result_.function_compartment) {
    if (fn->name() == "main") {
      main_fn = fn;
      compartment_stack_.push_back(cid);
    }
  }
  if (main_fn == nullptr) {
    compartment_stack_.push_back(-1);
  }
}

bool AcesRuntime::OnOperationEnter(int op_id, std::vector<uint32_t>& args) {
  (void)op_id;
  (void)args;
  return true;  // ACES images have no OPEC SVC instrumentation
}

bool AcesRuntime::OnOperationExit(int op_id) {
  (void)op_id;
  return true;
}

bool AcesRuntime::OnFunctionCall(const Function* callee) {
  int target = result_.CompartmentOf(callee);
  int current = compartment_stack_.empty() ? -1 : compartment_stack_.back();
  if (target != current) {
    ++switches_;
    machine_.AddCycles(kSwitchCycles);
  }
  compartment_stack_.push_back(target);
  return true;
}

bool AcesRuntime::OnFunctionReturn(const Function* callee) {
  (void)callee;
  OPEC_CHECK(!compartment_stack_.empty());
  int leaving = compartment_stack_.back();
  compartment_stack_.pop_back();
  int resumed = compartment_stack_.empty() ? -1 : compartment_stack_.back();
  if (leaving != resumed) {
    ++switches_;
    machine_.AddCycles(kSwitchCycles);
  }
  return true;
}

}  // namespace opec_aces
