// Supervisor: the execution engine's hook interface for privileged runtime
// monitors. opec_monitor::Monitor implements it for OPEC; opec_aces implements
// a compartment-switching variant for the baseline. A null supervisor runs the
// vanilla (fully privileged, no isolation) configuration.

#ifndef SRC_RT_SUPERVISOR_H_
#define SRC_RT_SUPERVISOR_H_

#include <cstdint>
#include <vector>

#include "src/hw/fault.h"
#include "src/ir/module.h"

namespace opec_rt {

class Engine;

class Supervisor {
 public:
  virtual ~Supervisor() = default;

  // Called once before `main` runs; gives the supervisor its engine handle
  // (stack pointer control) and lets it initialize (shadow sections, MPU,
  // privilege drop).
  virtual void OnProgramStart(Engine* engine) = 0;

  // Called when the program finishes normally.
  virtual void OnProgramEnd() {}

  // Operation-entry call site, before the callee frame is created (the SVC
  // inserted before the call). `args` are the evaluated argument raw values;
  // the supervisor may rewrite pointer arguments (stack relocation). Returns
  // false to abort the program (recorded as a security violation).
  virtual bool OnOperationEnter(int op_id, std::vector<uint32_t>& args) = 0;

  // Operation-entry call site, after the callee returned (the SVC after the
  // call). Returns false to abort (e.g. failed data sanitization).
  virtual bool OnOperationExit(int op_id) = 0;

  // Plain (non-entry) direct call/return, used by the ACES baseline to switch
  // compartments at cross-compartment edges. Default: no action.
  virtual bool OnFunctionCall(const opec_ir::Function* callee) {
    (void)callee;
    return true;
  }
  virtual bool OnFunctionReturn(const opec_ir::Function* callee) {
    (void)callee;
    return true;
  }

  // Memory-management fault (MPU denial). Returning true means the fault was
  // resolved (e.g. a peripheral MPU region was virtualized in) and the access
  // should be retried.
  virtual bool OnMemFault(uint32_t addr, opec_hw::AccessKind kind) {
    (void)addr;
    (void)kind;
    return false;
  }

  // Bus fault. For unprivileged core-peripheral accesses the OPEC monitor
  // emulates the load/store: on success it performs the access itself and,
  // for reads, stores the value into *read_value. Returning true means the
  // access is complete (do not retry).
  virtual bool OnBusFault(uint32_t addr, uint32_t size, opec_hw::AccessKind kind,
                          uint32_t write_value, uint32_t* read_value) {
    (void)addr;
    (void)size;
    (void)kind;
    (void)write_value;
    (void)read_value;
    return false;
  }
};

}  // namespace opec_rt

#endif  // SRC_RT_SUPERVISOR_H_
