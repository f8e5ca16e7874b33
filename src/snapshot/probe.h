// RoundTripProbe: a Supervisor decorator that exercises capture → serialize →
// deserialize → restore → recapture at every SVC boundary (operation enter and
// exit), in place, while the run is live. The engine's host-recursive call
// stack never unwinds, so this is the strongest restore check the interpreter
// architecture allows: if any component's SaveState/LoadState pair drops,
// reorders or mangles a field, the recaptured digest diverges immediately —
// and because the machine really was torn down and rebuilt from bytes, a bug
// would also perturb the rest of the run, which the fuzz harness's fifth
// oracle (probed run vs plain run observation compare) detects.

#ifndef SRC_SNAPSHOT_PROBE_H_
#define SRC_SNAPSHOT_PROBE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/rt/supervisor.h"
#include "src/snapshot/snapshot.h"

namespace opec_hw {
class Machine;
}
namespace opec_monitor {
class Monitor;
}
namespace opec_rt {
class Engine;
}

namespace opec_snapshot {

class RoundTripProbe : public opec_rt::Supervisor {
 public:
  // `monitor` may be null (vanilla mode: no supervisor to wrap, machine-only
  // snapshots). The monitor doubles as the wrapped supervisor.
  RoundTripProbe(opec_hw::Machine& machine, opec_monitor::Monitor* monitor,
                 opec_rt::Engine* engine);

  // --- opec_rt::Supervisor (every hook forwards to the wrapped monitor) ---
  void OnProgramStart(opec_rt::Engine* engine) override;
  void OnProgramEnd() override;
  bool OnOperationEnter(int op_id, std::vector<uint32_t>& args) override;
  bool OnOperationExit(int op_id) override;
  bool OnFunctionCall(const opec_ir::Function* callee) override;
  bool OnFunctionReturn(const opec_ir::Function* callee) override;
  bool OnMemFault(uint32_t addr, opec_hw::AccessKind kind) override;
  bool OnBusFault(uint32_t addr, uint32_t size, opec_hw::AccessKind kind, uint32_t write_value,
                  uint32_t* read_value) override;

  // Results.
  uint64_t probes() const { return probes_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Probe(const char* where, int op_id);

  opec_hw::Machine& machine_;
  opec_monitor::Monitor* monitor_;
  opec_rt::Engine* engine_;

  uint64_t probes_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace opec_snapshot

#endif  // SRC_SNAPSHOT_PROBE_H_
