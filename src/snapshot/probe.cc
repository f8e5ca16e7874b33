#include "src/snapshot/probe.h"

#include "src/hw/machine.h"
#include "src/monitor/monitor.h"
#include "src/rt/engine.h"
#include "src/support/check.h"

namespace opec_snapshot {

RoundTripProbe::RoundTripProbe(opec_hw::Machine& machine, opec_monitor::Monitor* monitor,
                               opec_rt::Engine* engine)
    : machine_(machine), monitor_(monitor), engine_(engine) {}

void RoundTripProbe::OnProgramStart(opec_rt::Engine* engine) {
  if (monitor_ != nullptr) {
    monitor_->OnProgramStart(engine);
  }
  Probe("program-start", -1);
}

void RoundTripProbe::OnProgramEnd() {
  Probe("program-end", -1);
  if (monitor_ != nullptr) {
    monitor_->OnProgramEnd();
  }
}

bool RoundTripProbe::OnOperationEnter(int op_id, std::vector<uint32_t>& args) {
  bool ok = monitor_ == nullptr || monitor_->OnOperationEnter(op_id, args);
  // Probe after the switch: the monitor's context stack, SRD and relocations
  // are at their most interesting right here.
  Probe("operation-enter", op_id);
  return ok;
}

bool RoundTripProbe::OnOperationExit(int op_id) {
  bool ok = monitor_ == nullptr || monitor_->OnOperationExit(op_id);
  Probe("operation-exit", op_id);
  return ok;
}

bool RoundTripProbe::OnFunctionCall(const opec_ir::Function* callee) {
  return monitor_ == nullptr || monitor_->OnFunctionCall(callee);
}

bool RoundTripProbe::OnFunctionReturn(const opec_ir::Function* callee) {
  return monitor_ == nullptr || monitor_->OnFunctionReturn(callee);
}

bool RoundTripProbe::OnMemFault(uint32_t addr, opec_hw::AccessKind kind) {
  return monitor_ != nullptr && monitor_->OnMemFault(addr, kind);
}

bool RoundTripProbe::OnBusFault(uint32_t addr, uint32_t size, opec_hw::AccessKind kind,
                                uint32_t write_value, uint32_t* read_value) {
  return monitor_ != nullptr &&
         monitor_->OnBusFault(addr, size, kind, write_value, read_value);
}

void RoundTripProbe::Probe(const char* where, int op_id) {
  ++probes_;
  std::string at = std::string(where) + " op=" + std::to_string(op_id) +
                   " cycle=" + std::to_string(machine_.cycles());

  // Full round trip through the wire format, then restore in place.
  std::vector<uint8_t> bytes = Snapshot::Capture(machine_, monitor_, engine_).Serialize();
  uint64_t want = opec_hw::Fnv1a64(bytes.data(), bytes.size());
  Snapshot::Deserialize(bytes).Restore(machine_, monitor_, engine_);

  if (Snapshot::Capture(machine_, monitor_, engine_).Digest() != want) {
    errors_.push_back("round-trip digest mismatch at " + at);
  }
}

}  // namespace opec_snapshot
