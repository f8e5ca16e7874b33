// AppRun: builds an application image (vanilla or OPEC), loads it into a
// machine, runs the scenario and exposes everything for inspection. This is
// what the tests, examples and benches drive.

#ifndef SRC_APPS_RUNNER_H_
#define SRC_APPS_RUNNER_H_

#include <memory>
#include <string>

#include <vector>

#include "src/apps/app.h"
#include "src/compiler/opec_compiler.h"
#include "src/monitor/monitor.h"
#include "src/obs/export.h"
#include "src/obs/recorder.h"
#include "src/rt/engine.h"
#include "src/rt/trace.h"
#include "src/rv/rv.h"
#include "src/snapshot/probe.h"
#include "src/snapshot/snapshot.h"

namespace opec_apps {

enum class BuildMode {
  kVanilla,  // no isolation, everything privileged (the baseline binary)
  kOpec,     // OPEC-compiled, monitor-enforced
};

// Which execution tier runs the guest. Both produce bit-identical modeled
// cycles, statements and obs events (src/rt/engine.h); the bytecode VM is the
// fast tier, the interpreter the reference oracle.
enum class EngineKind {
  kInterp,    // tree-walking ExecutionEngine
  kBytecode,  // lowered bytecode VM
};

const char* EngineKindName(EngineKind kind);
// Inverse of EngineKindName; false for an unknown name.
bool ParseEngineKind(const std::string& name, EngineKind* out);

class AppRun {
 public:
  AppRun(const Application& app, BuildMode mode,
         EngineKind engine_kind = EngineKind::kInterp);
  ~AppRun();

  AppRun(const AppRun&) = delete;
  AppRun& operator=(const AppRun&) = delete;

  // Optional instrumentation; call before Execute().
  void AddAttack(const opec_rt::AttackSpec& attack);
  void EnableTrace() { trace_enabled_ = true; }
  // Records the full structured event stream of Execute() into a ring buffer
  // (see recorder()), for exporters / the per-operation profiler.
  void EnableEventRecording(size_t capacity = opec_obs::Recorder::kDefaultCapacity);
  // Attaches an additional event sink (not owned) for the duration of
  // Execute(); call before Execute().
  void AttachSink(opec_obs::Sink* sink) { extra_sinks_.push_back(sink); }
  // Attaches the runtime-verification monitors (src/rv, DESIGN.md §15) for
  // Execute(): the standard safety automata built over this run's MPU and —
  // in OPEC mode — the policy's shadow-ownership map. Also forced on for
  // every Execute() when the OPEC_RV environment variable is set non-zero.
  void EnableRv();

  // Loads the image, feeds the scenario and runs main.
  opec_rt::RunResult Execute();

  // --- Snapshot integration (DESIGN.md §13) ---
  // Captures the post-build, pre-run machine state (globals loaded, devices
  // reset, scenario not yet fed). RestoreBoot() rewinds to it and rebuilds
  // the monitor and engine fresh — everything Execute() needs, without
  // re-running BuildModule/CompileOpec/LoadGlobals or lowering the module
  // again (the bytecode VM's lowered module carries over). This is the
  // warm-start path campaign jobs fork from.
  void CaptureBoot();
  void RestoreBoot();
  // Wraps the engine's supervisor in a RoundTripProbe (fuzz oracle 5): every
  // SVC boundary capture→restores the full state in place. Call before
  // Execute(); reset by RestoreBoot().
  void EnableSnapshotProbe();
  const opec_snapshot::RoundTripProbe* probe() const { return probe_.get(); }
  // Full machine+monitor+engine snapshot of the current state. Only valid at
  // quiescent points (see Engine::SaveState).
  opec_snapshot::Snapshot CaptureState() const;

  // Scenario output verification (valid after Execute()).
  std::string Check() const;

  // --- Inspection ---
  opec_hw::Machine& machine() { return *machine_; }
  AppDevices& devices() { return *devices_; }
  opec_ir::Module& module() { return *module_; }
  const opec_rt::ExecutionTrace& trace() const { return trace_; }
  // Null unless EnableEventRecording() was called.
  opec_obs::Recorder* recorder() { return recorder_.get(); }
  // Null unless EnableRv() was called (or OPEC_RV forced it during Execute()).
  opec_rv::RvSink* rv() { return rv_.get(); }
  // Ordinal/id -> name resolution for exporters (function names from the
  // module; operation names from the policy in OPEC mode).
  opec_obs::Naming EventNaming() const;
  opec_rt::Engine& engine() { return *engine_; }
  // The address assignment in effect: the OPEC layout in OPEC mode, the flat
  // vanilla layout otherwise.
  const opec_rt::AddressAssignment& layout() const {
    return compile_ != nullptr ? compile_->layout : vanilla_layout_;
  }
  // OPEC-only (null in vanilla mode).
  const opec_compiler::CompileResult* compile() const { return compile_.get(); }
  const opec_monitor::Monitor* monitor() const { return monitor_.get(); }
  opec_monitor::Monitor* monitor() { return monitor_.get(); }

  const opec_compiler::MemoryAccounting& accounting() const { return accounting_; }

 private:
  // Builds the engine of the selected kind (also used by RestoreBoot to
  // recreate it against the restored machine).
  std::unique_ptr<opec_rt::Engine> MakeEngine();

  const Application& app_;
  BuildMode mode_;
  EngineKind engine_kind_;
  opec_hw::SocDescription soc_;
  std::unique_ptr<opec_ir::Module> module_;
  std::unique_ptr<opec_hw::Machine> machine_;
  std::unique_ptr<AppDevices> devices_;
  std::unique_ptr<opec_compiler::CompileResult> compile_;
  std::unique_ptr<opec_monitor::Monitor> monitor_;
  std::unique_ptr<opec_rt::Engine> engine_;
  opec_rt::AddressAssignment vanilla_layout_;
  opec_compiler::MemoryAccounting accounting_;
  std::unique_ptr<opec_snapshot::Snapshot> boot_snapshot_;
  std::unique_ptr<opec_snapshot::RoundTripProbe> probe_;
  opec_rt::ExecutionTrace trace_;
  bool trace_enabled_ = false;
  std::unique_ptr<opec_obs::Recorder> recorder_;
  std::unique_ptr<opec_rv::RvSink> rv_;
  std::vector<opec_obs::Sink*> extra_sinks_;
  opec_rt::RunResult last_result_;
};

}  // namespace opec_apps

#endif  // SRC_APPS_RUNNER_H_
