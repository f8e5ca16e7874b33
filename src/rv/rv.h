// RvSink: runs the four standard monitors (monitors.h) over the live obs
// event stream of one run (DESIGN.md §15). Violations are recorded as
// structured RvViolation records with the last-N preceding events (via the
// existing ring-buffer Recorder) and summarized in a deterministic,
// modeled-data-only report that is byte-identical across engines, job orders
// and boot modes.

#ifndef SRC_RV_RV_H_
#define SRC_RV_RV_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/event.h"
#include "src/obs/recorder.h"
#include "src/rv/monitors.h"

namespace opec_rv {

struct RvViolation {
  std::string automaton;           // the monitor that fired
  std::string state;               // state the monitor was in when it fired
  opec_obs::Event event;           // offending event (zeroed for Finish() violations)
  std::string message;
  std::vector<opec_obs::Event> recent;  // events immediately before the offender
};

// One line of human-or-machine-readable event description (kind, cycle,
// operation, payload) used by the violation report; deterministic.
std::string FormatEvent(const opec_obs::Event& event);

class RvSink : public opec_obs::Sink {
 public:
  static constexpr size_t kContextDepth = 16;  // recent events kept per violation
  static constexpr size_t kMaxDetails = 8;     // RvViolation records kept (counts are exact)

  explicit RvSink(const RvEnv& env);

  void OnEvent(const opec_obs::Event& event) override;
  // End-of-run hook: runs the monitors' end-of-run checks. `run_aborted` is
  // true when the guest aborted (ExecutionAborted unwind). Only the first
  // call checks.
  void Finish(bool run_aborted);

  // Events seen; every monitor steps on every one.
  uint64_t steps() const { return steps_; }
  uint64_t total_violations() const;
  // Distinct monitor states visited, summed over monitors.
  uint64_t states_visited() const;
  // In StandardMonitorNames() order.
  std::vector<uint64_t> ViolationsByMonitor() const;
  const std::vector<RvViolation>& details() const { return details_; }

  // Deterministic multi-line report (first line "RV report"): per-monitor
  // state/step/violation counts plus the first kMaxDetails violations.
  // Contains only modeled data, so interp and bytecode runs of the same
  // workload produce byte-identical reports.
  std::string Report() const;

 private:
  std::array<const RvMonitor*, 4> monitors() const {
    return {&switch_protocol_, &shadow_isolation_, &mpu_cache_coherence_, &call_depth_};
  }
  void Record(const RvMonitor& monitor, const opec_obs::Event* event);

  SwitchProtocol switch_protocol_;
  ShadowIsolation shadow_isolation_;
  MpuCacheCoherence mpu_cache_coherence_;
  CallDepth call_depth_;
  uint64_t steps_ = 0;
  bool finished_ = false;
  opec_obs::Recorder context_;
  std::vector<RvViolation> details_;
};

}  // namespace opec_rv

#endif  // SRC_RV_RV_H_
