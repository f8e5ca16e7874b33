// RvSink: runs a set of compiled safety automata over the live obs event
// stream of one run (DESIGN.md §15). Violations are recorded as structured
// RvViolation records with the last-N preceding events (via the existing
// ring-buffer Recorder) and summarized in a deterministic, modeled-data-only
// report that is byte-identical across engines, job orders and boot modes.

#ifndef SRC_RV_RV_H_
#define SRC_RV_RV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/event.h"
#include "src/obs/recorder.h"
#include "src/rv/automaton.h"
#include "src/rv/monitors.h"

namespace opec_rv {

struct RvViolation {
  std::string automaton;
  std::string state;               // state the automaton was in when it fired
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

  explicit RvSink(std::vector<std::unique_ptr<Automaton>> monitors);

  void OnEvent(const opec_obs::Event& event) override;
  // End-of-run hook: runs each automaton's finish check. `run_aborted` is
  // true when the guest aborted (ExecutionAborted unwind). Idempotent.
  void Finish(bool run_aborted);

  size_t monitor_count() const { return monitors_.size(); }
  const Automaton& monitor(size_t i) const { return *monitors_[i]; }
  uint64_t total_violations() const;
  // Distinct automaton states visited, summed over monitors.
  uint64_t states_visited() const;
  std::vector<uint64_t> ViolationsByMonitor() const;
  const std::vector<RvViolation>& details() const { return details_; }

  // Deterministic multi-line report (first line "RV report"): per-monitor
  // state/step/violation counts plus the first kMaxDetails violations.
  // Contains only modeled data, so interp and bytecode runs of the same
  // workload produce byte-identical reports.
  std::string Report() const;

 private:
  void Record(const Automaton& automaton, const opec_obs::Event* event);

  std::vector<std::unique_ptr<Automaton>> monitors_;
  opec_obs::Recorder context_;
  std::vector<RvViolation> details_;
};

// Convenience: standard monitors over `env` (see monitors.h).
std::unique_ptr<RvSink> MakeStandardRvSink(const RvEnv& env);

}  // namespace opec_rv

#endif  // SRC_RV_RV_H_
