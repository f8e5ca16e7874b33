// The four standard runtime-verification monitors (DESIGN.md §15), each an
// OPEC operation-switch or isolation invariant written as plain code over the
// class's own members. Step judges one obs event and Finish, where a monitor
// has one, the end of the run; both return true when they record a
// violation. The monitor is then back in its initial state with its context
// cleared, so one broken window cannot cascade into a violation storm.

#ifndef SRC_RV_MONITORS_H_
#define SRC_RV_MONITORS_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/event.h"

namespace opec_hw {
class Mpu;
}  // namespace opec_hw

namespace opec_rv {

// Everything the standard monitors need from the run being watched. Plain
// data + one device pointer, so src/rv depends only on obs + hw.
struct RvEnv {
  // Cross-checked by the mpu-cache-coherence monitor; may be null (synthetic
  // streams), which skips the generation/region checks.
  const opec_hw::Mpu* mpu = nullptr;
  // (operation id, external var index) pairs from the compile policy: which
  // operation owns a shadow copy of which external. Empty in vanilla mode —
  // vanilla runs emit no kShadowSync, so any one is a violation there.
  std::vector<std::pair<int32_t, uint32_t>> shadow_owners;
};

// Fixed name order for the standard monitors — campaign aggregation and the
// deterministic reports index by it.
const std::vector<std::string>& StandardMonitorNames();

// What every monitor keeps: its named states, where it is and has been, and
// the violations it recorded.
class RvMonitor {
 public:
  const char* name() const { return name_; }
  size_t state_count() const { return states_.size(); }
  // Distinct states entered since construction (the initial state counts).
  size_t visited_states() const { return static_cast<size_t>(std::popcount(visited_)); }
  uint64_t violations() const { return violations_; }
  // The last violation: its message and the state the monitor was in.
  const std::string& last_message() const { return last_message_; }
  const char* last_state() const { return states_[last_state_]; }

 protected:
  RvMonitor(const char* name, std::span<const char* const> states)
      : name_(name), states_(states) {}

  int state() const { return state_; }
  const char* state_name() const { return states_[state_]; }
  // Moves to `state`; returns false (no violation) for Step to pass on.
  bool Go(int state) {
    state_ = state;
    visited_ |= 1u << state;
    return false;
  }
  // Records a violation in the current state and returns to state 0; the
  // caller clears its own context. Returns true.
  bool Violate(std::string message);

 private:
  const char* name_;
  std::span<const char* const> states_;
  int state_ = 0;
  uint32_t visited_ = 1;  // bit per state
  uint64_t violations_ = 0;
  std::string last_message_;
  int last_state_ = 0;
};

// An operation switch opens a window at its enter-side kSvc and must run
// write-back* → copy-in* → kMpuReconfig+ → kOperationEnter with nothing else
// interleaved; the exit window mirrors it up to kOperationExit. Enter/exit
// SVCs pair LIFO on the operation id, and no window stays open at the end of
// the run. Mid-window aborts surface either from the unwind's kFunctionExit
// landing in a window or from Finish.
class SwitchProtocol : public RvMonitor {
 public:
  SwitchProtocol();
  bool Step(const opec_obs::Event& event);
  bool Finish(bool aborted);

 private:
  static constexpr int32_t kNone = INT32_MIN;

  bool Fail(std::string message);

  int32_t pending_ = kNone;      // target op of the open enter window
  int32_t exiting_ = kNone;      // op of the open exit window
  std::vector<int32_t> active_;  // entered-but-not-exited operations
};

// Every kShadowSync must come from the operation that owns that shadow
// placement, and every unresolved memory/bus fault is a violation, a blocked
// attack write included: inside a switch window it is a protocol break,
// outside it a denied write.
class ShadowIsolation : public RvMonitor {
 public:
  explicit ShadowIsolation(std::vector<std::pair<int32_t, uint32_t>> owners);
  bool Step(const opec_obs::Event& event);

 private:
  bool Fail(const char* message);

  std::vector<std::pair<int32_t, uint32_t>> owners_;  // sorted
  bool in_window_ = false;
};

// When a kMpuReconfig is observed the MPU must already have dropped its
// region-set id (verdict caches key on it, so a set change that left the id
// resolved would let the old set's verdicts answer for the new registers),
// its reconfiguration counter must have advanced since the last reconfig
// seen (an event without a register write is a replay), and the payload must
// agree with the live region state.
class MpuCacheCoherence : public RvMonitor {
 public:
  explicit MpuCacheCoherence(const opec_hw::Mpu* mpu);
  bool Step(const opec_obs::Event& event);

 private:
  bool Fail(const char* message);

  const opec_hw::Mpu* mpu_;
  uint64_t last_config_writes_ = 0;
};

// kFunctionEnter/kFunctionExit pair LIFO on (function ordinal, depth). The
// abort unwind emits exits too, so even aborted runs balance; only a run that
// ends mid-call-tree without the unwind (a host-side check failure) leaves
// frames open.
class CallDepth : public RvMonitor {
 public:
  CallDepth();
  bool Step(const opec_obs::Event& event);
  bool Finish(bool aborted);

 private:
  bool Fail(std::string message);

  std::vector<std::pair<uint32_t, int32_t>> frames_;  // (ordinal, depth)
};

}  // namespace opec_rv

#endif  // SRC_RV_MONITORS_H_
