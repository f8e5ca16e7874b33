#include "src/rv/monitors.h"

#include <algorithm>

#include "src/hw/mpu.h"
#include "src/support/text.h"

namespace opec_rv {

using opec_obs::Event;
using opec_obs::EventKind;

// Each monitor below picks the events it judges by kind; a new kind must be
// judged by every one of them before this guard is widened.
static_assert(static_cast<int>(EventKind::kCount) == 10,
              "EventKind grew: audit every monitor in src/rv");

const std::vector<std::string>& StandardMonitorNames() {
  static const std::vector<std::string> kNames = {
      "switch-protocol", "shadow-isolation", "mpu-cache-coherence", "call-depth"};
  return kNames;
}

bool RvMonitor::Violate(std::string message) {
  ++violations_;
  last_message_ = std::move(message);
  last_state_ = state_;
  state_ = 0;
  return true;
}

namespace {

constexpr const char* kWatch[] = {"watch"};

// switch-protocol: idle, then the three phases of an enter window, then the
// same three of an exit window.
constexpr const char* kSwitchStates[] = {
    "idle",           "enter-write-back", "enter-copy-in",    "enter-mpu-reconfig",
    "exit-write-back", "exit-copy-in",    "exit-mpu-reconfig"};
constexpr int kIdle = 0;
constexpr int kEnterWindow = 1;
constexpr int kExitWindow = 4;
enum Phase { kWriteBack, kCopyIn, kMpuReconfig };  // offset within a window

}  // namespace

SwitchProtocol::SwitchProtocol() : RvMonitor("switch-protocol", kSwitchStates) {}

bool SwitchProtocol::Fail(std::string message) {
  pending_ = kNone;
  exiting_ = kNone;
  active_.clear();
  return Violate(std::move(message));
}

bool SwitchProtocol::Step(const Event& ev) {
  const int32_t op = static_cast<int32_t>(ev.arg0);
  if (state() == kIdle) {
    // Switches open here; loose shadow/operation events are violations,
    // everything else (functions, faults, MMIO, boot-time reconfigs) passes.
    switch (ev.kind) {
      case EventKind::kSvc:
        if (ev.arg1 == 0) {
          pending_ = op;
          return Go(kEnterWindow + kWriteBack);
        }
        if (ev.arg1 == 1 && !active_.empty() && active_.back() == op) {
          exiting_ = op;
          return Go(kExitWindow + kWriteBack);
        }
        return Fail("exit-side SVC does not match the innermost active operation");
      case EventKind::kShadowSync:
        return Fail("shadow sync outside an operation-switch window");
      case EventKind::kOperationEnter:
        return Fail("operation enter without an SVC window");
      case EventKind::kOperationExit:
        return Fail("operation exit without an SVC window");
      default:
        return false;
    }
  }
  // Inside a window: write-backs of the operation left, copy-ins of the one
  // entered, MPU reprogramming, then the enter (exit) event that closes it.
  // Anything else is unexpected.
  const bool exit = state() >= kExitWindow;
  const int window = exit ? kExitWindow : kEnterWindow;
  const int phase = state() - window;
  switch (ev.kind) {
    case EventKind::kShadowSync:
      if (phase == kWriteBack && ev.arg2 == opec_obs::kSyncWriteBack) {
        return false;
      }
      if (phase != kMpuReconfig && ev.arg2 == opec_obs::kSyncCopyIn) {
        return Go(window + kCopyIn);
      }
      if (phase == kCopyIn) {
        return Fail(exit ? "write-back after copy-in in an exit window"
                         : "write-back after copy-in in an enter window");
      }
      break;
    case EventKind::kMpuReconfig:
      return Go(window + kMpuReconfig);
    case EventKind::kOperationEnter:
      if (exit || phase != kMpuReconfig) {
        break;
      }
      if (op != pending_) {
        return Fail("operation enter does not match the SVC target");
      }
      active_.push_back(op);
      pending_ = kNone;
      return Go(kIdle);
    case EventKind::kOperationExit:
      if (!exit || phase != kMpuReconfig) {
        break;
      }
      if (op != exiting_ || active_.empty() || active_.back() != exiting_) {
        return Fail("operation exit does not match the SVC'd operation");
      }
      active_.pop_back();
      exiting_ = kNone;
      return Go(kIdle);
    default:
      break;
  }
  return Fail(opec_support::StrPrintf("unexpected %s in state %s",
                                      opec_obs::EventKindName(ev.kind), state_name()));
}

bool SwitchProtocol::Finish(bool aborted) {
  if (state() != kIdle) {
    return Fail("run ended inside an operation-switch window");
  }
  if (!aborted && !active_.empty()) {
    return Fail(opec_support::StrPrintf("%zu operation(s) still active at clean end of run",
                                        active_.size()));
  }
  return false;
}

ShadowIsolation::ShadowIsolation(std::vector<std::pair<int32_t, uint32_t>> owners)
    : RvMonitor("shadow-isolation", kWatch), owners_(std::move(owners)) {
  std::sort(owners_.begin(), owners_.end());
}

bool ShadowIsolation::Fail(const char* message) {
  in_window_ = false;
  return Violate(message);
}

bool ShadowIsolation::Step(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kSvc:
      in_window_ = true;
      return false;
    case EventKind::kOperationEnter:
    case EventKind::kOperationExit:
      in_window_ = false;
      return false;
    case EventKind::kShadowSync:
      if (std::binary_search(owners_.begin(), owners_.end(),
                             std::make_pair(ev.operation_id, ev.arg0))) {
        return false;
      }
      return Fail("shadow sync attributed to an operation that does not own the shadow");
    case EventKind::kMemFault:
    case EventKind::kBusFault:
      if ((ev.arg2 & opec_obs::kFaultResolved) != 0) {
        return false;
      }
      return Fail(in_window_ ? "unresolved fault inside an operation-switch window"
                             : "write denied by the MPU/privilege rules");
    default:
      return false;
  }
}

MpuCacheCoherence::MpuCacheCoherence(const opec_hw::Mpu* mpu)
    : RvMonitor("mpu-cache-coherence", kWatch), mpu_(mpu) {}

// Resyncs the watermark, so a later reconfig is judged on its own counter
// step rather than against the stale one.
bool MpuCacheCoherence::Fail(const char* message) {
  last_config_writes_ = mpu_->config_writes();
  return Violate(message);
}

bool MpuCacheCoherence::Step(const Event& ev) {
  if (ev.kind != EventKind::kMpuReconfig || mpu_ == nullptr) {
    return false;  // a synthetic stream has no MPU to check against
  }
  if (mpu_->region_set_resolved() || mpu_->config_writes() <= last_config_writes_) {
    return Fail("MPU reconfig without a verdict-cache invalidation");
  }
  auto payload_agrees = [&] {
    if (ev.arg0 >= static_cast<uint32_t>(opec_hw::Mpu::kNumRegions)) {
      return false;
    }
    const opec_hw::MpuRegionConfig& r = mpu_->region(static_cast<int>(ev.arg0));
    return r.base == ev.arg1 && opec_obs::PackMpuConfig(r.enabled, r.size_log2, r.srd,
                                                        static_cast<uint8_t>(r.ap)) == ev.arg2;
  };
  if (!payload_agrees()) {
    return Fail("kMpuReconfig payload disagrees with the live MPU region state");
  }
  last_config_writes_ = mpu_->config_writes();
  return false;
}

CallDepth::CallDepth() : RvMonitor("call-depth", kWatch) {}

bool CallDepth::Fail(std::string message) {
  frames_.clear();
  return Violate(std::move(message));
}

bool CallDepth::Step(const Event& ev) {
  if (ev.kind == EventKind::kFunctionEnter) {
    frames_.emplace_back(ev.arg0, ev.depth);
    return false;
  }
  if (ev.kind != EventKind::kFunctionExit) {
    return false;
  }
  if (frames_.empty() || frames_.back() != std::make_pair(ev.arg0, ev.depth)) {
    return Fail("function exit does not pair with the innermost open function enter");
  }
  frames_.pop_back();
  return false;
}

bool CallDepth::Finish(bool aborted) {
  if (!aborted && !frames_.empty()) {
    return Fail(opec_support::StrPrintf("%zu function frame(s) still open at clean end of run",
                                        frames_.size()));
  }
  return false;
}

}  // namespace opec_rv
