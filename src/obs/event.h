// Structured runtime observability: typed events emitted by the engine, bus,
// MPU and monitor, dispatched to attached sinks through a process-global hub.
//
// Contract (DESIGN.md Section 9):
//   * Zero modeled-cycle impact: emitting an event never charges machine
//     cycles; the event stream is a pure observation of the run.
//   * Near-zero wall-clock impact when disabled: OPEC_OBS_EVENT compiles to a
//     single predictable-branch check of one thread-local counter when no
//     sink is attached; the event payload (including cycle-stamp reads) is
//     only evaluated when a sink is listening.
//   * Thread-local dispatch: the sink table is per-thread, so concurrent
//     campaign jobs (each on its own Machine/AppRun) each observe only
//     their own run — a sink attached on one thread never sees another
//     thread's events, with no locking on the emission path.

#ifndef SRC_OBS_EVENT_H_
#define SRC_OBS_EVENT_H_

#include <cstdint>

namespace opec_obs {

enum class EventKind : uint8_t {
  kFunctionEnter,    // arg0 = function ordinal
  kFunctionExit,     // arg0 = function ordinal
  kOperationEnter,   // arg0 = entered op id, arg1 = previous op id (as int)
  kOperationExit,    // arg0 = exited op id, arg1 = op id returned to (as int)
  kSvc,              // arg0 = op id, arg1 = 0 enter-side / 1 exit-side
  kMpuReconfig,      // arg0 = region index, arg1 = base, arg2 = packed config
  kMemFault,         // arg0 = addr, arg1 = size, arg2 = fault flags
  kBusFault,         // arg0 = addr, arg1 = size, arg2 = fault flags
  kMmioAccess,       // arg0 = addr, arg1 = size | (write << 8), arg2 = value
  kShadowSync,       // arg0 = external var index, arg1 = bytes, arg2 = dir
  kCount,            // number of kinds above; no event has this kind
};

const char* EventKindName(EventKind kind);

// arg2 flag bits of kMemFault / kBusFault events.
inline constexpr uint32_t kFaultWrite = 1u << 0;     // else read
inline constexpr uint32_t kFaultResolved = 1u << 1;  // monitor handled it
inline constexpr uint32_t kFaultAttack = 1u << 2;    // injected AttackSpec write

// arg2 of kShadowSync events.
inline constexpr uint32_t kSyncCopyIn = 0;    // public -> shadow
inline constexpr uint32_t kSyncWriteBack = 1;  // shadow -> public

// Packed MPU config for kMpuReconfig's arg2:
// (srd << 16) | (size_log2 << 8) | (ap << 1) | enabled.
inline constexpr uint32_t PackMpuConfig(bool enabled, uint8_t size_log2, uint8_t srd,
                                        uint8_t ap) {
  return (static_cast<uint32_t>(srd) << 16) | (static_cast<uint32_t>(size_log2) << 8) |
         (static_cast<uint32_t>(ap) << 1) | (enabled ? 1u : 0u);
}

struct Event {
  // operation_id for events emitted by layers that do not track the active
  // operation (bus, MPU). Consumers attribute these to the stream-current
  // operation instead.
  static constexpr int32_t kNoOperation = INT32_MIN;

  EventKind kind = EventKind::kFunctionEnter;
  int32_t operation_id = -1;  // -1 = default operation / vanilla
  int32_t depth = 0;          // call depth for engine events, 0 otherwise
  uint64_t cycle = 0;         // modeled machine cycle at emission
  uint32_t arg0 = 0;          // kind-specific payload (see EventKind)
  uint32_t arg1 = 0;
  uint32_t arg2 = 0;

  static Event Make(EventKind kind, uint64_t cycle, int32_t operation_id = -1,
                    int32_t depth = 0, uint32_t arg0 = 0, uint32_t arg1 = 0,
                    uint32_t arg2 = 0) {
    Event e;
    e.kind = kind;
    e.operation_id = operation_id;
    e.depth = depth;
    e.cycle = cycle;
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.arg2 = arg2;
    return e;
  }
};

// An event consumer. Sinks are not owned by the hub; attach/detach is the
// caller's job (use ScopedSink).
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void OnEvent(const Event& event) = 0;
};

// Per-thread dispatch point. A fixed, small sink table keeps the
// attached-path dispatch a plain indexed loop and the detached-path check a
// single (thread-local) load-and-branch.
class Hub {
 public:
  static constexpr int kMaxSinks = 6;

  static bool active() { return sink_count_ != 0; }

  // Attach/Detach are idempotent per sink pointer; attaching more than
  // kMaxSinks sinks is a host programming error.
  static void Attach(Sink* sink);
  static void Detach(Sink* sink);

  static void Dispatch(const Event& event) {
    for (int i = 0; i < sink_count_; ++i) {
      sinks_[i]->OnEvent(event);
    }
  }

 private:
  static inline thread_local Sink* sinks_[kMaxSinks] = {};
  static inline thread_local int sink_count_ = 0;
};

// RAII attach; tolerates a null sink (no-op) so call sites can attach
// conditionally without branching.
class ScopedSink {
 public:
  explicit ScopedSink(Sink* sink) : sink_(sink) {
    if (sink_ != nullptr) {
      Hub::Attach(sink_);
    }
  }
  ~ScopedSink() {
    if (sink_ != nullptr) {
      Hub::Detach(sink_);
    }
  }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Sink* sink_;
};

}  // namespace opec_obs

// The one emission point. Arguments are only evaluated when a sink is
// attached; with none attached this is a single well-predicted branch.
#define OPEC_OBS_EVENT(...)                                                  \
  do {                                                                       \
    if (::opec_obs::Hub::active()) [[unlikely]] {                            \
      ::opec_obs::Hub::Dispatch(::opec_obs::Event::Make(__VA_ARGS__));       \
    }                                                                        \
  } while (0)

#endif  // SRC_OBS_EVENT_H_
