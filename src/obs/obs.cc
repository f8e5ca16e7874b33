#include "src/obs/event.h"
#include "src/obs/recorder.h"
#include "src/support/check.h"

namespace opec_obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kFunctionEnter:
      return "function_enter";
    case EventKind::kFunctionExit:
      return "function_exit";
    case EventKind::kOperationEnter:
      return "operation_enter";
    case EventKind::kOperationExit:
      return "operation_exit";
    case EventKind::kSvc:
      return "svc";
    case EventKind::kMpuReconfig:
      return "mpu_reconfig";
    case EventKind::kMemFault:
      return "mem_fault";
    case EventKind::kBusFault:
      return "bus_fault";
    case EventKind::kMmioAccess:
      return "mmio_access";
    case EventKind::kShadowSync:
      return "shadow_sync";
    case EventKind::kCount:
      break;
  }
  return "?";
}

void Hub::Attach(Sink* sink) {
  OPEC_CHECK(sink != nullptr);
  for (int i = 0; i < sink_count_; ++i) {
    if (sinks_[i] == sink) {
      return;  // already attached
    }
  }
  OPEC_CHECK_MSG(sink_count_ < kMaxSinks, "too many observability sinks attached");
  sinks_[sink_count_++] = sink;
}

void Hub::Detach(Sink* sink) {
  for (int i = 0; i < sink_count_; ++i) {
    if (sinks_[i] == sink) {
      for (int j = i; j + 1 < sink_count_; ++j) {
        sinks_[j] = sinks_[j + 1];
      }
      sinks_[--sink_count_] = nullptr;
      return;
    }
  }
}

Recorder::Recorder(size_t capacity) : buffer_(capacity == 0 ? 1 : capacity) {}

void Recorder::OnEvent(const Event& event) {
  buffer_[static_cast<size_t>(total_ % buffer_.size())] = event;
  ++total_;
}

size_t Recorder::size() const {
  return total_ < buffer_.size() ? static_cast<size_t>(total_) : buffer_.size();
}

const Event& Recorder::at(size_t i) const {
  OPEC_CHECK(i < size());
  size_t start = total_ > buffer_.size() ? static_cast<size_t>(total_ % buffer_.size()) : 0;
  return buffer_[(start + i) % buffer_.size()];
}

std::vector<Event> Recorder::Snapshot() const {
  std::vector<Event> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    out.push_back(at(i));
  }
  return out;
}

void Recorder::Clear() { total_ = 0; }

}  // namespace opec_obs
