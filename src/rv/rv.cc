#include "src/rv/rv.h"

#include "src/support/text.h"

namespace opec_rv {

std::string FormatEvent(const opec_obs::Event& event) {
  return opec_support::StrPrintf(
      "%s cycle=%llu op=%d depth=%d arg0=0x%X arg1=0x%X arg2=0x%X",
      opec_obs::EventKindName(event.kind),
      static_cast<unsigned long long>(event.cycle), static_cast<int>(event.operation_id),
      static_cast<int>(event.depth), event.arg0, event.arg1, event.arg2);
}

RvSink::RvSink(const RvEnv& env)
    : shadow_isolation_(env.shadow_owners), mpu_cache_coherence_(env.mpu),
      context_(kContextDepth) {}

void RvSink::OnEvent(const opec_obs::Event& event) {
  ++steps_;
  if (switch_protocol_.Step(event)) {
    Record(switch_protocol_, &event);
  }
  if (shadow_isolation_.Step(event)) {
    Record(shadow_isolation_, &event);
  }
  if (mpu_cache_coherence_.Step(event)) {
    Record(mpu_cache_coherence_, &event);
  }
  if (call_depth_.Step(event)) {
    Record(call_depth_, &event);
  }
  // Fed after stepping so a violation's `recent` holds the events *before*
  // the offending one (the offender itself is in RvViolation::event).
  context_.OnEvent(event);
}

void RvSink::Finish(bool run_aborted) {
  if (finished_) {
    return;
  }
  finished_ = true;
  // shadow-isolation and mpu-cache-coherence judge events only.
  if (switch_protocol_.Finish(run_aborted)) {
    Record(switch_protocol_, nullptr);
  }
  if (call_depth_.Finish(run_aborted)) {
    Record(call_depth_, nullptr);
  }
}

void RvSink::Record(const RvMonitor& monitor, const opec_obs::Event* event) {
  if (details_.size() >= kMaxDetails) {
    return;  // counts in the monitors stay exact; only the detail list caps
  }
  RvViolation v;
  v.automaton = monitor.name();
  v.state = monitor.last_state();
  v.message = monitor.last_message();
  if (event != nullptr) {
    v.event = *event;  // else a Finish() violation: no offending event
  }
  v.recent = context_.Snapshot();
  details_.push_back(std::move(v));
}

uint64_t RvSink::total_violations() const {
  uint64_t n = 0;
  for (const RvMonitor* m : monitors()) {
    n += m->violations();
  }
  return n;
}

uint64_t RvSink::states_visited() const {
  uint64_t n = 0;
  for (const RvMonitor* m : monitors()) {
    n += m->visited_states();
  }
  return n;
}

std::vector<uint64_t> RvSink::ViolationsByMonitor() const {
  std::vector<uint64_t> v;
  v.reserve(monitors().size());
  for (const RvMonitor* m : monitors()) {
    v.push_back(m->violations());
  }
  return v;
}

std::string RvSink::Report() const {
  std::string out = "RV report\n";
  for (const RvMonitor* m : monitors()) {
    out += opec_support::StrPrintf(
        "  %s: states=%zu visited=%zu steps=%llu violations=%llu\n", m->name(),
        m->state_count(), m->visited_states(), static_cast<unsigned long long>(steps_),
        static_cast<unsigned long long>(m->violations()));
  }
  out += opec_support::StrPrintf("  total violations: %llu\n",
                                 static_cast<unsigned long long>(total_violations()));
  for (size_t i = 0; i < details_.size(); ++i) {
    const RvViolation& v = details_[i];
    out += opec_support::StrPrintf("  violation %zu: [%s] state=%s %s\n", i,
                                   v.automaton.c_str(), v.state.c_str(), v.message.c_str());
    out += "    event: " + FormatEvent(v.event) + "\n";
  }
  return out;
}

}  // namespace opec_rv
