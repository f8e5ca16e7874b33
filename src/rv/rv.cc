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

RvSink::RvSink(std::vector<std::unique_ptr<Automaton>> monitors)
    : monitors_(std::move(monitors)), context_(kContextDepth) {}

void RvSink::OnEvent(const opec_obs::Event& event) {
  for (std::unique_ptr<Automaton>& m : monitors_) {
    if (m->Step(event)) {
      Record(*m, &event);
    }
  }
  // Fed after stepping so a violation's `recent` holds the events *before*
  // the offending one (the offender itself is in RvViolation::event).
  context_.OnEvent(event);
}

void RvSink::Finish(bool run_aborted) {
  for (std::unique_ptr<Automaton>& m : monitors_) {
    if (m->Finish(run_aborted)) {
      Record(*m, nullptr);
    }
  }
}

void RvSink::Record(const Automaton& automaton, const opec_obs::Event* event) {
  if (details_.size() >= kMaxDetails) {
    return;  // counts in the automata stay exact; only the detail list caps
  }
  RvViolation v;
  v.automaton = automaton.name();
  v.state = automaton.state_name(automaton.last_violation_state());
  v.message = automaton.last_violation_message();
  if (event != nullptr) {
    v.event = *event;
  } else {
    v.event = opec_obs::Event{};  // Finish() violation: no offending event
    v.event.cycle = 0;
  }
  v.recent = context_.Snapshot();
  details_.push_back(std::move(v));
}

uint64_t RvSink::total_violations() const {
  uint64_t n = 0;
  for (const std::unique_ptr<Automaton>& m : monitors_) {
    n += m->violations();
  }
  return n;
}

uint64_t RvSink::states_visited() const {
  uint64_t n = 0;
  for (const std::unique_ptr<Automaton>& m : monitors_) {
    n += m->visited_states();
  }
  return n;
}

std::vector<uint64_t> RvSink::ViolationsByMonitor() const {
  std::vector<uint64_t> v;
  v.reserve(monitors_.size());
  for (const std::unique_ptr<Automaton>& m : monitors_) {
    v.push_back(m->violations());
  }
  return v;
}

std::string RvSink::Report() const {
  std::string out = "RV report\n";
  for (const std::unique_ptr<Automaton>& m : monitors_) {
    out += opec_support::StrPrintf(
        "  %s: states=%zu visited=%zu steps=%llu violations=%llu\n", m->name().c_str(),
        m->state_count(), m->visited_states(), static_cast<unsigned long long>(m->steps()),
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

std::unique_ptr<RvSink> MakeStandardRvSink(const RvEnv& env) {
  return std::make_unique<RvSink>(BuildStandardMonitors(env));
}

}  // namespace opec_rv
