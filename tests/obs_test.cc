// Observability-layer tests: ring-buffer wraparound, event ordering against
// modeled cycles, Chrome-trace / JSONL exporter well-formedness (golden +
// mini-parser validation), fault forensics on the denied PinLock attack, the
// Monitor::Stats-vs-event-stream agreement check on every app workload, and
// the zero-modeled-cost contract of attached sinks on every app, mode and
// engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/all_apps.h"
#include "src/apps/pinlock.h"
#include "src/apps/runner.h"
#include "src/monitor/monitor.h"
#include "src/obs/event.h"
#include "src/obs/export.h"
#include "src/obs/forensics.h"
#include "src/obs/profile.h"
#include "src/obs/recorder.h"

namespace opec_obs {
namespace {

using opec_apps::AppRun;
using opec_apps::BuildMode;
using opec_apps::PinLockApp;

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validator (objects, arrays, strings,
// numbers, booleans, null), enough to prove exporter output is well-formed
// without a JSON dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Validate() {
    pos_ = 0;
    return Value() && (SkipWs(), pos_ == text_.size());
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        if (!String()) {
          return false;
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return false;
        }
        ++pos_;
        if (!Value()) {
          return false;
        }
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '}') {
        return false;
      }
      ++pos_;
      return true;
    }
    if (c == '[') {
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        if (!Value()) {
          return false;
        }
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ']') {
        return false;
      }
      ++pos_;
      return true;
    }
    if (c == '"') {
      return String();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return Number();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Counts events per kind and accumulates the kind-specific payloads the
// Monitor::Stats cross-check needs; O(1) memory on the long workloads.
class StatsSink : public Sink {
 public:
  void OnEvent(const Event& e) override {
    ++counts_[e.kind];
    switch (e.kind) {
      case EventKind::kShadowSync:
        synced_bytes_ += e.arg1;
        break;
      case EventKind::kMemFault:
        if ((e.arg2 & kFaultResolved) != 0) {
          ++resolved_mem_faults_;
        }
        break;
      case EventKind::kBusFault:
        if ((e.arg2 & kFaultResolved) != 0) {
          ++resolved_bus_faults_;
        }
        break;
      default:
        break;
    }
  }

  uint64_t count(EventKind kind) const {
    auto it = counts_.find(kind);
    return it == counts_.end() ? 0 : it->second;
  }
  uint64_t synced_bytes() const { return synced_bytes_; }
  uint64_t resolved_mem_faults() const { return resolved_mem_faults_; }
  uint64_t resolved_bus_faults() const { return resolved_bus_faults_; }

 private:
  std::map<EventKind, uint64_t> counts_;
  uint64_t synced_bytes_ = 0;
  uint64_t resolved_mem_faults_ = 0;
  uint64_t resolved_bus_faults_ = 0;
};

// ---------------------------------------------------------------------------

TEST(Recorder, RingBufferWraparound) {
  Recorder rec(8);
  EXPECT_EQ(rec.capacity(), 8u);
  for (uint32_t i = 0; i < 20; ++i) {
    rec.OnEvent(Event::Make(EventKind::kFunctionEnter, /*cycle=*/i, /*operation_id=*/-1,
                            /*depth=*/1, /*arg0=*/i));
  }
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  // Retained events are the 8 newest, oldest first.
  for (size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(rec.at(i).arg0, 12u + i);
    EXPECT_EQ(rec.at(i).cycle, 12u + i);
  }
  std::vector<Event> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().arg0, 12u);
  EXPECT_EQ(snap.back().arg0, 19u);

  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, BelowCapacityKeepsEverything) {
  Recorder rec(16);
  for (uint32_t i = 0; i < 5; ++i) {
    rec.OnEvent(Event::Make(EventKind::kSvc, i));
  }
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.at(0).cycle, 0u);
  EXPECT_EQ(rec.at(4).cycle, 4u);
}

TEST(Hub, DispatchOnlyWhileAttached) {
  EXPECT_FALSE(Hub::active());
  Recorder rec(8);
  {
    ScopedSink attach(&rec);
    EXPECT_TRUE(Hub::active());
    OPEC_OBS_EVENT(EventKind::kSvc, 1);
  }
  EXPECT_FALSE(Hub::active());
  OPEC_OBS_EVENT(EventKind::kSvc, 2);  // no sink: must not be observed
  EXPECT_EQ(rec.total(), 1u);
  EXPECT_EQ(rec.at(0).cycle, 1u);
}

// Events must be emitted in modeled-cycle order: the stream is an observation
// of one single-threaded machine, so cycles never decrease.
TEST(EventStream, CyclesAreMonotonic) {
  PinLockApp app(3);
  AppRun run(app, BuildMode::kOpec);
  run.EnableEventRecording();
  ASSERT_TRUE(run.Execute().ok);
  ASSERT_NE(run.recorder(), nullptr);
  std::vector<Event> events = run.recorder()->Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(run.recorder()->dropped(), 0u) << "pinlock should fit in the default ring";
  uint64_t prev = 0;
  for (const Event& e : events) {
    EXPECT_GE(e.cycle, prev) << "event stream not in cycle order";
    prev = e.cycle;
  }
  // The stream contains the structural kinds an OPEC run must produce.
  StatsSink kinds;
  for (const Event& e : events) {
    kinds.OnEvent(e);
  }
  EXPECT_GT(kinds.count(EventKind::kFunctionEnter), 0u);
  EXPECT_GT(kinds.count(EventKind::kFunctionExit), 0u);
  EXPECT_GT(kinds.count(EventKind::kOperationEnter), 0u);
  EXPECT_GT(kinds.count(EventKind::kOperationExit), 0u);
  EXPECT_GT(kinds.count(EventKind::kSvc), 0u);
  EXPECT_GT(kinds.count(EventKind::kMpuReconfig), 0u);
  // Function enter/exit events balance on a completed run.
  EXPECT_EQ(kinds.count(EventKind::kFunctionEnter), kinds.count(EventKind::kFunctionExit));
  EXPECT_EQ(kinds.count(EventKind::kOperationEnter), kinds.count(EventKind::kOperationExit));
}

TEST(ChromeTrace, GoldenSmallStream) {
  std::vector<Event> events;
  events.push_back(Event::Make(EventKind::kFunctionEnter, 100, -1, 1, 0));
  events.push_back(Event::Make(EventKind::kMemFault, 120, Event::kNoOperation, 1, 0x20000000u,
                               4, kFaultWrite));
  events.push_back(Event::Make(EventKind::kFunctionExit, 150, -1, 1, 0));
  Naming naming;
  naming.functions = {"main"};
  std::string json = ChromeTraceJson(events, naming, "golden");

  const std::string expected =
      "{\n"
      "  \"traceEvents\": [\n"
      "    {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"golden\"}},\n"
      "    {\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\":100,\"name\":\"main\"},\n"
      "    {\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":120,\"name\":\"MemFault 0x20000000\","
      "\"s\":\"t\",\"args\":{\"size\":4,\"write\":true,\"resolved\":false,"
      "\"attack\":false}},\n"
      "    {\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":150,\"name\":\"main\"},\n"
      "    {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"ts\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"operation default\"}},\n"
      "    {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"ts\":0,\"name\":\"thread_sort_index\","
      "\"args\":{\"sort_index\":1}}\n"
      "  ],\n"
      "  \"displayTimeUnit\": \"ms\",\n"
      "  \"otherData\": {\"generator\": \"opec-obs\", \"time_unit\": \"modeled cycles\", "
      "\"dropped_events\": 0}\n"
      "}\n";
  EXPECT_EQ(json, expected);
  EXPECT_TRUE(JsonValidator(json).Validate());
}

// A Recorder that wrapped must not export a trace that looks complete: both
// exporters surface the drop count. This failed before the exporters learned
// about Recorder::dropped() — the truncated stream serialized with no marker.
TEST(ChromeTrace, DroppedEventsSurfaceInExports) {
  Recorder rec(4);
  for (uint32_t i = 0; i < 10; ++i) {
    rec.OnEvent(Event::Make(EventKind::kSvc, /*cycle=*/i));
  }
  ASSERT_EQ(rec.dropped(), 6u);
  Naming naming;
  std::string json = ChromeTraceJson(rec.Snapshot(), naming, "wrapped", rec.dropped());
  EXPECT_NE(json.find("\"dropped_events\": 6"), std::string::npos) << json;
  EXPECT_TRUE(JsonValidator(json).Validate());

  std::string jsonl = JsonLines(rec.Snapshot(), naming, rec.dropped());
  std::istringstream in(jsonl);
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_EQ(first, "{\"header\":\"opec-obs\",\"dropped_events\":6}");
  EXPECT_TRUE(JsonValidator(first).Validate());
  // A lossless stream emits no header line: existing consumers see only events.
  std::string clean = JsonLines(rec.Snapshot(), naming, 0);
  EXPECT_EQ(clean.find("header"), std::string::npos);
}

TEST(ChromeTrace, PinLockTraceIsWellFormed) {
  PinLockApp app(3);
  AppRun run(app, BuildMode::kOpec);
  run.EnableEventRecording();
  ASSERT_TRUE(run.Execute().ok);
  std::vector<Event> events = run.recorder()->Snapshot();
  Naming naming = run.EventNaming();
  std::string json = ChromeTraceJson(events, naming, "PinLock");
  EXPECT_TRUE(JsonValidator(json).Validate()) << "Chrome trace JSON is malformed";
  // Structural markers Perfetto relies on.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("op:"), std::string::npos) << "operations should render as slices";
}

TEST(JsonLinesExport, EveryLineIsAJsonObject) {
  PinLockApp app(3);
  AppRun run(app, BuildMode::kOpec);
  run.EnableEventRecording();
  ASSERT_TRUE(run.Execute().ok);
  std::vector<Event> events = run.recorder()->Snapshot();
  std::string jsonl = JsonLines(events, run.EventNaming());
  std::istringstream in(jsonl);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(JsonValidator(line).Validate()) << "bad JSONL line: " << line;
    EXPECT_EQ(line.front(), '{');
    ++lines;
  }
  EXPECT_EQ(lines, events.size());
}

// The Section 6.1 exploit, observed: the denied KEY overwrite must leave a
// fully populated forensic report.
TEST(FaultForensics, DeniedPinlockAttackProducesReport) {
  PinLockApp app(3);
  AppRun run(app, BuildMode::kOpec);
  const opec_compiler::Policy& policy = run.compile()->policy;
  int key_index = policy.FindExternalIndex(run.module().FindGlobal("KEY"));
  ASSERT_GE(key_index, 0);
  uint32_t key_addr = policy.externals[static_cast<size_t>(key_index)].public_addr;

  opec_rt::AttackSpec attack;
  attack.function = "HAL_UART_Receive_IT";
  attack.occurrence = 2;
  attack.addr = key_addr;
  attack.value = 0xDEADBEEF;
  run.AddAttack(attack);

  run.EnableEventRecording();
  opec_rt::RunResult r = run.Execute();
  ASSERT_TRUE(r.ok) << r.violation;
  ASSERT_TRUE(run.engine().attacks()[0].blocked);

  const std::vector<FaultReport>& reports = run.engine().fault_reports();
  ASSERT_EQ(reports.size(), 1u);
  const FaultReport& report = reports[0];
  EXPECT_TRUE(report.attack);
  EXPECT_TRUE(report.write);
  EXPECT_FALSE(report.privileged) << "exploited code runs unprivileged under OPEC";
  EXPECT_EQ(report.addr, key_addr);
  EXPECT_EQ(report.size, 4u);
  EXPECT_EQ(report.function, "HAL_UART_Receive_IT");
  EXPECT_GE(report.operation_id, 0) << "attack fires inside an operation";
  EXPECT_GT(report.depth, 0);
  EXPECT_GT(report.cycle, 0u);
  EXPECT_FALSE(report.deny_reason.empty());
  if (!report.bus_fault) {
    EXPECT_EQ(report.mpu_regions.size(),
              static_cast<size_t>(opec_hw::Mpu::kNumRegions));
  }
  std::string rendered = report.Render();
  EXPECT_NE(rendered.find("forensic report"), std::string::npos);
  EXPECT_NE(rendered.find("HAL_UART_Receive_IT"), std::string::npos);
  EXPECT_NE(rendered.find("injected attack write"), std::string::npos);
  // The recorded stream carries the matching fault instant.
  bool saw_attack_fault = false;
  for (const Event& e : run.recorder()->Snapshot()) {
    if ((e.kind == EventKind::kMemFault || e.kind == EventKind::kBusFault) &&
        (e.arg2 & kFaultAttack) != 0) {
      EXPECT_EQ(e.arg0, key_addr);
      saw_attack_fault = true;
    }
  }
  EXPECT_TRUE(saw_attack_fault);
}

// Satellite: the hand-incremented Monitor::Stats counters and the observed
// event stream must agree on every app workload — any drift means a counter
// was bumped without the matching event (or vice versa).
TEST(MonitorStatsAgreement, AllAppWorkloads) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    AppRun run(*app, BuildMode::kOpec);
    StatsSink sink;
    run.AttachSink(&sink);
    uint64_t config_writes_before = run.machine().mpu().config_writes();
    opec_rt::RunResult r = run.Execute();
    ASSERT_TRUE(r.ok) << factory.name << ": " << r.violation;
    const opec_monitor::MonitorStats& stats = run.monitor()->stats();

    EXPECT_EQ(stats.operation_switches, sink.count(EventKind::kOperationEnter) +
                                            sink.count(EventKind::kOperationExit))
        << factory.name;
    EXPECT_EQ(stats.synced_bytes, sink.synced_bytes()) << factory.name;
    EXPECT_EQ(stats.virtualization_faults, sink.resolved_mem_faults()) << factory.name;
    EXPECT_EQ(stats.emulated_core_accesses, sink.resolved_bus_faults()) << factory.name;
    // Every MPU reconfiguration during the observed window emitted one event.
    EXPECT_EQ(run.machine().mpu().config_writes() - config_writes_before,
              sink.count(EventKind::kMpuReconfig))
        << factory.name;
    // Each operation switch is SVC-mediated.
    EXPECT_EQ(sink.count(EventKind::kSvc), stats.operation_switches) << factory.name;
  }
}

// Acceptance: the per-operation profile table renders for every app workload.
TEST(Profiler, TableRendersForAllAppWorkloads) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    AppRun run(*app, BuildMode::kOpec);
    run.EnableEventRecording();
    ASSERT_TRUE(run.Execute().ok) << factory.name;
    std::vector<OperationProfile> profiles =
        AggregateProfiles(run.recorder()->Snapshot());
    ASSERT_FALSE(profiles.empty()) << factory.name;
    std::string table = RenderProfileTable(profiles, run.EventNaming());
    EXPECT_FALSE(table.empty()) << factory.name;
    EXPECT_NE(table.find("Operation"), std::string::npos) << factory.name;
    // Cycle attribution never exceeds the run: the per-operation sum is
    // bounded by the modeled cycle of the last event.
    uint64_t total = 0;
    for (const OperationProfile& p : profiles) {
      total += p.cycles;
    }
    uint64_t last_cycle = run.recorder()->Snapshot().back().cycle;
    EXPECT_LE(total, last_cycle) << factory.name;
  }
}

// The zero-modeled-cost contract (DESIGN.md §9) on every app workload, both
// build modes and both engines: a run with a counting sink attached matches
// the plain run in cycles and statements, and a Recorder sized to the counted
// stream drops nothing (a truncated trace must never pass as complete).
TEST(Overhead, AttachedSinkLeavesModeledOutputsIdentical) {
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    for (BuildMode mode : {BuildMode::kVanilla, BuildMode::kOpec}) {
      for (opec_apps::EngineKind engine :
           {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
        std::string label = factory.name + (mode == BuildMode::kOpec ? "/opec/" : "/vanilla/") +
                            opec_apps::EngineKindName(engine);
        AppRun plain(*app, mode, engine);
        opec_rt::RunResult r = plain.Execute();
        ASSERT_TRUE(r.ok) << label << ": " << r.violation;

        AppRun counted(*app, mode, engine);
        Recorder counter(1);  // counts every event in total(), keeps one
        counted.AttachSink(&counter);
        opec_rt::RunResult observed = counted.Execute();
        ASSERT_TRUE(observed.ok) << label;
        EXPECT_EQ(observed.cycles, r.cycles) << label;
        EXPECT_EQ(observed.statements, r.statements) << label;
        EXPECT_GT(counter.total(), 0u) << label;

        AppRun recorded(*app, mode, engine);
        recorded.EnableEventRecording(
            std::max<size_t>(Recorder::kDefaultCapacity, counter.total()));
        ASSERT_TRUE(recorded.Execute().ok) << label;
        EXPECT_EQ(recorded.recorder()->total(), counter.total()) << label;
        EXPECT_EQ(recorded.recorder()->dropped(), 0u) << label;
      }
    }
  }
}

// Every EventKind has a real name: adding a kind without naming it would
// break every exporter and the RV reports at once. src/rv/monitors.cc
// static_asserts the enum width; this pins the names.
TEST(EventKinds, EveryKindHasAUniqueName) {
  constexpr EventKind kAll[] = {
      EventKind::kFunctionEnter, EventKind::kFunctionExit, EventKind::kOperationEnter,
      EventKind::kOperationExit, EventKind::kSvc,           EventKind::kMpuReconfig,
      EventKind::kMemFault,      EventKind::kBusFault,      EventKind::kMmioAccess,
      EventKind::kShadowSync,
  };
  ASSERT_EQ(sizeof(kAll) / sizeof(kAll[0]), 10u);
  std::set<std::string> names;
  for (EventKind kind : kAll) {
    std::string name = EventKindName(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find('?'), std::string::npos) << "placeholder name for kind "
                                                 << static_cast<int>(kind);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), 10u);
}

// Coverage: every event kind is actually emitted by some app workload on both
// engines — a kind nothing emits is dead weight in the monitors and a kind
// only one engine emits is a tier divergence waiting to happen.
TEST(EventKinds, EveryKindIsEmittedBySomeWorkloadOnBothEngines) {
  for (opec_apps::EngineKind engine :
       {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
    std::set<EventKind> seen;
    class KindSink : public Sink {
     public:
      explicit KindSink(std::set<EventKind>* seen) : seen_(seen) {}
      void OnEvent(const Event& e) override { seen_->insert(e.kind); }

     private:
      std::set<EventKind>* seen_;
    } sink(&seen);

    for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
      std::unique_ptr<opec_apps::Application> app = factory.make();
      for (BuildMode mode : {BuildMode::kVanilla, BuildMode::kOpec}) {
        AppRun run(*app, mode, engine);
        run.AttachSink(&sink);
        ASSERT_TRUE(run.Execute().ok) << factory.name;
      }
    }
    // The clean scenarios never fault; a blocked cross-section write covers
    // kMemFault and a write to an unmapped address covers kBusFault.
    {
      PinLockApp app(2);
      AppRun run(app, BuildMode::kOpec, engine);
      const opec_compiler::Policy& policy = run.compile()->policy;
      const opec_compiler::OperationPolicy* attacker = nullptr;
      const opec_compiler::OperationPolicy* victim = nullptr;
      for (const auto& op : policy.operations) {
        if (op.id != policy.default_op_id && attacker == nullptr) {
          attacker = &op;
        } else if (op.has_section && attacker != nullptr && op.id != attacker->id) {
          victim = &op;
        }
      }
      ASSERT_NE(attacker, nullptr);
      ASSERT_NE(victim, nullptr);
      opec_rt::AttackSpec mem_attack;
      mem_attack.function = attacker->entry;
      mem_attack.addr = victim->section_base;
      mem_attack.value = 0x41414141;
      run.AddAttack(mem_attack);
      opec_rt::AttackSpec bus_attack;
      bus_attack.function = attacker->entry;
      bus_attack.occurrence = 2;
      bus_attack.addr = 0xF0000000u;  // outside every mapped range
      bus_attack.value = 1;
      run.AddAttack(bus_attack);
      run.AttachSink(&sink);
      ASSERT_TRUE(run.Execute().ok);
    }

    EXPECT_EQ(seen.size(), 10u)
        << "engine " << opec_apps::EngineKindName(engine) << " covered only "
        << seen.size() << " of 10 event kinds";
  }
}

// The rebased ExecutionTrace consumes the same event stream.
TEST(ExecutionTraceSink, ReconstructsFunctionLog) {
  PinLockApp app(3);
  AppRun run(app, BuildMode::kOpec);
  run.EnableTrace();
  ASSERT_TRUE(run.Execute().ok);
  const opec_rt::ExecutionTrace& trace = run.trace();
  ASSERT_FALSE(trace.events().empty());
  EXPECT_GT(trace.executed_count(), 0u);
  const opec_ir::Function* main_fn = run.module().FindFunction("main");
  ASSERT_NE(main_fn, nullptr);
  EXPECT_TRUE(trace.WasExecuted(main_fn));
  EXPECT_EQ(trace.events().front().fn, main_fn);
  // Cycle stamps inherited from the event stream are monotonic.
  uint64_t prev = 0;
  for (const opec_rt::TraceEvent& te : trace.events()) {
    EXPECT_GE(te.cycle, prev);
    prev = te.cycle;
  }
}

}  // namespace
}  // namespace opec_obs
