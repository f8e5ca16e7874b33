#include "src/obs/export.h"

#include <fstream>
#include <set>
#include <sstream>

#include "src/support/text.h"

namespace opec_obs {

namespace {

using opec_support::JsonEscape;

// Operations render as threads; tid 1 is the default operation (-1), real
// operation ids map to id + 2.
int TidOf(int op_id) { return op_id + 2; }

// Emits one trace-event object. `extra` is a pre-rendered tail (e.g.
// ",\"args\":{...}" or ",\"s\":\"t\"") appended inside the object.
void EmitEvent(std::ostringstream& out, bool& first, const char* ph, int pid, int tid,
               uint64_t ts, const std::string& name, const std::string& extra) {
  if (!first) {
    out << ",\n";
  }
  first = false;
  out << "    {\"ph\":\"" << ph << "\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"ts\":" << ts << ",\"name\":\"" << JsonEscape(name) << "\"" << extra << "}";
}

void EmitProcess(std::ostringstream& out, bool& first, int pid, const TraceProcess& proc) {
  const Naming& naming = proc.naming;
  EmitEvent(out, first, "M", pid, 0, 0, "process_name",
            ",\"args\":{\"name\":\"" + JsonEscape(proc.name) + "\"}");

  // Track the stream-current operation so hw-level events (which carry
  // Event::kNoOperation) land on the track of the operation that was active.
  int cur_op = -1;
  std::set<int> seen_ops = {-1};
  for (const Event& e : proc.events) {
    int own_op = e.operation_id == Event::kNoOperation ? cur_op : e.operation_id;
    seen_ops.insert(own_op);
    int tid = TidOf(own_op);
    switch (e.kind) {
      case EventKind::kFunctionEnter:
        EmitEvent(out, first, "B", pid, tid, e.cycle, naming.Function(e.arg0), "");
        break;
      case EventKind::kFunctionExit:
        EmitEvent(out, first, "E", pid, tid, e.cycle, naming.Function(e.arg0), "");
        break;
      case EventKind::kOperationEnter:
        seen_ops.insert(static_cast<int>(e.arg0));
        EmitEvent(out, first, "B", pid, TidOf(static_cast<int>(e.arg0)), e.cycle,
                  "op:" + naming.Operation(static_cast<int>(e.arg0)), "");
        cur_op = static_cast<int>(e.arg0);
        break;
      case EventKind::kOperationExit:
        EmitEvent(out, first, "E", pid, TidOf(static_cast<int>(e.arg0)), e.cycle,
                  "op:" + naming.Operation(static_cast<int>(e.arg0)), "");
        cur_op = static_cast<int>(e.arg1);
        break;
      case EventKind::kSvc:
        EmitEvent(out, first, "i", pid, tid, e.cycle, e.arg1 == 0 ? "SVC enter" : "SVC exit",
                  ",\"s\":\"t\"");
        break;
      case EventKind::kMpuReconfig:
        EmitEvent(out, first, "i", pid, tid, e.cycle,
                  opec_support::StrPrintf("MPU region %u", e.arg0),
                  opec_support::StrPrintf(",\"s\":\"t\",\"args\":{\"base\":\"%s\","
                                          "\"packed\":%u}",
                                          opec_support::HexAddr(e.arg1).c_str(), e.arg2));
        break;
      case EventKind::kMemFault:
      case EventKind::kBusFault: {
        const char* label = e.kind == EventKind::kMemFault ? "MemFault" : "BusFault";
        EmitEvent(out, first, "i", pid, tid, e.cycle,
                  opec_support::StrPrintf("%s %s", label,
                                          opec_support::HexAddr(e.arg0).c_str()),
                  opec_support::StrPrintf(
                      ",\"s\":\"t\",\"args\":{\"size\":%u,\"write\":%s,\"resolved\":%s,"
                      "\"attack\":%s}",
                      e.arg1, (e.arg2 & kFaultWrite) != 0 ? "true" : "false",
                      (e.arg2 & kFaultResolved) != 0 ? "true" : "false",
                      (e.arg2 & kFaultAttack) != 0 ? "true" : "false"));
        break;
      }
      case EventKind::kMmioAccess:
        EmitEvent(out, first, "i", pid, tid, e.cycle,
                  "MMIO " + opec_support::HexAddr(e.arg0),
                  opec_support::StrPrintf(
                      ",\"s\":\"t\",\"args\":{\"size\":%u,\"write\":%s,\"value\":%u}",
                      e.arg1 & 0xFF, (e.arg1 & 0x100) != 0 ? "true" : "false", e.arg2));
        break;
      case EventKind::kShadowSync:
        EmitEvent(out, first, "i", pid, tid, e.cycle,
                  opec_support::StrPrintf("sync var#%u", e.arg0),
                  opec_support::StrPrintf(
                      ",\"s\":\"t\",\"args\":{\"bytes\":%u,\"direction\":\"%s\"}", e.arg1,
                      e.arg2 == kSyncWriteBack ? "write_back" : "copy_in"));
        break;
      case EventKind::kCount:
        break;
    }
  }
  for (int op : seen_ops) {
    EmitEvent(out, first, "M", pid, TidOf(op), 0, "thread_name",
              ",\"args\":{\"name\":\"operation " + JsonEscape(naming.Operation(op)) + "\"}");
    EmitEvent(out, first, "M", pid, TidOf(op), 0, "thread_sort_index",
              opec_support::StrPrintf(",\"args\":{\"sort_index\":%d}", TidOf(op)));
  }
}

}  // namespace

std::string Naming::Function(uint32_t ordinal) const {
  if (ordinal < functions.size() && !functions[ordinal].empty()) {
    return functions[ordinal];
  }
  return opec_support::StrPrintf("fn#%u", ordinal);
}

std::string Naming::Operation(int id) const {
  if (id < 0) {
    return "default";
  }
  if (static_cast<size_t>(id) < operations.size() && !operations[static_cast<size_t>(id)].empty()) {
    return operations[static_cast<size_t>(id)];
  }
  return opec_support::StrPrintf("op#%d", id);
}

std::string ChromeTraceJson(const std::vector<TraceProcess>& processes) {
  std::ostringstream out;
  out << "{\n  \"traceEvents\": [\n";
  bool first = true;
  uint64_t dropped = 0;
  for (size_t pid = 0; pid < processes.size(); ++pid) {
    EmitProcess(out, first, static_cast<int>(pid), processes[pid]);
    dropped += processes[pid].dropped;
  }
  out << "\n  ],\n  \"displayTimeUnit\": \"ms\",\n"
      << "  \"otherData\": {\"generator\": \"opec-obs\", \"time_unit\": \"modeled cycles\", "
      << "\"dropped_events\": " << dropped << "}\n"
      << "}\n";
  return out.str();
}

std::string ChromeTraceJson(const std::vector<Event>& events, const Naming& naming,
                            const std::string& process_name, uint64_t dropped) {
  return ChromeTraceJson({TraceProcess{process_name, events, naming, dropped}});
}

std::string JsonLines(const std::vector<Event>& events, const Naming& naming,
                      uint64_t dropped) {
  std::ostringstream out;
  if (dropped != 0) {
    out << "{\"header\":\"opec-obs\",\"dropped_events\":" << dropped << "}\n";
  }
  for (const Event& e : events) {
    out << "{\"kind\":\"" << EventKindName(e.kind) << "\",\"cycle\":" << e.cycle;
    if (e.operation_id == Event::kNoOperation) {
      out << ",\"op\":null";
    } else {
      out << ",\"op\":" << e.operation_id;
    }
    switch (e.kind) {
      case EventKind::kFunctionEnter:
      case EventKind::kFunctionExit:
        out << ",\"depth\":" << e.depth << ",\"fn\":\"" << JsonEscape(naming.Function(e.arg0))
            << "\"";
        break;
      case EventKind::kOperationEnter:
      case EventKind::kOperationExit:
        out << ",\"target\":\"" << JsonEscape(naming.Operation(static_cast<int>(e.arg0)))
            << "\",\"other\":\"" << JsonEscape(naming.Operation(static_cast<int>(e.arg1)))
            << "\"";
        break;
      case EventKind::kSvc:
        out << ",\"phase\":\"" << (e.arg1 == 0 ? "enter" : "exit") << "\"";
        break;
      case EventKind::kMpuReconfig:
        out << ",\"region\":" << e.arg0 << ",\"base\":\"" << opec_support::HexAddr(e.arg1)
            << "\",\"packed\":" << e.arg2;
        break;
      case EventKind::kMemFault:
      case EventKind::kBusFault:
        out << ",\"addr\":\"" << opec_support::HexAddr(e.arg0) << "\",\"size\":" << e.arg1
            << ",\"write\":" << ((e.arg2 & kFaultWrite) != 0 ? "true" : "false")
            << ",\"resolved\":" << ((e.arg2 & kFaultResolved) != 0 ? "true" : "false")
            << ",\"attack\":" << ((e.arg2 & kFaultAttack) != 0 ? "true" : "false");
        break;
      case EventKind::kMmioAccess:
        out << ",\"addr\":\"" << opec_support::HexAddr(e.arg0)
            << "\",\"size\":" << (e.arg1 & 0xFF)
            << ",\"write\":" << ((e.arg1 & 0x100) != 0 ? "true" : "false")
            << ",\"value\":" << e.arg2;
        break;
      case EventKind::kShadowSync:
        out << ",\"var\":" << e.arg0 << ",\"bytes\":" << e.arg1 << ",\"direction\":\""
            << (e.arg2 == kSyncWriteBack ? "write_back" : "copy_in") << "\"";
        break;
      case EventKind::kCount:
        break;
    }
    out << "}\n";
  }
  return out.str();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    return false;
  }
  out << content;
  return out.good();
}

}  // namespace opec_obs
