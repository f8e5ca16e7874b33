#include "src/obs/profile.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/support/table.h"
#include "src/support/text.h"

// (profile renders through opec_support::Table, the same renderer behind the
// opec_metrics bench tables, so the per-operation report matches their look.)

namespace opec_obs {

namespace {

struct Accum {
  OperationProfile p;
  std::set<uint32_t> devices;      // MMIO addr >> 10 (register-bank granularity)
  std::set<uint32_t> synced_vars;  // external var indices
};

}  // namespace

std::vector<OperationProfile> AggregateProfiles(const std::vector<Event>& events) {
  std::map<int, Accum> by_op;
  auto acc = [&](int op) -> Accum& {
    Accum& a = by_op[op];
    a.p.op_id = op;
    return a;
  };

  int cur = -1;
  uint64_t last_cycle = events.empty() ? 0 : events.front().cycle;
  for (const Event& e : events) {
    // Charge the gap since the previous event to the operation that was
    // active across it; switch work emitted inside OnOperationEnter therefore
    // bills the switching (previous) operation, matching how the paper
    // attributes switch overhead to the switch site.
    acc(cur).p.cycles += e.cycle - last_cycle;
    last_cycle = e.cycle;

    int owner = e.operation_id == Event::kNoOperation ? cur : e.operation_id;
    Accum& a = acc(owner);
    switch (e.kind) {
      case EventKind::kFunctionEnter:
        ++a.p.function_enters;
        break;
      case EventKind::kFunctionExit:
        break;
      case EventKind::kOperationEnter:
        ++acc(static_cast<int>(e.arg0)).p.enters;
        cur = static_cast<int>(e.arg0);
        break;
      case EventKind::kOperationExit:
        ++acc(static_cast<int>(e.arg0)).p.exits;
        cur = static_cast<int>(e.arg1);
        break;
      case EventKind::kSvc:
        ++a.p.svcs;
        break;
      case EventKind::kMpuReconfig:
        ++a.p.mpu_reconfigs;
        break;
      case EventKind::kMemFault:
        ++a.p.mem_faults;
        break;
      case EventKind::kBusFault:
        ++a.p.bus_faults;
        break;
      case EventKind::kMmioAccess:
        ++a.p.mmio_accesses;
        a.devices.insert(e.arg0 >> 10);
        break;
      case EventKind::kShadowSync:
        ++a.p.shadow_syncs;
        a.p.synced_bytes += e.arg1;
        a.synced_vars.insert(e.arg0);
        break;
      case EventKind::kCount:
        break;
    }
  }

  std::vector<OperationProfile> out;
  out.reserve(by_op.size());
  for (auto& [op, a] : by_op) {
    a.p.distinct_devices = a.devices.size();
    a.p.distinct_synced_vars = a.synced_vars.size();
    out.push_back(a.p);
  }
  return out;  // std::map iteration gives ascending op id, -1 first
}

std::string RenderProfileTable(const std::vector<OperationProfile>& profiles,
                               const Naming& naming) {
  opec_support::Table table({"Operation", "Cycles", "Fn enters", "Enters", "Exits", "SVCs",
                             "Sync bytes", "MemFlt", "BusFlt", "MPU wr", "MMIO", "Devices",
                             "Vars"});
  auto u = [](uint64_t v) {
    return opec_support::StrPrintf("%llu", static_cast<unsigned long long>(v));
  };
  for (const OperationProfile& p : profiles) {
    std::string name = p.op_id < 0
                           ? naming.Operation(p.op_id)
                           : opec_support::StrPrintf("%d:", p.op_id) + naming.Operation(p.op_id);
    table.AddRow({name, u(p.cycles), u(p.function_enters), u(p.enters), u(p.exits), u(p.svcs),
                  u(p.synced_bytes), u(p.mem_faults), u(p.bus_faults), u(p.mpu_reconfigs),
                  u(p.mmio_accesses), u(p.distinct_devices), u(p.distinct_synced_vars)});
  }
  return table.ToString();
}

}  // namespace opec_obs
