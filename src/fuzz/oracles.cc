#include "src/fuzz/oracles.h"

#include <algorithm>
#include <array>
#include <set>
#include <utility>

#include "src/analysis/points_to.h"
#include "src/campaign/campaign.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/reference_mpu.h"
#include "src/hw/machine.h"
#include "src/hw/mpu.h"
#include "src/obs/event.h"
#include "src/support/check.h"
#include "src/support/hash.h"
#include "src/support/text.h"

namespace opec_fuzz {

namespace {

using opec_hw::AccessKind;
using opec_support::Fnv1a64;
using opec_support::HexAddr;
using opec_support::SplitMix64;
using opec_support::StrPrintf;

uint64_t FoldStr(uint64_t h, const std::string& s) { return Fnv1a64(s.data(), s.size(), h); }

// Where to read a global's final value. Vanilla: its one home address. OPEC:
// the engine ends the run inside the default operation, whose shadows are the
// freshest copy and are NOT written back to the public section at program
// end; externals the default op does not shadow were last synced to their
// public copy at the preceding operation exit.
uint32_t FinalAddrOf(opec_apps::AppRun& run, const opec_ir::GlobalVariable* gv) {
  const opec_compiler::CompileResult* cr = run.compile();
  if (cr == nullptr) {
    return run.layout().AddrOf(gv);
  }
  const opec_compiler::Policy& policy = cr->policy;
  int ext = policy.FindExternalIndex(gv);
  if (ext < 0) {
    return run.layout().AddrOf(gv);
  }
  for (const opec_compiler::OperationPolicy& op : policy.operations) {
    if (op.id != policy.default_op_id) {
      continue;
    }
    for (const opec_compiler::ShadowPlacement& sh : op.shadows) {
      if (sh.var_index == ext) {
        return sh.addr;
      }
    }
  }
  return policy.externals[static_cast<size_t>(ext)].public_addr;
}

std::string BytesHex(const std::vector<uint8_t>& bytes, size_t off = 0,
                     size_t len = SIZE_MAX) {
  std::string out;
  for (size_t i = off; i < bytes.size() && i - off < len; ++i) {
    out += StrPrintf("%02X", bytes[i]);
  }
  return out;
}

// Resolves a guest data address to "global+offset", looking through every
// copy of a variable (vanilla home, OPEC public copy, every operation's
// shadow placement). Pointer values stored in guest memory are only
// comparable across builds symbolically.
class SymbolResolver {
 public:
  explicit SymbolResolver(opec_apps::AppRun& run) {
    for (const auto& gv : run.module().globals()) {
      uint32_t addr = run.layout().AddrOf(gv.get());
      if (addr != 0 && gv->size() != 0) {
        ranges_.push_back({addr, gv->size(), gv->name()});
      }
    }
    const opec_compiler::CompileResult* cr = run.compile();
    if (cr != nullptr) {
      for (const opec_compiler::OperationPolicy& op : cr->policy.operations) {
        for (const opec_compiler::ShadowPlacement& sh : op.shadows) {
          const opec_compiler::ExternalVar& ev =
              cr->policy.externals[static_cast<size_t>(sh.var_index)];
          ranges_.push_back({sh.addr, ev.size, ev.gv->name()});
        }
      }
    }
  }

  std::string Resolve(uint32_t addr) const {
    if (addr == 0) {
      return "null";
    }
    for (const Range& r : ranges_) {
      if (addr >= r.base && addr - r.base < r.size) {
        return StrPrintf("%s+%u", r.name.c_str(), addr - r.base);
      }
    }
    return "raw:" + HexAddr(addr);
  }

 private:
  struct Range {
    uint32_t base = 0;
    uint32_t size = 0;
    std::string name;
  };
  std::vector<Range> ranges_;
};

std::string ResolveFuncAddr(opec_apps::AppRun& run, uint32_t addr) {
  if (addr == 0) {
    return "null";
  }
  for (const auto& fn : run.module().functions()) {
    if (run.engine().FuncAddr(fn.get()) == addr) {
      return fn->name();
    }
  }
  return "raw:" + HexAddr(addr);
}

uint32_t U32At(const std::vector<uint8_t>& bytes, size_t off) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4 && off + i < bytes.size(); ++i) {
    v |= static_cast<uint32_t>(bytes[off + i]) << (8 * i);
  }
  return v;
}

// Renders a global's final bytes with pointer slots resolved symbolically.
std::string RenderFinal(const FGlobal* fg, const opec_ir::GlobalVariable* gv,
                        const std::vector<uint8_t>& bytes, const SymbolResolver& resolver,
                        opec_apps::AppRun& run) {
  if (fg == nullptr) {
    return BytesHex(bytes);
  }
  switch (fg->k) {
    case FGlobal::K::kPtr:
      return "ptr:" + resolver.Resolve(U32At(bytes, 0));
    case FGlobal::K::kFnPtr:
      return "fn:" + ResolveFuncAddr(run, U32At(bytes, 0));
    case FGlobal::K::kStruct: {
      const auto& fields = gv->type()->fields();
      std::string out;
      for (size_t i = 0; i < fg->fields.size() && i < fields.size(); ++i) {
        if (!out.empty()) {
          out += " ";
        }
        out += fg->fields[i].name + "=";
        if (fg->fields[i].is_ptr_u8) {
          out += "ptr:" + resolver.Resolve(U32At(bytes, fields[i].offset));
        } else {
          out += BytesHex(bytes, fields[i].offset, fields[i].type->size());
        }
      }
      return out;
    }
    default:
      return BytesHex(bytes);
  }
}

}  // namespace

const char* OracleName(Oracle o) {
  switch (o) {
    case Oracle::kExecDiff:
      return "exec-diff";
    case Oracle::kPointsTo:
      return "points-to";
    case Oracle::kMpuCache:
      return "mpu-cache";
    case Oracle::kParallel:
      return "parallel";
    case Oracle::kSnapshot:
      return "snapshot";
    case Oracle::kBytecodeTier:
      return "bytecode-tier";
    case Oracle::kRv:
      return "rv";
  }
  return "?";
}

namespace {

// FNV digest over every field of every dispatched obs event: a compact,
// order-sensitive fingerprint of the full event stream. Attached to every
// oracle run so the bytecode tier's event stream can be compared against the
// interpreter's without retaining the events.
class EventDigestSink : public opec_obs::Sink {
 public:
  void OnEvent(const opec_obs::Event& e) override {
    h_ = Fnv1a64(&e.kind, sizeof(e.kind), h_);
    h_ = Fnv1a64(&e.operation_id, sizeof(e.operation_id), h_);
    h_ = Fnv1a64(&e.depth, sizeof(e.depth), h_);
    h_ = Fnv1a64(&e.cycle, sizeof(e.cycle), h_);
    h_ = Fnv1a64(&e.arg0, sizeof(e.arg0), h_);
    h_ = Fnv1a64(&e.arg1, sizeof(e.arg1), h_);
    h_ = Fnv1a64(&e.arg2, sizeof(e.arg2), h_);
  }
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = opec_support::kFnv1a64Basis;
};

// Shared by RunOnce (plain) and DiffSnapshotRoundTrip (probed). With `probe`
// set, the run executes under the snapshot RoundTripProbe; the probe's check
// count and error list are copied out before the run is torn down.
ExecObservation RunOnceImpl(const ProgramSpec& spec, opec_apps::BuildMode mode,
                            opec_apps::EngineKind engine, bool probe, uint64_t* probes,
                            std::vector<std::string>* probe_errors) {
  ExecObservation obs;
  FuzzApplication app(spec);
  opec_support::ScopedCheckThrow capture;
  try {
    opec_apps::AppRun run(app, mode, engine);
    EventDigestSink events;
    run.AttachSink(&events);
    if (probe) {
      run.EnableSnapshotProbe();
    }
    run.EnableRv();
    opec_rt::RunResult result = run.Execute();
    obs.cycles = result.cycles;
    obs.statements = result.statements;
    obs.events_digest = events.digest();
    obs.rv_violations = run.rv()->total_violations();
    obs.rv_report = run.rv()->Report();
    if (probe && run.probe() != nullptr) {
      if (probes != nullptr) {
        *probes = run.probe()->probes();
      }
      if (probe_errors != nullptr) {
        *probe_errors = run.probe()->errors();
      }
    }
    obs.run_ok = result.ok;
    obs.violation = result.violation;
    obs.return_value = result.return_value;
    auto& devs = static_cast<FuzzDevices&>(run.devices());
    obs.uart_tx = devs.uart->TxString();
    obs.odr_history = devs.gpio->odr_history();
    SymbolResolver resolver(run);
    for (const auto& gv : run.module().globals()) {
      if (gv->is_const()) {
        continue;
      }
      const FGlobal* fg = nullptr;
      for (const FGlobal& cand : spec.globals) {
        if (cand.name == gv->name()) {
          fg = &cand;
          break;
        }
      }
      uint32_t addr = FinalAddrOf(run, gv.get());
      std::vector<uint8_t> bytes = run.machine().bus().DebugReadBytes(addr, gv->size());
      obs.finals[gv->name()] = RenderFinal(fg, gv.get(), bytes, resolver, run);
    }
  } catch (const opec_support::CheckError& e) {
    obs.build_error = true;
    obs.build_error_msg = e.what();
  }
  return obs;
}

}  // namespace

ExecObservation RunOnce(const ProgramSpec& spec, opec_apps::BuildMode mode,
                        opec_apps::EngineKind engine) {
  return RunOnceImpl(spec, mode, engine, /*probe=*/false, nullptr, nullptr);
}

std::string FormatObservation(const ExecObservation& obs) {
  if (obs.build_error) {
    return "build-error: " + obs.build_error_msg;
  }
  std::string out = StrPrintf("ok=%d ret=0x%08X", obs.run_ok ? 1 : 0, obs.return_value);
  if (!obs.run_ok) {
    out += " violation=[" + obs.violation + "]";
  }
  out += StrPrintf(" uart=%zuB odr=%zu", obs.uart_tx.size(), obs.odr_history.size());
  for (const auto& [name, rendered] : obs.finals) {
    out += " " + name + "=" + rendered;
  }
  return out;
}

std::vector<Divergence> CompareExec(const ProgramSpec& spec, const ExecObservation& vanilla,
                                    const ExecObservation& opec) {
  (void)spec;
  std::vector<Divergence> divs;
  auto add = [&divs](std::string detail) {
    divs.push_back({Oracle::kExecDiff, std::move(detail)});
  };
  if (vanilla.build_error || opec.build_error) {
    // Recipes are valid by construction: any CHECK out of either build is a
    // harness/compiler defect, not an expected outcome.
    if (vanilla.build_error) {
      add("vanilla build error: " + vanilla.build_error_msg);
    }
    if (opec.build_error) {
      add("opec build error: " + opec.build_error_msg);
    }
    return divs;
  }
  if (!vanilla.run_ok) {
    add("vanilla run failed: " + vanilla.violation);
    return divs;
  }
  if (!opec.run_ok) {
    add("opec run failed (vanilla succeeded): " + opec.violation);
    return divs;
  }
  if (vanilla.return_value != opec.return_value) {
    add(StrPrintf("return value: vanilla 0x%08X, opec 0x%08X", vanilla.return_value,
                  opec.return_value));
  }
  if (vanilla.uart_tx != opec.uart_tx) {
    add(StrPrintf("uart tx: vanilla %zuB [%s], opec %zuB [%s]", vanilla.uart_tx.size(),
                  BytesHex(std::vector<uint8_t>(vanilla.uart_tx.begin(), vanilla.uart_tx.end()))
                      .c_str(),
                  opec.uart_tx.size(),
                  BytesHex(std::vector<uint8_t>(opec.uart_tx.begin(), opec.uart_tx.end()))
                      .c_str()));
  }
  if (vanilla.odr_history != opec.odr_history) {
    add(StrPrintf("gpio odr history: vanilla %zu writes, opec %zu writes",
                  vanilla.odr_history.size(), opec.odr_history.size()));
  }
  for (const auto& [name, vrendered] : vanilla.finals) {
    auto it = opec.finals.find(name);
    if (it == opec.finals.end()) {
      add("global " + name + " missing from opec observation");
      continue;
    }
    if (vrendered != it->second) {
      add("final state of " + name + ": vanilla [" + vrendered + "], opec [" + it->second +
          "]");
    }
  }
  return divs;
}

// --- Oracle 2 -------------------------------------------------------------

namespace {

void CollectExprs(const opec_ir::ExprPtr& e, std::vector<const opec_ir::Expr*>* out) {
  if (e == nullptr) {
    return;
  }
  out->push_back(e.get());
  for (const opec_ir::ExprPtr& kid : e->operands) {
    CollectExprs(kid, out);
  }
}

void CollectStmtExprs(const std::vector<opec_ir::StmtPtr>& body,
                      std::vector<const opec_ir::Expr*>* out) {
  for (const opec_ir::StmtPtr& s : body) {
    CollectExprs(s->lhs, out);
    CollectExprs(s->expr, out);
    CollectStmtExprs(s->body, out);
    CollectStmtExprs(s->orelse, out);
  }
}

std::set<std::string> FuncNames(const std::set<const opec_ir::Function*>& fns) {
  std::set<std::string> names;
  for (const opec_ir::Function* f : fns) {
    names.insert(f->name());
  }
  return names;
}

std::set<std::string> GlobalNames(const std::set<const opec_ir::GlobalVariable*>& gvs) {
  std::set<std::string> names;
  for (const opec_ir::GlobalVariable* g : gvs) {
    names.insert(g->name());
  }
  return names;
}

std::string JoinSet(const std::set<std::string>& s) {
  std::string out;
  for (const std::string& e : s) {
    out += (out.empty() ? "" : ",") + e;
  }
  return "{" + out + "}";
}

}  // namespace

std::vector<Divergence> DiffPointsTo(const ProgramSpec& spec) {
  std::vector<Divergence> divs;
  auto add = [&divs](std::string detail) {
    divs.push_back({Oracle::kPointsTo, std::move(detail)});
  };
  std::unique_ptr<opec_ir::Module> module = BuildModule(spec);
  opec_analysis::PointsToAnalysis worklist(*module, opec_analysis::SolverMode::kWorklist);
  opec_analysis::PointsToAnalysis exhaustive(*module, opec_analysis::SolverMode::kExhaustive);
  worklist.Run();
  exhaustive.Run();
  for (const auto& fn : module->functions()) {
    std::vector<const opec_ir::Expr*> exprs;
    CollectStmtExprs(fn->body(), &exprs);
    for (size_t i = 0; i < exprs.size(); ++i) {
      const opec_ir::Expr* e = exprs[i];
      std::string where = StrPrintf("%s expr#%zu", fn->name().c_str(), i);
      if (e->kind == opec_ir::ExprKind::kICall) {
        std::set<std::string> a = FuncNames(worklist.ICallTargets(e));
        std::set<std::string> b = FuncNames(exhaustive.ICallTargets(e));
        if (a != b) {
          add(where + " icall targets: worklist " + JoinSet(a) + ", exhaustive " + JoinSet(b));
        }
      }
      std::set<std::string> ga = GlobalNames(worklist.PointeeGlobals(e));
      std::set<std::string> gb = GlobalNames(exhaustive.PointeeGlobals(e));
      if (ga != gb) {
        add(where + " pointee globals: worklist " + JoinSet(ga) + ", exhaustive " + JoinSet(gb));
      }
      std::set<uint32_t> ca = worklist.PointeeConstAddrs(e);
      std::set<uint32_t> cb = exhaustive.PointeeConstAddrs(e);
      if (ca != cb) {
        add(where + StrPrintf(" pointee const addrs differ (%zu vs %zu)", ca.size(), cb.size()));
      }
      if (worklist.MayPointToLocal(e) != exhaustive.MayPointToLocal(e)) {
        add(where + " may-point-to-local verdicts differ");
      }
    }
  }
  return divs;
}

std::vector<Divergence> DiffInjectedPointsTo(uint64_t seed) {
  std::vector<Divergence> divs;
  SplitMix64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  opec_ir::Module dummy("injected");
  opec_analysis::PointsToAnalysis worklist(dummy, opec_analysis::SolverMode::kWorklist);
  opec_analysis::PointsToAnalysis exhaustive(dummy, opec_analysis::SolverMode::kExhaustive);
  int n = 8 + static_cast<int>(rng.Below(17));
  for (int i = 0; i < n; ++i) {
    int a = worklist.InjectNode();
    int b = exhaustive.InjectNode();
    if (a != b) {
      divs.push_back({Oracle::kPointsTo, "injected node ids diverged"});
      return divs;
    }
  }
  size_t edges = static_cast<size_t>(n) * 2 + rng.Below(static_cast<uint64_t>(n) * 2);
  for (size_t i = 0; i < edges; ++i) {
    int x = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
    int y = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
    switch (rng.Below(4)) {
      case 0:
        worklist.InjectBase(x, y);
        exhaustive.InjectBase(x, y);
        break;
      case 1:
        worklist.InjectCopy(x, y);
        exhaustive.InjectCopy(x, y);
        break;
      case 2:
        worklist.InjectLoad(x, y);
        exhaustive.InjectLoad(x, y);
        break;
      default:
        worklist.InjectStore(x, y);
        exhaustive.InjectStore(x, y);
        break;
    }
  }
  worklist.SolveInjected();
  exhaustive.SolveInjected();
  for (int i = 0; i < n; ++i) {
    const std::set<int>& a = worklist.PointsToSetOf(i);
    const std::set<int>& b = exhaustive.PointsToSetOf(i);
    if (a != b) {
      divs.push_back(
          {Oracle::kPointsTo,
           StrPrintf("injected graph (%d nodes, %zu edges): pts(%d) worklist |%zu| != "
                     "exhaustive |%zu|",
                     n, edges, i, a.size(), b.size())});
    }
  }
  return divs;
}

// --- Oracle 3 -------------------------------------------------------------

std::vector<Divergence> DiffMpuCache(uint64_t seed) {
  std::vector<Divergence> divs;
  SplitMix64 rng(seed ^ 0xD6E8FEB86659FD93ull);
  // The grant's random points and the nesting below draw from their own
  // streams, so the main stream draws the actions pinned seeds were recorded
  // with; the regions the nesting moves, and the probes aimed at them, land
  // elsewhere.
  SplitMix64 grant_rng(seed ^ 0x6A09E667F3BCC909ull);
  SplitMix64 nest_rng(seed ^ 0xBB67AE8584CAA73Bull);
  // The 192 KiB board's SRAM: probes land both in the tables' window maps and
  // in their interval lists beyond them.
  constexpr uint32_t kSramSize = 192 * 1024;
  constexpr uint32_t kSramLast = opec_hw::kSramBase + kSramSize - 1;
  opec_hw::Mpu mpu(kSramSize);
  mpu.set_enabled(true);
  opec_support::ScopedCheckThrow capture;  // ConfigureRegion CHECKs validity
  static constexpr uint32_t kBases[] = {0x00000000u, 0x08000000u, 0x20000000u, 0x40000000u};
  auto random_addr = [&rng]() -> uint32_t {
    uint32_t base = kBases[rng.Below(4)];
    return base + (rng.Next32() & 0x000FFFFFu);
  };
  using RegionSet = std::array<opec_hw::MpuRegionConfig, opec_hw::Mpu::kNumRegions>;
  auto live_set = [&mpu]() {
    RegionSet set;
    for (int i = 0; i < opec_hw::Mpu::kNumRegions; ++i) {
      set[static_cast<size_t>(i)] = mpu.region(i);
    }
    return set;
  };
  std::vector<RegionSet> installed;  // every region set the sequence built
  // Random bases rarely overlap, so half the drawn regions move inside an
  // enabled region of another slot that is at least as large, where the
  // higher-numbered region must win. Only the base moves: every size, and so
  // every draw of the main stream, stays as pinned seeds recorded it.
  auto nest = [&](int slot, opec_hw::MpuRegionConfig* cfg) {
    std::vector<int> outers;
    for (int i = 0; i < opec_hw::Mpu::kNumRegions; ++i) {
      if (i != slot && mpu.region(i).enabled && mpu.region(i).size_log2 >= cfg->size_log2) {
        outers.push_back(i);
      }
    }
    if (outers.empty() || nest_rng.Below(2) != 0) {
      return;
    }
    const opec_hw::MpuRegionConfig& outer = mpu.region(outers[nest_rng.Below(outers.size())]);
    cfg->base = outer.base + static_cast<uint32_t>(nest_rng.Below(outer.size() / cfg->size())) *
                                 cfg->size();
  };
  // A model of the bytecode tier's verdict cache: the last 64 AllowedRange
  // answers, kept under the region_set() id they were taken for. Whenever
  // that id is live again, each answer must still hold across its interval —
  // the id is sound only if equal ids mean equal verdicts.
  struct KeptVerdict {
    uint64_t set;
    AccessKind kind;
    bool priv;
    uint32_t lo;
    uint32_t hi;
    bool verdict;
  };
  std::vector<KeptVerdict> kept;
  // The monitor's SRAM grant is exact: granted iff the reference allows
  // every SRAM byte, which it decides at every region and sub-region edge
  // inside SRAM. Four random SRAM bytes confirm each grant apart from the
  // reference's own edge enumeration.
  auto check_grant = [&](int step, const ReferenceMpu& ref) {
    for (AccessKind kind : {AccessKind::kRead, AccessKind::kWrite}) {
      for (bool priv : {false, true}) {
        const bool granted = mpu.GrantsAllSram(kind, priv);
        bool want = ref.AllowsThroughout(opec_hw::kSramBase, kSramLast, kind, priv);
        for (int i = 0; granted && want && i < 4; ++i) {
          want = ref.Allows(opec_hw::kSramBase + static_cast<uint32_t>(grant_rng.Below(kSramSize)),
                            kind, priv);
        }
        if (granted != want) {
          divs.push_back({Oracle::kMpuCache,
                          StrPrintf("step %d: GrantsAllSram(%s, priv=%d)=%d, reference %d", step,
                                    kind == AccessKind::kWrite ? "write" : "read", priv, granted,
                                    want)});
          return;
        }
      }
    }
  };
  // CheckAccess must equal the reference on every byte of the access;
  // reports a disagreement and returns false.
  auto same_access = [&](int step, const ReferenceMpu& ref, uint32_t at, uint32_t size,
                         AccessKind kind, bool priv) {
    const bool checked = mpu.CheckAccess(at, size, kind, priv);
    if (checked == ref.AllowsEvery(at, size, kind, priv)) {
      return true;
    }
    divs.push_back({Oracle::kMpuCache,
                    StrPrintf("step %d: CheckAccess(%s, size=%u, %s, %s)=%d, reference %d", step,
                              HexAddr(at).c_str(), size,
                              kind == AccessKind::kWrite ? "write" : "read",
                              priv ? "priv" : "unpriv", checked, !checked)});
    return false;
  };
  // Steps [0, kSteps) draw from the original configure/probe mix. The
  // revisit steps appended after them (so pinned seeds replay their original
  // sequence) add three actions: reinstall a region set built earlier, so
  // the tables meet a set again under its interned id; change one AP or SRD
  // bit of the live set, a near miss that an inexact id would confuse with
  // the set the caches were just filled under; and toggle the enable bit.
  constexpr int kSteps = 300;
  constexpr int kRevisitSteps = 200;
  for (int step = 0; step < kSteps + kRevisitSteps; ++step) {
    uint64_t action = rng.Below(step < kSteps ? 8 : 11);
    if (action == 8 || action == 9) {
      if (!installed.empty()) {
        RegionSet set = action == 8 ? installed[rng.Below(installed.size())] : live_set();
        if (action == 9) {
          // The first enabled region from a random start: a disabled one's
          // fields decide nothing.
          size_t i = rng.Below(opec_hw::Mpu::kNumRegions);
          for (size_t k = 0; k < set.size() && !set[i].enabled; ++k) {
            i = (i + 1) % set.size();
          }
          opec_hw::MpuRegionConfig& r = set[i];
          if (r.size_log2 >= 8 && rng.Below(2) == 0) {
            r.srd = static_cast<uint8_t>(r.srd ^ (1u << rng.Below(8)));
          } else {
            r.ap = static_cast<opec_hw::AccessPerm>((static_cast<int>(r.ap) + 1) % 6);
          }
        }
        for (int i = 0; i < opec_hw::Mpu::kNumRegions; ++i) {
          mpu.ConfigureRegion(i, set[static_cast<size_t>(i)]);
        }
      }
      continue;
    }
    if (action == 10) {
      mpu.set_enabled(!mpu.enabled());
      continue;
    }
    if (action == 0) {
      opec_hw::MpuRegionConfig cfg;
      cfg.enabled = true;
      cfg.size_log2 = static_cast<uint8_t>(5 + rng.Below(12));  // 32B .. 64KB
      cfg.base = random_addr() & ~(cfg.size() - 1);
      if (cfg.size_log2 >= 8 && rng.Below(2) == 0) {
        cfg.srd = static_cast<uint8_t>(rng.Next32() & 0xFF);
      }
      cfg.ap = static_cast<opec_hw::AccessPerm>(rng.Below(6));
      cfg.xn = rng.Below(2) == 0;
      const int slot = static_cast<int>(rng.Below(8));
      nest(slot, &cfg);
      mpu.ConfigureRegion(slot, cfg);
      installed.push_back(live_set());
      continue;
    }
    if (action == 1) {
      mpu.DisableRegion(static_cast<int>(rng.Below(8)));
      installed.push_back(live_set());
      continue;
    }
    const ReferenceMpu ref(mpu);
    // Every kept verdict taken under the live id must still hold across its
    // interval: checked at eight evenly spaced points and the top, one in
    // each sub-region of a region-sized interval. No random draws, so the
    // original sequence is unchanged.
    const uint64_t live = mpu.region_set();
    for (const KeptVerdict& k : kept) {
      if (k.set != live) {
        continue;
      }
      const uint64_t span = static_cast<uint64_t>(k.hi) - k.lo + 1;
      for (uint64_t j = 0; j <= 8; ++j) {
        uint32_t at = j == 8 ? k.hi : k.lo + static_cast<uint32_t>(span * j / 8);
        if (ref.Allows(at, k.kind, k.priv) != k.verdict) {
          divs.push_back(
              {Oracle::kMpuCache,
               StrPrintf("step %d: verdict %d kept for [%s, %s] under region set %llu, but "
                         "the reference at %s now says %d under the same id",
                         step, k.verdict, HexAddr(k.lo).c_str(), HexAddr(k.hi).c_str(),
                         static_cast<unsigned long long>(live), HexAddr(at).c_str(), !k.verdict)});
          break;
        }
      }
    }
    // Probe. Half the probes aim near an enabled region's boundaries, where
    // window transitions (and bugs) live.
    uint32_t addr = random_addr();
    int r = static_cast<int>(rng.Below(8));
    if (rng.Below(2) == 0 && mpu.region(r).enabled) {
      const opec_hw::MpuRegionConfig& cfg = mpu.region(r);
      uint32_t span = cfg.size() + 64;
      addr = cfg.base - 32 + static_cast<uint32_t>(rng.Below(span));
    }
    AccessKind kind = rng.Below(2) == 0 ? AccessKind::kRead : AccessKind::kWrite;
    bool priv = rng.Below(2) == 0;
    if (action < 6) {
      same_access(step, ref, addr, 1u << rng.Below(3), kind, priv);
      if (const bool exec = mpu.CheckExec(addr, priv); exec != ref.Executes(addr, priv)) {
        divs.push_back({Oracle::kMpuCache,
                        StrPrintf("step %d: CheckExec(%s, %s)=%d, reference %d", step,
                                  HexAddr(addr).c_str(), priv ? "priv" : "unpriv", exec, !exec)});
      }
      // The bytecode tier's verdict-cache primitive: AllowedRange's verdict
      // must equal the reference at the probe, the interval must contain the
      // probe, and the verdict must be uniform across it — checked at both
      // interval ends and at a random interior point.
      uint32_t lo = 0;
      uint32_t hi = 0;
      bool range_verdict = mpu.AllowedRange(addr, kind, priv, &lo, &hi);
      bool byte_want = ref.Allows(addr, kind, priv);
      if (kept.size() == 64) {
        kept.erase(kept.begin());
      }
      kept.push_back({mpu.region_set(), kind, priv, lo, hi, range_verdict});
      if (range_verdict != byte_want || lo > addr || hi < addr) {
        divs.push_back(
            {Oracle::kMpuCache,
             StrPrintf("step %d: AllowedRange(%s, %s, %s) verdict=%d reference=%d "
                       "interval=[%s, %s]",
                       step, HexAddr(addr).c_str(), kind == AccessKind::kWrite ? "write" : "read",
                       priv ? "priv" : "unpriv", range_verdict, byte_want, HexAddr(lo).c_str(),
                       HexAddr(hi).c_str())});
      } else {
        uint32_t interior =
            lo + static_cast<uint32_t>(rng.Next() % (static_cast<uint64_t>(hi) - lo + 1));
        for (uint32_t probe : {lo, hi, interior}) {
          if (ref.Allows(probe, kind, priv) != range_verdict) {
            divs.push_back(
                {Oracle::kMpuCache,
                 StrPrintf("step %d: AllowedRange(%s) interval [%s, %s] not uniform: "
                           "verdict=%d but the reference at %s disagrees",
                           step, HexAddr(addr).c_str(), HexAddr(lo).c_str(), HexAddr(hi).c_str(),
                           range_verdict, HexAddr(probe).c_str())});
            break;
          }
        }
      }
    } else {
      // A random span, byte by byte.
      uint32_t len = 1 + static_cast<uint32_t>(rng.Below(200));
      uint32_t i = 0;
      while (i < len && same_access(step, ref, addr + i, 1, kind, priv)) {
        ++i;
      }
    }
    check_grant(step, ref);
    // Every edge of the drawn region and the byte before it, where a lookup
    // one interval or one window off shows. The sequence's regions end below
    // 2^32, so base + size does not wrap.
    if (const opec_hw::MpuRegionConfig& cfg = mpu.region(r); cfg.enabled) {
      bool agreed = true;
      for (uint32_t edge : ref.Edges(cfg.base, cfg.base + cfg.size())) {
        agreed = agreed && same_access(step, ref, edge - 1, 1, kind, priv) &&
                 same_access(step, ref, edge, 1, kind, priv);
      }
    }
  }
  return divs;
}

// --- Oracle 5: snapshot round trip ----------------------------------------

std::vector<Divergence> DiffSnapshotRoundTrip(const ProgramSpec& spec,
                                              const ExecObservation& opec) {
  std::vector<Divergence> divs;
  uint64_t probes = 0;
  std::vector<std::string> errors;
  ExecObservation probed = RunOnceImpl(spec, opec_apps::BuildMode::kOpec,
                                       opec_apps::EngineKind::kInterp, /*probe=*/true,
                                       &probes, &errors);
  for (const std::string& e : errors) {
    divs.push_back({Oracle::kSnapshot, e});
  }
  // Capture→serialize→restore at every SVC boundary must be invisible: the
  // probed run's observation is compared against the uninterrupted run's.
  std::string want = FormatObservation(opec);
  std::string got = FormatObservation(probed);
  if (want != got) {
    divs.push_back({Oracle::kSnapshot,
                    StrPrintf("probed run diverged after %llu round trips: probed [%s] "
                              "uninterrupted [%s]",
                              static_cast<unsigned long long>(probes), got.c_str(),
                              want.c_str())});
  }
  return divs;
}

// --- Oracle 6: bytecode tier ----------------------------------------------

namespace {

// One mode's interp-vs-bytecode comparison. The external observation must
// render identically, and the tier contract is stricter than the exec-diff
// oracle: modeled cycles, statement counts and the obs-event stream digest
// must also be bit-identical.
void CompareTier(const char* mode_name, const ExecObservation& interp,
                 const ExecObservation& bytecode, std::vector<Divergence>* divs) {
  auto add = [&](std::string detail) {
    divs->push_back({Oracle::kBytecodeTier, std::move(detail)});
  };
  std::string want = FormatObservation(interp);
  std::string got = FormatObservation(bytecode);
  if (want != got) {
    add(StrPrintf("%s observation: interp [%s], bytecode [%s]", mode_name, want.c_str(),
                  got.c_str()));
    return;
  }
  if (interp.cycles != bytecode.cycles) {
    add(StrPrintf("%s modeled cycles: interp %llu, bytecode %llu", mode_name,
                  static_cast<unsigned long long>(interp.cycles),
                  static_cast<unsigned long long>(bytecode.cycles)));
  }
  if (interp.statements != bytecode.statements) {
    add(StrPrintf("%s statements: interp %llu, bytecode %llu", mode_name,
                  static_cast<unsigned long long>(interp.statements),
                  static_cast<unsigned long long>(bytecode.statements)));
  }
  if (interp.events_digest != bytecode.events_digest) {
    add(StrPrintf("%s obs-event digest: interp %016llX, bytecode %016llX", mode_name,
                  static_cast<unsigned long long>(interp.events_digest),
                  static_cast<unsigned long long>(bytecode.events_digest)));
  }
}

}  // namespace

std::vector<Divergence> DiffBytecodeTier(const ProgramSpec& spec,
                                         const ExecObservation& vanilla,
                                         const ExecObservation& opec,
                                         ExecObservation* bc_vanilla_out,
                                         ExecObservation* bc_opec_out) {
  std::vector<Divergence> divs;
  ExecObservation bc_vanilla =
      RunOnce(spec, opec_apps::BuildMode::kVanilla, opec_apps::EngineKind::kBytecode);
  ExecObservation bc_opec =
      RunOnce(spec, opec_apps::BuildMode::kOpec, opec_apps::EngineKind::kBytecode);
  CompareTier("vanilla", vanilla, bc_vanilla, &divs);
  CompareTier("opec", opec, bc_opec, &divs);
  if (bc_vanilla_out != nullptr) {
    *bc_vanilla_out = std::move(bc_vanilla);
  }
  if (bc_opec_out != nullptr) {
    *bc_opec_out = std::move(bc_opec);
  }
  return divs;
}

// --- Oracle 7: runtime-verification monitors -------------------------------

namespace {

// First line(s) of an RV report that carry violation details, for divergence
// messages that stay readable in a one-line log.
std::string ReportHead(const std::string& report) {
  size_t cut = 0;
  for (int lines = 0; lines < 4 && cut != std::string::npos; ++lines) {
    cut = report.find('\n', cut + 1);
  }
  std::string head = cut == std::string::npos ? report : report.substr(0, cut);
  for (char& c : head) {
    if (c == '\n') {
      c = ';';
    }
  }
  return head;
}

void CheckCleanObservation(const char* label, const ExecObservation& obs,
                           std::vector<Divergence>* divs) {
  // Violations are only meaningful on runs that completed cleanly: an aborted
  // or unbuildable recipe legitimately ends mid-protocol.
  if (obs.build_error || !obs.run_ok) {
    return;
  }
  if (obs.rv_violations != 0) {
    divs->push_back({Oracle::kRv,
                     StrPrintf("%s: clean run tripped %llu rv violation(s): %s", label,
                               static_cast<unsigned long long>(obs.rv_violations),
                               ReportHead(obs.rv_report).c_str())});
  }
}

}  // namespace

std::vector<Divergence> DiffRvMonitors(const ProgramSpec& spec,
                                       const ExecObservation& vanilla,
                                       const ExecObservation& opec,
                                       const ExecObservation& bc_vanilla,
                                       const ExecObservation& bc_opec) {
  std::vector<Divergence> divs;
  CheckCleanObservation("vanilla/interp", vanilla, &divs);
  CheckCleanObservation("opec/interp", opec, &divs);
  CheckCleanObservation("vanilla/bytecode", bc_vanilla, &divs);
  CheckCleanObservation("opec/bytecode", bc_opec, &divs);

  // The report is derived purely from the obs-event stream, so like the event
  // digest it must be byte-identical between execution tiers.
  if (!vanilla.build_error && !bc_vanilla.build_error &&
      vanilla.rv_report != bc_vanilla.rv_report) {
    divs.push_back({Oracle::kRv,
                    StrPrintf("vanilla rv report differs between tiers: interp [%s] "
                              "bytecode [%s]",
                              ReportHead(vanilla.rv_report).c_str(),
                              ReportHead(bc_vanilla.rv_report).c_str())});
  }
  if (!opec.build_error && !bc_opec.build_error && opec.rv_report != bc_opec.rv_report) {
    divs.push_back({Oracle::kRv,
                    StrPrintf("opec rv report differs between tiers: interp [%s] "
                              "bytecode [%s]",
                              ReportHead(opec.rv_report).c_str(),
                              ReportHead(bc_opec.rv_report).c_str())});
  }

  // A blocked cross-section write must be flagged: inject a deterministic
  // attack — first sectioned non-default operation writes one byte into the
  // second's section — and require that, when the MPU blocks it, at least one
  // monitor fired. Recipes with fewer than two sectioned operations skip this.
  opec_support::ScopedCheckThrow capture;
  try {
    FuzzApplication app(spec);
    opec_apps::AppRun run(app, opec_apps::BuildMode::kOpec,
                          opec_apps::EngineKind::kInterp);
    const opec_compiler::CompileResult* cr = run.compile();
    if (cr == nullptr) {
      return divs;
    }
    const opec_compiler::OperationPolicy* victim = nullptr;
    const opec_compiler::OperationPolicy* attacker = nullptr;
    for (const opec_compiler::OperationPolicy& op : cr->policy.operations) {
      if (!op.has_section || op.id == cr->policy.default_op_id || op.entry.empty()) {
        continue;
      }
      if (attacker == nullptr) {
        attacker = &op;
      } else if (victim == nullptr) {
        victim = &op;
        break;
      }
    }
    if (attacker == nullptr || victim == nullptr) {
      return divs;
    }
    opec_rt::AttackSpec attack;
    attack.function = attacker->entry;
    attack.occurrence = 1;
    attack.addr = victim->section_base;
    attack.size = 1;
    attack.value = 0x01;
    attack.xor_with_old = true;
    run.AddAttack(attack);
    run.EnableRv();
    run.Execute();
    const opec_rt::AttackSpec& echoed = run.engine().attacks().front();
    if (echoed.fired && echoed.blocked && run.rv()->total_violations() == 0) {
      divs.push_back({Oracle::kRv,
                      StrPrintf("blocked cross-section write (%s -> %s section @0x%08X) "
                                "tripped no monitor",
                                attacker->name.c_str(), victim->name.c_str(),
                                victim->section_base)});
    }
  } catch (const opec_support::CheckError&) {
    // An attack run that dies in a host CHECK is the concern of other
    // oracles; the RV oracle only judges runs that the engine survived.
  }
  return divs;
}

// --- One full case --------------------------------------------------------

CaseResult RunCase(uint64_t seed) {
  CaseResult result;
  result.seed = seed;
  ProgramSpec spec = GenerateProgram(seed);
  result.summary = SpecSummary(spec);

  ExecObservation vanilla = RunOnce(spec, opec_apps::BuildMode::kVanilla);
  ExecObservation opec = RunOnce(spec, opec_apps::BuildMode::kOpec);
  std::vector<Divergence> divs = CompareExec(spec, vanilla, opec);
  for (Divergence& d : DiffPointsTo(spec)) {
    divs.push_back(std::move(d));
  }
  for (Divergence& d : DiffInjectedPointsTo(seed)) {
    divs.push_back(std::move(d));
  }
  for (Divergence& d : DiffMpuCache(seed)) {
    divs.push_back(std::move(d));
  }
  for (Divergence& d : DiffSnapshotRoundTrip(spec, opec)) {
    divs.push_back(std::move(d));
  }
  ExecObservation bc_vanilla;
  ExecObservation bc_opec;
  for (Divergence& d : DiffBytecodeTier(spec, vanilla, opec, &bc_vanilla, &bc_opec)) {
    divs.push_back(std::move(d));
  }
  for (Divergence& d : DiffRvMonitors(spec, vanilla, opec, bc_vanilla, bc_opec)) {
    divs.push_back(std::move(d));
  }
  result.divergences = std::move(divs);

  uint64_t h = Fnv1a64(&seed, sizeof(seed));
  h = FoldStr(h, result.summary);
  h = FoldStr(h, FormatObservation(vanilla));
  h = FoldStr(h, FormatObservation(opec));
  for (const Divergence& d : result.divergences) {
    h = FoldStr(h, OracleName(d.oracle));
    h = FoldStr(h, d.detail);
  }
  result.digest = StrPrintf("seed=%llu digest=%016llX divs=%zu",
                            static_cast<unsigned long long>(seed),
                            static_cast<unsigned long long>(h), result.divergences.size());
  return result;
}

}  // namespace opec_fuzz
