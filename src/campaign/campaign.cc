#include "src/campaign/campaign.h"

#include <chrono>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/apps/all_apps.h"
#include "src/obs/export.h"
#include "src/snapshot/snapshot.h"
#include "src/support/check.h"
#include "src/support/flags.h"
#include "src/support/fs.h"
#include "src/support/table.h"
#include "src/support/text.h"

namespace opec_campaign {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

using opec_apps::AppKey;
using opec_support::JsonEscape;

const char* ModeName(opec_apps::BuildMode mode) {
  return mode == opec_apps::BuildMode::kOpec ? "opec" : "vanilla";
}

// (app registry name, build mode, engine): what a warm run and a baseline
// are built for.
using RunKey = std::tuple<std::string, int, int>;

RunKey KeyOf(const opec_apps::AppFactory& factory, opec_apps::BuildMode mode,
             opec_apps::EngineKind engine) {
  return RunKey(factory.name, static_cast<int>(mode), static_cast<int>(engine));
}

// An app instance and the AppRun built from it: the full cold build.
struct BuiltRun {
  RunKey key;
  std::unique_ptr<opec_apps::Application> app;
  std::unique_ptr<opec_apps::AppRun> run;
};

std::unique_ptr<BuiltRun> Build(const opec_apps::AppFactory& factory,
                                opec_apps::BuildMode mode, opec_apps::EngineKind engine) {
  auto built = std::make_unique<BuiltRun>();
  built->key = KeyOf(factory, mode, engine);
  built->app = factory.make();
  built->run = std::make_unique<opec_apps::AppRun>(*built->app, mode, engine);
  return built;
}

// ---------------------------------------------------------------------------
// Clean-run baselines for fault-outcome classification. Values are modeled
// outputs — deterministic per (app, mode) — so which thread populates the
// cache first cannot affect any result.

struct Baseline {
  bool valid = false;
  std::string error;
  uint64_t cycles = 0;
  uint64_t statements = 0;
  uint32_t return_value = 0;
};

Baseline ComputeBaseline(const opec_apps::AppFactory& factory, opec_apps::BuildMode mode,
                         opec_apps::EngineKind engine) {
  Baseline b;
  std::unique_ptr<BuiltRun> built = Build(factory, mode, engine);
  opec_apps::AppRun& run = *built->run;
  opec_rt::RunResult r = run.Execute();
  if (!r.ok) {
    b.error = "clean baseline run failed: " + r.violation;
    return b;
  }
  std::string check = run.Check();
  if (!check.empty()) {
    b.error = "clean baseline scenario check failed: " + check;
    return b;
  }
  b.valid = true;
  b.cycles = r.cycles;
  b.statements = r.statements;
  b.return_value = r.return_value;
  return b;
}

const Baseline& CleanBaseline(const opec_apps::AppFactory& factory,
                              opec_apps::BuildMode mode, opec_apps::EngineKind engine) {
  static std::mutex mutex;
  static std::map<RunKey, Baseline> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto key = KeyOf(factory, mode, engine);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, ComputeBaseline(factory, mode, engine)).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Fault planning: derive the injected mutation from the per-job PRNG and the
// built image's policy/layout. Everything here is a pure function of
// (app, mode, seed), which is what makes fault campaigns replayable.

struct FaultPlan {
  FaultClass cls = FaultClass::kStackBitFlip;
  std::string note;
  bool use_attack = false;
  opec_rt::AttackSpec attack;
  bool use_arg_attack = false;
  opec_rt::ArgAttackSpec arg_attack;
};

// Picks the guest function whose entry triggers the injected write: an
// operation entry in OPEC mode (the compromised-operation threat model), any
// function in vanilla mode.
std::string PickAttackerFunction(opec_apps::AppRun& run, SplitMix64& rng) {
  if (run.compile() != nullptr) {
    const opec_compiler::Policy& policy = run.compile()->policy;
    std::vector<const opec_compiler::OperationPolicy*> candidates;
    for (const opec_compiler::OperationPolicy& op : policy.operations) {
      if (op.id != policy.default_op_id && !op.entry.empty()) {
        candidates.push_back(&op);
      }
    }
    if (!candidates.empty()) {
      return candidates[rng.Below(candidates.size())]->entry;
    }
  }
  const auto& fns = run.module().functions();
  return fns.empty() ? "main" : fns[rng.Below(fns.size())]->name();
}

// The operation(s) the attacker function belongs to, for cross-compartment
// victim selection. Empty in vanilla mode.
std::vector<int> AttackerOps(opec_apps::AppRun& run, const std::string& fn_name) {
  std::vector<int> ops;
  if (run.compile() == nullptr) {
    return ops;
  }
  const opec_compiler::Policy& policy = run.compile()->policy;
  const opec_ir::Function* fn = run.module().FindFunction(fn_name);
  auto it = fn == nullptr ? policy.function_ops.end() : policy.function_ops.find(fn);
  return it == policy.function_ops.end() ? ops : it->second;
}

FaultPlan PlanStackBitFlip(opec_apps::AppRun& run, SplitMix64& rng) {
  FaultPlan plan;
  plan.cls = FaultClass::kStackBitFlip;
  const opec_rt::AddressAssignment& layout = run.engine().layout();
  uint32_t words = (layout.stack_top - layout.stack_base) / 4;
  plan.use_attack = true;
  plan.attack.function = PickAttackerFunction(run, rng);
  plan.attack.addr = layout.stack_base + 4 * static_cast<uint32_t>(rng.Below(words));
  plan.attack.size = 4;
  plan.attack.value = 1u << rng.Below(32);  // the flipped bit
  plan.attack.xor_with_old = true;
  plan.note = opec_support::StrPrintf("flip bit in stack word %s from %s",
                                      opec_support::HexAddr(plan.attack.addr).c_str(),
                                      plan.attack.function.c_str());
  return plan;
}

FaultPlan PlanShadowBitFlip(opec_apps::AppRun& run, SplitMix64& rng) {
  if (run.compile() == nullptr) {
    return PlanStackBitFlip(run, rng);  // vanilla: no operation sections
  }
  const opec_compiler::Policy& policy = run.compile()->policy;
  FaultPlan plan;
  plan.cls = FaultClass::kShadowBitFlip;
  plan.use_attack = true;
  plan.attack.function = PickAttackerFunction(run, rng);
  std::vector<int> attacker_ops = AttackerOps(run, plan.attack.function);
  // Prefer a victim section owned by an operation the attacker is not in —
  // the cross-compartment write the MPU must deny.
  std::vector<const opec_compiler::OperationPolicy*> victims;
  std::vector<const opec_compiler::OperationPolicy*> any_section;
  for (const opec_compiler::OperationPolicy& op : policy.operations) {
    if (!op.has_section || op.section_payload == 0) {
      continue;
    }
    any_section.push_back(&op);
    bool shared = false;
    for (int a : attacker_ops) {
      shared = shared || a == op.id;
    }
    if (!shared) {
      victims.push_back(&op);
    }
  }
  if (any_section.empty()) {
    return PlanStackBitFlip(run, rng);
  }
  const auto& pool = victims.empty() ? any_section : victims;
  const opec_compiler::OperationPolicy* victim = pool[rng.Below(pool.size())];
  plan.attack.addr = victim->section_base + static_cast<uint32_t>(rng.Below(victim->section_payload));
  plan.attack.size = 1;
  plan.attack.value = 1u << rng.Below(8);
  plan.attack.xor_with_old = true;
  plan.note = opec_support::StrPrintf(
      "flip bit in %s's data section at %s from %s", victim->name.c_str(),
      opec_support::HexAddr(plan.attack.addr).c_str(), plan.attack.function.c_str());
  return plan;
}

FaultPlan PlanSvcArgCorrupt(opec_apps::AppRun& run, SplitMix64& rng) {
  if (run.compile() == nullptr) {
    return PlanStackBitFlip(run, rng);  // vanilla: no operation SVCs
  }
  const opec_compiler::Policy& policy = run.compile()->policy;
  std::vector<const opec_compiler::OperationPolicy*> candidates;
  for (const opec_compiler::OperationPolicy& op : policy.operations) {
    if (op.id == policy.default_op_id || op.entry.empty()) {
      continue;
    }
    const opec_ir::Function* fn = run.module().FindFunction(op.entry);
    if (fn != nullptr && !fn->type()->params().empty()) {
      candidates.push_back(&op);
    }
  }
  if (candidates.empty()) {
    return PlanShadowBitFlip(run, rng);
  }
  const opec_compiler::OperationPolicy* target = candidates[rng.Below(candidates.size())];
  const opec_ir::Function* fn = run.module().FindFunction(target->entry);
  FaultPlan plan;
  plan.cls = FaultClass::kSvcArgCorrupt;
  plan.use_arg_attack = true;
  plan.arg_attack.op_id = target->id;
  plan.arg_attack.occurrence = 1;
  plan.arg_attack.arg_index = rng.Below(fn->type()->params().size());
  // Half the time forge a pointer into another operation's data section (the
  // confused-deputy shape the monitor's relocation/sanitization must catch);
  // otherwise random garbage.
  const opec_compiler::OperationPolicy* victim = nullptr;
  for (const opec_compiler::OperationPolicy& op : policy.operations) {
    if (op.has_section && op.id != target->id) {
      victim = &op;
      break;
    }
  }
  if (victim != nullptr && rng.Below(2) == 0) {
    plan.arg_attack.value = victim->section_base + static_cast<uint32_t>(
                                                       rng.Below(victim->section_payload + 1));
    plan.note = opec_support::StrPrintf(
        "corrupt SVC arg %zu of %s to point into %s's section (%s)",
        plan.arg_attack.arg_index, target->entry.c_str(), victim->name.c_str(),
        opec_support::HexAddr(plan.arg_attack.value).c_str());
  } else {
    plan.arg_attack.value = rng.Next32();
    plan.note = opec_support::StrPrintf("corrupt SVC arg %zu of %s to %s",
                                        plan.arg_attack.arg_index, target->entry.c_str(),
                                        opec_support::HexAddr(plan.arg_attack.value).c_str());
  }
  return plan;
}

FaultPlan PlanIcallForge(opec_apps::AppRun& run, SplitMix64& rng) {
  // A writable function-pointer global is the forgeable icall target slot.
  std::vector<const opec_ir::GlobalVariable*> slots;
  for (const auto& gv : run.module().globals()) {
    if (!gv->is_const() && gv->type()->IsPointer() && gv->type()->pointee() != nullptr &&
        gv->type()->pointee()->IsFunction()) {
      slots.push_back(gv.get());
    }
  }
  if (slots.empty()) {
    return PlanShadowBitFlip(run, rng);
  }
  const opec_ir::GlobalVariable* slot = slots[rng.Below(slots.size())];
  const auto& fns = run.module().functions();
  FaultPlan plan;
  plan.cls = FaultClass::kIcallForge;
  plan.use_attack = true;
  plan.attack.function = PickAttackerFunction(run, rng);
  plan.attack.addr = run.engine().layout().AddrOf(slot);
  plan.attack.size = 4;
  if (rng.Below(2) == 0 && !fns.empty()) {
    // Forge a *valid* function address the slot was never meant to hold.
    plan.attack.value = run.engine().FuncAddr(fns[rng.Below(fns.size())].get());
    plan.note = opec_support::StrPrintf("forge icall slot %s -> %s from %s",
                                        slot->name().c_str(),
                                        run.engine().FuncAt(plan.attack.value)->name().c_str(),
                                        plan.attack.function.c_str());
  } else {
    plan.attack.value = rng.Next32() | 1u;  // garbage (thumb-bit-looking)
    plan.note = opec_support::StrPrintf("forge icall slot %s -> garbage %s from %s",
                                        slot->name().c_str(),
                                        opec_support::HexAddr(plan.attack.value).c_str(),
                                        plan.attack.function.c_str());
  }
  if (plan.attack.addr == 0) {
    return PlanShadowBitFlip(run, rng);
  }
  return plan;
}

FaultPlan PlanFault(opec_apps::AppRun& run, SplitMix64& rng, FaultClass requested) {
  FaultClass cls = requested;
  if (cls == FaultClass::kAny) {
    constexpr FaultClass kClasses[] = {FaultClass::kStackBitFlip, FaultClass::kShadowBitFlip,
                                       FaultClass::kSvcArgCorrupt, FaultClass::kIcallForge};
    cls = kClasses[rng.Below(4)];
  }
  switch (cls) {
    case FaultClass::kStackBitFlip:
      return PlanStackBitFlip(run, rng);
    case FaultClass::kShadowBitFlip:
      return PlanShadowBitFlip(run, rng);
    case FaultClass::kSvcArgCorrupt:
      return PlanSvcArgCorrupt(run, rng);
    case FaultClass::kIcallForge:
      return PlanIcallForge(run, rng);
    case FaultClass::kAny:
      break;
  }
  OPEC_UNREACHABLE("bad FaultClass");
}

// A sink that only counts; used for the obs-invariance jobs.
class CountingSink : public opec_obs::Sink {
 public:
  void OnEvent(const opec_obs::Event&) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// The warm pool (DESIGN.md §13.3): the process's booted runs, kept per key
// for its lifetime. A job checks out a free run and rewinds it to its
// post-boot snapshot with RestoreBoot(), skipping BuildModule + CompileOpec +
// LoadGlobals and the bytecode lowering, or builds and boots one when none is
// free; the run goes back on its free list when the job ends, whatever the
// outcome (one whose restore or boot threw is dropped instead). So a key
// holds as many runs as were ever in use at once, and a later Executor::Run
// builds nothing. The mutex guards the free lists only: a checked-out run
// belongs to its job alone, and the lock hands it over from the thread that
// checked it in to the one that checks it out.
struct WarmPool {
  std::mutex mutex;
  std::map<RunKey, std::vector<std::unique_ptr<BuiltRun>>> free;
};

WarmPool& Pool() {
  static WarmPool* pool = new WarmPool;  // never destroyed: exit skips the teardown
  return *pool;
}

struct CheckIn {
  void operator()(BuiltRun* built) const {
    std::lock_guard<std::mutex> lock(Pool().mutex);
    Pool().free[built->key].emplace_back(built);
  }
};
using WarmLease = std::unique_ptr<BuiltRun, CheckIn>;

WarmLease CheckOut(const opec_apps::AppFactory& factory, opec_apps::BuildMode mode,
                   opec_apps::EngineKind engine) {
  std::unique_ptr<BuiltRun> built;
  {
    std::lock_guard<std::mutex> lock(Pool().mutex);
    std::vector<std::unique_ptr<BuiltRun>>& free = Pool().free[KeyOf(factory, mode, engine)];
    if (!free.empty()) {
      built = std::move(free.back());
      free.pop_back();
    }
  }
  if (built != nullptr) {
    built->run->RestoreBoot();
  } else {
    built = Build(factory, mode, engine);
    built->run->CaptureBoot();
  }
  return WarmLease(built.release());
}

void WriteBinaryFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  OPEC_CHECK_MSG(out.good(), "cannot write state dump: " + path);
}

JobResult RunJobImpl(const JobSpec& spec, size_t index, Clock::time_point deadline,
                     const Executor::Options& options) {
  JobResult out;
  out.index = index;
  out.spec = spec;
  std::optional<opec_apps::AppFactory> factory = opec_apps::FindAppFactory(spec.app);
  if (!factory) {
    throw std::runtime_error("unknown app '" + spec.app + "' (see opec_apps::AllApps)");
  }

  std::unique_ptr<BuiltRun> cold;
  WarmLease warm;
  if (options.cold_boot) {
    cold = Build(*factory, spec.mode, spec.engine);
  } else {
    warm = CheckOut(*factory, spec.mode, spec.engine);
  }
  opec_apps::AppRun& run = options.cold_boot ? *cold->run : *warm->run;
  run.engine().set_deadline(deadline);
  if (!options.snapshot_dir.empty()) {
    run.engine().set_fault_state_capture(true);
  }

  SplitMix64 rng(spec.seed);
  FaultPlan plan;
  if (spec.kind == JobKind::kFault) {
    plan = PlanFault(run, rng, spec.fault);
    out.spec.fault = plan.cls;  // echo the resolved class
    out.detail = plan.note;
    if (plan.use_attack) {
      run.AddAttack(plan.attack);
    }
    if (plan.use_arg_attack) {
      run.engine().AddArgAttack(plan.arg_attack);
    }
  }

  CountingSink counting;
  if (spec.attach_counting_sink) {
    run.AttachSink(&counting);
  }
  if (!options.trace_dir.empty()) {
    run.EnableEventRecording();
  }
  if (spec.rv) {
    run.EnableRv();
  }

  opec_rt::RunResult r = run.Execute();
  out.cycles = r.cycles;
  out.statements = r.statements;
  out.return_value = r.return_value;
  out.events = counting.count();
  std::string check = r.ok ? run.Check() : std::string();

  // Crash-state forensics: diverging jobs dump their final snapshot plus the
  // per-denied-access machine states the engine captured (see
  // Executor::Options::snapshot_dir). Runs on every classified exit below.
  auto finish = [&]() -> JobResult {
    // Runtime-verification verdict (DESIGN.md §15): a clean-looking run that
    // tripped a safety automaton is reclassified kRvViolation; runs that were
    // already detected/denied/crashed keep their outcome and just carry the
    // violation counts.
    if (spec.rv && run.rv() != nullptr) {
      out.rv_states = run.rv()->states_visited();
      out.rv_violations = run.rv()->total_violations();
      out.rv_by_automaton = run.rv()->ViolationsByMonitor();
      if (out.rv_violations != 0 &&
          (out.outcome == Outcome::kOk || out.outcome == Outcome::kBenign)) {
        out.outcome = Outcome::kRvViolation;
        out.ok = false;
        const std::vector<opec_rv::RvViolation>& details = run.rv()->details();
        out.detail +=
            opec_support::StrPrintf("%s%llu rv violation(s)", out.detail.empty() ? "" : " | ",
                                    static_cast<unsigned long long>(out.rv_violations));
        if (!details.empty()) {
          out.detail += opec_support::StrPrintf(": [%s] %s", details[0].automaton.c_str(),
                                                details[0].message.c_str());
        }
      }
    }
    bool diverging = out.outcome != Outcome::kOk && out.outcome != Outcome::kNotFired &&
                     out.outcome != Outcome::kBenign;
    if (!options.snapshot_dir.empty() && diverging) {
      opec_snapshot::Snapshot snap = run.CaptureState();
      out.snapshot_digest = snap.Digest();
      std::string stem = opec_support::StrPrintf("%s/job%04zu_%s_%s",
                                                 options.snapshot_dir.c_str(), index,
                                                 AppKey(spec.app).c_str(), ModeName(spec.mode));
      snap.WriteFile(stem + ".snap");
      size_t k = 0;
      for (const opec_obs::FaultReport& fr : run.engine().fault_reports()) {
        if (fr.machine_state != nullptr) {
          WriteBinaryFile(opec_support::StrPrintf("%s.fault%zu.state", stem.c_str(), k),
                          *fr.machine_state);
        }
        ++k;
      }
    }
    return out;
  };

  if (!options.trace_dir.empty() && run.recorder() != nullptr) {
    opec_obs::WriteFile(opec_support::StrPrintf("%s/job%04zu_%s_%s.trace.json",
                                                options.trace_dir.c_str(), index,
                                                AppKey(spec.app).c_str(), ModeName(spec.mode)),
                        opec_obs::ChromeTraceJson(run.recorder()->Snapshot(),
                                                  run.EventNaming(), factory->name,
                                                  run.recorder()->dropped()));
  }

  if (!r.ok && Clock::now() >= deadline) {
    out.outcome = Outcome::kTimeout;
    out.ok = false;
    out.detail = r.violation;
    return finish();
  }

  if (spec.kind == JobKind::kScenario) {
    if (!r.ok) {
      out.outcome = Outcome::kViolation;
      out.detail = r.violation;
    } else if (!check.empty()) {
      out.outcome = Outcome::kCheckFailed;
      out.detail = check;
    } else {
      out.outcome = Outcome::kOk;
      out.ok = true;
    }
    return finish();
  }

  // Fault job: classify the outcome against the clean baseline.
  for (const opec_rt::AttackSpec& a : run.engine().attacks()) {
    out.attack_fired = out.attack_fired || a.fired;
    out.attack_blocked = out.attack_blocked || (a.fired && a.blocked);
  }
  for (const opec_rt::ArgAttackSpec& a : run.engine().arg_attacks()) {
    out.attack_fired = out.attack_fired || a.fired;
  }

  if (!out.attack_fired) {
    out.outcome = Outcome::kNotFired;
    out.ok = true;  // nothing to contain
    return finish();
  }
  if (out.attack_blocked) {
    out.outcome = Outcome::kDeniedMpu;
    out.ok = true;
    out.detail += " | write denied by MPU/privilege rules";
    return finish();
  }
  if (!r.ok) {
    bool by_monitor = r.violation.find("monitor") != std::string::npos;
    out.outcome = by_monitor ? Outcome::kDeniedMonitor : Outcome::kCrash;
    out.ok = true;  // contained: detected / no silent divergence
    out.detail += " | " + r.violation;
    return finish();
  }
  const Baseline& base = CleanBaseline(*factory, spec.mode, spec.engine);
  if (!base.valid) {
    throw std::runtime_error(base.error);
  }
  bool diverged = !check.empty() || r.cycles != base.cycles ||
                  r.statements != base.statements || r.return_value != base.return_value;
  if (diverged) {
    out.outcome = Outcome::kSilentCorruption;
    out.ok = false;  // never a success: the corruption landed undetected
    out.detail += check.empty() ? " | modeled outputs diverged from clean baseline"
                                : " | scenario check: " + check;
  } else {
    out.outcome = Outcome::kBenign;
    out.ok = true;
    out.detail += " | landed but run bit-identical to clean baseline";
  }
  return finish();
}

// The per-job harness around RunJobImpl: the wall-clock deadline the engine
// polls (none when `timeout_ms` is 0), ScopedCheckThrow capture, and
// structured kException results for anything thrown.
JobResult RunGuarded(const JobSpec& resolved, size_t index, uint64_t timeout_ms,
                     const Executor::Options& options) {
  Clock::time_point job_t0 = Clock::now();
  Clock::time_point deadline = timeout_ms != 0
                                   ? job_t0 + std::chrono::milliseconds(timeout_ms)
                                   : opec_rt::Engine::kNoDeadline;
  JobResult result;
  try {
    opec_support::ScopedCheckThrow check_throw;
    result = RunJobImpl(resolved, index, deadline, options);
  } catch (const std::exception& e) {
    result.index = index;
    result.spec = resolved;
    result.ok = false;
    result.outcome = Outcome::kException;
    result.detail = e.what();
  } catch (...) {
    result.index = index;
    result.spec = resolved;
    result.ok = false;
    result.outcome = Outcome::kException;
    result.detail = "unknown exception";
  }
  result.wall_ns = NsSince(job_t0);
  return result;
}

}  // namespace

const char* JobKindName(JobKind kind) {
  return kind == JobKind::kScenario ? "scenario" : "fault";
}

const char* FaultClassName(FaultClass fault) {
  switch (fault) {
    case FaultClass::kAny:
      return "any";
    case FaultClass::kStackBitFlip:
      return "stack-bit-flip";
    case FaultClass::kShadowBitFlip:
      return "shadow-bit-flip";
    case FaultClass::kSvcArgCorrupt:
      return "svc-arg";
    case FaultClass::kIcallForge:
      return "icall-forge";
  }
  return "?";
}

bool ParseFaultClass(const std::string& name, FaultClass* out) {
  for (FaultClass c : {FaultClass::kAny, FaultClass::kStackBitFlip, FaultClass::kShadowBitFlip,
                       FaultClass::kSvcArgCorrupt, FaultClass::kIcallForge}) {
    if (name == FaultClassName(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kNotFired:
      return "not-fired";
    case Outcome::kDeniedMpu:
      return "denied-by-mpu";
    case Outcome::kDeniedMonitor:
      return "denied-by-monitor";
    case Outcome::kCrash:
      return "crash";
    case Outcome::kBenign:
      return "benign";
    case Outcome::kSilentCorruption:
      return "silent-corruption";
    case Outcome::kCheckFailed:
      return "check-failed";
    case Outcome::kViolation:
      return "violation";
    case Outcome::kException:
      return "exception";
    case Outcome::kTimeout:
      return "timeout";
    case Outcome::kRvViolation:
      return "rv-violation";
  }
  return "?";
}

void CampaignSpec::AddScenarioMatrix(const std::vector<std::string>& apps,
                                     const std::vector<opec_apps::BuildMode>& modes) {
  for (const std::string& app : apps) {
    for (opec_apps::BuildMode mode : modes) {
      JobSpec job;
      job.kind = JobKind::kScenario;
      job.app = app;
      job.mode = mode;
      jobs.push_back(std::move(job));
    }
  }
}

void CampaignSpec::AddFaultSweep(const std::vector<std::string>& apps, size_t count,
                                 FaultClass fault) {
  for (size_t i = 0; i < count; ++i) {
    JobSpec job;
    job.kind = JobKind::kFault;
    job.app = apps[i % apps.size()];
    job.mode = opec_apps::BuildMode::kOpec;
    job.fault = fault;
    jobs.push_back(std::move(job));
  }
}

std::string CampaignSpec::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return "cannot open spec file: " + path;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseText(text.str(), path);
}

std::string CampaignSpec::ParseText(const std::string& text, const std::string& origin) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto err = [&](const std::string& msg) {
    return opec_support::StrPrintf("%s:%d: %s", origin.c_str(), lineno, msg.c_str());
  };
  std::vector<std::string> all_apps;
  for (const opec_apps::AppFactory& f : opec_apps::AllApps()) {
    all_apps.push_back(f.name);
  }
  while (std::getline(in, line)) {
    ++lineno;
    // Numbers parse like flags (ParseU64/ParseCount: the whole token,
    // decimal, no sign), and every directive takes a fixed number of tokens.
    std::istringstream tok(line.substr(0, line.find('#')));
    std::vector<std::string> t{std::istream_iterator<std::string>(tok), {}};
    if (t.empty()) {
      continue;  // blank / comment-only
    }
    const std::string& cmd = t[0];
    if (cmd == "seed" || cmd == "timeout-ms") {
      if (t.size() != 2 ||
          !opec_support::ParseU64(t[1].c_str(), cmd == "seed" ? &seed : &timeout_ms)) {
        return err(cmd + " needs one unsigned integer");
      }
    } else if (cmd == "scenario") {
      if (t.size() != 3) {
        return err("scenario needs: <app|all> <opec|vanilla|both>");
      }
      const std::string& app = t[1];
      const std::string& mode = t[2];
      std::vector<std::string> apps =
          app == "all" ? all_apps : std::vector<std::string>{app};
      for (const std::string& a : apps) {
        if (!opec_apps::FindAppFactory(a)) {
          return err("unknown app: " + a);
        }
      }
      std::vector<opec_apps::BuildMode> modes;
      if (mode == "opec" || mode == "both") {
        modes.push_back(opec_apps::BuildMode::kOpec);
      }
      if (mode == "vanilla" || mode == "both") {
        modes.push_back(opec_apps::BuildMode::kVanilla);
      }
      if (modes.empty()) {
        return err("unknown mode: " + mode + " (opec|vanilla|both)");
      }
      AddScenarioMatrix(apps, modes);
    } else if (cmd == "fault") {
      int count = 0;
      if (t.size() < 3 || t.size() > 4 ||
          !opec_support::ParseCount(t[2].c_str(), 1, 1000000, &count)) {
        return err("fault needs: <app|all> <count in [1, 1000000]> [class]");
      }
      FaultClass cls = FaultClass::kAny;
      if (t.size() == 4 && !ParseFaultClass(t[3], &cls)) {
        return err("unknown fault class: " + t[3]);
      }
      const std::string& app = t[1];
      std::vector<std::string> apps =
          app == "all" ? all_apps : std::vector<std::string>{app};
      for (const std::string& a : apps) {
        if (!opec_apps::FindAppFactory(a)) {
          return err("unknown app: " + a);
        }
      }
      AddFaultSweep(apps, static_cast<size_t>(count), cls);
    } else {
      return err("unknown directive: " + cmd);
    }
  }
  return "";
}

uint64_t CampaignResult::SerialWallNs() const {
  uint64_t sum = 0;
  for (const JobResult& r : results) {
    sum += r.wall_ns;
  }
  return sum;
}

size_t CampaignResult::CountOutcome(Outcome outcome) const {
  size_t n = 0;
  for (const JobResult& r : results) {
    n += r.outcome == outcome ? 1 : 0;
  }
  return n;
}

bool CampaignResult::AllOk() const {
  for (const JobResult& r : results) {
    if (!r.ok) {
      return false;
    }
  }
  return true;
}

namespace {

void AppendResultJson(std::ostringstream& json, const JobResult& r, bool with_timing) {
  json << "    {\"index\": " << r.index << ", \"kind\": \"" << JobKindName(r.spec.kind)
       << "\", \"app\": \"" << JsonEscape(r.spec.app) << "\", \"mode\": \""
       << ModeName(r.spec.mode) << "\"";
  if (r.spec.engine != opec_apps::EngineKind::kInterp) {
    // Non-default tier only, so interpreter reports keep their exact shape
    // and an interp-vs-bytecode report diff shows only this field.
    json << ", \"engine\": \"" << opec_apps::EngineKindName(r.spec.engine) << "\"";
  }
  json << ", \"seed\": " << r.spec.seed << ", \"fault\": \""
       << FaultClassName(r.spec.fault) << "\", \"outcome\": \"" << OutcomeName(r.outcome)
       << "\", \"ok\": " << (r.ok ? "true" : "false") << ", \"cycles\": " << r.cycles
       << ", \"statements\": " << r.statements << ", \"return_value\": " << r.return_value
       << ", \"fired\": " << (r.attack_fired ? "true" : "false")
       << ", \"blocked\": " << (r.attack_blocked ? "true" : "false")
       << ", \"events\": " << r.events;
  if (r.spec.rv) {
    json << ", \"rv\": {\"states\": " << r.rv_states << ", \"violations\": " << r.rv_violations
         << "}";
  }
  if (r.snapshot_digest != 0) {
    json << ", \"snapshot_digest\": \""
         << opec_support::StrPrintf("%016llx",
                                    static_cast<unsigned long long>(r.snapshot_digest))
         << "\"";
  }
  if (with_timing) {
    json << ", \"wall_ns\": " << r.wall_ns;
  }
  json << ", \"detail\": \"" << JsonEscape(r.detail) << "\"}";
}

std::string ResultsJson(const CampaignResult& result, bool with_timing) {
  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": \"opec-campaign-v1\",\n";
  json << "  \"job_count\": " << result.results.size() << ",\n";
  json << "  \"results\": [\n";
  for (size_t i = 0; i < result.results.size(); ++i) {
    AppendResultJson(json, result.results[i], with_timing);
    json << (i + 1 < result.results.size() ? ",\n" : "\n");
  }
  json << "  ]";
  if (with_timing) {
    uint64_t serial = result.SerialWallNs();
    json << ",\n  \"timing\": {\n";
    json << "    \"jobs_used\": " << result.jobs_used << ",\n";
    json << "    \"wall_ns\": " << result.wall_ns << ",\n";
    json << "    \"serial_wall_ns\": " << serial << ",\n";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f",
                  result.wall_ns == 0 ? 0.0
                                      : static_cast<double>(serial) /
                                            static_cast<double>(result.wall_ns));
    json << "    \"parallel_speedup\": " << buf << "\n";
    json << "  }";
  }
  json << "\n}\n";
  return json.str();
}

}  // namespace

std::string CampaignResult::DeterministicJson() const { return ResultsJson(*this, false); }

std::string CampaignResult::Json() const { return ResultsJson(*this, true); }

std::string CampaignResult::FaultMatrix() const {
  constexpr Outcome kCols[] = {Outcome::kNotFired,   Outcome::kDeniedMpu,
                               Outcome::kDeniedMonitor, Outcome::kCrash,
                               Outcome::kBenign,     Outcome::kSilentCorruption,
                               Outcome::kRvViolation, Outcome::kException,
                               Outcome::kTimeout};
  auto render = [&](const std::string& key_header,
                    const std::function<std::string(const JobResult&)>& key_of) {
    std::vector<std::string> headers{key_header};
    for (Outcome c : kCols) {
      headers.push_back(OutcomeName(c));
    }
    opec_support::Table table(std::move(headers));
    std::vector<std::string> keys;
    std::map<std::string, std::map<Outcome, size_t>> counts;
    for (const JobResult& r : results) {
      if (r.spec.kind != JobKind::kFault) {
        continue;
      }
      std::string key = key_of(r);
      if (counts.find(key) == counts.end()) {
        keys.push_back(key);
      }
      ++counts[key][r.outcome];
    }
    for (const std::string& key : keys) {
      std::vector<std::string> row{key};
      for (Outcome c : kCols) {
        row.push_back(std::to_string(counts[key][c]));
      }
      table.AddRow(std::move(row));
    }
    return table.ToString();
  };
  std::string out = "Fault-injection robustness matrix (by application):\n";
  out += render("Application", [](const JobResult& r) { return r.spec.app; });
  out += "\nFault-injection robustness matrix (by fault class):\n";
  out += render("Fault class", [](const JobResult& r) {
    return std::string(FaultClassName(r.spec.fault));
  });
  return out;
}

CampaignResult Executor::Run(const CampaignSpec& spec, const Options& options) {
  CampaignResult out;
  out.jobs_used = std::max(1, options.jobs);
  Clock::time_point t0 = Clock::now();
  // Create output directories up front so a bad path is one clear error here,
  // not an OPEC_CHECK abort (or a report full of kException rows) when the
  // first diverging job tries to dump state (see tests:
  // CampaignTest.SnapshotDirUnwritableThrowsRuntimeError).
  for (const std::string& dir : {options.snapshot_dir, options.trace_dir}) {
    if (!dir.empty()) {
      std::string err = opec_support::EnsureDirs(dir);
      if (!err.empty()) {
        throw std::runtime_error("campaign output directory unusable: " + err);
      }
    }
  }
  const uint64_t timeout_ms =
      options.default_timeout_ms != 0 ? options.default_timeout_ms : spec.timeout_ms;
  out.results = ParallelMap(out.jobs_used, spec.jobs.size(), [&](size_t i) {
    JobSpec job = spec.jobs[i];
    if (job.seed == 0) {
      job.seed = SplitMix64::JobSeed(spec.seed, i);
    }
    return RunGuarded(job, i, timeout_ms, options);
  });

  out.wall_ns = NsSince(t0);
  return out;
}

}  // namespace opec_campaign
