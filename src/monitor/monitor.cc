#include "src/monitor/monitor.h"

#include <algorithm>

#include "src/obs/event.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_monitor {

using opec_compiler::ExternalVar;
using opec_compiler::OperationPolicy;
using opec_compiler::PeriphRegion;
using opec_compiler::Policy;
using opec_hw::AccessKind;
using opec_hw::AccessPerm;
using opec_hw::AccessResult;
using opec_hw::MpuRegionConfig;

Monitor::Monitor(opec_hw::Machine& machine, const Policy& policy,
                 const opec_hw::SocDescription& soc)
    : machine_(machine), policy_(policy), soc_(soc) {}

const OperationPolicy& Monitor::Op(int id) const {
  OPEC_CHECK(id >= 0 && static_cast<size_t>(id) < policy_.operations.size());
  return policy_.operations[static_cast<size_t>(id)];
}

int Monitor::current_operation() const {
  return context_stack_.empty() ? policy_.default_op_id : context_stack_.back().op_id;
}

void Monitor::RequireSramGrant() {
  // A switch's copies and writes are privileged SRAM accesses made before it
  // reconfigures the MPU, and region 0 grants them under every OPEC policy:
  // one test of the live set's SRAM-wide mask stands in for a check per
  // access. Every AP encoding that grants a privileged write grants the read.
  OPEC_CHECK_MSG(machine_.mpu().GrantsAllSram(AccessKind::kWrite, /*privileged=*/true),
                 "monitor switch without its SRAM grant: the MPU denies privileged SRAM writes");
}

uint32_t Monitor::PrivRead(uint32_t addr, uint32_t size) {
  opec_hw::Bus& bus = machine_.bus();
  OPEC_CHECK_MSG(bus.InSram(addr, size),
                 "monitor-internal read failed at " + opec_support::HexAddr(addr));
  return bus.RawSramRead(addr, size);
}

void Monitor::PrivWrite(uint32_t addr, uint32_t size, uint32_t value) {
  opec_hw::Bus& bus = machine_.bus();
  OPEC_CHECK_MSG(bus.InSram(addr, size),
                 "monitor-internal write failed at " + opec_support::HexAddr(addr));
  bus.RawSramWrite(addr, size, value);
}

void Monitor::CopyBytes(uint32_t src, uint32_t dst, uint32_t n) {
  // Shadow syncs and stack relocations are privileged SRAM-to-SRAM copies:
  // one backing-store copy (memmove semantics), charged per word. A
  // relocation's source is a guest pointer, so both ends are bounds-checked.
  opec_hw::Bus& bus = machine_.bus();
  OPEC_CHECK_MSG(bus.InSram(src, n) && bus.InSram(dst, n),
                 "monitor-internal copy faulted: src=" + opec_support::HexAddr(src) +
                     " dst=" + opec_support::HexAddr(dst));
  bus.RawSramCopy(src, dst, n);
  machine_.AddCycles(costs_.per_word_copy * ((n + 3) / 4));
}

bool Monitor::Sanitize(const ExternalVar& ev, uint32_t shadow_addr) {
  ++stats_.sanitization_checks;
  uint32_t elem = ev.elem_size == 0 ? 4 : ev.elem_size;
  for (uint32_t off = 0; off + elem <= ev.size; off += elem) {
    uint32_t v = PrivRead(shadow_addr + off, elem);
    if (v < ev.san_min || v > ev.san_max) {
      last_violation_ = opec_support::StrPrintf(
          "sanitization failed for %s at offset %u: value %u outside [%u,%u]",
          ev.gv->name().c_str(), off, v, ev.san_min, ev.san_max);
      return false;
    }
  }
  return true;
}

bool Monitor::WriteBackShadows(int op_id) {
  const OperationPolicy& op = Op(op_id);
  for (const opec_compiler::ShadowPlacement& sp : op.shadows) {
    const ExternalVar& ev = policy_.externals[static_cast<size_t>(sp.var_index)];
    if (ev.sanitized && !Sanitize(ev, sp.addr)) {
      return false;  // abort: corrupted shadow must not propagate (Section 5.2)
    }
    CopyBytes(sp.addr, ev.public_addr, ev.size);
    stats_.synced_bytes += ev.size;
    OPEC_OBS_EVENT(opec_obs::EventKind::kShadowSync, machine_.cycles(), op_id, 0,
                   static_cast<uint32_t>(sp.var_index), ev.size, opec_obs::kSyncWriteBack);
  }
  return true;
}

void Monitor::CopyInShadows(int op_id) {
  const OperationPolicy& op = Op(op_id);
  for (const opec_compiler::ShadowPlacement& sp : op.shadows) {
    const ExternalVar& ev = policy_.externals[static_cast<size_t>(sp.var_index)];
    CopyBytes(ev.public_addr, sp.addr, ev.size);
    stats_.synced_bytes += ev.size;
    OPEC_OBS_EVENT(opec_obs::EventKind::kShadowSync, machine_.cycles(), op_id, 0,
                   static_cast<uint32_t>(sp.var_index), ev.size, opec_obs::kSyncCopyIn);
  }
}

void Monitor::UpdateRelocTable(int op_id) {
  const std::vector<uint32_t>& targets = Op(op_id).reloc_targets;
  for (size_t i = 0; i < targets.size(); ++i) {
    PrivWrite(policy_.externals[i].reloc_entry_addr, 4, targets[i]);
  }
}

int Monitor::ResolveExternalStorage(uint32_t addr, uint32_t* offset) const {
  const std::vector<opec_compiler::ExternalStorage>& map = policy_.external_storage;
  auto it = std::upper_bound(
      map.begin(), map.end(), addr,
      [](uint32_t a, const opec_compiler::ExternalStorage& s) { return a < s.base; });
  if (it == map.begin()) {
    return -1;
  }
  const opec_compiler::ExternalStorage& s = *(it - 1);  // the last copy based at or below addr
  if (addr - s.base >= s.size) {
    return -1;
  }
  *offset = addr - s.base;
  return s.var_index;
}

void Monitor::RedirectPointerFields(int op_id) {
  const OperationPolicy& op = Op(op_id);
  for (const opec_compiler::ShadowPlacement& sp : op.shadows) {
    const ExternalVar& ev = policy_.externals[static_cast<size_t>(sp.var_index)];
    for (uint32_t field_off : ev.pointer_field_offsets) {
      uint32_t ptr = PrivRead(sp.addr + field_off, 4);
      if (ptr == 0) {
        continue;
      }
      uint32_t pointee_off = 0;
      int var_index = ResolveExternalStorage(ptr, &pointee_off);
      if (var_index < 0) {
        continue;  // points at internal/stack/peripheral storage: leave it
      }
      uint32_t want = op.reloc_targets[static_cast<size_t>(var_index)] + pointee_off;
      if (want != ptr) {
        PrivWrite(sp.addr + field_off, 4, want);
        ++stats_.pointer_redirections;
      }
    }
  }
}

void Monitor::ApplyStackSrd(uint8_t srd) {
  current_srd_ = srd;
  MpuRegionConfig stack_region;
  stack_region.enabled = true;
  stack_region.base = policy_.stack.base;
  stack_region.size_log2 = policy_.stack.size_log2;
  stack_region.srd = srd;
  stack_region.ap = AccessPerm::kFullAccess;
  stack_region.xn = true;
  machine_.mpu().ConfigureRegion(2, stack_region);
  machine_.AddCycles(costs_.mpu_region_write);
}

void Monitor::ConfigureMpuForOperation(int op_id, uint8_t srd) {
  const OperationPolicy& op = Op(op_id);
  opec_hw::Mpu& mpu = machine_.mpu();
  mpu.ConfigureRegion(0, policy_.background_region);
  mpu.ConfigureRegion(1, policy_.code_region);
  ApplyStackSrd(srd);
  if (op.has_section) {
    MpuRegionConfig section;
    section.enabled = true;
    section.base = op.section_base;
    section.size_log2 = op.section_size_log2;
    section.ap = AccessPerm::kFullAccess;
    section.xn = true;
    mpu.ConfigureRegion(3, section);
  } else {
    mpu.DisableRegion(3);
  }
  // Regions 4..7: the first (up to) four peripheral windows; the rest are
  // demand-mapped by the MemManage handler (Section 5.2).
  for (int i = 0; i < 4; ++i) {
    size_t w = static_cast<size_t>(i);
    if (w < op.periph_regions.size()) {
      const PeriphRegion& pr = op.periph_regions[w];
      MpuRegionConfig region;
      region.enabled = true;
      region.base = pr.base;
      region.size_log2 = pr.size_log2;
      region.ap = AccessPerm::kFullAccess;
      region.xn = true;
      mpu.ConfigureRegion(4 + i, region);
    } else {
      mpu.DisableRegion(4 + i);
    }
  }
  machine_.AddCycles(costs_.mpu_region_write * 7);
  periph_rr_ = 0;
  mpu.set_enabled(true);
}

void Monitor::OnProgramStart(opec_rt::Engine* engine) {
  engine_ = engine;
  context_stack_.clear();
  RequireSramGrant();

  // Initialization (Section 5.1): copy each global's initial value into every
  // shadow copy, then enter the default operation and drop privilege.
  for (const OperationPolicy& op : policy_.operations) {
    for (const opec_compiler::ShadowPlacement& sp : op.shadows) {
      const ExternalVar& ev = policy_.externals[static_cast<size_t>(sp.var_index)];
      CopyBytes(ev.public_addr, sp.addr, ev.size);
    }
  }
  UpdateRelocTable(policy_.default_op_id);
  RedirectPointerFields(policy_.default_op_id);
  ConfigureMpuForOperation(policy_.default_op_id, /*srd=*/0);
  machine_.set_privileged(false);
}

void Monitor::OnProgramEnd() { machine_.set_privileged(true); }

namespace {

void SaveRegionConfig(opec_hw::StateWriter& w, const MpuRegionConfig& r) {
  w.Bool(r.enabled);
  w.U32(r.base);
  w.U8(r.size_log2);
  w.U8(r.srd);
  w.U8(static_cast<uint8_t>(r.ap));
  w.Bool(r.xn);
}

MpuRegionConfig LoadRegionConfig(opec_hw::StateReader& r) {
  MpuRegionConfig cfg;
  cfg.enabled = r.Bool();
  cfg.base = r.U32();
  cfg.size_log2 = r.U8();
  cfg.srd = r.U8();
  cfg.ap = static_cast<opec_hw::AccessPerm>(r.U8());
  cfg.xn = r.Bool();
  return cfg;
}

}  // namespace

void Monitor::SaveState(opec_hw::StateWriter& w) const {
  w.U64(context_stack_.size());
  for (const OpContext& ctx : context_stack_) {
    w.U32(static_cast<uint32_t>(ctx.op_id));
    w.U32(static_cast<uint32_t>(ctx.previous_op_id));
    w.U32(ctx.saved_sp);
    w.U8(ctx.saved_srd);
    for (const MpuRegionConfig& cfg : ctx.saved_periph) {
      SaveRegionConfig(w, cfg);
    }
    SaveRegionConfig(w, ctx.saved_section);
    w.U32(static_cast<uint32_t>(ctx.saved_rr));
    w.U64(ctx.relocs.size());
    for (const StackReloc& reloc : ctx.relocs) {
      w.U32(reloc.original);
      w.U32(reloc.copy);
      w.U32(reloc.size);
    }
  }
  w.U8(current_srd_);
  w.U32(static_cast<uint32_t>(periph_rr_));
  w.U64(stats_.operation_switches);
  w.U64(stats_.synced_bytes);
  w.U64(stats_.relocated_stack_bytes);
  w.U64(stats_.virtualization_faults);
  w.U64(stats_.emulated_core_accesses);
  w.U64(stats_.pointer_redirections);
  w.U64(stats_.sanitization_checks);
  w.Str(last_violation_);
}

void Monitor::LoadState(opec_hw::StateReader& r) {
  context_stack_.clear();
  // Smallest context: ids, SP, SRD, five region configs, cursor, reloc count.
  context_stack_.resize(r.Count(4 + 4 + 4 + 1 + 5 * 9 + 4 + 8));
  for (OpContext& ctx : context_stack_) {
    ctx.op_id = static_cast<int>(r.U32());
    ctx.previous_op_id = static_cast<int>(r.U32());
    ctx.saved_sp = r.U32();
    ctx.saved_srd = r.U8();
    for (MpuRegionConfig& cfg : ctx.saved_periph) {
      cfg = LoadRegionConfig(r);
    }
    ctx.saved_section = LoadRegionConfig(r);
    ctx.saved_rr = static_cast<int>(r.U32());
    ctx.relocs.resize(r.Count(12));
    for (StackReloc& reloc : ctx.relocs) {
      reloc.original = r.U32();
      reloc.copy = r.U32();
      reloc.size = r.U32();
    }
  }
  current_srd_ = r.U8();
  periph_rr_ = static_cast<int>(r.U32());
  stats_.operation_switches = r.U64();
  stats_.synced_bytes = r.U64();
  stats_.relocated_stack_bytes = r.U64();
  stats_.virtualization_faults = r.U64();
  stats_.emulated_core_accesses = r.U64();
  stats_.pointer_redirections = r.U64();
  stats_.sanitization_checks = r.U64();
  last_violation_ = r.Str();
}

bool Monitor::OnOperationEnter(int op_id, std::vector<uint32_t>& args) {
  OPEC_CHECK(engine_ != nullptr);
  machine_.set_privileged(true);  // SVC: exception entry
  machine_.AddCycles(costs_.switch_overhead);
  ++stats_.operation_switches;
  RequireSramGrant();

  int prev = current_operation();
  const OperationPolicy& op = Op(op_id);

  // Data synchronization (Figure 7): write back the previous operation's
  // shadows (with sanitization), then fill the new operation's shadows.
  if (!WriteBackShadows(prev)) {
    machine_.set_privileged(false);
    return false;
  }
  CopyInShadows(op_id);
  UpdateRelocTable(op_id);
  RedirectPointerFields(op_id);

  // Stack protection (Figure 8): save the previous context, relocate buffers
  // pointed to by pointer-type arguments onto the new operation's stack
  // portion, and disable the sub-regions used by previous operations.
  OpContext ctx;
  ctx.op_id = op_id;
  ctx.previous_op_id = prev;
  ctx.saved_sp = engine_->sp();
  ctx.saved_srd = current_srd_;
  ctx.saved_rr = periph_rr_;
  ctx.saved_section = machine_.mpu().region(3);
  for (int i = 0; i < 4; ++i) {
    ctx.saved_periph[static_cast<size_t>(i)] = machine_.mpu().region(4 + i);
  }

  uint32_t sub = policy_.stack.subregion_size();
  uint32_t sp = engine_->sp();
  uint32_t boundary = policy_.stack.base + ((sp - policy_.stack.base) / sub) * sub;
  uint32_t new_sp = boundary;
  for (const auto& [arg_index, buf_size] : op.pointer_arg_sizes) {
    OPEC_CHECK_MSG(arg_index >= 0 && static_cast<size_t>(arg_index) < args.size(),
                   "stack info names a nonexistent argument");
    uint32_t ptr = args[static_cast<size_t>(arg_index)];
    bool on_previous_stack = ptr >= boundary && ptr < policy_.stack.top;
    if (!on_previous_stack) {
      continue;  // points at globals / its own stack: no relocation needed
    }
    new_sp = (new_sp - buf_size) & ~7u;
    if (new_sp < policy_.stack.base) {
      last_violation_ = "stack exhausted while relocating entry arguments";
      machine_.set_privileged(false);
      return false;
    }
    CopyBytes(ptr, new_sp, buf_size);
    stats_.relocated_stack_bytes += buf_size;
    ctx.relocs.push_back({ptr, new_sp, buf_size});
    args[static_cast<size_t>(arg_index)] = new_sp;
  }
  engine_->set_sp(new_sp);

  uint32_t boundary_sub = (boundary - policy_.stack.base) / sub;
  uint8_t srd = 0;
  for (uint32_t i = boundary_sub; i < 8; ++i) {
    srd |= static_cast<uint8_t>(1u << i);
  }
  context_stack_.push_back(std::move(ctx));
  ConfigureMpuForOperation(op_id, srd);

  machine_.set_privileged(false);  // exception return to unprivileged code
  return true;
}

bool Monitor::OnOperationExit(int op_id) {
  OPEC_CHECK(!context_stack_.empty());
  OPEC_CHECK(context_stack_.back().op_id == op_id);
  machine_.set_privileged(true);
  machine_.AddCycles(costs_.switch_overhead);
  ++stats_.operation_switches;
  RequireSramGrant();

  OpContext ctx = std::move(context_stack_.back());
  context_stack_.pop_back();

  // Sanitize + write back the exiting operation's shadows, then restore the
  // previous operation's shadows (Figure 7, "returning to B from C").
  if (!WriteBackShadows(op_id)) {
    machine_.set_privileged(false);
    return false;
  }
  CopyInShadows(ctx.previous_op_id);
  UpdateRelocTable(ctx.previous_op_id);
  RedirectPointerFields(ctx.previous_op_id);

  // Copy relocated buffers back to the previous stack (Figure 8(e)) and
  // restore the context.
  for (auto it = ctx.relocs.rbegin(); it != ctx.relocs.rend(); ++it) {
    CopyBytes(it->copy, it->original, it->size);
  }
  engine_->set_sp(ctx.saved_sp);
  ApplyStackSrd(ctx.saved_srd);
  machine_.mpu().ConfigureRegion(3, ctx.saved_section);
  for (int i = 0; i < 4; ++i) {
    machine_.mpu().ConfigureRegion(4 + i, ctx.saved_periph[static_cast<size_t>(i)]);
  }
  periph_rr_ = ctx.saved_rr;
  machine_.AddCycles(costs_.mpu_region_write * 6);
  // General-purpose registers are cleared on exit (Section 5.3) — modeled as
  // part of the switch overhead.

  machine_.set_privileged(false);
  return true;
}

bool Monitor::OnMemFault(uint32_t addr, AccessKind kind) {
  (void)kind;
  machine_.AddCycles(costs_.fault_entry);
  const OperationPolicy& op = Op(current_operation());
  // Heap access: operations whose code uses the allocator get the whole heap
  // section, demand-mapped like a peripheral window (Section 5.2, "Heap").
  if (policy_.heap_size() > 0 && addr >= policy_.heap_base &&
      addr - policy_.heap_base < policy_.heap_size()) {
    if (!op.uses_heap) {
      return false;  // this operation has no business in the heap
    }
    MpuRegionConfig region;
    region.enabled = true;
    region.base = policy_.heap_base;
    region.size_log2 = policy_.heap_size_log2;
    region.ap = AccessPerm::kFullAccess;
    region.xn = true;
    machine_.mpu().ConfigureRegion(4 + periph_rr_, region);
    periph_rr_ = (periph_rr_ + 1) % 4;
    machine_.AddCycles(costs_.mpu_region_write);
    ++stats_.virtualization_faults;
    return true;
  }
  // Legitimate peripheral access for this operation? (Section 5.2:
  // "OPEC-Monitor verifies whether it is legitimate access by checking the
  // peripheral address against the peripheral list of the current operation")
  bool allowed = false;
  for (const auto& [base, size] : op.periph_ranges) {
    if (addr >= base && addr - base < size) {
      allowed = true;
      break;
    }
  }
  if (!allowed) {
    return false;  // genuine violation: the engine aborts the program
  }
  // Find the MPU window covering the address and demand-map it into one of
  // the four reserved regions, round-robin.
  for (const PeriphRegion& pr : op.periph_regions) {
    if (addr >= pr.base && addr - pr.base < (1u << pr.size_log2)) {
      MpuRegionConfig region;
      region.enabled = true;
      region.base = pr.base;
      region.size_log2 = pr.size_log2;
      region.ap = AccessPerm::kFullAccess;
      region.xn = true;
      machine_.mpu().ConfigureRegion(4 + periph_rr_, region);
      periph_rr_ = (periph_rr_ + 1) % 4;
      machine_.AddCycles(costs_.mpu_region_write);
      ++stats_.virtualization_faults;
      return true;
    }
  }
  return false;
}

bool Monitor::OnBusFault(uint32_t addr, uint32_t size, AccessKind kind, uint32_t write_value,
                         uint32_t* read_value) {
  machine_.AddCycles(costs_.fault_entry);
  // Only unprivileged access to allowlisted core peripherals is emulated
  // (Section 5.2, "Peripherals").
  const opec_hw::PeripheralInfo* info = soc_.Find(addr);
  if (info == nullptr || !info->is_core) {
    return false;
  }
  const OperationPolicy& op = Op(current_operation());
  if (op.core_periph_names.count(info->name) == 0) {
    last_violation_ = "core peripheral not allowed for operation: " + info->name;
    return false;
  }
  // Emulate the load/store at the privileged level.
  machine_.set_privileged(true);
  AccessResult r = kind == AccessKind::kRead
                       ? machine_.bus().Read(addr, size, true)
                       : machine_.bus().Write(addr, size, write_value, true);
  machine_.set_privileged(false);
  machine_.AddCycles(costs_.emulation);
  if (!r.ok()) {
    return false;
  }
  if (kind == AccessKind::kRead && read_value != nullptr) {
    *read_value = r.value;
  }
  ++stats_.emulated_core_accesses;
  return true;
}

}  // namespace opec_monitor
