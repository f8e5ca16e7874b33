#include "src/compiler/layout.h"

#include <algorithm>

#include "src/hw/address_map.h"
#include "src/support/check.h"

namespace opec_compiler {

using opec_hw::Board;
using opec_hw::BoardSpec;
using opec_hw::GetBoardSpec;
using opec_hw::kSramBase;
using opec_hw::PeripheralInfo;
using opec_hw::SocDescription;
using opec_ir::GlobalVariable;
using opec_ir::Module;
using opec_ir::Type;
using opec_ir::TypeKind;

uint32_t NextPow2(uint32_t v, uint32_t floor) {
  uint32_t p = floor;
  while (p < v) {
    OPEC_CHECK_MSG(p <= 0x80000000u, "section too large for a pow2 MPU region");
    p <<= 1;
  }
  return p;
}

uint8_t Log2Ceil(uint32_t v) {
  uint8_t l = 0;
  uint32_t p = 1;
  while (p < v) {
    p <<= 1;
    ++l;
  }
  return l;
}

namespace {

uint32_t AlignUp(uint32_t v, uint32_t a) { return (v + a - 1) & ~(a - 1); }

// Collects byte offsets of pointer-typed fields (recursively through structs
// and arrays of structs) — Section 4.2's "pointer fields of a global
// variable", used for shadow-pointer redirection at operation switch.
void CollectPointerOffsets(const Type* type, uint32_t base, std::vector<uint32_t>* out) {
  switch (type->kind()) {
    case TypeKind::kPointer:
      out->push_back(base);
      return;
    case TypeKind::kStruct:
      for (const opec_ir::StructField& f : type->fields()) {
        CollectPointerOffsets(f.type, base + f.offset, out);
      }
      return;
    case TypeKind::kArray:
      for (uint32_t i = 0; i < type->count(); ++i) {
        CollectPointerOffsets(type->element(), base + i * type->element()->size(), out);
      }
      return;
    default:
      return;
  }
}

uint32_t SanitizeElemSize(const Type* type) {
  if (type->IsArray()) {
    return std::min<uint32_t>(type->element()->size(), 4);
  }
  return std::min<uint32_t>(type->size(), 4);
}

}  // namespace

uint32_t ComputeHeapPlacement(Board board, uint32_t stack_size, uint32_t heap_size,
                              uint32_t* out_size) {
  const BoardSpec spec = GetBoardSpec(board);
  uint32_t stack = NextPow2(stack_size, 256);
  uint32_t heap = NextPow2(heap_size, 256);
  uint32_t sram_end = kSramBase + spec.sram_size;
  uint32_t stack_base = (sram_end - stack) & ~(stack - 1);
  uint32_t heap_base = (stack_base - heap) & ~(heap - 1);
  if (out_size != nullptr) {
    *out_size = heap;
  }
  return heap_base;
}

std::vector<PeriphRegion> CoverRangeWithMpuWindows(uint32_t base, uint32_t len) {
  std::vector<PeriphRegion> out;
  uint32_t cursor = base;
  uint32_t end = base + len;
  while (cursor < end) {
    // Largest power of two that divides the cursor address.
    uint32_t align_block = cursor == 0 ? 0x80000000u : (cursor & (0u - cursor));
    uint32_t remaining = end - cursor;
    uint32_t block = std::min(align_block, 0x80000000u);
    while (block > remaining && block > 32) {
      block >>= 1;
    }
    if (block < 32) {
      block = 32;  // minimum region: may over-cover slightly at the tail
    }
    // Re-align the cursor down if the minimum block over-covers alignment.
    uint32_t aligned_base = cursor & ~(block - 1);
    out.push_back({aligned_base, Log2Ceil(block)});
    cursor = aligned_base + block;
  }
  return out;
}

void BuildLayout(const Module& module, const PartitionResult& partition,
                 const PartitionConfig& config, const SocDescription& soc, Board board,
                 Policy* policy, opec_rt::AddressAssignment* layout) {
  const BoardSpec spec = GetBoardSpec(board);
  policy->operations.clear();
  policy->externals.clear();
  policy->external_storage.clear();
  policy->function_ops = partition.function_ops;
  policy->default_op_id = 0;

  // --- Classify writable globals ---
  std::map<const GlobalVariable*, std::vector<int>> accessors;
  for (const PartitionedOperation& op : partition.operations) {
    for (const GlobalVariable* gv : op.globals) {
      accessors[gv].push_back(op.id);
    }
  }
  std::vector<const GlobalVariable*> externals;
  std::map<const GlobalVariable*, int> internal_owner;  // gv -> op id
  std::vector<const GlobalVariable*> internals;         // declaration order
  std::vector<const GlobalVariable*> unused;            // not accessed by any operation
  for (const auto& g : module.globals()) {
    if (g->is_const()) {
      continue;
    }
    auto it = accessors.find(g.get());
    if (it == accessors.end()) {
      unused.push_back(g.get());
    } else if (it->second.size() >= 2) {
      externals.push_back(g.get());
    } else {
      internal_owner[g.get()] = it->second[0];
      internals.push_back(g.get());
    }
  }

  // --- SRAM cursor ---
  uint32_t cursor = kSramBase;

  // Public data section: original copies of external variables, plus globals
  // no operation touches.
  policy->public_base = cursor;
  for (const GlobalVariable* gv : externals) {
    cursor = AlignUp(cursor, gv->type()->alignment());
    ExternalVar ev;
    ev.gv = gv;
    ev.public_addr = cursor;
    ev.size = gv->size();
    CollectPointerOffsets(gv->type(), 0, &ev.pointer_field_offsets);
    for (const SanitizeSpec& san : config.sanitize) {
      if (san.global == gv->name()) {
        ev.sanitized = true;
        ev.san_min = san.min;
        ev.san_max = san.max;
        ev.elem_size = SanitizeElemSize(gv->type());
      }
    }
    policy->externals.push_back(ev);
    layout->global_addr[gv] = cursor;
    cursor += gv->size();
  }
  for (const GlobalVariable* gv : unused) {
    cursor = AlignUp(cursor, gv->type()->alignment());
    layout->global_addr[gv] = cursor;
    cursor += gv->size();
  }
  policy->public_size = cursor - policy->public_base;
  policy->accounting.sram_public = policy->public_size;

  // Monitor data: operation contexts + bookkeeping, privileged-only. Modeled
  // as 64 bytes per operation plus a fixed 512-byte core.
  cursor = AlignUp(cursor, 8);
  policy->monitor_data_base = cursor;
  policy->monitor_data_size = 512 + 64 * static_cast<uint32_t>(partition.operations.size());
  cursor += policy->monitor_data_size;
  policy->accounting.sram_monitor = policy->monitor_data_size;

  // Relocation table: one 4-byte pointer slot per external variable,
  // privileged-write / unprivileged-read.
  cursor = AlignUp(cursor, 4);
  policy->reloc_table_base = cursor;
  for (size_t i = 0; i < policy->externals.size(); ++i) {
    policy->externals[i].reloc_entry_addr = cursor + static_cast<uint32_t>(i) * 4;
  }
  cursor += static_cast<uint32_t>(policy->externals.size()) * 4;
  policy->accounting.sram_reloc = static_cast<uint32_t>(policy->externals.size()) * 4;

  // --- Per-operation policies and data sections ---
  struct SectionPlan {
    int op_index;
    uint32_t payload = 0;
    uint32_t pow2 = 0;
  };
  std::vector<SectionPlan> plans;

  for (const PartitionedOperation& pop : partition.operations) {
    OperationPolicy op;
    op.id = pop.id;
    op.entry = pop.entry->name();
    op.name = "op_" + op.entry;
    op.members = pop.members;
    op.needed_globals = pop.globals;
    op.needed_ro_globals = pop.ro_globals;
    op.periph_names = pop.peripherals;
    op.core_periph_names = pop.core_peripherals;
    op.pointer_arg_sizes = pop.spec.pointer_arg_sizes;

    // Section payload: internal variables owned by this op + one shadow per
    // needed external. Offsets assigned when the base is known. Both walks
    // run in declaration order: iterating the pointer-keyed sets here made
    // intra-section placement follow heap-allocation order, so the same app
    // laid out differently depending on what was built earlier in-process.
    uint32_t payload = 0;
    for (const GlobalVariable* gv : internals) {
      if (internal_owner[gv] == op.id) {
        payload = AlignUp(payload, gv->type()->alignment()) + gv->size();
      }
    }
    for (const GlobalVariable* gv : externals) {
      if (pop.globals.count(gv) != 0) {
        payload = AlignUp(payload, gv->type()->alignment()) + gv->size();
      }
    }
    op.section_payload = payload;
    op.has_section = payload > 0;

    // Peripheral ranges: resolve names via the datasheet, sort by base,
    // merge adjacent (Section 4.3), then produce MPU windows.
    std::vector<const PeripheralInfo*> infos;
    for (const std::string& name : pop.peripherals) {
      const PeripheralInfo* info = soc.FindByName(name);
      OPEC_CHECK_MSG(info != nullptr, "peripheral not in datasheet: " + name);
      infos.push_back(info);
    }
    std::sort(infos.begin(), infos.end(),
              [](const PeripheralInfo* a, const PeripheralInfo* b) { return a->base < b->base; });
    for (const PeripheralInfo* info : infos) {
      if (!op.periph_ranges.empty() &&
          op.periph_ranges.back().first + op.periph_ranges.back().second == info->base) {
        op.periph_ranges.back().second += info->size;  // merge adjacent
      } else {
        op.periph_ranges.emplace_back(info->base, info->size);
      }
    }
    for (const auto& [base, size] : op.periph_ranges) {
      std::vector<PeriphRegion> windows = CoverRangeWithMpuWindows(base, size);
      op.periph_regions.insert(op.periph_regions.end(), windows.begin(), windows.end());
    }
    // Four MPU regions (4..7) are reserved for peripherals; beyond that the
    // monitor virtualizes them on demand (Section 5.2).
    op.virtualized = op.periph_regions.size() > 4;

    policy->operations.push_back(std::move(op));
    if (payload > 0) {
      plans.push_back({pop.id, payload, NextPow2(payload)});
    }
  }

  // Place sections in descending size order to reduce external fragments
  // (Section 4.4, "Operation Data Section").
  std::sort(plans.begin(), plans.end(),
            [](const SectionPlan& a, const SectionPlan& b) { return a.pow2 > b.pow2; });
  uint32_t sections_total = 0;
  for (const SectionPlan& plan : plans) {
    OperationPolicy& op = policy->operations[static_cast<size_t>(plan.op_index)];
    cursor = AlignUp(cursor, plan.pow2);
    op.section_base = cursor;
    op.section_size_log2 = Log2Ceil(plan.pow2);
    cursor += plan.pow2;
    sections_total += plan.pow2;

    // Assign addresses inside the section: internal variables first, then
    // shadow copies — in the same declaration order as the payload walk.
    uint32_t offset = 0;
    for (const GlobalVariable* gv : internals) {
      if (internal_owner[gv] == op.id) {
        offset = AlignUp(offset, gv->type()->alignment());
        layout->global_addr[gv] = op.section_base + offset;
        offset += gv->size();
        policy->accounting.sram_internal += gv->size();
      }
    }
    for (const GlobalVariable* gv : externals) {
      if (op.needed_globals.count(gv) == 0) {
        continue;
      }
      int ext_index = policy->FindExternalIndex(gv);
      OPEC_CHECK(ext_index >= 0);
      offset = AlignUp(offset, gv->type()->alignment());
      op.shadows.push_back({ext_index, op.section_base + offset});
      offset += gv->size();
    }
    OPEC_CHECK(offset == plan.payload);
  }
  policy->accounting.sram_sections = sections_total;

  // --- Switch plans: per-operation relocation tables + the storage map ---
  for (size_t i = 0; i < policy->externals.size(); ++i) {
    const ExternalVar& ev = policy->externals[i];
    policy->external_storage.push_back({ev.public_addr, ev.size, static_cast<int>(i)});
  }
  for (OperationPolicy& op : policy->operations) {
    for (const ExternalVar& ev : policy->externals) {
      op.reloc_targets.push_back(ev.public_addr);
    }
    for (const ShadowPlacement& sp : op.shadows) {
      uint32_t size = policy->externals[static_cast<size_t>(sp.var_index)].size;
      op.reloc_targets[static_cast<size_t>(sp.var_index)] = sp.addr;
      policy->external_storage.push_back({sp.addr, size, sp.var_index});
    }
  }
  std::erase_if(policy->external_storage, [](const ExternalStorage& s) { return s.size == 0; });
  std::sort(policy->external_storage.begin(), policy->external_storage.end(),
            [](const ExternalStorage& a, const ExternalStorage& b) { return a.base < b.base; });

  // --- Heap: one power-of-two section, demand-mapped per operation ---
  if (config.heap_size > 0) {
    uint32_t heap_size = 0;
    uint32_t heap_base = ComputeHeapPlacement(board, config.stack_size, config.heap_size,
                                              &heap_size);
    OPEC_CHECK_MSG(heap_base >= cursor, "SRAM exhausted: data sections collide with the heap");
    policy->heap_base = heap_base;
    policy->heap_size_log2 = Log2Ceil(heap_size);
    policy->accounting.sram_heap = heap_size;
    layout->heap_base = policy->heap_base;
    layout->heap_size = heap_size;
    // An operation uses the heap when the allocator is among its members.
    for (OperationPolicy& op : policy->operations) {
      for (const opec_ir::Function* fn : op.members) {
        if (fn->name() == "malloc" || fn->name() == "free") {
          op.uses_heap = true;
        }
      }
    }
  }

  // --- Stack: one power-of-two region at the top of SRAM ---
  uint32_t stack_size = NextPow2(config.stack_size, 256);
  uint32_t sram_end = kSramBase + spec.sram_size;
  uint32_t stack_base = (sram_end - stack_size) & ~(stack_size - 1);
  OPEC_CHECK_MSG(stack_base >= cursor, "SRAM exhausted: data sections collide with the stack");
  policy->stack.base = stack_base;
  policy->stack.top = stack_base + stack_size;
  policy->stack.size_log2 = Log2Ceil(stack_size);
  policy->accounting.sram_stack = stack_size;

  layout->stack_base = stack_base;
  layout->stack_top = stack_base + stack_size;

  // --- Fixed MPU regions ---
  // Region 0: the lower 1 GB (code + SRAM) readable at both levels, writable
  // only when privileged ("Region 0 sets all memory ranges as read-only",
  // Section 5.2 — peripherals are excluded so unprivileged peripheral access
  // faults and triggers virtualization).
  policy->background_region = {true, 0x0, 30, 0, opec_hw::AccessPerm::kPrivRwUnprivRo, true};
  // Region 1: application code, executable.
  policy->code_region = {true, opec_hw::kFlashBase, Log2Ceil(spec.flash_size), 0,
                         opec_hw::AccessPerm::kReadOnly, false};
}

}  // namespace opec_compiler
