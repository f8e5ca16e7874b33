// The operation policy: everything OPEC-Compiler hands to OPEC-Monitor —
// per-operation membership, resources, data-section layout, shadow placement,
// MPU configurations, peripheral allowlists, stack info and sanitization
// ranges (Sections 4.3-4.4).

#ifndef SRC_COMPILER_POLICY_H_
#define SRC_COMPILER_POLICY_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/hw/mpu.h"
#include "src/ir/module.h"

namespace opec_compiler {

// An external (shared) global variable: accessed by two or more operations,
// reached through the relocation table, with one shadow copy per needing
// operation (Section 4.4, "Operation Data Section").
struct ExternalVar {
  const opec_ir::GlobalVariable* gv = nullptr;
  uint32_t public_addr = 0;       // the original copy, in the public data section
  uint32_t reloc_entry_addr = 0;  // 4-byte pointer slot in the relocation table
  uint32_t size = 0;
  // Byte offsets of pointer-typed fields within the variable, recorded so the
  // monitor can redirect pointers into shadow sections on operation switch
  // (Sections 4.2 and 5.3).
  std::vector<uint32_t> pointer_field_offsets;
  // Sanitization (element-wise over elem_size-sized little-endian elements).
  bool sanitized = false;
  uint32_t san_min = 0;
  uint32_t san_max = 0;
  uint32_t elem_size = 4;
};

// A shadow copy of external variable `var_index` placed at `addr` inside some
// operation's data section.
struct ShadowPlacement {
  int var_index = -1;
  uint32_t addr = 0;
};

// One copy of an external variable: its public copy or one of its shadows.
struct ExternalStorage {
  uint32_t base = 0;
  uint32_t size = 0;
  int var_index = -1;
};

// An MPU-compatible window covering (part of) a peripheral range.
struct PeriphRegion {
  uint32_t base = 0;
  uint8_t size_log2 = 0;
};

struct OperationPolicy {
  int id = -1;
  std::string name;
  std::string entry;  // entry function name
  std::set<const opec_ir::Function*> members;

  // All writable globals this operation needs (internal + external).
  std::set<const opec_ir::GlobalVariable*> needed_globals;
  // Read-only (const) globals it touches; these live in flash, unshadowed.
  std::set<const opec_ir::GlobalVariable*> needed_ro_globals;

  // This operation's data section (one MPU region). Operations needing no
  // writable data have no section.
  bool has_section = false;
  uint32_t section_base = 0;
  uint8_t section_size_log2 = 0;
  uint32_t section_payload = 0;  // bytes actually used (rest is MPU fragment)

  std::vector<ShadowPlacement> shadows;  // shadow copies inside the section
  // Switch plan: the relocation table this operation runs under, one entry
  // per external — its shadow when it has one, else the public copy (it
  // never accesses externals it does not need; analysis-guaranteed).
  std::vector<uint32_t> reloc_targets;

  // Peripherals: exact allowlisted ranges, plus the merged MPU-aligned
  // windows. When the windows exceed the four reserved regions the monitor
  // virtualizes them on demand (Section 5.2).
  std::set<std::string> periph_names;
  std::set<std::string> core_periph_names;
  std::vector<std::pair<uint32_t, uint32_t>> periph_ranges;  // (base, size)
  std::vector<PeriphRegion> periph_regions;
  bool virtualized = false;

  // Stack information for the entry's pointer arguments.
  std::map<int, uint32_t> pointer_arg_sizes;

  // True when any member function uses the heap allocator: the whole heap
  // section is accessible to this operation (Section 5.2, "Heap").
  bool uses_heap = false;
};

struct StackPolicy {
  uint32_t base = 0;       // lowest address
  uint32_t top = 0;        // one past the highest address
  uint8_t size_log2 = 0;   // region size
  uint32_t subregion_size() const { return (1u << size_log2) / 8; }
};

// Flash/SRAM accounting of the built image, for Figure 9 / Table 2.
struct MemoryAccounting {
  uint32_t flash_app_code = 0;
  uint32_t flash_monitor_code = 0;
  uint32_t flash_metadata = 0;
  uint32_t flash_rodata = 0;
  uint32_t flash_total() const {
    return flash_app_code + flash_monitor_code + flash_metadata + flash_rodata;
  }
  uint32_t sram_public = 0;       // public data section (original externals)
  uint32_t sram_internal = 0;     // internal vars inside op sections
  uint32_t sram_sections = 0;     // op data sections incl. shadows + fragments
  uint32_t sram_reloc = 0;
  uint32_t sram_monitor = 0;
  uint32_t sram_stack = 0;
  uint32_t sram_heap = 0;
  uint32_t sram_total() const {
    return sram_public + sram_sections + sram_reloc + sram_monitor + sram_stack + sram_heap;
  }
};

struct Policy {
  std::vector<OperationPolicy> operations;
  int default_op_id = 0;  // the function `main`'s default operation
  std::vector<ExternalVar> externals;
  // Every non-empty copy of every external, sorted by base. Copies never
  // overlap, so a pointer resolves to its variable with one binary search.
  std::vector<ExternalStorage> external_storage;
  StackPolicy stack;

  uint32_t public_base = 0;
  uint32_t public_size = 0;
  uint32_t reloc_table_base = 0;
  uint32_t monitor_data_base = 0;
  uint32_t monitor_data_size = 0;
  // Heap section (0 size = program has no heap).
  uint32_t heap_base = 0;
  uint8_t heap_size_log2 = 0;
  uint32_t heap_size() const { return heap_size_log2 == 0 ? 0 : (1u << heap_size_log2); }

  // Fixed regions shared by every operation.
  opec_hw::MpuRegionConfig background_region;  // region 0: 1 GB unpriv-RO
  opec_hw::MpuRegionConfig code_region;        // region 1: app code, executable

  MemoryAccounting accounting;

  // Which operations each function belongs to (functions can be shared).
  std::map<const opec_ir::Function*, std::vector<int>> function_ops;

  int FindExternalIndex(const opec_ir::GlobalVariable* gv) const {
    for (size_t i = 0; i < externals.size(); ++i) {
      if (externals[i].gv == gv) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  const OperationPolicy* FindOperationByEntry(const std::string& entry) const {
    for (const OperationPolicy& op : operations) {
      if (op.entry == entry) {
        return &op;
      }
    }
    return nullptr;
  }

  // Human-readable policy file (the compiler's generated artifact).
  std::string ToText() const;
};

}  // namespace opec_compiler

#endif  // SRC_COMPILER_POLICY_H_
