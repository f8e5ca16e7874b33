// ARMv7-M Memory Protection Unit model (Section 2.2 of the paper).
//
// Eight regions, each a power-of-two-sized, size-aligned window with access
// permissions per privilege level, an execute-never bit, and eight sub-region
// disable bits. When regions overlap, the highest-numbered region containing
// the address wins; a disabled sub-region falls through to lower-numbered
// regions. With no matching region, privileged access uses the default map
// (PRIVDEFENA) and unprivileged access faults.
//
// Verdict tables. Every verdict is a pure function of the region set: the
// enable bit plus the eight region registers. The MPU interns each distinct
// set into a stable 64-bit id (region_set()) that is never reused, builds the
// set's verdict table once when it interns it, and answers every verdict from
// the live set's table; the bytecode tier's per-instruction caches key on the
// id. OPEC apps cycle through only a handful of sets, so an operation that
// re-enters its set finds the set's table already built.

#ifndef SRC_HW_MPU_H_
#define SRC_HW_MPU_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/address_map.h"
#include "src/hw/fault.h"
#include "src/hw/state_io.h"

namespace opec_hw {

// Access-permission encodings (subset of the ARM AP field).
enum class AccessPerm : uint8_t {
  kNoAccess,        // AP=000: no access at either level
  kPrivRw,          // AP=001: privileged RW, unprivileged no access
  kPrivRwUnprivRo,  // AP=010
  kFullAccess,      // AP=011: RW at both levels
  kPrivRo,          // AP=101
  kReadOnly,        // AP=110/111: RO at both levels
};

const char* AccessPermName(AccessPerm p);

struct MpuRegionConfig {
  bool enabled = false;
  uint32_t base = 0;
  uint8_t size_log2 = 0;  // region size = 1 << size_log2; minimum 5 (32 bytes)
  uint8_t srd = 0;        // sub-region disable bits (bit i disables sub-region i)
  AccessPerm ap = AccessPerm::kNoAccess;
  bool xn = true;  // execute never

  uint32_t size() const { return size_log2 >= 32 ? 0xFFFFFFFFu : (1u << size_log2); }
  bool Contains(uint32_t addr) const;
  std::string ToString() const;
};

class Mpu {
 public:
  static constexpr int kNumRegions = 8;
  static constexpr int kNumSubRegions = 8;
  static constexpr uint8_t kMinSizeLog2 = 5;  // 32 bytes

  // Each verdict table also maps SRAM, [kSramBase, kSramBase + sram_size),
  // per 32-byte window (Machine passes its board's SRAM size); without that,
  // verdicts are interval lookups. Either way they are the same.
  Mpu() = default;
  explicit Mpu(uint32_t sram_size);
  Mpu(const Mpu&) = delete;  // points into its own intern table
  Mpu& operator=(const Mpu&) = delete;

  // Validates the ARMv7-M constraints (power-of-two size >= 32 bytes, base
  // aligned to size, sub-regions only for regions >= 256 bytes) and installs
  // the region. Invalid configs are a host programming error (CHECK).
  void ConfigureRegion(int index, const MpuRegionConfig& config);
  void DisableRegion(int index);
  const MpuRegionConfig& region(int index) const;

  // Id of the live region set (enable bit + all eight region registers):
  // equal ids mean identical registers, so a verdict cached under an id is
  // valid whenever region_set() returns that id again. Ids start at 1 and
  // are never reused, even after the intern table fills and is cleared; a
  // set seen again after a clear just gets a fresh id and a rebuilt table.
  // Every route that changes the set — ConfigureRegion, DisableRegion,
  // set_enabled, LoadState — marks the id unresolved, and the next call
  // resolves it by exact content lookup (cold path).
  uint64_t region_set() const { return set_id_ != 0 ? set_id_ : ResolveRegionSet(); }
  // False from a region-set change until the next region_set() call. RV rule
  // 3 checks that every kMpuReconfig event arrives with the id unresolved.
  bool region_set_resolved() const { return set_id_ != 0; }

  // Snapshot support (DESIGN.md §13): enable bit, all eight region registers
  // and the reconfiguration counter. The verdict tables and the intern table
  // are not serialized — they are derived state — and LoadState marks the
  // region set unresolved.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

  void set_enabled(bool enabled) {
    if (enabled != enabled_) {
      enabled_ = enabled;
      set_id_ = 0;
    }
  }
  bool enabled() const { return enabled_; }

  // Returns true when the given access is permitted. Exec permission is
  // checked separately via CheckExec. Defined inline below: this sits on the
  // interpreter's per-access path and must fold into the bus fast path.
  bool CheckAccess(uint32_t addr, uint32_t size, AccessKind kind, bool privileged) const;
  bool CheckExec(uint32_t addr, bool privileged) const;

  // True when every byte of SRAM allows the access: one test of the live
  // table's SRAM-wide mask, exact both ways. Vacuously true for an Mpu that
  // maps no SRAM. The monitor's per-switch grant.
  bool GrantsAllSram(AccessKind kind, bool privileged) const;

  // Verdict for a one-byte probe at `addr`, plus the interval [*lo, *hi] of
  // the live table that holds addr: the maximal closed interval around addr
  // over which every allow bit is constant. External verdict caches (the
  // bytecode tier) pair the interval with region_set() to skip the lookup
  // for every subsequent access that stays inside it. With the MPU disabled
  // the whole address space is one allow interval.
  bool AllowedRange(uint32_t addr, AccessKind kind, bool privileged, uint32_t* lo,
                    uint32_t* hi) const;

  // Counts MPU reconfigurations, for the cost model and the benches.
  uint64_t config_writes() const { return config_writes_; }
  // Host-side count of region walks (ComputeAllowMask calls), which only
  // table builds make. Not modeled state: never serialized or restored.
  uint64_t region_walks() const { return region_walks_; }

  // Lets reconfiguration events carry the modeled cycle stamp; wired up by
  // Machine. Null is fine (events stamp cycle 0).
  void set_cycle_counter(const uint64_t* cycles) { cycles_ = cycles; }

  // Forensics: explains the decision CheckAccess made for this access — the
  // deciding region (including sub-region fall-through) or the background
  // map, and why it allowed or denied. Pure observation; charges nothing.
  std::string ExplainAccess(uint32_t addr, uint32_t size, AccessKind kind,
                            bool privileged) const;

 private:
  // Allow-mask bit: (kind<<1)|priv for read (kind 0) and write (1); 4|priv is exec.
  static constexpr uint32_t AllowBit(AccessKind kind, bool privileged) {
    return (static_cast<uint32_t>(kind) << 1) | static_cast<uint32_t>(privileged);
  }

  // Decides a single byte address. Returns the deciding region index, or -1
  // for background.
  int DecidingRegion(uint32_t addr) const;
  bool PermAllows(AccessPerm ap, AccessKind kind, bool privileged) const;
  // All six allow bits for the window containing addr, from its deciding
  // region (or the PRIVDEFENA background). Only table builds call it.
  uint8_t ComputeAllowMask(uint32_t addr) const;
  // Cold path of region_set(): looks the live registers up in the intern
  // table, or interns them under a fresh id with a newly built table.
  uint64_t ResolveRegionSet() const;

  // A run of addresses with one allow mask, up to the next interval's start.
  struct Interval {
    uint32_t start;
    uint8_t mask;
  };
  // Every verdict of one region set as if the MPU were on; readers answer a
  // disabled MPU first. Region and sub-region edges are all multiples of 32,
  // so each SRAM window has a single mask.
  struct VerdictTable {
    std::vector<Interval> intervals;  // sorted; the first starts at 0
    std::vector<uint8_t> sram;        // one mask per 32-byte SRAM window
    uint8_t sram_all = 0x3F;          // AND of `sram`
  };
  void BuildTable(VerdictTable* table) const;
  const VerdictTable& table() const {
    region_set();  // resolves table_ along with the id
    return *table_;
  }
  // The live table's first interval that starts after addr; the one before
  // it holds addr.
  std::vector<Interval>::const_iterator NextInterval(uint32_t addr) const;
  // Allow bits for addr's window under the live set.
  uint8_t MaskAt(uint32_t addr) const;

  // The live region set as the intern table compares it: the enable bit,
  // then each region register packed into one word.
  using RegionSetKey = std::array<uint64_t, kNumRegions + 1>;
  struct InternedSet {
    RegionSetKey key;
    uint64_t id;
    VerdictTable table;
  };
  // The few sets an app cycles through fit many times over; a table that
  // fills up is cleared (ids keep counting, so none is ever reused). Its
  // storage is reserved once, so table_ stays valid while sets are added.
  static constexpr size_t kInternCapacity = 64;

  std::array<MpuRegionConfig, kNumRegions> regions_{};
  bool enabled_ = false;
  uint64_t config_writes_ = 0;
  const uint64_t* cycles_ = nullptr;
  uint32_t sram_size_ = 0;
  // Derived from the registers. Written from const checks, so an Mpu must
  // not be shared across threads.
  mutable uint64_t set_id_ = 0;  // 0 = unresolved
  mutable const VerdictTable* table_ = nullptr;  // the live set's; valid while set_id_ != 0
  mutable uint64_t next_set_id_ = 1;
  mutable uint64_t region_walks_ = 0;
  mutable std::vector<InternedSet> interned_;
};

inline uint8_t Mpu::MaskAt(uint32_t addr) const {
  const VerdictTable& t = table();
  uint32_t off = addr - kSramBase;
  if (off < sram_size_) {
    return t.sram[off >> 5];
  }
  return (NextInterval(addr) - 1)->mask;
}

inline bool Mpu::CheckAccess(uint32_t addr, uint32_t size, AccessKind kind,
                             bool privileged) const {
  if (!enabled_) {
    return true;
  }
  // Check the first and last byte of the access (accesses are at most 4 bytes,
  // so these two probes cover every byte's deciding region transition). When
  // both bytes share one 32-byte aligned window the decision is uniform
  // (region and sub-region boundaries are all multiples of 32), so one probe
  // suffices — the common case for the aligned accesses guests make.
  uint32_t last = addr + (size == 0 ? 0 : size - 1);
  uint8_t mask = MaskAt(addr);
  if ((addr & ~31u) != (last & ~31u)) {
    mask &= MaskAt(last);
  }
  return (mask >> AllowBit(kind, privileged)) & 1u;
}

}  // namespace opec_hw

#endif  // SRC_HW_MPU_H_
