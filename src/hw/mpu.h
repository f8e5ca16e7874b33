// ARMv7-M Memory Protection Unit model (Section 2.2 of the paper).
//
// Eight regions, each a power-of-two-sized, size-aligned window with access
// permissions per privilege level, an execute-never bit, and eight sub-region
// disable bits. When regions overlap, the highest-numbered region containing
// the address wins; a disabled sub-region falls through to lower-numbered
// regions. With no matching region, privileged access uses the default map
// (PRIVDEFENA) and unprivileged access faults.
//
// Verdict caching. Every verdict is a pure function of the region set: the
// enable bit plus the eight region registers. The MPU interns each distinct
// set into a stable 64-bit id (region_set()) that is never reused, and every
// verdict cache — the per-window decision cache below and the bytecode
// tier's per-instruction caches — keys on that id. An operation switch
// rewrites all eight regions, but OPEC apps cycle through only a handful of
// sets, so verdicts taken under a set are served again when an operation
// re-enters it instead of being recomputed after every switch.

#ifndef SRC_HW_MPU_H_
#define SRC_HW_MPU_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

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
  // set seen again after a clear just gets a fresh id. Every route that
  // changes the set — ConfigureRegion, DisableRegion, set_enabled, LoadState
  // — marks the id unresolved, and the next call resolves it by exact
  // content lookup (cold path).
  uint64_t region_set() const { return set_id_ != 0 ? set_id_ : ResolveRegionSet(); }
  // False from a region-set change until the next region_set() call. RV rule
  // 3 checks that every kMpuReconfig event arrives with the id unresolved.
  bool region_set_resolved() const { return set_id_ != 0; }

  // Snapshot support (DESIGN.md §13): enable bit, all eight region registers
  // and the reconfiguration counter. The verdict caches and the intern table
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

  // True only when every enabled region overlapping [lo, hi] (inclusive)
  // grants the access, and so does the background map: one walk of the
  // region registers. Sufficient for every byte of [lo, hi], and exact
  // whenever it answers true, since each byte's deciding region is one of
  // those regions or the background.
  bool GrantsThroughout(uint32_t lo, uint32_t hi, AccessKind kind, bool privileged) const;

  // Differential-testing twin of CheckAccess: identical verdict contract, but
  // computed straight from the region walk (ComputeAllowMask) without reading
  // or filling the decision cache. The fuzzer's cache oracle compares the two
  // on every probe.
  bool CheckAccessUncached(uint32_t addr, uint32_t size, AccessKind kind,
                           bool privileged) const;

  // Verdict for a one-byte probe at `addr`, plus the maximal closed interval
  // [*lo, *hi] containing addr over which that verdict cannot change: the
  // interval crosses no region boundary and no sub-region boundary of any
  // enabled region, so every byte in it has the same deciding region and the
  // same allow mask. External verdict caches (the bytecode tier) pair the
  // interval with region_set() to skip the region walk for every subsequent
  // access that stays inside it — a streaming copy through a region costs one
  // walk instead of one per 32-byte window. With the MPU disabled the whole
  // address space is one allow interval.
  bool AllowedRange(uint32_t addr, AccessKind kind, bool privileged, uint32_t* lo,
                    uint32_t* hi) const;

  // Counts MPU reconfigurations, for the cost model and the benches.
  uint64_t config_writes() const { return config_writes_; }
  // Host-side count of region walks (ComputeAllowMask calls), the work every
  // verdict-cache miss pays. Not modeled state: never serialized or restored.
  uint64_t region_walks() const { return region_walks_; }

  // Lets reconfiguration events carry the modeled cycle stamp; wired up by
  // Machine. Null is fine (events stamp cycle 0).
  void set_cycle_counter(const uint64_t* cycles) { cycles_ = cycles; }

  // Forensics: explains the decision CheckAccess made for this access — the
  // deciding region (including sub-region fall-through) or the background
  // map, and why it allowed or denied. Pure observation; charges nothing and
  // does not touch the decision cache.
  std::string ExplainAccess(uint32_t addr, uint32_t size, AccessKind kind,
                            bool privileged) const;

 private:
  // Decides a single byte address. Returns the deciding region index, or -1
  // for background.
  int DecidingRegion(uint32_t addr) const;
  bool PermAllows(AccessPerm ap, AccessKind kind, bool privileged) const;
  // All six allow bits for the window containing addr, from its deciding
  // region (or the PRIVDEFENA background). Cold path of the decision cache.
  uint8_t ComputeAllowMask(uint32_t addr) const;
  // Cached allow bits for addr's window. The decision is uniform within a
  // 32-byte aligned window (regions and sub-regions are >=32-byte and
  // size-aligned), so a per-window cache keyed on (window, region set)
  // returns the exact same bits ComputeAllowMask would.
  uint8_t MaskFor(uint32_t addr) const;
  // Decides one probe address: deciding region (or background) + permission.
  bool ProbeAllows(uint32_t addr, AccessKind kind, bool privileged) const;
  // Cold path of region_set(): looks the live registers up in the intern
  // table, interning them under a fresh id when absent.
  uint64_t ResolveRegionSet() const;

  // The live region set as the intern table compares it: the enable bit,
  // then each region register packed into one word.
  using RegionSetKey = std::array<uint64_t, kNumRegions + 1>;
  struct InternedSet {
    RegionSetKey key;
    uint64_t id;
  };
  // The few sets an app cycles through fit many times over; a table that
  // fills up is cleared (ids keep counting, so none is ever reused).
  static constexpr size_t kInternCapacity = 64;

  struct DecisionCacheEntry {
    uint64_t set = 0;     // region-set id; 0 never matches (ids start at 1)
    uint32_t window = 0;  // addr & ~31u
    // Bit (kind<<1)|priv for read (kind 0) and write (kind 1); bits 4|priv
    // for execute. Encodes the full probe outcome so the hot path is one
    // lookup and one bit test.
    uint8_t allow_mask = 0;
  };
  // Direct-mapped, indexed by the window number XOR a per-set salt, so the
  // same window under different sets lands in different slots and the sets
  // an app alternates between keep their entries side by side.
  static constexpr uint32_t kDecisionCacheSize = 1024;  // power of two

  std::array<MpuRegionConfig, kNumRegions> regions_{};
  bool enabled_ = false;
  uint64_t config_writes_ = 0;
  const uint64_t* cycles_ = nullptr;
  // Verdict-cache state, all derived from the registers. Written from const
  // checks, so an Mpu must not be shared across threads.
  mutable uint64_t set_id_ = 0;  // 0 = unresolved
  mutable uint32_t set_salt_ = 0;
  mutable uint64_t next_set_id_ = 1;
  mutable uint64_t region_walks_ = 0;
  mutable std::vector<InternedSet> interned_;
  mutable std::array<DecisionCacheEntry, kDecisionCacheSize> decision_cache_{};
};

inline uint8_t Mpu::MaskFor(uint32_t addr) const {
  uint64_t set = region_set();  // resolves set_salt_ along with the id
  uint32_t window = addr & ~31u;
  DecisionCacheEntry& e =
      decision_cache_[((addr >> 5) ^ set_salt_) & (kDecisionCacheSize - 1)];
  if (e.set == set && e.window == window) {
    return e.allow_mask;
  }
  uint8_t mask = ComputeAllowMask(addr);
  e.set = set;
  e.window = window;
  e.allow_mask = mask;
  return mask;
}

inline bool Mpu::PermAllows(AccessPerm ap, AccessKind kind, bool privileged) const {
  switch (ap) {
    case AccessPerm::kNoAccess:
      return false;
    case AccessPerm::kPrivRw:
      return privileged;
    case AccessPerm::kPrivRwUnprivRo:
      return privileged || kind == AccessKind::kRead;
    case AccessPerm::kFullAccess:
      return true;
    case AccessPerm::kPrivRo:
      return privileged && kind == AccessKind::kRead;
    case AccessPerm::kReadOnly:
      return kind == AccessKind::kRead;
  }
  return false;
}

inline bool Mpu::ProbeAllows(uint32_t addr, AccessKind kind, bool privileged) const {
  uint32_t bit = (static_cast<uint32_t>(kind) << 1) | static_cast<uint32_t>(privileged);
  return (MaskFor(addr) >> bit) & 1u;
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
  if ((addr & ~31u) == (last & ~31u)) {
    return ProbeAllows(addr, kind, privileged);
  }
  return ProbeAllows(addr, kind, privileged) && ProbeAllows(last, kind, privileged);
}

}  // namespace opec_hw

#endif  // SRC_HW_MPU_H_
