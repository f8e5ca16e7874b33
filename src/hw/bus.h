// System bus: routes guest accesses to Flash, SRAM, memory-mapped devices and
// the PPB, enforcing the MPU and privilege rules on every access.

#ifndef SRC_HW_BUS_H_
#define SRC_HW_BUS_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/hw/address_map.h"
#include "src/hw/device.h"
#include "src/hw/fault.h"
#include "src/hw/mpu.h"
#include "src/hw/soc.h"

namespace opec_hw {

class Bus {
 public:
  Bus(const BoardSpec& board, Mpu* mpu, uint64_t* cycles);

  // Registers a device (not owned). Ranges must not overlap.
  void AttachDevice(MmioDevice* device);

  // Guest accesses: subject to PPB privilege rules and the MPU.
  // `size` is 1, 2 or 4 bytes. Defined inline below with a fast path for
  // accesses entirely inside SRAM (the overwhelmingly common case); anything
  // else — flash, PPB, devices, straddles, faults — takes the out-of-line
  // slow path, which performs the identical route/check/fault sequence.
  AccessResult Read(uint32_t addr, uint32_t size, bool privileged);
  AccessResult Write(uint32_t addr, uint32_t size, uint32_t value, bool privileged);

  // Loader/debug access: bypasses the MPU and privilege checks. Used by the
  // image loader, the monitor-internal bookkeeping tests, and assertions.
  bool DebugRead(uint32_t addr, uint32_t size, uint32_t* value);
  bool DebugWrite(uint32_t addr, uint32_t size, uint32_t value);
  void DebugWriteBytes(uint32_t addr, const std::vector<uint8_t>& bytes);
  std::vector<uint8_t> DebugReadBytes(uint32_t addr, uint32_t size);

  // Snapshot support (DESIGN.md §13): core-peripheral scratch registers,
  // flash and SRAM contents, then every attached device (name-tagged, in
  // address order). LoadState requires the same board and the same device set
  // to be attached; devices are matched by name.
  //
  // `image_id` names the memory image the payload carries: a Snapshot's
  // process-unique id (DESIGN.md §13.3), or 0 for a payload without one,
  // such as a FaultReport's machine state. When it is the image the clean
  // pages already match, LoadState copies back only the pages written since;
  // otherwise it copies every page. Either way memory then matches
  // `image_id` and no page is dirty.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r, uint64_t image_id);

  // Declares that memory, as it is now, is the image `image_id` and clears
  // the dirty maps: the next LoadState of that image copies back only the
  // pages written after this call (AppRun::CaptureBoot).
  void MarkClean(uint64_t image_id);

  const BoardSpec& board() const { return board_; }
  uint32_t flash_end() const { return kFlashBase + board_.flash_size; }
  uint32_t sram_end() const { return kSramBase + board_.sram_size; }

  // Raw backing access for plain-memory accesses whose MPU verdict the caller
  // has already established: the bytecode tier's verdict cache
  // (src/rt/bytecode), keyed on Mpu::region_set(), and the monitor's
  // per-switch grant (Mpu::GrantsAllSram). Behavioral twins of the
  // Read/Write fast paths minus the MPU check; dirty-page tracking stays
  // exact. Callers must have checked InSram/InFlash for the same (addr, size)
  // first. The accessors are forced inline: they are the whole of a verdict
  // cache hit.
  bool InSram(uint32_t addr, uint32_t size) const {
    uint32_t off = addr - kSramBase;
    return off < board_.sram_size && size <= board_.sram_size - off;
  }
  bool InFlash(uint32_t addr, uint32_t size) const {
    uint32_t off = addr - kFlashBase;
    return off < board_.flash_size && off + size <= board_.flash_size;
  }
  [[gnu::always_inline]] uint32_t RawSramRead(uint32_t addr, uint32_t size) const {
    return ReadBacking(sram_, addr - kSramBase, size);
  }
  [[gnu::always_inline]] void RawSramWrite(uint32_t addr, uint32_t size, uint32_t value) {
    uint32_t off = addr - kSramBase;
    WriteBacking(sram_, off, size, value);
    MarkDirty(sram_dirty_, off, size);
  }
  // SRAM-to-SRAM copy of n bytes with memmove semantics on overlap. Charges
  // no cycles; memory-system cost models stay with the caller.
  void RawSramCopy(uint32_t src, uint32_t dst, uint32_t n) {
    if (n == 0) {
      return;
    }
    uint32_t off = dst - kSramBase;
    std::memmove(sram_.data() + off, sram_.data() + (src - kSramBase), n);
    MarkDirty(sram_dirty_, off, n);
  }
  [[gnu::always_inline]] uint32_t RawFlashRead(uint32_t addr, uint32_t size) const {
    return ReadBacking(flash_, addr - kFlashBase, size);
  }

  // Forensics: explains why a BusFault-producing access was rejected (PPB
  // privilege rule, flash W^X, region-end overrun, device rejection, unmapped
  // address). Pure observation; performs no device access and charges nothing.
  std::string ExplainFault(uint32_t addr, uint32_t size, AccessKind kind,
                           bool privileged) const;

 private:
  enum class Target { kFlash, kSram, kDevice, kPpb, kUnmapped };
  // Sorted device interval, for O(log n) routing.
  struct DeviceRange {
    uint32_t base = 0;
    uint32_t end = 0;  // exclusive
    MmioDevice* device = nullptr;
  };
  Target Route(uint32_t addr, MmioDevice** device) const;

  AccessResult ReadSlow(uint32_t addr, uint32_t size, bool privileged);
  AccessResult WriteSlow(uint32_t addr, uint32_t size, uint32_t value, bool privileged);

  // Forced inline like the raw accessors: every access ends in one of these.
  [[gnu::always_inline]] uint32_t ReadBacking(const std::vector<uint8_t>& mem, uint32_t offset,
                                              uint32_t size) const;
  [[gnu::always_inline]] void WriteBacking(std::vector<uint8_t>& mem, uint32_t offset,
                                           uint32_t size, uint32_t value);

  AccessResult PpbRead(uint32_t addr, uint32_t size, bool privileged);
  AccessResult PpbWrite(uint32_t addr, uint32_t size, uint32_t value, bool privileged);

  // Dirty-page granularity for warm restores. 4 KB keeps the maps tiny
  // (SRAM: tens of entries) while a typical campaign job dirties well under
  // 10% of them.
  static constexpr uint32_t kDirtyPageShift = 12;
  static constexpr uint32_t kDirtyPageSize = 1u << kDirtyPageShift;

  static void MarkDirty(std::vector<uint8_t>& map, uint32_t offset, uint32_t len) {
    // Word-sized writes hit one page (two when straddling); RawSramCopy
    // ranges need every page in between too. A zero-byte write marks none
    // (its last byte would wrap below its first).
    if (len == 0) {
      return;
    }
    uint32_t last = (offset + len - 1) >> kDirtyPageShift;
    for (uint32_t p = offset >> kDirtyPageShift; p <= last; ++p) {
      map[p] = 1;
    }
  }

  BoardSpec board_;
  Mpu* mpu_;
  uint64_t* cycles_;
  std::vector<uint8_t> flash_;
  std::vector<uint8_t> sram_;
  // Per-page write tracking (always on — two byte stores per write) against
  // the image `clean_image_` (0: none), the pages LoadState copies back when
  // it restores that image again.
  std::vector<uint8_t> flash_dirty_;
  std::vector<uint8_t> sram_dirty_;
  uint64_t clean_image_ = 0;
  // Devices sorted by base address; Route binary-searches this and keeps a
  // one-entry last-hit cache (device accesses cluster on one peripheral).
  std::vector<DeviceRange> device_ranges_;
  mutable const DeviceRange* last_device_ = nullptr;
  // Scratch registers for core peripherals we accept writes to but do not
  // decode (SCB, memory-mapped MPU alias; the monitor uses the Mpu object API).
  uint32_t systick_load_ = 0;
  uint32_t systick_ctrl_ = 0;
  // Cycle stamp of the last SYST_CVR write: ARMv7-M clears the current count
  // (and COUNTFLAG) on any write to VAL. -1 encodes the reset state — "a
  // reload happened at cycle 0" — which reproduces the historical free-running
  // counter exactly (VAL(c) = reload - c mod (reload+1)) until the first
  // write.
  int64_t systick_cvr_write_cycle_ = -1;
};

inline uint32_t Bus::ReadBacking(const std::vector<uint8_t>& mem, uint32_t offset,
                                 uint32_t size) const {
  // Backing stores hold guest memory in little-endian order, so on a
  // little-endian host a plain copy assembles the value directly. Guest
  // accesses are 4, 2 or 1 bytes: each gets a fixed-width copy, one load.
  // Other sizes (the monitor's sanitizer reads 3-byte elements) keep the
  // generic copy.
  if constexpr (std::endian::native == std::endian::little) {
    const uint8_t* p = mem.data() + offset;
    switch (size) {
      case 4: {
        uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      case 2: {
        uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 1:
        return *p;
      default: {
        uint32_t v = 0;
        std::memcpy(&v, p, size);
        return v;
      }
    }
  }
  uint32_t v = 0;
  for (uint32_t i = 0; i < size; ++i) {
    v |= static_cast<uint32_t>(mem[offset + i]) << (8 * i);
  }
  return v;
}

inline void Bus::WriteBacking(std::vector<uint8_t>& mem, uint32_t offset, uint32_t size,
                              uint32_t value) {
  if constexpr (std::endian::native == std::endian::little) {
    uint8_t* p = mem.data() + offset;
    switch (size) {
      case 4:
        std::memcpy(p, &value, 4);
        return;
      case 2: {
        uint16_t v = static_cast<uint16_t>(value);
        std::memcpy(p, &v, 2);
        return;
      }
      case 1:
        *p = static_cast<uint8_t>(value);
        return;
      default:
        std::memcpy(p, &value, size);
        return;
    }
  }
  for (uint32_t i = 0; i < size; ++i) {
    mem[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

inline AccessResult Bus::Read(uint32_t addr, uint32_t size, bool privileged) {
  // Fast path: the access lies entirely inside SRAM. The slow path repeats
  // the full route/MPU/bounds sequence, so behavior (including the MPU-check-
  // before-bounds-fault ordering for straddles) is identical either way.
  uint32_t off = addr - kSramBase;
  if (off < board_.sram_size && off + size <= board_.sram_size) {
    if (!mpu_->CheckAccess(addr, size, AccessKind::kRead, privileged)) {
      return AccessResult::MemFault();
    }
    return AccessResult::Ok(ReadBacking(sram_, off, size));
  }
  return ReadSlow(addr, size, privileged);
}

inline AccessResult Bus::Write(uint32_t addr, uint32_t size, uint32_t value, bool privileged) {
  uint32_t off = addr - kSramBase;
  if (off < board_.sram_size && off + size <= board_.sram_size) {
    if (!mpu_->CheckAccess(addr, size, AccessKind::kWrite, privileged)) {
      return AccessResult::MemFault();
    }
    WriteBacking(sram_, off, size, value);
    MarkDirty(sram_dirty_, off, size);
    return AccessResult::Ok();
  }
  return WriteSlow(addr, size, value, privileged);
}

}  // namespace opec_hw

#endif  // SRC_HW_BUS_H_
