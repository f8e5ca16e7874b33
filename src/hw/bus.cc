#include "src/hw/bus.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

#include "src/obs/event.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_hw {

Bus::Bus(const BoardSpec& board, Mpu* mpu, uint64_t* cycles)
    : board_(board), mpu_(mpu), cycles_(cycles) {
  OPEC_CHECK(mpu != nullptr && cycles != nullptr);
  flash_.resize(board.flash_size, 0xFF);  // erased-flash pattern
  sram_.resize(board.sram_size, 0x00);
  flash_dirty_.resize((board.flash_size + kDirtyPageSize - 1) >> kDirtyPageShift, 0);
  sram_dirty_.resize((board.sram_size + kDirtyPageSize - 1) >> kDirtyPageShift, 0);
}

void Bus::AttachDevice(MmioDevice* device) {
  OPEC_CHECK(device != nullptr);
  for (const DeviceRange& r : device_ranges_) {
    bool overlap = device->base() < r.end && r.base < device->base() + device->size();
    OPEC_CHECK_MSG(!overlap,
                   "device range overlap: " + r.device->name() + " vs " + device->name());
  }
  DeviceRange range{device->base(), device->base() + device->size(), device};
  device_ranges_.insert(
      std::upper_bound(device_ranges_.begin(), device_ranges_.end(), range,
                       [](const DeviceRange& a, const DeviceRange& b) { return a.base < b.base; }),
      range);
  last_device_ = nullptr;  // insertion invalidates pointers into the table
}

Bus::Target Bus::Route(uint32_t addr, MmioDevice** device) const {
  // The fixed windows are mutually disjoint, so check order is free; SRAM
  // first, as data accesses dominate every workload.
  if (addr - kSramBase < board_.sram_size) {
    return Target::kSram;
  }
  if (addr - kFlashBase < board_.flash_size) {
    return Target::kFlash;
  }
  if (addr >= kPpbBase && addr <= kPpbEnd) {
    return Target::kPpb;
  }
  if (last_device_ != nullptr && addr >= last_device_->base && addr < last_device_->end) {
    if (device != nullptr) {
      *device = last_device_->device;
    }
    return Target::kDevice;
  }
  // Binary search over the sorted, non-overlapping intervals: the candidate
  // is the last range whose base is <= addr.
  auto it = std::upper_bound(
      device_ranges_.begin(), device_ranges_.end(), addr,
      [](uint32_t a, const DeviceRange& r) { return a < r.base; });
  if (it != device_ranges_.begin()) {
    --it;
    if (addr < it->end) {
      last_device_ = &*it;
      if (device != nullptr) {
        *device = it->device;
      }
      return Target::kDevice;
    }
  }
  return Target::kUnmapped;
}

AccessResult Bus::PpbRead(uint32_t addr, uint32_t size, bool privileged) {
  if (!privileged) {
    return AccessResult::BusFault();
  }
  (void)size;
  if (addr == kDwtCyccnt) {
    return AccessResult::Ok(static_cast<uint32_t>(*cycles_));
  }
  if (addr == kDwtCtrl) {
    return AccessResult::Ok(1);  // CYCCNTENA reads back as enabled
  }
  if (addr == kSysTickBase + 0x0) {
    return AccessResult::Ok(systick_ctrl_);
  }
  if (addr == kSysTickBase + 0x4) {
    return AccessResult::Ok(systick_load_);
  }
  if (addr == kSysTickBase + 0x8) {
    // Free-running downcounter derived from the cycle counter, rebased to the
    // last SYST_CVR write (any write clears the count; the next cycle
    // reloads from SYST_RVR). SYST_RVR is a 24-bit field architecturally;
    // clamp before the divide so an out-of-range stored value can never make
    // `reload + 1` wrap to zero and divide the host by zero.
    uint32_t reload = systick_load_ & 0x00FFFFFF;
    if (reload == 0) {
      reload = 0x00FFFFFF;
    }
    uint64_t since = *cycles_ - static_cast<uint64_t>(systick_cvr_write_cycle_);
    if (since == 0) {
      return AccessResult::Ok(0);  // just cleared, reload happens next cycle
    }
    return AccessResult::Ok(reload - static_cast<uint32_t>((since - 1) % (reload + 1)));
  }
  if (addr >= kScbBase && addr < kScbBase + 0x90) {
    return AccessResult::Ok(0);
  }
  if (addr >= kMpuRegsBase && addr < kMpuRegsBase + 0x20) {
    return AccessResult::Ok(0);  // MPU state is driven through the Mpu object API
  }
  return AccessResult::Ok(0);  // other PPB space reads as zero
}

AccessResult Bus::PpbWrite(uint32_t addr, uint32_t size, uint32_t value, bool privileged) {
  if (!privileged) {
    return AccessResult::BusFault();
  }
  (void)size;
  if (addr == kSysTickBase + 0x0) {
    systick_ctrl_ = value;
    return AccessResult::Ok();
  }
  if (addr == kSysTickBase + 0x4) {
    systick_load_ = value & 0x00FFFFFF;
    return AccessResult::Ok();
  }
  if (addr == kSysTickBase + 0x8) {
    // SYST_CVR: a write of any value clears the current count to zero and
    // clears CTRL.COUNTFLAG (ARMv7-M B3.3.3). Previously this fell through to
    // "accepted, not decoded", silently dropping the write — guest code that
    // restarted the tick counter kept reading the old phase.
    systick_cvr_write_cycle_ = static_cast<int64_t>(*cycles_);
    systick_ctrl_ &= ~(1u << 16);
    return AccessResult::Ok();
  }
  // DWT control, SCB, MPU alias: accepted, not decoded.
  return AccessResult::Ok();
}

AccessResult Bus::ReadSlow(uint32_t addr, uint32_t size, bool privileged) {
  MmioDevice* device = nullptr;
  Target target = Route(addr, &device);
  if (target == Target::kPpb) {
    // The PPB is not governed by the MPU; it is privileged-only by
    // architecture (Section 2.1).
    return PpbRead(addr, size, privileged);
  }
  if (!mpu_->CheckAccess(addr, size, AccessKind::kRead, privileged)) {
    return AccessResult::MemFault();
  }
  switch (target) {
    case Target::kFlash:
      // A multi-byte access must lie entirely inside the region: an access
      // that starts in flash but runs past flash_size hits unmapped space.
      if (addr - kFlashBase + size > board_.flash_size) {
        return AccessResult::BusFault();
      }
      return AccessResult::Ok(ReadBacking(flash_, addr - kFlashBase, size));
    case Target::kSram:
      if (addr - kSramBase + size > board_.sram_size) {
        return AccessResult::BusFault();
      }
      return AccessResult::Ok(ReadBacking(sram_, addr - kSramBase, size));
    case Target::kDevice: {
      uint32_t value = 0;
      uint64_t extra = 0;
      if (!device->Read(addr - device->base(), &value, &extra)) {
        return AccessResult::BusFault();
      }
      *cycles_ += extra;
      OPEC_OBS_EVENT(opec_obs::EventKind::kMmioAccess, *cycles_,
                     opec_obs::Event::kNoOperation, 0, addr, size, value);
      return AccessResult::Ok(value);
    }
    case Target::kPpb:
    case Target::kUnmapped:
      return AccessResult::BusFault();
  }
  OPEC_UNREACHABLE("bad Target");
}

AccessResult Bus::WriteSlow(uint32_t addr, uint32_t size, uint32_t value, bool privileged) {
  MmioDevice* device = nullptr;
  Target target = Route(addr, &device);
  if (target == Target::kPpb) {
    return PpbWrite(addr, size, value, privileged);
  }
  if (!mpu_->CheckAccess(addr, size, AccessKind::kWrite, privileged)) {
    return AccessResult::MemFault();
  }
  switch (target) {
    case Target::kFlash:
      // Flash is not writable at runtime (DEP: W^X). Surface as a bus fault,
      // like a locked flash controller.
      return AccessResult::BusFault();
    case Target::kSram:
      if (addr - kSramBase + size > board_.sram_size) {
        return AccessResult::BusFault();  // access runs past the end of SRAM
      }
      WriteBacking(sram_, addr - kSramBase, size, value);
      MarkDirty(sram_dirty_, addr - kSramBase, size);
      return AccessResult::Ok();
    case Target::kDevice: {
      uint64_t extra = 0;
      if (!device->Write(addr - device->base(), value, &extra)) {
        return AccessResult::BusFault();
      }
      *cycles_ += extra;
      OPEC_OBS_EVENT(opec_obs::EventKind::kMmioAccess, *cycles_,
                     opec_obs::Event::kNoOperation, 0, addr, size | 0x100u, value);
      return AccessResult::Ok();
    }
    case Target::kPpb:
    case Target::kUnmapped:
      return AccessResult::BusFault();
  }
  OPEC_UNREACHABLE("bad Target");
}

std::string Bus::ExplainFault(uint32_t addr, uint32_t size, AccessKind kind,
                              bool privileged) const {
  const char* kind_name = kind == AccessKind::kWrite ? "write" : "read";
  MmioDevice* device = nullptr;
  Target target = Route(addr, &device);
  switch (target) {
    case Target::kPpb:
      if (!privileged) {
        return opec_support::StrPrintf(
            "unprivileged %s of the Private Peripheral Bus at %s; the PPB is "
            "privileged-only by architecture (the monitor emulates allowlisted core "
            "peripherals only)",
            kind_name, opec_support::HexAddr(addr).c_str());
      }
      return "PPB access rejected";
    case Target::kFlash:
      if (kind == AccessKind::kWrite) {
        return opec_support::StrPrintf(
            "write to flash at %s; flash is locked at runtime (W^X)",
            opec_support::HexAddr(addr).c_str());
      }
      if (addr - kFlashBase + size > board_.flash_size) {
        return opec_support::StrPrintf(
            "%u-byte read at %s runs past the end of flash (flash ends at %s)", size,
            opec_support::HexAddr(addr).c_str(),
            opec_support::HexAddr(kFlashBase + board_.flash_size).c_str());
      }
      return "flash access rejected";
    case Target::kSram:
      if (addr - kSramBase + size > board_.sram_size) {
        return opec_support::StrPrintf(
            "%u-byte %s at %s runs past the end of SRAM (SRAM ends at %s)", size, kind_name,
            opec_support::HexAddr(addr).c_str(),
            opec_support::HexAddr(kSramBase + board_.sram_size).c_str());
      }
      return "SRAM access rejected";
    case Target::kDevice:
      return opec_support::StrPrintf(
          "device '%s' rejected the %s at register offset %s (unimplemented or invalid "
          "register)",
          device->name().c_str(), kind_name,
          opec_support::HexAddr(addr - device->base()).c_str());
    case Target::kUnmapped:
      return opec_support::StrPrintf("no memory or device is mapped at %s",
                                     opec_support::HexAddr(addr).c_str());
  }
  OPEC_UNREACHABLE("bad Target");
}

bool Bus::DebugRead(uint32_t addr, uint32_t size, uint32_t* value) {
  Target target = Route(addr, nullptr);
  if (target == Target::kFlash && addr - kFlashBase + size <= board_.flash_size) {
    *value = ReadBacking(flash_, addr - kFlashBase, size);
    return true;
  }
  if (target == Target::kSram && addr - kSramBase + size <= board_.sram_size) {
    *value = ReadBacking(sram_, addr - kSramBase, size);
    return true;
  }
  return false;
}

bool Bus::DebugWrite(uint32_t addr, uint32_t size, uint32_t value) {
  Target target = Route(addr, nullptr);
  if (target == Target::kFlash && addr - kFlashBase + size <= board_.flash_size) {
    WriteBacking(flash_, addr - kFlashBase, size, value);
    MarkDirty(flash_dirty_, addr - kFlashBase, size);
    return true;
  }
  if (target == Target::kSram && addr - kSramBase + size <= board_.sram_size) {
    WriteBacking(sram_, addr - kSramBase, size, value);
    MarkDirty(sram_dirty_, addr - kSramBase, size);
    return true;
  }
  return false;
}

void Bus::SaveState(StateWriter& w) const {
  w.U32(systick_load_);
  w.U32(systick_ctrl_);
  w.U64(static_cast<uint64_t>(systick_cvr_write_cycle_));
  w.Blob(flash_);
  w.Blob(sram_);
  w.U64(device_ranges_.size());
  for (const DeviceRange& r : device_ranges_) {
    w.Str(r.device->name());
    StateWriter dw;
    r.device->SaveState(dw);
    w.Blob(dw.Take());
  }
}

void Bus::LoadState(StateReader& r, uint64_t image_id) {
  systick_load_ = r.U32();
  systick_ctrl_ = r.U32();
  systick_cvr_write_cycle_ = static_cast<int64_t>(r.U64());
  // Pages written since memory last matched `image_id` are the only ones
  // that can differ from it; any other image differs anywhere.
  bool dirty_only = image_id != 0 && image_id == clean_image_;
  clean_image_ = 0;  // until both images are in
  auto load = [&](std::vector<uint8_t>& live, std::vector<uint8_t>& dirty, const char* what) {
    std::span<const uint8_t> image = r.BlobView();
    OPEC_CHECK_MSG(image.size() == live.size(),
                   std::string("snapshot ") + what + " size mismatch (wrong board?)");
    for (size_t p = 0; p < dirty.size(); ++p) {
      if (dirty_only && dirty[p] == 0) {
        continue;
      }
      size_t off = p << kDirtyPageShift;
      std::memcpy(live.data() + off, image.data() + off,
                  std::min<size_t>(kDirtyPageSize, live.size() - off));
      dirty[p] = 0;
    }
  };
  load(flash_, flash_dirty_, "flash");
  load(sram_, sram_dirty_, "SRAM");
  clean_image_ = image_id;
  uint64_t count = r.U64();
  OPEC_CHECK_MSG(count == device_ranges_.size(),
                 "snapshot device count does not match the attached devices");
  for (DeviceRange& range : device_ranges_) {
    std::string name = r.Str();
    OPEC_CHECK_MSG(name == range.device->name(),
                   "snapshot device order/name mismatch: expected " + range.device->name() +
                       ", found " + name);
    StateReader dr = r.BlobReader();
    range.device->LoadState(dr);
    OPEC_CHECK_MSG(dr.AtEnd(), "device '" + name + "' left unread snapshot state");
  }
}

void Bus::MarkClean(uint64_t image_id) {
  clean_image_ = image_id;
  std::fill(flash_dirty_.begin(), flash_dirty_.end(), 0);
  std::fill(sram_dirty_.begin(), sram_dirty_.end(), 0);
}

void Bus::DebugWriteBytes(uint32_t addr, const std::vector<uint8_t>& bytes) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    OPEC_CHECK_MSG(DebugWrite(addr + static_cast<uint32_t>(i), 1, bytes[i]),
                   "DebugWriteBytes outside RAM/flash");
  }
}

std::vector<uint8_t> Bus::DebugReadBytes(uint32_t addr, uint32_t size) {
  std::vector<uint8_t> out(size);
  for (uint32_t i = 0; i < size; ++i) {
    uint32_t v = 0;
    OPEC_CHECK_MSG(DebugRead(addr + i, 1, &v), "DebugReadBytes outside RAM/flash");
    out[i] = static_cast<uint8_t>(v);
  }
  return out;
}

}  // namespace opec_hw
