#include "src/hw/mpu.h"

#include <algorithm>
#include <cstring>

#include "src/obs/event.h"
#include "src/support/check.h"
#include "src/support/text.h"

namespace opec_hw {

const char* AccessPermName(AccessPerm p) {
  switch (p) {
    case AccessPerm::kNoAccess:
      return "NA";
    case AccessPerm::kPrivRw:
      return "priv-RW/unpriv-NA";
    case AccessPerm::kPrivRwUnprivRo:
      return "priv-RW/unpriv-RO";
    case AccessPerm::kFullAccess:
      return "RW";
    case AccessPerm::kPrivRo:
      return "priv-RO/unpriv-NA";
    case AccessPerm::kReadOnly:
      return "RO";
  }
  return "?";
}

bool MpuRegionConfig::Contains(uint32_t addr) const {
  if (size_log2 >= 32) {
    return true;
  }
  return (addr & ~(size() - 1)) == base;
}

std::string MpuRegionConfig::ToString() const {
  if (!enabled) {
    return "(disabled)";
  }
  return opec_support::StrPrintf("base=%s size=2^%u srd=0x%02X ap=%s%s",
                                 opec_support::HexAddr(base).c_str(), size_log2, srd,
                                 AccessPermName(ap), xn ? " XN" : "");
}

Mpu::Mpu(uint32_t sram_size) : sram_size_(sram_size) {
  OPEC_CHECK(sram_size % 32 == 0 && kSramBase + uint64_t{sram_size} <= 1ull << 32);
}

void Mpu::ConfigureRegion(int index, const MpuRegionConfig& config) {
  OPEC_CHECK(index >= 0 && index < kNumRegions);
  if (config.enabled) {
    OPEC_CHECK_MSG(config.size_log2 >= kMinSizeLog2, "MPU region smaller than 32 bytes");
    if (config.size_log2 < 32) {
      OPEC_CHECK_MSG((config.base & (config.size() - 1)) == 0,
                     "MPU region base not aligned to its size: " + config.ToString());
    } else {
      OPEC_CHECK_MSG(config.base == 0, "4GB MPU region must be based at 0");
    }
    OPEC_CHECK_MSG(config.srd == 0 || config.size_log2 >= 8,
                   "sub-region disable requires a region of at least 256 bytes");
  }
  regions_[static_cast<size_t>(index)] = config;
  ++config_writes_;
  set_id_ = 0;
  OPEC_OBS_EVENT(opec_obs::EventKind::kMpuReconfig, cycles_ != nullptr ? *cycles_ : 0,
                 opec_obs::Event::kNoOperation, 0, static_cast<uint32_t>(index), config.base,
                 opec_obs::PackMpuConfig(config.enabled, config.size_log2, config.srd,
                                         static_cast<uint8_t>(config.ap)));
}

void Mpu::DisableRegion(int index) {
  MpuRegionConfig r = region(index);
  r.enabled = false;
  ConfigureRegion(index, r);
}

const MpuRegionConfig& Mpu::region(int index) const {
  OPEC_CHECK(index >= 0 && index < kNumRegions);
  return regions_[static_cast<size_t>(index)];
}

int Mpu::DecidingRegion(uint32_t addr) const {
  for (int i = kNumRegions - 1; i >= 0; --i) {
    const MpuRegionConfig& r = regions_[static_cast<size_t>(i)];
    if (!r.enabled || !r.Contains(addr)) {
      continue;
    }
    if (r.srd != 0 && r.size_log2 >= 8) {
      uint32_t sub_size = r.size() / kNumSubRegions;
      uint32_t sub = (addr - r.base) / sub_size;
      if ((r.srd >> sub) & 1u) {
        continue;  // disabled sub-region: fall through to lower regions
      }
    }
    return i;
  }
  return -1;
}

uint64_t Mpu::ResolveRegionSet() const {
  RegionSetKey key;
  key[0] = enabled_ ? 1 : 0;
  for (size_t i = 0; i < regions_.size(); ++i) {
    const MpuRegionConfig& r = regions_[i];
    key[i + 1] = r.base | static_cast<uint64_t>(r.size_log2) << 32 |
                 static_cast<uint64_t>(r.srd) << 40 | static_cast<uint64_t>(r.ap) << 48 |
                 static_cast<uint64_t>(r.enabled) << 56 | static_cast<uint64_t>(r.xn) << 57;
  }
  auto it = std::find_if(interned_.begin(), interned_.end(),
                         [&key](const InternedSet& s) { return s.key == key; });
  if (it == interned_.end()) {
    if (interned_.size() == kInternCapacity) {
      interned_.clear();
    }
    interned_.reserve(kInternCapacity);  // never reallocates after the first set
    it = interned_.insert(interned_.end(), {key, next_set_id_++, {}});
    BuildTable(&it->table);
  }
  set_id_ = it->id;
  table_ = &it->table;
  return set_id_;
}

void Mpu::BuildTable(VerdictTable* table) const {
  // A verdict only changes where an enabled region begins or ends, or at a
  // sub-region boundary of a region with SRD in play: decide each such edge
  // once and merge equal neighbours. 64-bit: a region's end reaches 2^32 at
  // the top of the map, which is no edge.
  std::vector<uint64_t> edges = {0};
  for (const MpuRegionConfig& r : regions_) {
    if (!r.enabled) {
      continue;
    }
    uint64_t size = uint64_t{1} << std::min<uint8_t>(r.size_log2, 32);
    uint64_t pieces = (r.srd != 0 && r.size_log2 >= 8) ? kNumSubRegions : 1;
    for (uint64_t i = 0; i <= pieces; ++i) {
      edges.push_back(r.base + size / pieces * i);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  edges.erase(std::lower_bound(edges.begin(), edges.end(), 1ull << 32), edges.end());
  for (uint64_t edge : edges) {
    uint8_t mask = ComputeAllowMask(static_cast<uint32_t>(edge));
    if (table->intervals.empty() || table->intervals.back().mask != mask) {
      table->intervals.push_back({static_cast<uint32_t>(edge), mask});
    }
  }
  // Each interval's part of SRAM, one memset per interval.
  table->sram.resize(sram_size_ / 32);
  const uint64_t sram_end = uint64_t{kSramBase} + sram_size_;
  for (size_t i = 0; i < table->intervals.size(); ++i) {
    uint64_t lo = std::max<uint64_t>(table->intervals[i].start, kSramBase);
    uint64_t hi = std::min<uint64_t>(
        i + 1 < table->intervals.size() ? table->intervals[i + 1].start : (1ull << 32), sram_end);
    if (lo < hi) {
      std::memset(table->sram.data() + (lo - kSramBase) / 32, table->intervals[i].mask,
                  (hi - lo) / 32);
      table->sram_all &= table->intervals[i].mask;
    }
  }
}

std::vector<Mpu::Interval>::const_iterator Mpu::NextInterval(uint32_t addr) const {
  const std::vector<Interval>& iv = table().intervals;
  return std::upper_bound(iv.begin(), iv.end(), addr,
                          [](uint32_t a, const Interval& i) { return a < i.start; });
}

bool Mpu::PermAllows(AccessPerm ap, AccessKind kind, bool privileged) const {
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

uint8_t Mpu::ComputeAllowMask(uint32_t addr) const {
  ++region_walks_;
  int idx = DecidingRegion(addr);
  uint8_t mask = 0;
  for (uint32_t priv = 0; priv < 2; ++priv) {
    bool r, w, x;
    if (idx < 0) {
      // Background map: privileged-only (PRIVDEFENA), executable.
      r = w = x = (priv != 0);
    } else {
      const MpuRegionConfig& reg = regions_[static_cast<size_t>(idx)];
      r = PermAllows(reg.ap, AccessKind::kRead, priv != 0);
      w = PermAllows(reg.ap, AccessKind::kWrite, priv != 0);
      x = !reg.xn && r;
    }
    mask = static_cast<uint8_t>(mask | (r ? 1u << priv : 0u) |
                                (w ? 1u << (2 | priv) : 0u) |
                                (x ? 1u << (4 | priv) : 0u));
  }
  return mask;
}

bool Mpu::GrantsAllSram(AccessKind kind, bool privileged) const {
  return !enabled_ || ((table().sram_all >> AllowBit(kind, privileged)) & 1u) != 0;
}

bool Mpu::AllowedRange(uint32_t addr, AccessKind kind, bool privileged, uint32_t* lo,
                       uint32_t* hi) const {
  if (!enabled_) {
    *lo = 0;
    *hi = 0xFFFFFFFFu;
    return true;
  }
  auto next = NextInterval(addr);
  *lo = (next - 1)->start;
  *hi = next == table_->intervals.end() ? 0xFFFFFFFFu : next->start - 1;
  return ((next - 1)->mask >> AllowBit(kind, privileged)) & 1u;
}

std::string Mpu::ExplainAccess(uint32_t addr, uint32_t size, AccessKind kind,
                               bool privileged) const {
  const char* kind_name = kind == AccessKind::kWrite ? "write" : "read";
  const char* level = privileged ? "privileged" : "unprivileged";
  if (!enabled_) {
    return opec_support::StrPrintf("MPU disabled: %s %s allowed by default", level, kind_name);
  }
  // Probe the same two addresses CheckAccess probes; the first denied probe is
  // the decision the fault reflects.
  uint32_t last = addr + (size == 0 ? 0 : size - 1);
  for (uint32_t probe : {addr, last}) {
    if ((MaskAt(probe) >> AllowBit(kind, privileged)) & 1u) {
      continue;
    }
    int idx = DecidingRegion(probe);
    std::string where = probe == addr
                            ? std::string()
                            : " (the access straddles into " + opec_support::HexAddr(probe) + ")";
    // A higher-priority region that holds the address stepped aside through a
    // disabled sub-region (the stack-protection mechanism): name it.
    std::string fall_through;
    for (int i = kNumRegions - 1; i > idx; --i) {
      const MpuRegionConfig& r = regions_[static_cast<size_t>(i)];
      if (r.enabled && r.Contains(probe)) {
        uint32_t sub = (probe - r.base) / (r.size() / kNumSubRegions);
        fall_through = opec_support::StrPrintf(
            "; region %d covers the address but its sub-region %u is disabled (srd=0x%02X)", i,
            sub, r.srd);
        break;
      }
    }
    if (idx < 0) {
      return opec_support::StrPrintf(
          "no enabled MPU region maps %s%s; the background map (PRIVDEFENA) permits only "
          "privileged access, so the %s %s was denied%s",
          opec_support::HexAddr(probe).c_str(), where.c_str(), level, kind_name,
          fall_through.c_str());
    }
    const MpuRegionConfig& r = regions_[static_cast<size_t>(idx)];
    return opec_support::StrPrintf(
        "denied by MPU region %d [%s]%s: its access permission (%s) does not allow an %s "
        "%s%s",
        idx, r.ToString().c_str(), where.c_str(), AccessPermName(r.ap), level, kind_name,
        fall_through.c_str());
  }
  return opec_support::StrPrintf("MPU permits this %s %s", level, kind_name);
}

void Mpu::SaveState(StateWriter& w) const {
  w.Bool(enabled_);
  w.U64(config_writes_);
  for (const MpuRegionConfig& r : regions_) {
    w.Bool(r.enabled);
    w.U32(r.base);
    w.U8(r.size_log2);
    w.U8(r.srd);
    w.U8(static_cast<uint8_t>(r.ap));
    w.Bool(r.xn);
  }
}

void Mpu::LoadState(StateReader& r) {
  enabled_ = r.Bool();
  config_writes_ = r.U64();
  for (MpuRegionConfig& reg : regions_) {
    reg.enabled = r.Bool();
    reg.base = r.U32();
    reg.size_log2 = r.U8();
    reg.srd = r.U8();
    reg.ap = static_cast<AccessPerm>(r.U8());
    reg.xn = r.Bool();
  }
  // The restored registers replace whatever set the verdicts were last
  // asked about; without this, MaskAt keeps reading the old set's table.
  set_id_ = 0;
}

bool Mpu::CheckExec(uint32_t addr, bool privileged) const {
  if (!enabled_) {
    return true;
  }
  return (MaskAt(addr) >> (4u | static_cast<uint32_t>(privileged))) & 1u;
}

}  // namespace opec_hw
