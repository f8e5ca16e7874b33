#include "src/fuzz/reference_mpu.h"

namespace opec_fuzz {

namespace {

using opec_hw::AccessKind;
using opec_hw::AccessPerm;

// MPU_RASR.AP, as the manual's access-permission table lists it.
struct ApGrant {
  bool priv_read;
  bool priv_write;
  bool unpriv_read;
  bool unpriv_write;
};
constexpr ApGrant kApTable[8] = {
    {false, false, false, false},  // 000: no access
    {true, true, false, false},    // 001: privileged RW
    {true, true, true, false},     // 010: privileged RW, unprivileged RO
    {true, true, true, true},      // 011: full access
    {false, false, false, false},  // 100: reserved; no AccessPerm encodes it
    {true, false, false, false},   // 101: privileged RO
    {true, false, true, false},    // 110: RO at both levels
    {true, false, true, false},    // 111: RO at both levels
};

// The AP field value each AccessPerm stands for (src/hw/mpu.h).
unsigned ApField(AccessPerm ap) {
  switch (ap) {
    case AccessPerm::kNoAccess:
      return 0b000;
    case AccessPerm::kPrivRw:
      return 0b001;
    case AccessPerm::kPrivRwUnprivRo:
      return 0b010;
    case AccessPerm::kFullAccess:
      return 0b011;
    case AccessPerm::kPrivRo:
      return 0b101;
    case AccessPerm::kReadOnly:
      return 0b110;
  }
  return 0b100;
}

// Region size in bytes: 2^(SIZE+1) in the manual's RASR.SIZE terms.
uint64_t RegionBytes(const opec_hw::MpuRegionConfig& r) {
  return r.size_log2 >= 32 ? (1ull << 32) : (1ull << r.size_log2);
}

}  // namespace

ReferenceMpu::ReferenceMpu(const opec_hw::Mpu& mpu) : enabled_(mpu.enabled()) {
  for (int n = 0; n < opec_hw::Mpu::kNumRegions; ++n) {
    regions_[static_cast<size_t>(n)] = mpu.region(n);
  }
}

int ReferenceMpu::DecidingRegion(uint32_t addr) const {
  for (int n = opec_hw::Mpu::kNumRegions - 1; n >= 0; --n) {
    const opec_hw::MpuRegionConfig& r = regions_[static_cast<size_t>(n)];
    if (!r.enabled) {
      continue;
    }
    const uint64_t bytes = RegionBytes(r);
    if (addr < r.base || addr >= r.base + bytes) {
      continue;
    }
    if (r.size_log2 >= 8) {
      const uint64_t eighth = (addr - uint64_t{r.base}) * 8 / bytes;
      if (((r.srd >> eighth) & 1u) != 0) {
        continue;  // a disabled sub-region is not part of the region
      }
    }
    return n;
  }
  return -1;
}

bool ReferenceMpu::Allows(uint32_t addr, AccessKind kind, bool privileged) const {
  if (!enabled_) {
    return true;
  }
  const int n = DecidingRegion(addr);
  if (n < 0) {
    return privileged;  // PRIVDEFENA
  }
  const ApGrant& g = kApTable[ApField(regions_[static_cast<size_t>(n)].ap)];
  if (kind == AccessKind::kWrite) {
    return privileged ? g.priv_write : g.unpriv_write;
  }
  return privileged ? g.priv_read : g.unpriv_read;
}

bool ReferenceMpu::Executes(uint32_t addr, bool privileged) const {
  if (!enabled_) {
    return true;
  }
  const int n = DecidingRegion(addr);
  if (n < 0) {
    return privileged;
  }
  return !regions_[static_cast<size_t>(n)].xn && Allows(addr, AccessKind::kRead, privileged);
}

bool ReferenceMpu::AllowsEvery(uint32_t addr, uint32_t size, AccessKind kind,
                               bool privileged) const {
  for (uint32_t i = 0; i < size; ++i) {
    if (!Allows(addr + i, kind, privileged)) {
      return false;
    }
  }
  return true;
}

std::vector<uint32_t> ReferenceMpu::Edges(uint32_t lo, uint32_t hi) const {
  std::vector<uint32_t> edges;
  for (const opec_hw::MpuRegionConfig& r : regions_) {
    if (!r.enabled) {
      continue;
    }
    for (uint64_t k = 0; k <= 8; ++k) {
      const uint64_t edge = r.base + RegionBytes(r) * k / 8;
      if (edge >= lo && edge <= hi) {
        edges.push_back(static_cast<uint32_t>(edge));
      }
    }
  }
  return edges;
}

bool ReferenceMpu::AllowsThroughout(uint32_t lo, uint32_t hi, AccessKind kind,
                                    bool privileged) const {
  if (!Allows(lo, kind, privileged)) {
    return false;
  }
  for (uint32_t edge : Edges(lo, hi)) {
    if (!Allows(edge, kind, privileged)) {
      return false;
    }
  }
  return true;
}

}  // namespace opec_fuzz
