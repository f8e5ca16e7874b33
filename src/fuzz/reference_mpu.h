// A reference model of the ARMv7-M MPU, the yardstick of fuzz oracle 3 and
// mpu_test. It is a deliberately naive transliteration of the architecture
// manual's protection rules (ARMv7-M ARM, B3.5) that decides one byte at a
// time:
//   - the highest-numbered enabled region that holds the byte decides;
//   - a disabled sub-region (SRD, regions of 256 bytes and up) does not hold
//     its bytes, so they fall through to lower-numbered regions;
//   - the AP field grants access by a literal table of the eight encodings;
//   - an instruction fetch needs read access and XN clear;
//   - with no region holding the byte, PRIVDEFENA gives privileged code the
//     default memory map and faults unprivileged code. The model treats the
//     default map as readable, writable and executable (DESIGN.md §10).
// It reads the registers of an opec_hw::Mpu and calls nothing else of it, so
// a mistake in the Mpu's decisions or in its verdict tables cannot hide in
// code the two share. Speed is no goal.

#ifndef SRC_FUZZ_REFERENCE_MPU_H_
#define SRC_FUZZ_REFERENCE_MPU_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/hw/mpu.h"

namespace opec_fuzz {

class ReferenceMpu {
 public:
  // Copies the enable bit and the eight region registers of `mpu`.
  explicit ReferenceMpu(const opec_hw::Mpu& mpu);

  // Whether the byte at addr allows the access / an instruction fetch.
  bool Allows(uint32_t addr, opec_hw::AccessKind kind, bool privileged) const;
  bool Executes(uint32_t addr, bool privileged) const;
  // Whether every byte of [addr, addr + size) allows the access (addresses
  // wrap at 2^32, as the bus's do).
  bool AllowsEvery(uint32_t addr, uint32_t size, opec_hw::AccessKind kind,
                   bool privileged) const;
  // Every address in [lo, hi] where an enabled region, or one of its eight
  // sub-regions, begins or ends. Verdicts change only at these edges.
  std::vector<uint32_t> Edges(uint32_t lo, uint32_t hi) const;
  // Whether every byte of [lo, hi] allows the access: decided at lo and at
  // every edge inside, which is exact since verdicts change only at edges.
  bool AllowsThroughout(uint32_t lo, uint32_t hi, opec_hw::AccessKind kind,
                        bool privileged) const;

 private:
  // The region that decides the byte at addr, or -1 for none.
  int DecidingRegion(uint32_t addr) const;

  bool enabled_;
  std::array<opec_hw::MpuRegionConfig, opec_hw::Mpu::kNumRegions> regions_;
};

}  // namespace opec_fuzz

#endif  // SRC_FUZZ_REFERENCE_MPU_H_
