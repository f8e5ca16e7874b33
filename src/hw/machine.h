// Machine: the emulated microcontroller — MPU + bus + privilege state + cycle
// counter. The execution engine (src/rt) drives it; the monitor (src/monitor)
// manipulates it from "privileged" host code.

#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <cstdint>

#include "src/hw/bus.h"
#include "src/hw/mpu.h"
#include "src/hw/soc.h"

namespace opec_hw {

class Machine {
 public:
  explicit Machine(Board board)
      : spec_(GetBoardSpec(board)), mpu_(spec_.sram_size), bus_(spec_, &mpu_, &cycles_) {
    mpu_.set_cycle_counter(&cycles_);
  }

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const BoardSpec& board() const { return spec_; }
  Mpu& mpu() { return mpu_; }
  const Mpu& mpu() const { return mpu_; }
  Bus& bus() { return bus_; }

  // Current execution privilege (Section 2.1). The monitor drops this before
  // running application code and raises it inside exception handlers.
  bool privileged() const { return privileged_; }
  void set_privileged(bool privileged) { privileged_ = privileged; }

  uint64_t cycles() const { return cycles_; }
  void AddCycles(uint64_t n) { cycles_ += n; }

  // Snapshot support (DESIGN.md §13): cycle counter, privilege level, MPU
  // registers, then the bus (memories + attached devices). LoadState requires
  // a machine of the same board with the same devices attached; `image_id`
  // names the payload's memory image (see Bus::LoadState).
  void SaveState(StateWriter& w) const {
    w.U64(cycles_);
    w.Bool(privileged_);
    mpu_.SaveState(w);
    bus_.SaveState(w);
  }
  void LoadState(StateReader& r, uint64_t image_id) {
    cycles_ = r.U64();
    privileged_ = r.Bool();
    mpu_.LoadState(r);
    bus_.LoadState(r, image_id);
  }

 private:
  BoardSpec spec_;
  uint64_t cycles_ = 0;
  Mpu mpu_;
  Bus bus_;
  bool privileged_ = true;  // reset state: privileged thread mode
};

}  // namespace opec_hw

#endif  // SRC_HW_MACHINE_H_
