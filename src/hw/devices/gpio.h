// GPIO bank model.
//
// Register map:
//   +0x00 MODER — pin mode configuration (stored; marks the bank configured)
//   +0x10 IDR   — input data (host-driven, e.g. a user button)
//   +0x14 ODR   — output data (drives pins; the PinLock lock coil, LEDs)

#ifndef SRC_HW_DEVICES_GPIO_H_
#define SRC_HW_DEVICES_GPIO_H_

#include <cstdint>
#include <vector>

#include "src/hw/device.h"

namespace opec_hw {

class Gpio : public MmioDevice {
 public:
  Gpio(std::string name, uint32_t base) : MmioDevice(std::move(name), base, 0x400) {}

  bool Read(uint32_t offset, uint32_t* value, uint64_t* extra_cycles) override;
  bool Write(uint32_t offset, uint32_t value, uint64_t* extra_cycles) override;

  // --- Host/testbench interface ---
  void SetInput(uint32_t pins) { idr_ = pins; }
  uint32_t output() const { return odr_; }
  bool configured() const { return configured_; }
  // Every ODR write, in order — lets tests assert lock/unlock sequences.
  const std::vector<uint32_t>& odr_history() const { return odr_history_; }

  void SaveState(StateWriter& w) const override {
    w.U32(moder_);
    w.U32(idr_);
    w.U32(odr_);
    w.Bool(configured_);
    w.U64(odr_history_.size());
    for (uint32_t v : odr_history_) {
      w.U32(v);
    }
  }
  void LoadState(StateReader& r) override {
    moder_ = r.U32();
    idr_ = r.U32();
    odr_ = r.U32();
    configured_ = r.Bool();
    odr_history_.resize(r.Count(4));
    for (uint32_t& v : odr_history_) {
      v = r.U32();
    }
  }

 private:
  uint32_t moder_ = 0;
  uint32_t idr_ = 0;
  uint32_t odr_ = 0;
  bool configured_ = false;
  std::vector<uint32_t> odr_history_;
};

}  // namespace opec_hw

#endif  // SRC_HW_DEVICES_GPIO_H_
