// UART device model (USARTx register bank).
//
// Register map (word offsets):
//   +0x00 SR   — bit0 RXNE (rx data available), bit1 TXE (always set)
//   +0x04 DR   — read pops one rx byte (charges per-byte wire latency);
//                write appends one byte to the tx log
//   +0x08 BRR  — baud-rate register (stored; marks the UART configured)
//   +0x0C CR1  — control (bit0 enable)

#ifndef SRC_HW_DEVICES_UART_H_
#define SRC_HW_DEVICES_UART_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/hw/device.h"

namespace opec_hw {

class Uart : public MmioDevice {
 public:
  // 10 bits per byte at 115200 baud on a 168 MHz core ≈ 14600 cycles/byte.
  static constexpr uint64_t kCyclesPerByte = 14600;

  Uart(std::string name, uint32_t base) : MmioDevice(std::move(name), base, 0x400) {}

  bool Read(uint32_t offset, uint32_t* value, uint64_t* extra_cycles) override;
  bool Write(uint32_t offset, uint32_t value, uint64_t* extra_cycles) override;

  // --- Host/testbench interface ---
  void PushRxString(const std::string& s);
  const std::vector<uint8_t>& tx_log() const { return tx_log_; }
  std::string TxString() const;
  bool configured() const { return configured_; }
  size_t rx_pending() const { return rx_.size(); }

  void SaveState(StateWriter& w) const override {
    w.Blob(std::vector<uint8_t>(rx_.begin(), rx_.end()));
    w.Blob(tx_log_);
    w.U32(brr_);
    w.U32(cr1_);
    w.Bool(configured_);
  }
  void LoadState(StateReader& r) override {
    std::vector<uint8_t> rx = r.Blob();
    rx_.assign(rx.begin(), rx.end());
    tx_log_ = r.Blob();
    brr_ = r.U32();
    cr1_ = r.U32();
    configured_ = r.Bool();
  }

 private:
  std::deque<uint8_t> rx_;
  std::vector<uint8_t> tx_log_;
  uint32_t brr_ = 0;
  uint32_t cr1_ = 0;
  bool configured_ = false;
};

}  // namespace opec_hw

#endif  // SRC_HW_DEVICES_UART_H_
