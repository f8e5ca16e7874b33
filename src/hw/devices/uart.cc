#include "src/hw/devices/uart.h"

namespace opec_hw {

bool Uart::Read(uint32_t offset, uint32_t* value, uint64_t* extra_cycles) {
  switch (offset) {
    case 0x00:  // SR
      *value = (rx_.empty() ? 0u : 1u) | 0x2u;
      return true;
    case 0x04:  // DR
      if (rx_.empty()) {
        *value = 0;
      } else {
        *value = rx_.front();
        rx_.pop_front();
        *extra_cycles += kCyclesPerByte;
      }
      return true;
    case 0x08:
      *value = brr_;
      return true;
    case 0x0C:
      *value = cr1_;
      return true;
    default:
      return false;
  }
}

bool Uart::Write(uint32_t offset, uint32_t value, uint64_t* extra_cycles) {
  switch (offset) {
    case 0x04:  // DR: transmit
      tx_log_.push_back(static_cast<uint8_t>(value));
      *extra_cycles += kCyclesPerByte;
      return true;
    case 0x08:
      brr_ = value;
      configured_ = true;
      return true;
    case 0x0C:
      cr1_ = value;
      return true;
    default:
      return offset == 0x00;  // SR writes ignored
  }
}

void Uart::PushRxString(const std::string& s) {
  rx_.insert(rx_.end(), s.begin(), s.end());
}

std::string Uart::TxString() const { return std::string(tx_log_.begin(), tx_log_.end()); }

}  // namespace opec_hw
