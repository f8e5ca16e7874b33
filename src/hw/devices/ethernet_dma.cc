#include "src/hw/devices/ethernet_dma.h"

#include <algorithm>

#include "src/hw/bus.h"

namespace opec_hw {

bool EthernetDma::AnyFilledDescriptor() {
  if (!RingConfigured()) {
    return false;
  }
  for (uint32_t i = 0; i < ring_count_; ++i) {
    uint32_t w1 = 0;
    if (!machine_->bus().DebugRead(ring_base_ + i * 8 + 4, 4, &w1)) {
      return false;  // ring points outside RAM; nothing the device can do
    }
    if ((w1 & 0x80000000u) == 0 && (w1 & 0xFFFFu) != 0) {
      return true;  // filled by the device, not yet returned by the guest
    }
  }
  return false;
}

bool EthernetDma::RxPoll(uint64_t* extra_cycles) {
  if (rx_queue_.empty() || !RingConfigured()) {
    return true;
  }
  // The guest polled before the head frame arrived: it blocks (busy-waits on
  // the wire) until arrival. Under saturation arrival_cycle lags the core
  // clock and this wait collapses to zero.
  uint64_t now = machine_->cycles();
  if (rx_queue_.front().arrival_cycle > now) {
    *extra_cycles += rx_queue_.front().arrival_cycle - now;
    now = rx_queue_.front().arrival_cycle;
  }
  // Interrupt coalescing: deliver every frame that has already arrived, up to
  // the coalesce budget and the available device-owned descriptors.
  uint32_t batch = 0;
  while (!rx_queue_.empty() && batch < coalesce_ &&
         rx_queue_.front().arrival_cycle <= now) {
    uint32_t desc = ring_base_ + fill_cursor_ * 8;
    uint32_t w1 = 0;
    if (!machine_->bus().DebugRead(desc + 4, 4, &w1) || (w1 & 0x80000000u) == 0) {
      break;  // no free descriptor at the cursor: guest must consume first
    }
    uint32_t buf_addr = 0;
    if (!machine_->bus().DebugRead(desc, 4, &buf_addr)) {
      break;
    }
    RxFrame frame = std::move(rx_queue_.front());
    rx_queue_.pop_front();
    uint32_t len = static_cast<uint32_t>(
        std::min<size_t>(frame.bytes.size(), std::min(kBufBytes, kMaxFrameBytes)));
    for (uint32_t i = 0; i < len; ++i) {
      if (!machine_->bus().DebugWrite(buf_addr + i, 1, frame.bytes[i])) {
        return false;  // descriptor points outside RAM: device fault
      }
    }
    machine_->bus().DebugWrite(desc + 4, 4, len);  // OWN cleared, length latched
    *extra_cycles += kDescriptorCycles + static_cast<uint64_t>(len) * kCyclesPerByte;
    fill_cursor_ = (fill_cursor_ + 1) % ring_count_;
    ++delivered_;
    ++batch;
  }
  return true;
}

bool EthernetDma::Read(uint32_t offset, uint32_t* value, uint64_t* extra_cycles) {
  (void)extra_cycles;
  switch (offset) {
    case 0x00:
      *value = (rx_queue_.empty() && !AnyFilledDescriptor() ? 0u : 1u) |
               (RingConfigured() ? 2u : 0u);
      return true;
    case 0x1C:
      *value = static_cast<uint32_t>(delivered_);
      return true;
    case 0x20:
      *value = static_cast<uint32_t>(tx_log_.committed);
      return true;
    default:
      // Write-only registers read as zero (matches the PIO model's leniency).
      *value = 0;
      return offset == 0x04 || offset == 0x08 || offset == 0x0C || offset == 0x10 ||
             offset == 0x14 || offset == 0x18;
  }
}

bool EthernetDma::Write(uint32_t offset, uint32_t value, uint64_t* extra_cycles) {
  switch (offset) {
    case 0x04:
      ring_base_ = value;
      fill_cursor_ = 0;
      return true;
    case 0x08:
      if (value == 0 || value > kMaxDescriptors) {
        return false;  // device fault: bogus ring size
      }
      ring_count_ = value;
      fill_cursor_ = 0;
      return true;
    case 0x0C:
      if (value == 0 || value > kMaxDescriptors) {
        return false;
      }
      coalesce_ = value;
      return true;
    case 0x10:
      tx_addr_ = value;
      return true;
    case 0x14:
      if (value > kMaxFrameBytes) {
        return false;  // device fault: guest-controlled length beyond the MTU
      }
      tx_len_ = value;
      return true;
    case 0x18:
      if (value == 1) {
        return RxPoll(extra_cycles);
      }
      if (value == 2) {
        std::vector<uint8_t> frame(tx_len_);
        for (uint32_t i = 0; i < tx_len_; ++i) {
          uint32_t byte = 0;
          if (!machine_->bus().DebugRead(tx_addr_ + i, 1, &byte)) {
            return false;  // TXADDR points outside RAM/flash: device fault
          }
          frame[i] = static_cast<uint8_t>(byte);
        }
        *extra_cycles += kDescriptorCycles + static_cast<uint64_t>(frame.size()) * kCyclesPerByte;
        tx_log_.Commit(std::move(frame));
      }
      return true;
    default:
      return offset == 0x00 || offset == 0x1C || offset == 0x20;
  }
}

void EthernetDma::QueueRxFrame(std::vector<uint8_t> frame, uint64_t gap_cycles) {
  last_arrival_ += gap_cycles;
  rx_queue_.push_back(RxFrame{std::move(frame), last_arrival_});
}

void EthernetDma::SaveState(StateWriter& w) const {
  w.U64(rx_queue_.size());
  for (const RxFrame& f : rx_queue_) {
    w.Blob(f.bytes);
    w.U64(f.arrival_cycle);
  }
  w.U64(last_arrival_);
  w.U32(ring_base_);
  w.U32(ring_count_);
  w.U32(coalesce_);
  w.U32(fill_cursor_);
  w.U32(tx_addr_);
  w.U32(tx_len_);
  w.U64(delivered_);
  tx_log_.SaveState(w);
}

void EthernetDma::LoadState(StateReader& r) {
  rx_queue_.resize(r.Count(16));  // blob length + arrival cycle
  for (RxFrame& f : rx_queue_) {
    f.bytes = r.Blob();
    f.arrival_cycle = r.U64();
  }
  last_arrival_ = r.U64();
  ring_base_ = r.U32();
  ring_count_ = r.U32();
  coalesce_ = r.U32();
  fill_cursor_ = r.U32();
  tx_addr_ = r.U32();
  tx_len_ = r.U32();
  delivered_ = r.U64();
  tx_log_.LoadState(r);
}

}  // namespace opec_hw
