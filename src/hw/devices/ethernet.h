// Ethernet MAC model with a programmed-I/O frame interface.
//
// Register map:
//   +0x00 STATUS — bit0 rx frame available
//   +0x04 RXLEN  — length in bytes of the current rx frame
//   +0x08 RXDATA — pops the next word of the current rx frame
//   +0x0C TXLEN  — write: begins a tx frame of that length (≤ kMaxFrameBytes,
//                  oversize is a device fault)
//   +0x10 TXDATA — pushes the next word of the tx frame
//   +0x14 CMD    — 1 = done with current rx frame (advance), 2 = commit tx

#ifndef SRC_HW_DEVICES_ETHERNET_H_
#define SRC_HW_DEVICES_ETHERNET_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/hw/device.h"
#include "src/hw/state_io.h"

namespace opec_hw {

// 168 MHz Cortex-M4 core clock; converts request rates to arrival gaps.
inline constexpr uint64_t kCoreClockHz = 168'000'000;

// Committed-frame accounting shared by the PIO and DMA ethernet models.
// Long-running traffic scenarios commit thousands of frames per boot, so the
// raw frames are retained only up to `retention_cap` (0 = unlimited; the
// scripted scenarios keep it unlimited and assert on frame contents). The
// running commit count and the chained FNV-1a digest cover *every* committed
// byte, so checks can assert on the full tx history without the host ever
// holding it.
struct TxLog {
  std::deque<std::vector<uint8_t>> retained;
  uint64_t committed = 0;
  uint64_t digest = 0xCBF29CE484222325ull;
  uint64_t retention_cap = 0;  // frames; 0 = keep everything

  void Commit(std::vector<uint8_t> frame) {
    ++committed;
    uint8_t len_le[4];
    for (int i = 0; i < 4; ++i) {
      len_le[i] = static_cast<uint8_t>(frame.size() >> (8 * i));
    }
    digest = Fnv1a64(len_le, 4, digest);
    digest = Fnv1a64(frame.data(), frame.size(), digest);
    retained.push_back(std::move(frame));
    if (retention_cap != 0) {
      while (retained.size() > retention_cap) {
        retained.pop_front();
      }
    }
  }

  // Hands the retained frames to the caller and forgets them; the commit
  // count and digest keep accumulating across drains.
  std::deque<std::vector<uint8_t>> Drain() {
    std::deque<std::vector<uint8_t>> out;
    out.swap(retained);
    return out;
  }

  void SaveState(StateWriter& w) const {
    w.U64(retained.size());
    for (const std::vector<uint8_t>& f : retained) {
      w.Blob(f);
    }
    w.U64(committed);
    w.U64(digest);
    w.U64(retention_cap);
  }
  void LoadState(StateReader& r) {
    retained.resize(r.Count(8));  // blob length
    for (std::vector<uint8_t>& f : retained) {
      f = r.Blob();
    }
    committed = r.U64();
    digest = r.U64();
    retention_cap = r.U64();
  }
};

class Ethernet : public MmioDevice {
 public:
  // 100 Mbit/s wire vs 168 MHz core: ~13.4 cycles per byte.
  static constexpr uint64_t kCyclesPerByte = 14;
  // Default inter-frame arrival gap: the desktop client sends a packet every
  // few milliseconds, so the device (like the paper's testbed) spends most of
  // its time waiting on I/O. Charged when the first word of a new frame is
  // read. Traffic scenarios override the gap per frame via QueueRxFrame's
  // second argument.
  static constexpr uint64_t kInterFrameGapCycles = 1'000'000;
  // Largest frame a guest may transmit (standard 1500-byte MTU + ethernet
  // header + FCS). A TXLEN beyond this is a device fault — the guest used to
  // be able to make the host allocate 4 GiB with a single register write.
  static constexpr uint32_t kMaxFrameBytes = 1518;

  Ethernet(std::string name, uint32_t base) : MmioDevice(std::move(name), base, 0x400) {}

  bool Read(uint32_t offset, uint32_t* value, uint64_t* extra_cycles) override;
  bool Write(uint32_t offset, uint32_t value, uint64_t* extra_cycles) override;

  // --- Host/testbench interface ---
  void QueueRxFrame(std::vector<uint8_t> frame, uint64_t gap_cycles = kInterFrameGapCycles);
  const std::deque<std::vector<uint8_t>>& tx_frames() const { return tx_log_.retained; }
  uint64_t tx_committed() const { return tx_log_.committed; }
  uint64_t tx_digest() const { return tx_log_.digest; }
  void set_tx_retention_cap(uint64_t cap) { tx_log_.retention_cap = cap; }
  std::deque<std::vector<uint8_t>> DrainTxFrames() { return tx_log_.Drain(); }
  size_t rx_pending() const { return rx_queue_.size(); }

  void SaveState(StateWriter& w) const override {
    w.U64(rx_queue_.size());
    for (const RxFrame& f : rx_queue_) {
      w.Blob(f.bytes);
      w.U64(f.gap_cycles);
    }
    w.U32(rx_cursor_);
    w.Blob(tx_buffer_);
    w.U32(tx_len_);
    w.U32(tx_cursor_);
    tx_log_.SaveState(w);
  }
  void LoadState(StateReader& r) override {
    rx_queue_.resize(r.Count(16));  // blob length + gap
    for (RxFrame& f : rx_queue_) {
      f.bytes = r.Blob();
      f.gap_cycles = r.U64();
    }
    rx_cursor_ = r.U32();
    tx_buffer_ = r.Blob();
    tx_len_ = r.U32();
    tx_cursor_ = r.U32();
    tx_log_.LoadState(r);
  }

 private:
  struct RxFrame {
    std::vector<uint8_t> bytes;
    uint64_t gap_cycles = kInterFrameGapCycles;
  };

  std::deque<RxFrame> rx_queue_;
  uint32_t rx_cursor_ = 0;
  std::vector<uint8_t> tx_buffer_;
  uint32_t tx_len_ = 0;
  uint32_t tx_cursor_ = 0;
  TxLog tx_log_;
};

}  // namespace opec_hw

#endif  // SRC_HW_DEVICES_ETHERNET_H_
