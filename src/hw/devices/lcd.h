// LCD controller model (LTDC-style).
//
// Register map:
//   +0x00 CTRL       — bit0 enable (marks configured)
//   +0x04 X          — cursor column
//   +0x08 Y          — cursor row
//   +0x0C GRAM       — pixel write at (X, Y); X auto-increments with wrap
//   +0x10 BRIGHTNESS — backlight level 0..255 (drives the fade effect)

#ifndef SRC_HW_DEVICES_LCD_H_
#define SRC_HW_DEVICES_LCD_H_

#include <cstdint>
#include <vector>

#include "src/hw/device.h"

namespace opec_hw {

class Lcd : public MmioDevice {
 public:
  static constexpr uint32_t kWidth = 240;
  static constexpr uint32_t kHeight = 160;
  static constexpr uint64_t kPixelCycles = 8;

  Lcd(std::string name, uint32_t base)
      : MmioDevice(std::move(name), base, 0x400), framebuffer_(kWidth * kHeight, 0) {}

  bool Read(uint32_t offset, uint32_t* value, uint64_t* extra_cycles) override;
  bool Write(uint32_t offset, uint32_t value, uint64_t* extra_cycles) override;

  // --- Host/testbench interface ---
  uint64_t pixels_written() const { return pixels_written_; }
  uint32_t PixelAt(uint32_t x, uint32_t y) const { return framebuffer_[y * kWidth + x]; }
  // FNV-1a over the framebuffer; lets tests assert the displayed image.
  uint32_t FrameChecksum() const;
  bool configured() const { return configured_; }
  const std::vector<uint8_t>& brightness_history() const { return brightness_history_; }

  void SaveState(StateWriter& w) const override {
    w.U64(framebuffer_.size());
    for (uint32_t px : framebuffer_) {
      w.U32(px);
    }
    w.U32(x_);
    w.U32(y_);
    w.Bool(configured_);
    w.U64(pixels_written_);
    w.Blob(brightness_history_);
  }
  void LoadState(StateReader& r) override {
    OPEC_CHECK_MSG(r.U64() == kWidth * kHeight, "LCD snapshot framebuffer size mismatch");
    r.U32s(framebuffer_.data(), framebuffer_.size());
    x_ = r.U32();
    y_ = r.U32();
    configured_ = r.Bool();
    pixels_written_ = r.U64();
    brightness_history_ = r.Blob();
  }

 private:
  std::vector<uint32_t> framebuffer_;
  uint32_t x_ = 0;
  uint32_t y_ = 0;
  bool configured_ = false;
  uint64_t pixels_written_ = 0;
  std::vector<uint8_t> brightness_history_;
};

}  // namespace opec_hw

#endif  // SRC_HW_DEVICES_LCD_H_
