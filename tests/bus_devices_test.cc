// Tests for the bus (routing, PPB privilege rules, fault surfaces) and the
// memory-mapped device models.

#include <gtest/gtest.h>

#include "src/hw/address_map.h"
#include "src/hw/devices/block_device.h"
#include "src/hw/devices/camera.h"
#include "src/hw/devices/ethernet.h"
#include "src/hw/devices/ethernet_dma.h"
#include "src/hw/devices/gpio.h"
#include "src/hw/devices/lcd.h"
#include "src/hw/devices/rcc.h"
#include "src/hw/devices/uart.h"
#include "src/hw/machine.h"
#include "src/support/check.h"

namespace opec_hw {
namespace {

TEST(Bus, SramReadWriteRoundTrip) {
  Machine machine(Board::kStm32F4Discovery);
  AccessResult w = machine.bus().Write(kSramBase + 0x100, 4, 0xDEADBEEF, true);
  EXPECT_TRUE(w.ok());
  AccessResult r = machine.bus().Read(kSramBase + 0x100, 4, true);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value, 0xDEADBEEFu);
  // Sub-word access sees little-endian bytes.
  EXPECT_EQ(machine.bus().Read(kSramBase + 0x100, 1, true).value, 0xEFu);
  EXPECT_EQ(machine.bus().Read(kSramBase + 0x103, 1, true).value, 0xDEu);

  // Every width 1-4 at every offset in a word, through the checked and the
  // raw accessors, agrees with the loader's byte view. Width 3 is the
  // generic copy the monitor's sanitizer reads 3-byte elements with.
  Bus& bus = machine.bus();
  const uint32_t base = kSramBase + 0x200;
  for (uint32_t size = 1; size <= 4; ++size) {
    for (uint32_t off = 0; off < 4; ++off) {
      for (bool raw : {false, true}) {
        bus.DebugWriteBytes(base, std::vector<uint8_t>(8, 0xA5));
        uint32_t value = 0x04030201u & (size == 4 ? ~0u : (1u << (8 * size)) - 1);
        if (raw) {
          bus.RawSramWrite(base + off, size, 0x04030201u);
        } else {
          ASSERT_TRUE(bus.Write(base + off, size, 0x04030201u, true).ok());
        }
        std::vector<uint8_t> want(8, 0xA5);
        for (uint32_t i = 0; i < size; ++i) {
          want[off + i] = static_cast<uint8_t>(i + 1);
        }
        EXPECT_EQ(bus.DebugReadBytes(base, 8), want) << size << "@" << off << " raw " << raw;
        uint32_t got = raw ? bus.RawSramRead(base + off, size)
                           : bus.Read(base + off, size, true).value;
        EXPECT_EQ(got, value) << size << "@" << off << " raw " << raw;
      }
    }
  }

  // A word two bytes short of a 4 KiB page boundary dirties both pages, and
  // a restore of the clean image, which copies dirty pages only, puts both
  // halves back.
  const uint32_t edge = kSramBase + 0x2000 - 2;
  bus.DebugWriteBytes(edge, {1, 2, 3, 4});
  constexpr uint64_t kImage = 1;
  StateWriter image;
  bus.SaveState(image);
  bus.MarkClean(kImage);
  auto restore = [&] {
    StateReader r(image.data());
    bus.LoadState(r, kImage);
  };
  bus.RawSramWrite(edge, 4, 0xCAFEF00Du);
  EXPECT_EQ(bus.Read(edge, 4, true).value, 0xCAFEF00Du);
  restore();
  EXPECT_EQ(bus.DebugReadBytes(edge, 4), (std::vector<uint8_t>{1, 2, 3, 4}));
  ASSERT_TRUE(bus.Write(edge, 4, 0xCAFEF00Du, true).ok());
  restore();
  EXPECT_EQ(bus.DebugReadBytes(edge, 4), (std::vector<uint8_t>{1, 2, 3, 4}));
}

// A zero-byte write stores nothing and marks no page. Its last byte,
// offset + len - 1, wraps below its first: at offset 0 that names page
// 0xFFFFF, far past the end of either dirty map (ASan reports the overrun).
TEST(Bus, ZeroByteWritesMarkNoPage) {
  Machine machine(Board::kStm32F4Discovery);
  Bus& bus = machine.bus();
  EXPECT_TRUE(bus.Write(kSramBase, 0, 0xFFFFFFFFu, true).ok());
  EXPECT_EQ(bus.Write(kFlashBase, 0, 0, true).status, AccessStatus::kBusFault);  // W^X
  EXPECT_TRUE(bus.DebugWrite(kSramBase, 0, 0xFFFFFFFFu));
  EXPECT_TRUE(bus.DebugWrite(kFlashBase, 0, 0));
  EXPECT_EQ(bus.DebugReadBytes(kSramBase, 4), std::vector<uint8_t>(4, 0x00));
  EXPECT_EQ(bus.DebugReadBytes(kFlashBase, 4), std::vector<uint8_t>(4, 0xFF));
}

TEST(Bus, FlashIsNotWritableAtRuntime) {
  Machine machine(Board::kStm32F4Discovery);
  EXPECT_EQ(machine.bus().Write(kFlashBase + 0x10, 4, 1, true).status, AccessStatus::kBusFault);
  // But readable (erased flash reads 0xFF).
  EXPECT_EQ(machine.bus().Read(kFlashBase + 0x10, 1, true).value, 0xFFu);
}

TEST(Bus, UnmappedAddressFaults) {
  Machine machine(Board::kStm32F4Discovery);
  EXPECT_EQ(machine.bus().Read(0x70000000, 4, true).status, AccessStatus::kBusFault);
  EXPECT_EQ(machine.bus().Read(0x00000000, 4, true).status, AccessStatus::kBusFault);
}

TEST(Bus, PpbIsPrivilegedOnlyRegardlessOfMpu) {
  Machine machine(Board::kStm32F4Discovery);
  machine.mpu().set_enabled(false);  // even with the MPU off
  EXPECT_EQ(machine.bus().Read(kDwtCyccnt, 4, false).status, AccessStatus::kBusFault);
  EXPECT_TRUE(machine.bus().Read(kDwtCyccnt, 4, true).ok());
}

TEST(Bus, DwtCyccntTracksMachineCycles) {
  Machine machine(Board::kStm32F4Discovery);
  machine.AddCycles(12345);
  EXPECT_EQ(machine.bus().Read(kDwtCyccnt, 4, true).value, 12345u);
}

TEST(Bus, DebugAccessBypassesProtection) {
  Machine machine(Board::kStm32F4Discovery);
  machine.mpu().set_enabled(true);  // background map blocks unpriv everything
  EXPECT_TRUE(machine.bus().DebugWrite(kSramBase, 4, 42));
  uint32_t v = 0;
  EXPECT_TRUE(machine.bus().DebugRead(kSramBase, 4, &v));
  EXPECT_EQ(v, 42u);
  machine.bus().DebugWriteBytes(kFlashBase, {1, 2, 3});
  EXPECT_EQ(machine.bus().DebugReadBytes(kFlashBase, 3), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Bus, DeviceRangeOverlapIsRejected) {
  Machine machine(Board::kStm32F4Discovery);
  Uart a("U1", kUsart1Base);
  Uart b("U2", kUsart1Base + 0x100);  // overlaps
  machine.bus().AttachDevice(&a);
  EXPECT_DEATH(machine.bus().AttachDevice(&b), "overlap");
}

TEST(Uart, RxFifoAndTxLog) {
  Machine machine(Board::kStm32F4Discovery);
  Uart uart("USART2", kUsart2Base);
  machine.bus().AttachDevice(&uart);
  // No data: SR.RXNE clear.
  EXPECT_EQ(machine.bus().Read(kUsart2Base + 0x00, 4, true).value & 1u, 0u);
  uart.PushRxString("hi");
  EXPECT_EQ(machine.bus().Read(kUsart2Base + 0x00, 4, true).value & 1u, 1u);
  EXPECT_EQ(machine.bus().Read(kUsart2Base + 0x04, 4, true).value, uint32_t('h'));
  EXPECT_EQ(machine.bus().Read(kUsart2Base + 0x04, 4, true).value, uint32_t('i'));
  EXPECT_EQ(machine.bus().Read(kUsart2Base + 0x00, 4, true).value & 1u, 0u);
  // Transmit.
  machine.bus().Write(kUsart2Base + 0x04, 4, 'o', true);
  machine.bus().Write(kUsart2Base + 0x04, 4, 'k', true);
  EXPECT_EQ(uart.TxString(), "ok");
  // Byte latency was charged.
  EXPECT_GT(machine.cycles(), 4 * Uart::kCyclesPerByte - 1);
}

TEST(Gpio, OutputHistoryAndInput) {
  Machine machine(Board::kStm32F4Discovery);
  Gpio gpio("GPIOA", kGpioABase);
  machine.bus().AttachDevice(&gpio);
  machine.bus().Write(kGpioABase + 0x00, 4, 1, true);  // MODER
  EXPECT_TRUE(gpio.configured());
  machine.bus().Write(kGpioABase + 0x14, 4, 1, true);
  machine.bus().Write(kGpioABase + 0x14, 4, 0, true);
  EXPECT_EQ(gpio.odr_history(), (std::vector<uint32_t>{1, 0}));
  gpio.SetInput(0x5);
  EXPECT_EQ(machine.bus().Read(kGpioABase + 0x10, 4, true).value, 0x5u);
}

TEST(BlockDevice, SectorReadWriteThroughPio) {
  Machine machine(Board::kStm32479iEval);
  BlockDevice sd("SDIO", kSdioBase, 8);
  machine.bus().AttachDevice(&sd);
  // Write sector 3 through the PIO window.
  machine.bus().Write(kSdioBase + 0x04, 4, 3, true);  // ARG
  machine.bus().Write(kSdioBase + 0x00, 4, 0, true);  // reset cursor
  for (uint32_t i = 0; i < 128; ++i) {
    machine.bus().Write(kSdioBase + 0x0C, 4, i * 3 + 1, true);
  }
  machine.bus().Write(kSdioBase + 0x00, 4, 2, true);  // commit
  std::vector<uint8_t> sector = sd.ReadSectorDirect(3);
  EXPECT_EQ(sector[0], 1u);
  EXPECT_EQ(sector[4], 4u);
  // Read it back through PIO.
  machine.bus().Write(kSdioBase + 0x04, 4, 3, true);
  machine.bus().Write(kSdioBase + 0x00, 4, 1, true);
  EXPECT_EQ(machine.bus().Read(kSdioBase + 0x0C, 4, true).value, 1u);
  EXPECT_EQ(machine.bus().Read(kSdioBase + 0x0C, 4, true).value, 4u);
  EXPECT_EQ(sd.sectors_read(), 1u);
  EXPECT_EQ(sd.sectors_written(), 1u);
}

TEST(BlockDevice, OutOfRangeSectorSetsErrorBit) {
  Machine machine(Board::kStm32479iEval);
  BlockDevice sd("SDIO", kSdioBase, 4);
  machine.bus().AttachDevice(&sd);
  machine.bus().Write(kSdioBase + 0x04, 4, 99, true);
  machine.bus().Write(kSdioBase + 0x00, 4, 1, true);
  EXPECT_EQ(machine.bus().Read(kSdioBase + 0x08, 4, true).value & 2u, 2u);
}

TEST(Lcd, PixelCursorAdvancesAndChecksums) {
  Machine machine(Board::kStm32479iEval);
  Lcd lcd("LCD", kLcdBase);
  machine.bus().AttachDevice(&lcd);
  machine.bus().Write(kLcdBase + 0x00, 4, 1, true);
  machine.bus().Write(kLcdBase + 0x04, 4, 0, true);
  machine.bus().Write(kLcdBase + 0x08, 4, 0, true);
  machine.bus().Write(kLcdBase + 0x0C, 4, 0xAB, true);
  machine.bus().Write(kLcdBase + 0x0C, 4, 0xCD, true);
  EXPECT_EQ(lcd.PixelAt(0, 0), 0xABu);
  EXPECT_EQ(lcd.PixelAt(1, 0), 0xCDu);
  EXPECT_EQ(lcd.pixels_written(), 2u);
  uint32_t c1 = lcd.FrameChecksum();
  machine.bus().Write(kLcdBase + 0x0C, 4, 0xEF, true);
  EXPECT_NE(lcd.FrameChecksum(), c1);
}

TEST(Lcd, StateRoundTripsByteForByte) {
  Machine machine(Board::kStm32479iEval);
  Lcd lcd("LCD", kLcdBase);
  machine.bus().AttachDevice(&lcd);
  machine.bus().Write(kLcdBase + 0x00, 4, 1, true);
  machine.bus().Write(kLcdBase + 0x04, 4, Lcd::kWidth - 1, true);
  machine.bus().Write(kLcdBase + 0x08, 4, Lcd::kHeight - 1, true);
  machine.bus().Write(kLcdBase + 0x0C, 4, 0x00C0FFEE, true);
  StateWriter w;
  lcd.SaveState(w);

  Lcd restored("LCD", kLcdBase);
  StateReader r(w.data());
  restored.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.PixelAt(Lcd::kWidth - 1, Lcd::kHeight - 1), 0x00C0FFEEu);
  EXPECT_EQ(restored.FrameChecksum(), lcd.FrameChecksum());
  StateWriter again;
  restored.SaveState(again);
  EXPECT_EQ(again.data(), w.data());
}

// A pixel count read from a snapshot sizes nothing: a claim of 2^40 pixels is
// a CheckError like any corrupt payload, not a terabyte-sized resize.
TEST(Lcd, HugeClaimedPixelCountIsACheckError) {
  opec_support::ScopedCheckThrow guard;
  Lcd lcd("LCD", kLcdBase);
  StateWriter w;
  w.U64(1ull << 40);
  StateReader r(w.data());
  EXPECT_THROW(lcd.LoadState(r), opec_support::CheckError);
}

// Counts read from device snapshots size nothing up front: claims of 2^40 and
// 2^62 items are CheckErrors like any truncated payload, not std::bad_alloc
// or std::length_error from a resize.
constexpr uint64_t kHugeClaims[] = {1ull << 40, 1ull << 62};

TEST(Gpio, HugeClaimedHistoryIsACheckError) {
  opec_support::ScopedCheckThrow guard;
  Gpio gpio("GPIOA", kGpioABase);
  for (uint64_t claim : kHugeClaims) {
    StateWriter w;
    w.U32(0);  // MODER
    w.U32(0);  // IDR
    w.U32(0);  // ODR
    w.Bool(false);
    w.U64(claim);  // ODR history entries
    StateReader r(w.data());
    EXPECT_THROW(gpio.LoadState(r), opec_support::CheckError) << claim;
  }
}

TEST(Ethernet, HugeClaimedRxQueueIsACheckError) {
  opec_support::ScopedCheckThrow guard;
  Ethernet eth("ETH", kEthBase);
  for (uint64_t claim : kHugeClaims) {
    StateWriter w;
    w.U64(claim);  // queued rx frames
    StateReader r(w.data());
    EXPECT_THROW(eth.LoadState(r), opec_support::CheckError) << claim;
  }
}

TEST(Ethernet, HugeClaimedTxLogIsACheckError) {
  opec_support::ScopedCheckThrow guard;
  Ethernet eth("ETH", kEthBase);
  for (uint64_t claim : kHugeClaims) {
    StateWriter w;
    w.U64(0);     // no queued rx frames
    w.U32(0);     // rx cursor
    w.Blob({});   // tx buffer
    w.U32(0);     // tx length
    w.U32(0);     // tx cursor
    w.U64(claim);  // retained tx frames
    StateReader r(w.data());
    EXPECT_THROW(eth.LoadState(r), opec_support::CheckError) << claim;
  }
}

TEST(Ethernet, FrameQueueRoundTrip) {
  Machine machine(Board::kStm32479iEval);
  Ethernet eth("ETH", kEthBase);
  machine.bus().AttachDevice(&eth);
  eth.QueueRxFrame({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(machine.bus().Read(kEthBase + 0x00, 4, true).value, 1u);
  EXPECT_EQ(machine.bus().Read(kEthBase + 0x04, 4, true).value, 8u);
  EXPECT_EQ(machine.bus().Read(kEthBase + 0x08, 4, true).value, 0x04030201u);
  EXPECT_EQ(machine.bus().Read(kEthBase + 0x08, 4, true).value, 0x08070605u);
  machine.bus().Write(kEthBase + 0x14, 4, 1, true);  // advance
  EXPECT_EQ(machine.bus().Read(kEthBase + 0x00, 4, true).value, 0u);
  // Transmit a frame.
  machine.bus().Write(kEthBase + 0x0C, 4, 4, true);
  machine.bus().Write(kEthBase + 0x10, 4, 0xAABBCCDD, true);
  machine.bus().Write(kEthBase + 0x14, 4, 2, true);  // commit
  ASSERT_EQ(eth.tx_frames().size(), 1u);
  EXPECT_EQ(eth.tx_frames()[0], (std::vector<uint8_t>{0xDD, 0xCC, 0xBB, 0xAA}));
}

// Regression (TXLEN bugfix): a guest-controlled TXLEN beyond the MTU used to
// be handed straight to tx_buffer_.assign(), letting one register write make
// the host allocate 4 GiB. It must be a device fault instead. This test fails
// on the pre-fix device model.
TEST(Ethernet, OversizeTxLenIsADeviceFault) {
  Ethernet eth("ETH", kEthBase);
  uint64_t cycles = 0;
  EXPECT_FALSE(eth.Write(0x0C, 0xFFFFFFFFu, &cycles));
  EXPECT_FALSE(eth.Write(0x0C, Ethernet::kMaxFrameBytes + 1, &cycles));
  // The MTU itself is fine, and the fault left no stale oversize state.
  EXPECT_TRUE(eth.Write(0x0C, Ethernet::kMaxFrameBytes, &cycles));
  EXPECT_TRUE(eth.Write(0x14, 2, &cycles));
  ASSERT_EQ(eth.tx_frames().size(), 1u);
  EXPECT_EQ(eth.tx_frames()[0].size(), Ethernet::kMaxFrameBytes);
}

// Regression (RXDATA tail-word bugfix): a frame whose length is not a
// multiple of 4 used to be charged a full word of wire time on the tail read;
// the charge must cover only the bytes actually present.
TEST(Ethernet, RxTailWordChargesOnlyActualBytes) {
  Ethernet eth("ETH", kEthBase);
  eth.QueueRxFrame({1, 2, 3, 4, 5, 6}, /*gap_cycles=*/0);
  uint32_t value = 0;
  uint64_t cycles = 0;
  EXPECT_TRUE(eth.Read(0x08, &value, &cycles));
  EXPECT_EQ(value, 0x04030201u);
  EXPECT_EQ(cycles, 4 * Ethernet::kCyclesPerByte);
  cycles = 0;
  EXPECT_TRUE(eth.Read(0x08, &value, &cycles));
  EXPECT_EQ(value, 0x00000605u);
  EXPECT_EQ(cycles, 2 * Ethernet::kCyclesPerByte);  // 2 bytes left, not 4
}

TEST(Ethernet, RxDataOnEmptyQueueIsInert) {
  Ethernet eth("ETH", kEthBase);
  uint32_t value = 0xFFFFFFFFu;
  uint64_t cycles = 0;
  EXPECT_TRUE(eth.Read(0x08, &value, &cycles));
  EXPECT_EQ(value, 0u);
  EXPECT_EQ(cycles, 0u);  // no arrival gap, no wire time for a phantom frame
}

TEST(Ethernet, CommitWithPartialTxFillKeepsDeclaredLength) {
  Ethernet eth("ETH", kEthBase);
  uint64_t cycles = 0;
  EXPECT_TRUE(eth.Write(0x0C, 8, &cycles));
  EXPECT_TRUE(eth.Write(0x10, 0xAABBCCDDu, &cycles));  // only 4 of 8 bytes
  EXPECT_TRUE(eth.Write(0x14, 2, &cycles));
  ASSERT_EQ(eth.tx_frames().size(), 1u);
  EXPECT_EQ(eth.tx_frames()[0],
            (std::vector<uint8_t>{0xDD, 0xCC, 0xBB, 0xAA, 0, 0, 0, 0}));
}

TEST(Ethernet, AdvanceWithNoRxFrameIsANoOp) {
  Ethernet eth("ETH", kEthBase);
  uint64_t cycles = 0;
  EXPECT_TRUE(eth.Write(0x14, 1, &cycles));
  uint32_t value = 0;
  EXPECT_TRUE(eth.Read(0x00, &value, &cycles));
  EXPECT_EQ(value, 0u);
  EXPECT_EQ(eth.rx_pending(), 0u);
}

TEST(Ethernet, SaveRestoreMidFrameResumesExactly) {
  Ethernet eth("ETH", kEthBase);
  eth.QueueRxFrame({1, 2, 3, 4, 5, 6, 7, 8}, /*gap_cycles=*/7);
  eth.QueueRxFrame({9, 10}, /*gap_cycles=*/11);
  uint32_t value = 0;
  uint64_t cycles = 0;
  EXPECT_TRUE(eth.Read(0x08, &value, &cycles));  // half-consumed rx frame
  EXPECT_TRUE(eth.Write(0x0C, 6, &cycles));      // plus a tx frame mid-build
  EXPECT_TRUE(eth.Write(0x10, 0x11223344u, &cycles));

  StateWriter w;
  eth.SaveState(w);
  Ethernet restored("ETH", kEthBase);
  StateReader r(w.data());
  restored.LoadState(r);
  EXPECT_TRUE(r.AtEnd());

  // Both devices continue identically: rest of frame 1, advance, frame 2.
  for (Ethernet* dev : {&eth, &restored}) {
    cycles = 0;
    EXPECT_TRUE(dev->Read(0x08, &value, &cycles));
    EXPECT_EQ(value, 0x08070605u);
    EXPECT_EQ(cycles, 4 * Ethernet::kCyclesPerByte);  // no re-charged gap
    EXPECT_TRUE(dev->Write(0x14, 1, &cycles));
    EXPECT_TRUE(dev->Read(0x04, &value, &cycles));
    EXPECT_EQ(value, 2u);
    EXPECT_TRUE(dev->Write(0x14, 2, &cycles));  // commit the half-built tx
  }
  ASSERT_EQ(restored.tx_frames().size(), 1u);
  EXPECT_EQ(restored.tx_frames()[0],
            (std::vector<uint8_t>{0x44, 0x33, 0x22, 0x11, 0, 0}));
  EXPECT_EQ(restored.tx_digest(), eth.tx_digest());
}

TEST(Ethernet, TxRetentionCapBoundsFramesButNotTheDigest) {
  Ethernet capped("ETH", kEthBase);
  Ethernet uncapped("ETH", kEthBase);
  capped.set_tx_retention_cap(2);
  uint64_t cycles = 0;
  for (uint32_t i = 0; i < 5; ++i) {
    for (Ethernet* dev : {&capped, &uncapped}) {
      EXPECT_TRUE(dev->Write(0x0C, 4, &cycles));
      EXPECT_TRUE(dev->Write(0x10, 0x1000 + i, &cycles));
      EXPECT_TRUE(dev->Write(0x14, 2, &cycles));
    }
  }
  EXPECT_EQ(capped.tx_frames().size(), 2u);
  EXPECT_EQ(uncapped.tx_frames().size(), 5u);
  EXPECT_EQ(capped.tx_committed(), 5u);
  // The digest covers every committed frame, retained or not.
  EXPECT_EQ(capped.tx_digest(), uncapped.tx_digest());
  // Draining hands over the window and keeps the running totals.
  std::deque<std::vector<uint8_t>> drained = capped.DrainTxFrames();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(capped.tx_frames().size(), 0u);
  EXPECT_EQ(capped.tx_committed(), 5u);
}

// --- EthernetDma: descriptor rings, coalescing, load-dependent arrivals ---

class EthernetDmaTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kRing = kSramBase + 0x1000;
  static constexpr uint32_t kBufs = kSramBase + 0x2000;

  EthernetDmaTest() : machine_(Board::kStm32479iEval), dma_("ETH", kEthBase, &machine_) {
    machine_.bus().AttachDevice(&dma_);
  }

  // Builds an n-descriptor ring in guest SRAM, every descriptor device-owned.
  void ConfigureRing(uint32_t n) {
    uint64_t cycles = 0;
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(machine_.bus().DebugWrite(kRing + i * 8, 4, kBufs + i * 256));
      ASSERT_TRUE(machine_.bus().DebugWrite(kRing + i * 8 + 4, 4, 0x80000000u));
    }
    ASSERT_TRUE(dma_.Write(0x04, kRing, &cycles));
    ASSERT_TRUE(dma_.Write(0x08, n, &cycles));
  }

  uint32_t DescLen(uint32_t i) {
    uint32_t w1 = 0;
    EXPECT_TRUE(machine_.bus().DebugRead(kRing + i * 8 + 4, 4, &w1));
    return w1;
  }

  Machine machine_;
  EthernetDma dma_;
};

TEST_F(EthernetDmaTest, BogusRingConfigurationFaults) {
  uint64_t cycles = 0;
  EXPECT_FALSE(dma_.Write(0x08, 0, &cycles));
  EXPECT_FALSE(dma_.Write(0x08, EthernetDma::kMaxDescriptors + 1, &cycles));
  EXPECT_FALSE(dma_.Write(0x0C, 0, &cycles));
  EXPECT_FALSE(dma_.Write(0x14, EthernetDma::kMaxFrameBytes + 1, &cycles));
}

TEST_F(EthernetDmaTest, CoalescedDeliveryFillsDescriptorsInOrder) {
  ConfigureRing(4);
  dma_.QueueRxFrame({1, 2, 3}, /*gap_cycles=*/0);
  dma_.QueueRxFrame({4, 5, 6, 7}, /*gap_cycles=*/0);
  dma_.QueueRxFrame({8}, /*gap_cycles=*/0);
  uint64_t cycles = 0;
  ASSERT_TRUE(dma_.Write(0x18, 1, &cycles));  // one poll, coalesce default 4
  EXPECT_EQ(dma_.delivered(), 3u);
  EXPECT_EQ(DescLen(0), 3u);  // OWN cleared, length latched
  EXPECT_EQ(DescLen(1), 4u);
  EXPECT_EQ(DescLen(2), 1u);
  EXPECT_EQ(DescLen(3), 0x80000000u);  // still device-owned, untouched
  uint32_t byte = 0;
  EXPECT_TRUE(machine_.bus().DebugRead(kBufs + 0, 1, &byte));
  EXPECT_EQ(byte, 1u);
  EXPECT_TRUE(machine_.bus().DebugRead(kBufs + 256 + 3, 1, &byte));
  EXPECT_EQ(byte, 7u);
  // Wire + descriptor setup time for the 8 delivered bytes.
  EXPECT_EQ(cycles, 3 * EthernetDma::kDescriptorCycles + 8 * EthernetDma::kCyclesPerByte);
}

TEST_F(EthernetDmaTest, CoalesceBudgetAndOwnershipGateDelivery) {
  ConfigureRing(4);
  uint64_t cycles = 0;
  ASSERT_TRUE(dma_.Write(0x0C, 2, &cycles));  // coalesce = 2
  for (int i = 0; i < 4; ++i) {
    dma_.QueueRxFrame({static_cast<uint8_t>(i)}, /*gap_cycles=*/0);
  }
  ASSERT_TRUE(dma_.Write(0x18, 1, &cycles));
  EXPECT_EQ(dma_.delivered(), 2u);  // batch capped by COALESCE
  ASSERT_TRUE(dma_.Write(0x18, 1, &cycles));
  EXPECT_EQ(dma_.delivered(), 4u);
  // All descriptors now guest-owned: another poll cannot deliver.
  dma_.QueueRxFrame({9}, /*gap_cycles=*/0);
  ASSERT_TRUE(dma_.Write(0x18, 1, &cycles));
  EXPECT_EQ(dma_.delivered(), 4u);
  EXPECT_EQ(dma_.rx_pending(), 1u);
  uint32_t status = 0;
  EXPECT_TRUE(dma_.Read(0x00, &status, &cycles));
  EXPECT_EQ(status & 1u, 1u);  // work still pending
}

TEST_F(EthernetDmaTest, ArrivalScheduleChargesWaitOnlyUnderLightLoad) {
  ConfigureRing(4);
  dma_.QueueRxFrame({1}, /*gap_cycles=*/5'000);
  uint64_t cycles = 0;
  ASSERT_TRUE(dma_.Write(0x18, 1, &cycles));
  // Idle poll at cycle 0: waits out the full arrival gap plus transfer time.
  EXPECT_EQ(cycles,
            5'000 + EthernetDma::kDescriptorCycles + 1 * EthernetDma::kCyclesPerByte);
  // Saturation: the core clock has moved past the next arrival, so the wait
  // collapses and only transfer time is charged.
  machine_.AddCycles(1'000'000);
  dma_.QueueRxFrame({2}, /*gap_cycles=*/5'000);
  cycles = 0;
  ASSERT_TRUE(dma_.Write(0x18, 1, &cycles));
  EXPECT_EQ(cycles, EthernetDma::kDescriptorCycles + 1 * EthernetDma::kCyclesPerByte);
}

TEST_F(EthernetDmaTest, TxDmaReadsGuestMemoryAndFaultsOnBadAddress) {
  uint64_t cycles = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(machine_.bus().DebugWrite(kBufs + 0x800 + i, 1, 0xA0 + i));
  }
  ASSERT_TRUE(dma_.Write(0x10, kBufs + 0x800, &cycles));
  ASSERT_TRUE(dma_.Write(0x14, 4, &cycles));
  ASSERT_TRUE(dma_.Write(0x18, 2, &cycles));
  ASSERT_EQ(dma_.tx_frames().size(), 1u);
  EXPECT_EQ(dma_.tx_frames()[0], (std::vector<uint8_t>{0xA0, 0xA1, 0xA2, 0xA3}));
  // TXADDR outside RAM/flash: a device fault, never a host abort.
  ASSERT_TRUE(dma_.Write(0x10, 0x70000000u, &cycles));
  ASSERT_TRUE(dma_.Write(0x14, 4, &cycles));
  EXPECT_FALSE(dma_.Write(0x18, 2, &cycles));
  EXPECT_EQ(dma_.tx_committed(), 1u);
}

TEST_F(EthernetDmaTest, SaveRestoreRoundTripsQueueRingAndTxLog) {
  ConfigureRing(2);
  dma_.QueueRxFrame({1, 2, 3}, /*gap_cycles=*/100);
  dma_.QueueRxFrame({4, 5}, /*gap_cycles=*/0);  // same arrival: one coalesced batch
  uint64_t cycles = 0;
  ASSERT_TRUE(dma_.Write(0x18, 1, &cycles));  // deliver both, move the cursor
  ASSERT_TRUE(dma_.Write(0x10, kBufs, &cycles));
  ASSERT_TRUE(dma_.Write(0x14, 2, &cycles));
  ASSERT_TRUE(dma_.Write(0x18, 2, &cycles));
  dma_.QueueRxFrame({6}, /*gap_cycles=*/300);  // still queued at save time

  StateWriter w;
  dma_.SaveState(w);
  EthernetDma restored("ETH", kEthBase + 0x400, &machine_);
  StateReader r(w.data());
  restored.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  StateWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w.data(), w2.data());
  EXPECT_EQ(restored.delivered(), 2u);
  EXPECT_EQ(restored.rx_pending(), 1u);
  EXPECT_EQ(restored.tx_committed(), 1u);
  EXPECT_EQ(restored.tx_digest(), dma_.tx_digest());
}

TEST_F(EthernetDmaTest, HugeClaimedRxQueueIsACheckError) {
  opec_support::ScopedCheckThrow guard;
  for (uint64_t claim : kHugeClaims) {
    StateWriter w;
    w.U64(claim);  // queued rx frames
    StateReader r(w.data());
    EXPECT_THROW(dma_.LoadState(r), opec_support::CheckError) << claim;
  }
}

TEST(Camera, CaptureProvidesFrameWords) {
  Machine machine(Board::kStm32479iEval);
  Camera cam("DCMI", kDcmiBase);
  machine.bus().AttachDevice(&cam);
  cam.SetFrame({9, 8, 7, 6});
  EXPECT_EQ(machine.bus().Read(kDcmiBase + 0x04, 4, true).value, 0u);  // not ready yet
  machine.bus().Write(kDcmiBase + 0x00, 4, 1, true);                   // capture
  EXPECT_EQ(machine.bus().Read(kDcmiBase + 0x04, 4, true).value, 1u);
  EXPECT_EQ(machine.bus().Read(kDcmiBase + 0x0C, 4, true).value, 4u);
  EXPECT_EQ(machine.bus().Read(kDcmiBase + 0x08, 4, true).value, 0x06070809u);
  EXPECT_EQ(cam.captures(), 1u);
}

TEST(Rcc, PllReportsReadyAfterEnable) {
  Machine machine(Board::kStm32F4Discovery);
  Rcc rcc("RCC", kRccBase);
  machine.bus().AttachDevice(&rcc);
  machine.bus().Write(kRccBase + 0x00, 4, 1u << 24, true);
  EXPECT_EQ(machine.bus().Read(kRccBase + 0x00, 4, true).value & (1u << 25), 1u << 25);
  EXPECT_TRUE(rcc.configured());
}

TEST(Bus, MultiByteAccessStraddlingRegionEndFaults) {
  // Regression: a 4-byte access whose first byte is inside SRAM but which
  // runs past the end must fault — it touches unmapped space — rather than
  // read/write backing memory out of bounds or silently truncate.
  Machine machine(Board::kStm32F4Discovery);
  uint32_t sram_end = machine.bus().sram_end();
  uint32_t flash_end = machine.bus().flash_end();

  EXPECT_EQ(machine.bus().Read(sram_end - 2, 4, true).status, AccessStatus::kBusFault);
  EXPECT_EQ(machine.bus().Write(sram_end - 2, 4, 0xABCD, true).status, AccessStatus::kBusFault);
  EXPECT_EQ(machine.bus().Read(flash_end - 1, 4, true).status, AccessStatus::kBusFault);
  EXPECT_EQ(machine.bus().Read(flash_end - 2, 4, true).status, AccessStatus::kBusFault);
  // The same straddles through the debug interface must refuse, not clobber.
  uint32_t v = 0;
  EXPECT_FALSE(machine.bus().DebugRead(sram_end - 2, 4, &v));
  EXPECT_FALSE(machine.bus().DebugWrite(sram_end - 2, 4, 0xABCD));
  EXPECT_FALSE(machine.bus().DebugRead(flash_end - 3, 4, &v));
  // Accesses that end exactly at the region end are fine.
  EXPECT_TRUE(machine.bus().Write(sram_end - 4, 4, 0x11223344, true).ok());
  EXPECT_EQ(machine.bus().Read(sram_end - 4, 4, true).value, 0x11223344u);
  EXPECT_EQ(machine.bus().Read(sram_end - 2, 2, true).value, 0x1122u);
  EXPECT_TRUE(machine.bus().Read(flash_end - 4, 4, true).ok());
}

TEST(Bus, SysTickValReadClampsReloadToArchitecturalWidth) {
  // SYST_RVR is a 24-bit field. PpbWrite masks stored values, so a
  // wild reload can only appear through internal state corruption; the read
  // side still clamps defensively so VAL can never divide by a wrapped
  // (reload + 1) == 0. A zero reload falls back to the full 24-bit period.
  Machine machine(Board::kStm32F4Discovery);
  // Reload of zero: VAL derives from the free-running counter, no crash.
  EXPECT_TRUE(machine.bus().Write(kSysTickBase + 0x4, 4, 0, true).ok());
  machine.AddCycles(100);
  AccessResult val = machine.bus().Read(kSysTickBase + 0x8, 4, true);
  EXPECT_TRUE(val.ok());
  EXPECT_EQ(val.value, 0x00FFFFFFu - 100u);
  // An all-ones write is masked to 24 bits on the write side...
  EXPECT_TRUE(machine.bus().Write(kSysTickBase + 0x4, 4, 0xFFFFFFFFu, true).ok());
  EXPECT_EQ(machine.bus().Read(kSysTickBase + 0x4, 4, true).value, 0x00FFFFFFu);
  // ...and VAL still counts down modulo the (masked) period.
  val = machine.bus().Read(kSysTickBase + 0x8, 4, true);
  EXPECT_TRUE(val.ok());
  EXPECT_EQ(val.value, 0x00FFFFFFu - 100u);
}

TEST(Bus, SysTickValWriteClearsCurrentCountAndCountFlag) {
  // ARMv7-M B3.3.3: a write of any value to SYST_CVR clears the current count
  // to zero and clears COUNTFLAG (SYST_CSR bit 16). Regression: the write was
  // silently dropped, leaving VAL derived from the free-running cycle counter.
  Machine machine(Board::kStm32F4Discovery);
  EXPECT_TRUE(machine.bus().Write(kSysTickBase + 0x4, 4, 1000, true).ok());
  machine.AddCycles(123);
  EXPECT_NE(machine.bus().Read(kSysTickBase + 0x8, 4, true).value, 0u);
  // Plant COUNTFLAG through a CTRL write, then clear it via the CVR write.
  EXPECT_TRUE(machine.bus().Write(kSysTickBase + 0x0, 4, (1u << 16) | 1u, true).ok());
  ASSERT_NE(machine.bus().Read(kSysTickBase + 0x0, 4, true).value & (1u << 16), 0u);

  EXPECT_TRUE(machine.bus().Write(kSysTickBase + 0x8, 4, 0x12345678, true).ok());
  EXPECT_EQ(machine.bus().Read(kSysTickBase + 0x8, 4, true).value, 0u);
  EXPECT_EQ(machine.bus().Read(kSysTickBase + 0x0, 4, true).value & (1u << 16), 0u);

  // Counting restarts from the reload value on the next cycle.
  machine.AddCycles(1);
  EXPECT_EQ(machine.bus().Read(kSysTickBase + 0x8, 4, true).value, 1000u);
  machine.AddCycles(10);
  EXPECT_EQ(machine.bus().Read(kSysTickBase + 0x8, 4, true).value, 990u);
}

TEST(Bus, RawSramCopyOverlappingRangesStayCorrect) {
  // Regression: a forward copy over an overlapping src < dst range reads
  // bytes it already clobbered. RawSramCopy must copy like memmove.
  Machine machine(Board::kStm32F4Discovery);
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(machine.bus().DebugWrite(kSramBase + 0x300 + i, 1, 0x40 + i));
  }
  machine.bus().RawSramCopy(kSramBase + 0x300, kSramBase + 0x310, 48);
  for (uint32_t i = 0; i < 48; ++i) {
    uint32_t v = 0;
    ASSERT_TRUE(machine.bus().DebugRead(kSramBase + 0x310 + i, 1, &v));
    ASSERT_EQ(v, 0x40u + i) << "offset " << i;
  }
}

}  // namespace
}  // namespace opec_hw
