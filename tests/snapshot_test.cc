// Tests for the snapshot/restore subsystem (DESIGN.md §13): the state_io wire
// primitives, machine-level round trips, container versioning, file I/O,
// warm-start (CaptureBoot/RestoreBoot) determinism across all apps, and the
// SVC-boundary round-trip probe.

#include "src/snapshot/snapshot.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/hw/address_map.h"
#include "src/hw/machine.h"
#include "src/hw/state_io.h"
#include "src/snapshot/probe.h"
#include "src/support/check.h"

namespace opec_snapshot {
namespace {

using opec_apps::AppFactory;
using opec_apps::AppRun;
using opec_apps::BuildMode;
using opec_hw::Board;
using opec_hw::Machine;
using opec_hw::StateReader;
using opec_hw::StateWriter;

const AppFactory& App(const std::string& name) {
  static const std::vector<AppFactory> kApps = opec_apps::AllApps();
  for (const AppFactory& f : kApps) {
    if (f.name == name) {
      return f;
    }
  }
  OPEC_CHECK_MSG(false, "no such app: " + name);
  return kApps[0];
}

TEST(StateIo, PrimitivesRoundTrip) {
  StateWriter w;
  w.U8(0xAB);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.Blob({1, 2, 3});
  w.Str("hello");

  StateReader r(w.data());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.Blob(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(StateIo, TruncatedPayloadIsACheckError) {
  opec_support::ScopedCheckThrow guard;
  StateWriter w;
  w.U32(7);
  StateReader r(w.data());
  EXPECT_THROW(r.U64(), opec_support::CheckError);
}

TEST(Snapshot, MachineRoundTripRestoresMemoryMpuAndClock) {
  Machine machine(Board::kStm32F4Discovery);
  machine.bus().DebugWrite(opec_hw::kSramBase + 0x40, 4, 0x11223344);
  machine.AddCycles(777);
  opec_hw::MpuRegionConfig region;
  region.enabled = true;
  region.base = opec_hw::kSramBase;
  region.size_log2 = 12;
  region.ap = opec_hw::AccessPerm::kFullAccess;
  machine.mpu().set_enabled(true);
  machine.mpu().ConfigureRegion(0, region);

  Snapshot snap = Snapshot::Capture(machine);

  // Trash everything the snapshot should bring back.
  machine.bus().DebugWrite(opec_hw::kSramBase + 0x40, 4, 0);
  machine.AddCycles(123);
  machine.mpu().DisableRegion(0);
  EXPECT_FALSE(machine.mpu().CheckAccess(opec_hw::kSramBase + 0x40, 4,
                                         opec_hw::AccessKind::kWrite, false));

  Snapshot::Deserialize(snap.Serialize()).Restore(machine);

  uint32_t v = 0;
  EXPECT_TRUE(machine.bus().DebugRead(opec_hw::kSramBase + 0x40, 4, &v));
  EXPECT_EQ(v, 0x11223344u);
  EXPECT_EQ(machine.cycles(), 777u);
  EXPECT_TRUE(machine.mpu().CheckAccess(opec_hw::kSramBase + 0x40, 4,
                                        opec_hw::AccessKind::kWrite, false));
}

TEST(Snapshot, DirtyPageFastRestoreMatchesFullRestore) {
  Machine machine(Board::kStm32F4Discovery);
  machine.bus().DebugWrite(opec_hw::kSramBase + 0x100, 4, 0xAABBCCDD);
  machine.AddCycles(77);
  Snapshot snap = Snapshot::Capture(machine);
  machine.bus().MarkClean(snap.image_id());  // as AppRun::CaptureBoot does

  // Dirty several distinct pages through every mutation path the bus has:
  // the guest write fast path, debug writes (flash and SRAM), and a raw
  // copy spanning multiple pages (its interior pages must be marked too).
  EXPECT_TRUE(machine.bus().Write(opec_hw::kSramBase + 0x100, 4, 0x01020304, true).ok());
  machine.bus().DebugWrite(opec_hw::kSramBase + 0x5004, 4, 0x55667788);
  machine.bus().DebugWrite(opec_hw::kFlashBase + 0x2000, 4, 0x99999999);
  machine.bus().RawSramCopy(opec_hw::kSramBase, opec_hw::kSramBase + 0x8000, 3 * 4096 + 8);
  machine.AddCycles(123);
  EXPECT_NE(Snapshot::Capture(machine).Digest(), snap.Digest());

  // The bus's clean pages are this snapshot's image: only dirty pages copy.
  snap.Restore(machine);
  EXPECT_EQ(Snapshot::Capture(machine).Digest(), snap.Digest());

  // A second restore after more writes works too (the dirty map was
  // cleared page-by-page as it restored).
  machine.bus().DebugWrite(opec_hw::kSramBase + 0xC000, 4, 0x13572468);
  snap.Restore(machine);
  EXPECT_EQ(Snapshot::Capture(machine).Digest(), snap.Digest());
}

// Restore copies only the dirty pages when the bus's clean pages are the
// snapshot's own image, and every page otherwise. The last restore of S1
// needs that check: the pages where S1 and S2 differ were clean against S2,
// so a dirty-page copy would leave S2's bytes in them.
TEST(Snapshot, RestoreCopiesEveryPageOfAnotherImage) {
  Machine machine(Board::kStm32F4Discovery);
  opec_hw::Bus& bus = machine.bus();
  const uint32_t flash_size = machine.board().flash_size;
  const uint32_t sram_size = machine.board().sram_size;
  // Dirties pages through every funnel that writes memory: the guest write
  // (once straddling two pages), debug writes to SRAM and flash, the raw
  // write and a raw copy spanning several pages.
  auto scribble = [&](uint32_t v) {
    EXPECT_TRUE(bus.Write(opec_hw::kSramBase + 0x100, 4, v, true).ok());
    EXPECT_TRUE(bus.Write(opec_hw::kSramBase + 0x3000 - 2, 4, v, true).ok());
    EXPECT_TRUE(bus.DebugWrite(opec_hw::kSramBase + 0x5004, 4, v));
    EXPECT_TRUE(bus.DebugWrite(opec_hw::kFlashBase + 0x2000, 4, v));
    bus.RawSramWrite(opec_hw::kSramBase + 0x6000, 4, v);
    bus.RawSramCopy(opec_hw::kSramBase + 0x100, opec_hw::kSramBase + 0x8000, 3 * 4096 + 8);
  };
  opec_hw::MpuRegionConfig region;
  region.enabled = true;
  region.base = opec_hw::kSramBase;
  region.size_log2 = 12;
  region.ap = opec_hw::AccessPerm::kFullAccess;

  bus.DebugWrite(opec_hw::kSramBase + 0x40, 4, 0x11223344);
  machine.AddCycles(77);
  machine.mpu().ConfigureRegion(0, region);
  Snapshot s1 = Snapshot::Capture(machine);
  const std::vector<uint8_t> s1_flash = bus.DebugReadBytes(opec_hw::kFlashBase, flash_size);
  const std::vector<uint8_t> s1_sram = bus.DebugReadBytes(opec_hw::kSramBase, sram_size);
  bus.MarkClean(s1.image_id());

  scribble(0x5A5A5A5A);
  machine.AddCycles(5);
  machine.mpu().DisableRegion(0);
  s1.Restore(machine);
  EXPECT_EQ(Snapshot::Capture(machine).Digest(), s1.Digest());

  // S2 differs from S1 in the scribbled pages and in two pages of its own.
  scribble(0x22222222);
  bus.DebugWrite(opec_hw::kSramBase + 0xA000, 4, 0x0BADF00D);
  bus.DebugWrite(opec_hw::kFlashBase + 0x4000, 4, 0x0BADF00D);
  machine.AddCycles(9);
  region.size_log2 = 13;
  machine.mpu().ConfigureRegion(1, region);
  Snapshot s2 = Snapshot::Capture(machine);
  EXPECT_NE(s2.image_id(), s1.image_id());
  EXPECT_EQ(Snapshot(s1).image_id(), s1.image_id());  // a copy is the same image
  EXPECT_NE(Snapshot::Deserialize(s1.Serialize()).image_id(), s1.image_id());

  scribble(0x33333333);
  machine.AddCycles(3);
  s2.Restore(machine);  // the clean pages are S1's: every page copies
  EXPECT_EQ(Snapshot::Capture(machine).Digest(), s2.Digest());

  s1.Restore(machine);  // the clean pages are S2's: every page copies
  EXPECT_EQ(Snapshot::Capture(machine).Digest(), s1.Digest());
  EXPECT_EQ(machine.cycles(), 77u);
  EXPECT_FALSE(machine.mpu().region(1).enabled);
  EXPECT_TRUE(bus.DebugReadBytes(opec_hw::kFlashBase, flash_size) == s1_flash);
  EXPECT_TRUE(bus.DebugReadBytes(opec_hw::kSramBase, sram_size) == s1_sram);
}

TEST(Snapshot, DigestIsStableAndSensitive) {
  Machine machine(Board::kStm32F4Discovery);
  Snapshot a = Snapshot::Capture(machine);
  Snapshot b = Snapshot::Capture(machine);
  EXPECT_EQ(a.Digest(), b.Digest());
  machine.bus().DebugWrite(opec_hw::kSramBase, 1, 1);
  EXPECT_NE(Snapshot::Capture(machine).Digest(), a.Digest());
}

TEST(Snapshot, MagicAndVersionAreChecked) {
  opec_support::ScopedCheckThrow guard;
  Machine machine(Board::kStm32F4Discovery);
  std::vector<uint8_t> good = Snapshot::Capture(machine).Serialize();

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(Snapshot::Deserialize(bad_magic), opec_support::CheckError);

  std::vector<uint8_t> bad_version = good;
  bad_version[4] += 1;  // little-endian version word follows the magic
  EXPECT_THROW(Snapshot::Deserialize(bad_version), opec_support::CheckError);
}

// A count read from a .snap file sizes nothing up front: a 2^40 claim in a
// few bytes is the same CheckError as any truncation, not a terabyte-sized
// reservation or std::bad_alloc.
TEST(Snapshot, HugeClaimedCountsAreCheckErrors) {
  opec_support::ScopedCheckThrow guard;
  constexpr uint64_t kClaim = 1ull << 40;
  StateWriter snap;
  snap.U32(Snapshot::kMagic);
  snap.U32(Snapshot::kVersion);
  snap.U64(kClaim);  // sections
  EXPECT_THROW(Snapshot::Deserialize(snap.data()), opec_support::CheckError);
}

// A --snapshot-dir dump is the wire format verbatim: Deserialize of the
// file's bytes loads it back.
TEST(Snapshot, WriteFileWritesTheWireFormat) {
  Machine machine(Board::kStm32F4Discovery);
  machine.bus().DebugWrite(opec_hw::kSramBase + 8, 4, 0x5EED5EED);
  Snapshot snap = Snapshot::Capture(machine);
  std::string path = ::testing::TempDir() + "opec_snapshot_test.snap";
  snap.WriteFile(path);
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, snap.Serialize());
  EXPECT_EQ(Snapshot::Deserialize(bytes).Digest(), snap.Digest());
  std::remove(path.c_str());
}

// Warm start: a run forked from the boot snapshot is bit-identical (modeled
// outputs) to a cold from-scratch run, repeatedly.
TEST(Snapshot, WarmRerunMatchesColdRunBothModes) {
  const AppFactory& factory = App("PinLock");
  for (BuildMode mode : {BuildMode::kOpec, BuildMode::kVanilla}) {
    SCOPED_TRACE(mode == BuildMode::kOpec ? "opec" : "vanilla");
    std::unique_ptr<opec_apps::Application> cold_app = factory.make();
    AppRun cold(*cold_app, mode);
    opec_rt::RunResult want = cold.Execute();
    ASSERT_TRUE(want.ok) << want.violation;
    EXPECT_EQ(cold.Check(), "");

    std::unique_ptr<opec_apps::Application> warm_app = factory.make();
    AppRun warm(*warm_app, mode);
    warm.CaptureBoot();
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(round);
      if (round > 0) {
        warm.RestoreBoot();
      }
      opec_rt::RunResult got = warm.Execute();
      ASSERT_TRUE(got.ok) << got.violation;
      EXPECT_EQ(warm.Check(), "");
      EXPECT_EQ(got.cycles, want.cycles);
      EXPECT_EQ(got.statements, want.statements);
      EXPECT_EQ(got.return_value, want.return_value);
    }
  }
}

// Restore-then-resume golden traces: for every registered app, the warm rerun
// replays the exact function-entry event sequence (function, depth, cycle,
// operation) of a cold run.
TEST(Snapshot, RestoreThenResumeMatchesGoldenTraceEveryApp) {
  for (const AppFactory& factory : opec_apps::AllApps()) {
    SCOPED_TRACE(factory.name);
    std::unique_ptr<opec_apps::Application> cold_app = factory.make();
    AppRun cold(*cold_app, BuildMode::kOpec);
    cold.EnableTrace();
    opec_rt::RunResult want = cold.Execute();

    std::unique_ptr<opec_apps::Application> warm_app = factory.make();
    AppRun warm(*warm_app, BuildMode::kOpec);
    warm.CaptureBoot();
    (void)warm.Execute();  // dirty the machine
    warm.RestoreBoot();
    warm.EnableTrace();
    opec_rt::RunResult got = warm.Execute();

    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.statements, want.statements);
    EXPECT_EQ(got.return_value, want.return_value);

    const auto& golden = cold.trace().events();
    const auto& replay = warm.trace().events();
    ASSERT_EQ(replay.size(), golden.size());
    for (size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(replay[i].fn->name(), golden[i].fn->name()) << "event " << i;
      ASSERT_EQ(replay[i].depth, golden[i].depth) << "event " << i;
      ASSERT_EQ(replay[i].cycle, golden[i].cycle) << "event " << i;
      ASSERT_EQ(replay[i].operation_id, golden[i].operation_id) << "event " << i;
    }
  }
}

// The SVC-boundary round-trip probe must be invisible: same modeled outputs
// as the unprobed run and zero digest mismatches.
TEST(Snapshot, RoundTripProbeIsInvisibleAndClean) {
  const AppFactory& factory = App("PinLock");
  std::unique_ptr<opec_apps::Application> plain_app = factory.make();
  AppRun plain(*plain_app, BuildMode::kOpec);
  opec_rt::RunResult want = plain.Execute();
  ASSERT_TRUE(want.ok) << want.violation;

  std::unique_ptr<opec_apps::Application> probed_app = factory.make();
  AppRun probed(*probed_app, BuildMode::kOpec);
  probed.EnableSnapshotProbe();
  opec_rt::RunResult got = probed.Execute();

  ASSERT_TRUE(got.ok) << got.violation;
  ASSERT_NE(probed.probe(), nullptr);
  EXPECT_TRUE(probed.probe()->errors().empty())
      << probed.probe()->errors().front();
  // Program start + end, plus one per operation enter/exit SVC.
  EXPECT_GE(probed.probe()->probes(), 2u);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.statements, want.statements);
  EXPECT_EQ(got.return_value, want.return_value);
}

// Crash-state capture: with fault-state capture enabled, a denied injected
// write produces a FaultReport carrying the serialized machine state, and the
// blob decodes back into a Machine.
TEST(Snapshot, FaultReportCarriesRestorableMachineState) {
  const AppFactory& factory = App("PinLock");
  std::unique_ptr<opec_apps::Application> app = factory.make();
  AppRun run(*app, BuildMode::kOpec);
  run.engine().set_fault_state_capture(true);

  // A write into unmapped space: the bus faults it unconditionally and the
  // engine captures a report mid-run (the run itself continues).
  opec_rt::AttackSpec attack;
  attack.function = "main";
  attack.occurrence = 1;
  attack.addr = 0x70000000;
  attack.value = 0xBADF00D;
  (void)run.AddAttack(attack);
  (void)run.Execute();

  ASSERT_FALSE(run.engine().fault_reports().empty());
  const opec_obs::FaultReport& report = run.engine().fault_reports().front();
  ASSERT_NE(report.machine_state, nullptr);
  EXPECT_EQ(report.machine_state_digest,
            opec_hw::Fnv1a64(report.machine_state->data(), report.machine_state->size()));

  // The blob restores into a machine with the same SoC device complement
  // (device payloads are matched by name against the attached devices).
  std::unique_ptr<opec_apps::Application> scratch_app = factory.make();
  AppRun scratch(*scratch_app, BuildMode::kOpec);
  StateReader r(*report.machine_state);
  scratch.machine().LoadState(r, /*image_id=*/0);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(scratch.machine().cycles(), report.cycle);
}

}  // namespace
}  // namespace opec_snapshot
