// Unit + property tests for the ARMv7-M MPU model (Section 2.2 semantics).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/fuzz/reference_mpu.h"
#include "src/hw/address_map.h"
#include "src/hw/mpu.h"
#include "src/support/text.h"

namespace opec_hw {
namespace {

using opec_fuzz::ReferenceMpu;
using opec_support::HexAddr;

MpuRegionConfig Region(uint32_t base, uint8_t size_log2, AccessPerm ap, uint8_t srd = 0,
                       bool xn = true) {
  MpuRegionConfig r;
  r.enabled = true;
  r.base = base;
  r.size_log2 = size_log2;
  r.ap = ap;
  r.srd = srd;
  r.xn = xn;
  return r;
}

TEST(Mpu, DisabledMpuAllowsEverything) {
  Mpu mpu;
  EXPECT_TRUE(mpu.CheckAccess(0x1234, 4, AccessKind::kWrite, false));
}

TEST(Mpu, BackgroundMapIsPrivilegedOnly) {
  Mpu mpu;
  mpu.set_enabled(true);
  EXPECT_TRUE(mpu.CheckAccess(0x20000000, 4, AccessKind::kWrite, true));
  EXPECT_FALSE(mpu.CheckAccess(0x20000000, 4, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(0x20000000, 4, AccessKind::kRead, false));
}

TEST(Mpu, AccessPermissionMatrix) {
  struct Case {
    AccessPerm ap;
    bool priv_r, priv_w, unpriv_r, unpriv_w;
  };
  const Case cases[] = {
      {AccessPerm::kNoAccess, false, false, false, false},
      {AccessPerm::kPrivRw, true, true, false, false},
      {AccessPerm::kPrivRwUnprivRo, true, true, true, false},
      {AccessPerm::kFullAccess, true, true, true, true},
      {AccessPerm::kPrivRo, true, false, false, false},
      {AccessPerm::kReadOnly, true, false, true, false},
  };
  for (const Case& c : cases) {
    Mpu mpu;
    mpu.set_enabled(true);
    mpu.ConfigureRegion(0, Region(0x20000000, 10, c.ap));
    SCOPED_TRACE(AccessPermName(c.ap));
    EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kRead, true), c.priv_r);
    EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, true), c.priv_w);
    EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kRead, false), c.unpriv_r);
    EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false), c.unpriv_w);
  }
}

TEST(Mpu, HighestNumberedRegionWins) {
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x20000000, 16, AccessPerm::kFullAccess));
  mpu.ConfigureRegion(5, Region(0x20000000, 10, AccessPerm::kNoAccess));
  // Inside region 5's window: denied despite region 0 allowing.
  EXPECT_FALSE(mpu.CheckAccess(0x20000004, 4, AccessKind::kRead, false));
  // Outside region 5 but inside region 0: allowed.
  EXPECT_TRUE(mpu.CheckAccess(0x20000400, 4, AccessKind::kRead, false));
}

TEST(Mpu, DisabledSubRegionFallsThroughToLowerRegion) {
  Mpu mpu;
  mpu.set_enabled(true);
  // Region 1: 4KB full access; region 7: same window no-access but with
  // sub-region 0 disabled -> accesses to the first 512 bytes fall through.
  mpu.ConfigureRegion(1, Region(0x20000000, 12, AccessPerm::kFullAccess));
  mpu.ConfigureRegion(7, Region(0x20000000, 12, AccessPerm::kNoAccess, /*srd=*/0x01));
  EXPECT_TRUE(mpu.CheckAccess(0x20000000, 4, AccessKind::kWrite, false));   // sub 0: disabled
  EXPECT_FALSE(mpu.CheckAccess(0x20000200, 4, AccessKind::kWrite, false));  // sub 1: active
}

TEST(Mpu, StackSubRegionProtectionPattern) {
  // The monitor's stack pattern: region 2 covers the whole stack, SRD bits
  // disable the sub-regions used by previous operations (Figure 8).
  Mpu mpu;
  mpu.set_enabled(true);
  uint32_t stack_base = 0x20004000;  // 16 KB region
  uint8_t srd = 0;
  for (int sub = 6; sub < 8; ++sub) {
    srd |= static_cast<uint8_t>(1 << sub);  // previous op used subs 6..7
  }
  mpu.ConfigureRegion(2, Region(stack_base, 14, AccessPerm::kFullAccess, srd));
  uint32_t sub_size = (1u << 14) / 8;
  EXPECT_TRUE(mpu.CheckAccess(stack_base + 0 * sub_size, 4, AccessKind::kWrite, false));
  EXPECT_TRUE(mpu.CheckAccess(stack_base + 5 * sub_size, 4, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(stack_base + 6 * sub_size, 4, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(stack_base + 7 * sub_size + 100, 4, AccessKind::kWrite, false));
}

TEST(Mpu, AccessSpanningRegionBoundaryChecksBothEnds) {
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x20000000, 29, AccessPerm::kFullAccess));
  mpu.ConfigureRegion(3, Region(0x20000400, 10, AccessPerm::kNoAccess));
  // A 4-byte access whose last byte enters the forbidden region.
  EXPECT_FALSE(mpu.CheckAccess(0x200003FE, 4, AccessKind::kRead, false));
  EXPECT_TRUE(mpu.CheckAccess(0x200003F8, 4, AccessKind::kRead, false));
}

TEST(Mpu, ExecChecksHonorXn) {
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x08000000, 20, AccessPerm::kReadOnly, 0, /*xn=*/false));
  mpu.ConfigureRegion(1, Region(0x20000000, 20, AccessPerm::kFullAccess, 0, /*xn=*/true));
  EXPECT_TRUE(mpu.CheckExec(0x08000100, false));
  EXPECT_FALSE(mpu.CheckExec(0x20000100, false));  // W^X: data is never executable
}

TEST(Mpu, ConfigWritesAreCounted) {
  Mpu mpu;
  uint64_t before = mpu.config_writes();
  mpu.ConfigureRegion(0, Region(0x20000000, 10, AccessPerm::kFullAccess));
  mpu.DisableRegion(0);
  EXPECT_EQ(mpu.config_writes(), before + 2);
}

// Property sweep: any power-of-two-sized, size-aligned region accepts its
// whole window and nothing outside it.
class MpuRegionSweep : public ::testing::TestWithParam<uint8_t> {};

TEST_P(MpuRegionSweep, WindowIsExact) {
  uint8_t size_log2 = GetParam();
  uint32_t size = 1u << size_log2;
  uint32_t base = 0x20000000 & ~(size - 1);
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(4, Region(base, size_log2, AccessPerm::kFullAccess));
  EXPECT_TRUE(mpu.CheckAccess(base, 1, AccessKind::kWrite, false));
  EXPECT_TRUE(mpu.CheckAccess(base + size - 1, 1, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(base + size, 1, AccessKind::kWrite, false));
  if (base > 0) {
    EXPECT_FALSE(mpu.CheckAccess(base - 1, 1, AccessKind::kWrite, false));
  }
}

INSTANTIATE_TEST_SUITE_P(AllLegalSizes, MpuRegionSweep,
                         ::testing::Values(5, 6, 7, 8, 10, 12, 14, 16, 20, 24));

// Property sweep: with SRD, exactly the enabled sub-regions are accessible
// (no lower region to fall through to).
class MpuSrdSweep : public ::testing::TestWithParam<uint8_t> {};

TEST_P(MpuSrdSweep, SubRegionMaskIsRespected) {
  uint8_t srd = GetParam();
  Mpu mpu;
  mpu.set_enabled(true);
  uint32_t base = 0x20000000;
  mpu.ConfigureRegion(2, Region(base, 12, AccessPerm::kFullAccess, srd));
  uint32_t sub_size = (1u << 12) / 8;
  for (int sub = 0; sub < 8; ++sub) {
    bool disabled = (srd >> sub) & 1;
    EXPECT_EQ(mpu.CheckAccess(base + static_cast<uint32_t>(sub) * sub_size + 8, 4,
                              AccessKind::kWrite, false),
              !disabled)
        << "sub-region " << sub << " srd=0x" << std::hex << int(srd);
  }
}

INSTANTIATE_TEST_SUITE_P(Masks, MpuSrdSweep,
                         ::testing::Values(0x00, 0x01, 0x80, 0xF0, 0x0F, 0xAA, 0x55, 0xFE));

using MpuDeathTest = Mpu;

TEST(MpuDeathTest, RejectsMisalignedBase) {
  Mpu mpu;
  EXPECT_DEATH(mpu.ConfigureRegion(0, Region(0x20000004, 10, AccessPerm::kFullAccess)),
               "not aligned");
}

TEST(MpuDeathTest, RejectsTinyRegions) {
  Mpu mpu;
  EXPECT_DEATH(mpu.ConfigureRegion(0, Region(0x20000000, 4, AccessPerm::kFullAccess)),
               "smaller than 32");
}

TEST(Mpu, LoadStateSwitchesTheVerdictTable) {
  // Regression: restoring register state through LoadState must switch
  // verdicts to the restored set's table. Read a deny from one set, then
  // restore a config that allows the same access — the verdict must agree
  // with the reference, not serve the stale deny.
  Mpu allowing;
  allowing.set_enabled(true);
  allowing.ConfigureRegion(0, Region(0x20000000, 12, AccessPerm::kFullAccess));
  StateWriter w;
  allowing.SaveState(w);

  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x20000000, 12, AccessPerm::kNoAccess));
  ASSERT_FALSE(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false));

  StateReader r(w.data());
  mpu.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false),
            ReferenceMpu(mpu).AllowsEvery(0x20000010, 4, AccessKind::kWrite, false));
  EXPECT_TRUE(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false));
}

// While the MPU is off, AllowedRange answers "all of memory, allowed".
// Turning it on with no region write in between must still change the key
// verdicts are cached under, or a slot filled while it was off keeps allowing.
TEST(Mpu, EnablingTheMpuChangesTheVerdictKey) {
  Mpu mpu;
  mpu.ConfigureRegion(0, Region(0x20000000, 12, AccessPerm::kPrivRw));
  uint32_t lo = 0;
  uint32_t hi = 0;
  ASSERT_TRUE(mpu.AllowedRange(0x20000010, AccessKind::kWrite, false, &lo, &hi));
  const uint64_t off_key = mpu.region_set();
  mpu.set_enabled(true);
  EXPECT_NE(mpu.region_set(), off_key);
  EXPECT_FALSE(mpu.AllowedRange(0x20000010, AccessKind::kWrite, false, &lo, &hi));
  EXPECT_EQ(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false),
            ReferenceMpu(mpu).AllowsEvery(0x20000010, 4, AccessKind::kWrite, false));
  EXPECT_FALSE(mpu.CheckAccess(0x20000010, 4, AccessKind::kWrite, false));
}

TEST(Mpu, SameRegistersGiveTheSameRegionSet) {
  const MpuRegionConfig a = Region(0x20000000, 12, AccessPerm::kFullAccess);
  const MpuRegionConfig b = Region(0x20000000, 12, AccessPerm::kReadOnly);
  Mpu mpu;
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, a);
  const uint64_t id = mpu.region_set();
  EXPECT_TRUE(mpu.region_set_resolved());

  mpu.ConfigureRegion(0, a);  // a rewrite with identical contents
  EXPECT_FALSE(mpu.region_set_resolved());
  EXPECT_EQ(mpu.region_set(), id);

  mpu.ConfigureRegion(0, b);
  EXPECT_NE(mpu.region_set(), id);
  mpu.ConfigureRegion(0, a);
  EXPECT_EQ(mpu.region_set(), id);

  // Registers restored from a snapshot are the same set as well.
  StateWriter w;
  mpu.SaveState(w);
  mpu.ConfigureRegion(0, b);
  ASSERT_NE(mpu.region_set(), id);
  StateReader r(w.data());
  mpu.LoadState(r);
  EXPECT_FALSE(mpu.region_set_resolved());
  EXPECT_EQ(mpu.region_set(), id);
}

TEST(Mpu, SetsOneFieldApartAreDistinct) {
  const MpuRegionConfig base = Region(0x20000000, 10, AccessPerm::kFullAccess);
  auto install = [](Mpu& mpu, const MpuRegionConfig& r) {
    mpu.set_enabled(true);
    mpu.ConfigureRegion(0, Region(0x08000000, 16, AccessPerm::kReadOnly, 0, false));
    mpu.ConfigureRegion(3, r);
  };
  Mpu mpu;
  install(mpu, base);
  const uint64_t first = mpu.region_set();
  std::set<uint64_t> ids = {first};
  auto expect_new = [&](const char* field) {
    EXPECT_TRUE(ids.insert(mpu.region_set()).second) << field;
  };
  MpuRegionConfig v = base;
  v.srd = 0x10;
  install(mpu, v);
  expect_new("SRD bit");
  v = base;
  v.ap = AccessPerm::kPrivRw;
  install(mpu, v);
  expect_new("AP");
  v = base;
  v.xn = false;
  install(mpu, v);
  expect_new("XN");
  v = base;
  v.size_log2 = 11;
  install(mpu, v);
  expect_new("size");
  v = base;
  v.base = 0x20000400;
  install(mpu, v);
  expect_new("base");
  install(mpu, base);
  mpu.DisableRegion(3);
  expect_new("region enable");
  install(mpu, base);
  mpu.set_enabled(false);
  expect_new("MPU enable");
  install(mpu, base);
  EXPECT_EQ(mpu.region_set(), first);
}

// A -> B -> A: A's table, built when A was first interned, serves its
// verdicts on the way back without a single region walk, and they still
// agree with the reference.
TEST(Mpu, RevisitedRegionSetNeedsNoRegionWalk) {
  const MpuRegionConfig a = Region(0x20000000, 12, AccessPerm::kFullAccess);
  const MpuRegionConfig b = Region(0x20000000, 12, AccessPerm::kPrivRw);
  const uint32_t probes[] = {0x20000000, 0x20000040, 0x20000800, 0x20000FFC};
  Mpu mpu;
  mpu.set_enabled(true);
  auto probe_all = [&](bool expect) {
    for (uint32_t addr : probes) {
      EXPECT_EQ(mpu.CheckAccess(addr, 4, AccessKind::kWrite, false), expect);
      EXPECT_EQ(ReferenceMpu(mpu).AllowsEvery(addr, 4, AccessKind::kWrite, false), expect);
    }
  };
  mpu.ConfigureRegion(0, a);
  probe_all(true);
  mpu.ConfigureRegion(0, b);
  probe_all(false);
  mpu.ConfigureRegion(0, a);
  const uint64_t walks = mpu.region_walks();
  for (uint32_t addr : probes) {
    EXPECT_TRUE(mpu.CheckAccess(addr, 4, AccessKind::kWrite, false));
  }
  EXPECT_EQ(mpu.region_walks(), walks);
}

// The intern table is bounded and cleared when full; ids keep counting, so
// no id ever names two different sets, and verdicts stay exact throughout.
TEST(Mpu, InternTableOverflowNeverReusesAnId) {
  Mpu mpu;
  mpu.set_enabled(true);
  std::map<uint64_t, int> set_of_id;
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 200; ++i) {
      const uint32_t base = 0x20000000 + static_cast<uint32_t>(i) * 32;
      mpu.ConfigureRegion(5, Region(base, 5, AccessPerm::kFullAccess));
      auto it = set_of_id.emplace(mpu.region_set(), i).first;
      EXPECT_EQ(it->second, i) << "id " << it->first << " reused (pass " << pass << ")";
      EXPECT_TRUE(mpu.CheckAccess(base, 4, AccessKind::kWrite, false));
      EXPECT_FALSE(mpu.CheckAccess(base + 32, 4, AccessKind::kWrite, false));
    }
  }
  EXPECT_GT(set_of_id.size(), 200u);  // the table overflowed and ids kept counting
}

constexpr uint32_t kSram192K = 192 * 1024;

// Overlapping regions, SRD on a region that straddles the end of SRAM, and
// regions inside SRAM: the set's table must give the reference's verdict in
// every 32-byte SRAM window, at both privilege levels, for read, write and
// execute.
void InstallMixedSet(Mpu& mpu) {
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x00000000, 30, AccessPerm::kPrivRwUnprivRo, 0, false));
  // 128 KiB at 0x20020000: sub-regions 0-3 inside SRAM, 4-7 beyond its end.
  mpu.ConfigureRegion(2, Region(0x20020000, 17, AccessPerm::kFullAccess, /*srd=*/0x96));
  mpu.ConfigureRegion(4, Region(0x20000000, 14, AccessPerm::kReadOnly, /*srd=*/0x41));
  mpu.ConfigureRegion(5, Region(0x20001000, 12, AccessPerm::kNoAccess));
  mpu.ConfigureRegion(6, Region(0x20001800, 8, AccessPerm::kPrivRw, 0, false));
  mpu.ConfigureRegion(7, Region(0x2002C000, 13, AccessPerm::kPrivRo, /*srd=*/0x0F));
}

TEST(MpuTables, EverySramWindowMatchesTheReference) {
  Mpu mpu(kSram192K);
  InstallMixedSet(mpu);
  const ReferenceMpu ref(mpu);
  for (uint32_t w = kSramBase; w < kSramBase + kSram192K; w += 32) {
    for (AccessKind kind : {AccessKind::kRead, AccessKind::kWrite}) {
      for (bool priv : {false, true}) {
        ASSERT_EQ(mpu.CheckAccess(w, 32, kind, priv), ref.AllowsEvery(w, 32, kind, priv))
            << HexAddr(w) << (kind == AccessKind::kWrite ? " write" : " read")
            << " priv=" << priv;
      }
    }
    for (bool priv : {false, true}) {
      ASSERT_EQ(mpu.CheckExec(w, priv), ref.Executes(w, priv))
          << HexAddr(w) << " priv=" << priv;
    }
  }
}

// The window map is a second copy of what the interval list says: an Mpu
// without one answers every question the same way, inside SRAM and out.
TEST(MpuTables, NoSramWindowAnswersTheSame) {
  Mpu windowed(kSram192K);
  Mpu plain;
  InstallMixedSet(windowed);
  InstallMixedSet(plain);
  for (uint32_t a = kSramBase - 0x1000; a < kSramBase + 0x40000; a += 16) {
    for (AccessKind kind : {AccessKind::kRead, AccessKind::kWrite}) {
      for (bool priv : {false, true}) {
        ASSERT_EQ(windowed.CheckAccess(a, 4, kind, priv), plain.CheckAccess(a, 4, kind, priv))
            << HexAddr(a);
        uint32_t lo1 = 0;
        uint32_t hi1 = 0;
        uint32_t lo2 = 0;
        uint32_t hi2 = 0;
        ASSERT_EQ(windowed.AllowedRange(a, kind, priv, &lo1, &hi1),
                  plain.AllowedRange(a, kind, priv, &lo2, &hi2))
            << HexAddr(a);
        ASSERT_EQ(lo1, lo2) << HexAddr(a);
        ASSERT_EQ(hi1, hi2) << HexAddr(a);
      }
    }
    ASSERT_EQ(windowed.CheckExec(a, true), plain.CheckExec(a, true)) << HexAddr(a);
  }
}

// The SRAM grant is exact. A privileged-read-only region that a
// higher-numbered full-access region wholly covers denies no SRAM byte, so
// the grant holds; as region 7 nothing covers it, and the grant fails
// (SwitchPlan.SwitchWithoutTheSramGrantIsACheckError denies a switch this
// way).
TEST(MpuTables, SramGrantIsExact) {
  const MpuRegionConfig background = Region(0x00000000, 30, AccessPerm::kPrivRwUnprivRo);
  const MpuRegionConfig priv_ro = Region(0x20000400, 5, AccessPerm::kPrivRo);
  const MpuRegionConfig cover = Region(0x20000000, 12, AccessPerm::kFullAccess);
  Mpu mpu(kSram192K);
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, background);
  EXPECT_TRUE(mpu.GrantsAllSram(AccessKind::kWrite, true));
  EXPECT_FALSE(mpu.GrantsAllSram(AccessKind::kWrite, false));
  EXPECT_TRUE(mpu.GrantsAllSram(AccessKind::kRead, false));

  mpu.ConfigureRegion(3, priv_ro);
  mpu.ConfigureRegion(5, cover);
  EXPECT_TRUE(mpu.GrantsAllSram(AccessKind::kWrite, true));
  EXPECT_TRUE(ReferenceMpu(mpu).AllowsThroughout(kSramBase, kSramBase + kSram192K - 1,
                                                 AccessKind::kWrite, true));

  mpu.DisableRegion(3);
  mpu.ConfigureRegion(7, priv_ro);
  EXPECT_FALSE(mpu.GrantsAllSram(AccessKind::kWrite, true));
  EXPECT_TRUE(mpu.GrantsAllSram(AccessKind::kRead, true));
  EXPECT_FALSE(mpu.CheckAccess(0x20000400, 4, AccessKind::kWrite, true));

  mpu.set_enabled(false);
  EXPECT_TRUE(mpu.GrantsAllSram(AccessKind::kWrite, false));
}

// The intern table clears at 64 sets. A set revisited after the clear is
// interned under a fresh id with a rebuilt table that answers exactly as the
// first one did.
TEST(MpuTables, TableRebuiltAfterInternClearAnswersTheSame) {
  Mpu mpu(kSram192K);
  InstallMixedSet(mpu);
  struct Answer {
    bool allowed;
    uint32_t lo;
    uint32_t hi;
  };
  auto answers = [&mpu]() {
    std::vector<Answer> out;
    for (uint32_t a = kSramBase - 0x100; a < kSramBase + 0x40000; a += 64) {
      Answer x{};
      x.allowed = mpu.AllowedRange(a, AccessKind::kWrite, false, &x.lo, &x.hi);
      out.push_back(x);
      out.push_back({mpu.CheckAccess(a, 4, AccessKind::kRead, false), 0, 0});
    }
    out.push_back({mpu.GrantsAllSram(AccessKind::kWrite, true), 0, 0});
    return out;
  };
  const uint64_t first_id = mpu.region_set();
  const std::vector<Answer> first = answers();
  const MpuRegionConfig region1 = mpu.region(1);
  for (uint32_t i = 0; i < 64; ++i) {
    mpu.ConfigureRegion(1, Region(0x30000000 + i * 32, 5, AccessPerm::kFullAccess));
    mpu.region_set();
  }
  mpu.ConfigureRegion(1, region1);
  const uint64_t again_id = mpu.region_set();
  EXPECT_GT(again_id, first_id);
  const std::vector<Answer> again = answers();
  ASSERT_EQ(again.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again[i].allowed, first[i].allowed) << i;
    EXPECT_EQ(again[i].lo, first[i].lo) << i;
    EXPECT_EQ(again[i].hi, first[i].hi) << i;
  }
}

// Accesses wrap at 2^32, as the bus's addresses do, and a wrapping access
// is decided by its bytes at both ends of the map (the seed-107008 bug,
// DESIGN.md §12.4, allowed every one). Every access of 1, 2 or 4 bytes that
// starts in the last or first 32 bytes, and AllowedRange at each of those
// bytes, is compared with the reference: first with a region at base 0 and
// the background map at the top, then with a region at the top as well, then
// with base 0's first sub-region falling through.
TEST(MpuTables, AccessWrappingPastTheTopMatchesTheReference) {
  Mpu mpu(kSram192K);
  mpu.set_enabled(true);
  mpu.ConfigureRegion(0, Region(0x00000000, 12, AccessPerm::kNoAccess));
  // Privileged code may write the top bytes but not those at 0 and 1.
  EXPECT_TRUE(mpu.CheckAccess(0xFFFFFFFE, 2, AccessKind::kWrite, true));
  EXPECT_FALSE(mpu.CheckAccess(0xFFFFFFFE, 4, AccessKind::kWrite, true));
  auto compare = [&mpu]() {
    const ReferenceMpu ref(mpu);
    for (uint32_t i = 0; i < 64; ++i) {
      const uint32_t addr = 0xFFFFFFE0u + i;  // 0xFFFFFFE0 .. 0x1F
      for (AccessKind kind : {AccessKind::kRead, AccessKind::kWrite}) {
        for (bool priv : {false, true}) {
          for (uint32_t size : {1u, 2u, 4u}) {
            ASSERT_EQ(mpu.CheckAccess(addr, size, kind, priv),
                      ref.AllowsEvery(addr, size, kind, priv))
                << HexAddr(addr) << " size " << size << " write=" << (kind == AccessKind::kWrite)
                << " priv=" << priv;
          }
          uint32_t lo = 0;
          uint32_t hi = 0;
          const bool allowed = mpu.AllowedRange(addr, kind, priv, &lo, &hi);
          ASSERT_EQ(allowed, ref.Allows(addr, kind, priv)) << HexAddr(addr);
          ASSERT_LE(lo, addr) << HexAddr(addr);
          ASSERT_GE(hi, addr) << HexAddr(addr);
          ASSERT_EQ(ref.Allows(lo, kind, priv), allowed) << HexAddr(lo);
          ASSERT_EQ(ref.Allows(hi, kind, priv), allowed) << HexAddr(hi);
        }
      }
    }
  };
  compare();
  mpu.ConfigureRegion(1, Region(0xFFFFF000, 12, AccessPerm::kFullAccess));
  compare();
  mpu.ConfigureRegion(0, Region(0x00000000, 12, AccessPerm::kReadOnly, /*srd=*/0x01));
  compare();
}

TEST(MpuDeathTest, RejectsSrdOnSmallRegions) {
  Mpu mpu;
  EXPECT_DEATH(mpu.ConfigureRegion(0, Region(0x20000000, 7, AccessPerm::kFullAccess, 0x01)),
               "sub-region");
}

}  // namespace
}  // namespace opec_hw
