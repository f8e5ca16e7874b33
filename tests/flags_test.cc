// The shared command-line front-end: the strict number parsers, the FlagSet
// reader every CLI parses through, and the name tables the flags decode with.
//
// ParseCount: the CLIs used to parse counts with bare std::atoi, which
// silently yields 0 on junk ("--jobs abc" fell into the jobs<1 error with no
// hint at the cause) and wraps on overflow. The strict full-string parse
// rejects all of that.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/runner.h"
#include "src/campaign/campaign.h"
#include "src/support/flags.h"

namespace opec_support {
namespace {

TEST(ParseCount, AcceptsPlainIntegersInRange) {
  int v = -1;
  EXPECT_TRUE(ParseCount("1", 1, 1024, &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ParseCount("1024", 1, 1024, &v));
  EXPECT_EQ(v, 1024);
  EXPECT_TRUE(ParseCount("42", 1, 1024, &v));
  EXPECT_EQ(v, 42);
}

TEST(ParseCount, RejectsJunkSignsOverflowAndRange) {
  int v = 99;
  for (const char* s : {"abc", "12x", "", " 4", "4 ", "+4", "-3", "0", "1025",
                        "99999999999999999999"}) {
    EXPECT_FALSE(ParseCount(s, 1, 1024, &v)) << "'" << s << "'";
  }
  EXPECT_FALSE(ParseCount(nullptr, 1, 1024, &v));
  EXPECT_EQ(v, 99);  // out-param untouched on failure
}

TEST(ParseU64, FullRangeStrict) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, ~0ull);
  v = 7;
  // "-1" is what strtoull alone would wrap to 2^64-1.
  for (const char* s : {"18446744073709551616", "-1", "+1", "12x", ""}) {
    EXPECT_FALSE(ParseU64(s, &v)) << "'" << s << "'";
  }
  EXPECT_EQ(v, 7u);
}

// Parses `args` (after a program name) with `flags`; returns the error.
std::string ParseWith(FlagSet& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "campaign");
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  return flags.error();
}

// A campaign-shaped flag set; Parse() returns the error ("" on success).
struct Sample {
  int jobs = 1;
  uint64_t seed = 1;
  std::string path;
  std::string rv = "on";
  bool deterministic = false;
  opec_apps::EngineKind engine = opec_apps::EngineKind::kInterp;

  std::string Parse(std::vector<std::string> args) {
    FlagSet flags;
    flags.Int("--jobs", &jobs, 1, 1024);
    flags.U64("--seed", &seed);
    flags.Str("--report-json", &path);
    flags.Choice("--rv", &rv, {"on", "off", "report"});
    flags.Bool("--deterministic", &deterministic);
    flags.Enum("--engine", &engine, opec_apps::ParseEngineKind, "expected interp|bytecode");
    return ParseWith(flags, std::move(args));
  }
};

TEST(FlagSet, AcceptsBothSpellingsAndLaterValuesWin) {
  Sample a;
  EXPECT_EQ(a.Parse({"--jobs", "8", "--seed", "18446744073709551615", "--report-json",
                     "out=1.json", "--rv", "report", "--engine", "bytecode",
                     "--deterministic"}),
            "");
  Sample b;
  EXPECT_EQ(b.Parse({"--jobs=2", "--jobs=8", "--seed=18446744073709551615",
                     "--report-json=out=1.json", "--rv=report", "--engine=bytecode",
                     "--deterministic"}),
            "");
  for (const Sample& s : {a, b}) {
    EXPECT_EQ(s.jobs, 8);
    EXPECT_EQ(s.seed, ~0ull);
    EXPECT_EQ(s.path, "out=1.json");  // only the first '=' splits
    EXPECT_EQ(s.rv, "report");
    EXPECT_EQ(s.engine, opec_apps::EngineKind::kBytecode);
    EXPECT_TRUE(s.deterministic);
  }
}

TEST(FlagSet, RejectsBadValuesUnknownFlagsAndMissingValues) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--jobs", "abc"}, "invalid --jobs 'abc': expected an integer in [1, 1024]"},
      {{"--jobs=12x"}, "invalid --jobs '12x': expected an integer in [1, 1024]"},
      {{"--jobs", "-3"}, "invalid --jobs '-3': expected an integer in [1, 1024]"},
      {{"--jobs", "+3"}, "invalid --jobs '+3': expected an integer in [1, 1024]"},
      {{"--jobs", "1025"}, "invalid --jobs '1025': expected an integer in [1, 1024]"},
      {{"--seed", "18446744073709551616"},
       "invalid --seed '18446744073709551616': expected an unsigned integer"},
      {{"--rv", "maybe"}, "invalid --rv 'maybe': expected on|off|report"},
      {{"--engine", "jit"}, "invalid --engine 'jit': expected interp|bytecode"},
      {{"--bogus"}, "unknown flag '--bogus'"},
      {{"--bogus=1"}, "unknown flag '--bogus'"},
      {{"-j"}, "unknown flag '-j'"},
      {{"stray"}, "unknown flag 'stray'"},
      {{"--deterministic=yes"}, "--deterministic takes no value"},
      {{"--jobs"}, "missing value for --jobs"},
      {{"--jobs="}, "missing value for --jobs"},
      {{"--jobs", ""}, "missing value for --jobs"},
      {{"--report-json="}, "missing value for --report-json"},
  };
  for (const auto& [args, want] : cases) {
    Sample s;
    EXPECT_EQ(s.Parse(args), want);
    EXPECT_EQ(s.jobs, 1);  // destinations untouched on error
    EXPECT_EQ(s.seed, 1u);
    EXPECT_EQ(s.rv, "on");
  }
  Sample s;
  EXPECT_NE(s.Parse({"--bogus", "--seed=5"}), "");
  EXPECT_EQ(s.seed, 1u);  // parsing stops at the first error
}

TEST(FlagSet, ErrorsAreOneLineNamedAfterTheProgram) {
  int jobs = 1;
  FlagSet flags;
  flags.Int("--jobs", &jobs, 1, 1024);
  std::string argv0 = "/some/dir/build/bench/campaign";
  std::string arg1 = "--jobs=x";
  char* argv[] = {argv0.data(), arg1.data()};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.Parse(2, argv));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "campaign: invalid --jobs 'x': expected an integer in [1, 1024]\n");
  testing::internal::CaptureStderr();
  EXPECT_EQ(flags.Fail("--traffic runs in-process only"), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "campaign: --traffic runs in-process only\n");
}

TEST(NameTables, ParseInvertsTheNamePrinters) {
  using opec_campaign::FaultClass;
  for (FaultClass c : {FaultClass::kAny, FaultClass::kStackBitFlip, FaultClass::kShadowBitFlip,
                       FaultClass::kSvcArgCorrupt, FaultClass::kIcallForge}) {
    FaultClass parsed = c == FaultClass::kAny ? FaultClass::kIcallForge : FaultClass::kAny;
    ASSERT_TRUE(opec_campaign::ParseFaultClass(opec_campaign::FaultClassName(c), &parsed));
    EXPECT_EQ(parsed, c);
  }
  using opec_apps::EngineKind;
  for (EngineKind k : {EngineKind::kInterp, EngineKind::kBytecode}) {
    EngineKind parsed = k == EngineKind::kInterp ? EngineKind::kBytecode : EngineKind::kInterp;
    ASSERT_TRUE(opec_apps::ParseEngineKind(opec_apps::EngineKindName(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  FaultClass untouched = FaultClass::kSvcArgCorrupt;
  EXPECT_FALSE(opec_campaign::ParseFaultClass("stack", &untouched));
  EXPECT_EQ(untouched, FaultClass::kSvcArgCorrupt);
}

}  // namespace
}  // namespace opec_support
