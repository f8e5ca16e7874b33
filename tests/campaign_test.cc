// Tests for the parallel campaign-execution subsystem (src/campaign):
// ParallelMap coverage, ordering and exception propagation,
// OPEC_CHECK capture, cross-thread determinism of campaign reports, per-job
// failure isolation, fault-injection outcome classification, observability
// invariance under concurrency, wall-clock timeouts, and unusable output
// directories.

#include "src/campaign/campaign.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/support/check.h"

namespace {

using opec_campaign::CampaignResult;
using opec_campaign::CampaignSpec;
using opec_campaign::Executor;
using opec_campaign::FaultClass;
using opec_campaign::JobKind;
using opec_campaign::JobSpec;
using opec_campaign::Outcome;
using opec_campaign::ParallelMap;
using opec_campaign::SplitMix64;

TEST(ParallelMapTest, ResultsAreInIndexOrderOnAnyThreadCount) {
  for (int jobs : {1, 2, 8}) {
    std::vector<int> out = ParallelMap(jobs, 100, [](size_t i) {
      return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 100u) << "jobs=" << jobs;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i)) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelMapTest, LowestIndexExceptionPropagates) {
  auto run = [](int jobs) {
    try {
      ParallelMap(jobs, 10, [](size_t i) -> int {
        if (i == 3 || i == 7) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
        return 0;
      });
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(run(1), "boom 3");
  EXPECT_EQ(run(4), "boom 3");
}

TEST(SplitMix64Test, JobSeedsAreStableAndDistinct) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 100; ++i) {
    seeds.insert(SplitMix64::JobSeed(1, i));
  }
  EXPECT_EQ(seeds.size(), 100u);
  // Stable across calls (replayability of fault campaigns).
  EXPECT_EQ(SplitMix64::JobSeed(1, 5), SplitMix64::JobSeed(1, 5));
  EXPECT_NE(SplitMix64::JobSeed(1, 5), SplitMix64::JobSeed(2, 5));
}

// The JobSeed mixing contract (campaign.h): distinct (campaign_seed, index)
// pairs yield distinct streams, at campaign scale.
TEST(SplitMix64Test, JobSeedMixingIsCollisionFreeAcrossCampaigns) {
  std::set<uint64_t> seeds;
  for (uint64_t campaign = 0; campaign < 100; ++campaign) {
    for (uint64_t index = 0; index < 100; ++index) {
      seeds.insert(SplitMix64::JobSeed(campaign, index));
    }
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(SplitMix64Test, JobSeedMixingBreaksXorLinearCollisions) {
  // The original scheme XORed (index * kOdd + 1) into the raw campaign seed
  // before a single finalization. Being XOR-linear pre-finalizer, it made
  // JobSeed(s, 0) collide with JobSeed(s ^ 1 ^ (i * kOdd + 1), i) for every
  // s and i — whole cross-campaign stream collisions. The sequential-
  // finalization fix must break every pair in that family.
  constexpr uint64_t kOdd = 0xA24BAED4963EE407ull;
  for (uint64_t s : {0ull, 1ull, 42ull, 0xDEADBEEFull, 0xFFFFFFFFFFFFFFFFull}) {
    for (uint64_t i = 1; i <= 64; ++i) {
      uint64_t sibling = s ^ 1ull ^ (i * kOdd + 1ull);
      EXPECT_NE(SplitMix64::JobSeed(s, 0), SplitMix64::JobSeed(sibling, i))
          << "s=" << s << " i=" << i;
    }
  }
}

TEST(ScopedCheckThrowTest, ConvertsCheckFailureIntoException) {
  opec_support::ScopedCheckThrow guard;
  bool caught = false;
  try {
    OPEC_CHECK_MSG(1 == 2, "expected failure");
  } catch (const opec_support::CheckError& e) {
    caught = true;
    EXPECT_NE(std::string(e.what()).find("expected failure"), std::string::npos);
  }
  EXPECT_TRUE(caught);
}

// Thread-safety audit of the CHECK capture machinery (src/support/check.cc):
// the capture depth is a thread_local, so concurrent jobs each convert their
// own CHECK failures without observing another thread's guard. This test
// hammers that from many ParallelMap threads — including nested guards — and
// relies on the OPEC_SANITIZE=thread CI configuration to flag any regression
// to shared state.
TEST(ScopedCheckThrowTest, CaptureIsThreadLocalUnderConcurrency) {
  std::atomic<int> caught{0};
  std::atomic<int> wrong{0};
  ParallelMap(8, 200, [&caught, &wrong](size_t) {
    opec_support::ScopedCheckThrow outer;
    {
      opec_support::ScopedCheckThrow inner;
      try {
        OPEC_CHECK_MSG(false, "worker failure");
        wrong.fetch_add(1, std::memory_order_relaxed);
      } catch (const opec_support::CheckError&) {
        caught.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // The outer guard on this thread still captures after the inner one
    // unwound, regardless of what other threads' guards are doing.
    try {
      OPEC_CHECK_MSG(1 + 1 == 3, "outer failure");
      wrong.fetch_add(1, std::memory_order_relaxed);
    } catch (const opec_support::CheckError&) {
      caught.fetch_add(1, std::memory_order_relaxed);
    }
    return 0;
  });
  EXPECT_EQ(caught.load(), 400);
  EXPECT_EQ(wrong.load(), 0);
}

// The tentpole invariant: the deterministic report of a campaign is
// byte-identical whether it runs on one thread or many.
TEST(CampaignTest, DeterministicJsonIsIdenticalAcrossThreadCounts) {
  CampaignSpec spec;
  spec.seed = 42;
  spec.AddScenarioMatrix({"PinLock", "Animation"},
                         {opec_apps::BuildMode::kVanilla, opec_apps::BuildMode::kOpec});
  spec.AddFaultSweep({"PinLock", "Animation"}, 6);

  Executor::Options serial;
  serial.jobs = 1;
  CampaignResult r1 = Executor::Run(spec, serial);

  Executor::Options parallel;
  parallel.jobs = 4;
  CampaignResult r4 = Executor::Run(spec, parallel);

  EXPECT_EQ(r1.results.size(), 10u);
  EXPECT_EQ(r1.DeterministicJson(), r4.DeterministicJson());
  // Scenario jobs over healthy apps all pass.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r1.results[i].outcome, Outcome::kOk) << r1.results[i].detail;
  }
}

TEST(CampaignTest, UnknownAppBecomesStructuredFailureNotAbort) {
  CampaignSpec spec;
  JobSpec bad;
  bad.app = "NoSuchApp";
  spec.jobs.push_back(bad);
  JobSpec good;
  good.app = "PinLock";
  spec.jobs.push_back(good);

  Executor::Options options;
  options.jobs = 2;
  CampaignResult result = Executor::Run(spec, options);
  ASSERT_EQ(result.results.size(), 2u);
  EXPECT_EQ(result.results[0].outcome, Outcome::kException);
  EXPECT_FALSE(result.results[0].ok);
  EXPECT_NE(result.results[0].detail.find("NoSuchApp"), std::string::npos);
  EXPECT_EQ(result.results[1].outcome, Outcome::kOk) << result.results[1].detail;
  EXPECT_FALSE(result.AllOk());
}

// Observability invariance under concurrency: counting sinks attached to
// concurrent jobs observe only their own run, and modeled outputs match the
// sink-free serial run.
TEST(CampaignTest, ObsSinksAreIsolatedPerJobThread) {
  CampaignSpec spec;
  for (int i = 0; i < 4; ++i) {
    JobSpec job;
    job.app = "PinLock";
    job.attach_counting_sink = true;
    spec.jobs.push_back(job);
  }
  Executor::Options options;
  options.jobs = 4;
  CampaignResult with_sinks = Executor::Run(spec, options);

  CampaignSpec plain_spec;
  JobSpec plain_job;
  plain_job.app = "PinLock";
  plain_spec.jobs.push_back(plain_job);
  Executor::Options serial;
  serial.jobs = 1;
  CampaignResult plain = Executor::Run(plain_spec, serial);
  ASSERT_EQ(plain.results.size(), 1u);
  ASSERT_TRUE(plain.results[0].ok) << plain.results[0].detail;

  ASSERT_EQ(with_sinks.results.size(), 4u);
  for (const opec_campaign::JobResult& r : with_sinks.results) {
    ASSERT_TRUE(r.ok) << r.detail;
    // Every job saw its own full event stream (identical runs -> identical
    // counts), and observation changed no modeled output.
    EXPECT_EQ(r.events, with_sinks.results[0].events);
    EXPECT_GT(r.events, 0u);
    EXPECT_EQ(r.cycles, plain.results[0].cycles);
    EXPECT_EQ(r.statements, plain.results[0].statements);
  }
}

TEST(CampaignTest, FaultSweepNeverReportsSilentCorruptionAsSuccess) {
  CampaignSpec spec;
  spec.seed = 7;
  spec.AddFaultSweep({"PinLock", "Animation", "FatFs-uSD"}, 24);
  Executor::Options options;
  options.jobs = 4;
  CampaignResult result = Executor::Run(spec, options);
  ASSERT_EQ(result.results.size(), 24u);
  for (const opec_campaign::JobResult& r : result.results) {
    EXPECT_EQ(r.spec.kind, JobKind::kFault);
    // A fault job resolves its class and always lands in the taxonomy.
    EXPECT_NE(r.spec.fault, FaultClass::kAny);
    if (r.outcome == Outcome::kSilentCorruption) {
      EXPECT_FALSE(r.ok) << "silent corruption classified as success";
    }
    EXPECT_NE(r.outcome, Outcome::kException) << r.detail;
  }
  // The matrix renders without blowing up and mentions every app we swept.
  std::string matrix = result.FaultMatrix();
  EXPECT_NE(matrix.find("PinLock"), std::string::npos);
  EXPECT_NE(matrix.find("silent-corruption"), std::string::npos);
}

// Runtime verification is on by default: every job's report carries the rv
// summary, denied fault injections are flagged by the monitors, and turning
// it off removes the field (so old reports stay comparable).
TEST(CampaignTest, RvSummaryIsReportedAndDeniedWritesAreFlagged) {
  CampaignSpec spec;
  spec.seed = 7;
  spec.AddScenarioMatrix({"PinLock"}, {opec_apps::BuildMode::kOpec});
  spec.AddFaultSweep({"PinLock"}, 12, FaultClass::kShadowBitFlip);
  Executor::Options options;
  options.jobs = 2;
  CampaignResult result = Executor::Run(spec, options);
  ASSERT_EQ(result.results.size(), 13u);

  const opec_campaign::JobResult& scenario = result.results[0];
  EXPECT_EQ(scenario.outcome, Outcome::kOk) << scenario.detail;
  EXPECT_EQ(scenario.rv_violations, 0u);
  EXPECT_GT(scenario.rv_states, 0u);

  size_t denied = 0;
  for (const opec_campaign::JobResult& r : result.results) {
    if (r.outcome == Outcome::kDeniedMpu) {
      ++denied;
      EXPECT_GT(r.rv_violations, 0u)
          << "denied write was not flagged by any monitor: " << r.detail;
    }
  }
  EXPECT_GT(denied, 0u) << "shadow-bit-flip sweep produced no denied write";

  std::string json = result.DeterministicJson();
  EXPECT_NE(json.find("\"rv\": {\"states\":"), std::string::npos) << json;

  // rv off: the field disappears and clean scenarios still pass.
  CampaignSpec off;
  off.seed = 7;
  off.AddScenarioMatrix({"PinLock"}, {opec_apps::BuildMode::kOpec});
  off.jobs[0].rv = false;
  CampaignResult off_result = Executor::Run(off, options);
  EXPECT_EQ(off_result.results[0].outcome, Outcome::kOk);
  EXPECT_EQ(off_result.DeterministicJson().find("\"rv\""), std::string::npos);
}

// The rv summary is modeled data: reports stay bit-identical across thread
// counts and boot modes with the monitors attached.
TEST(CampaignTest, RvReportsAreDeterministicAcrossThreadsAndBootModes) {
  CampaignSpec spec;
  spec.seed = 21;
  spec.AddScenarioMatrix(
      {"PinLock", "Animation"},
      {opec_apps::BuildMode::kVanilla, opec_apps::BuildMode::kOpec});
  spec.AddFaultSweep({"PinLock"}, 6);

  Executor::Options serial;
  serial.jobs = 1;
  CampaignResult r1 = Executor::Run(spec, serial);
  Executor::Options parallel;
  parallel.jobs = 4;
  CampaignResult r4 = Executor::Run(spec, parallel);
  Executor::Options cold;
  cold.jobs = 1;
  cold.cold_boot = true;
  CampaignResult rc = Executor::Run(spec, cold);

  EXPECT_EQ(r1.DeterministicJson(), r4.DeterministicJson());
  EXPECT_EQ(r1.DeterministicJson(), rc.DeterministicJson());
  EXPECT_NE(r1.DeterministicJson().find("\"rv\""), std::string::npos);
}

TEST(CampaignTest, TimeoutCancelsRunawayJob) {
  CampaignSpec spec;
  spec.timeout_ms = 1;  // unreachably tight
  JobSpec job;
  job.app = "CoreMark";  // the longest-running workload
  spec.jobs.push_back(job);
  Executor::Options options;
  options.jobs = 1;
  CampaignResult result = Executor::Run(spec, options);
  ASSERT_EQ(result.results.size(), 1u);
  EXPECT_EQ(result.results[0].outcome, Outcome::kTimeout);
  EXPECT_FALSE(result.results[0].ok);
  EXPECT_NE(result.results[0].detail.find("canceled"), std::string::npos)
      << result.results[0].detail;

  // The canceled run went back to the warm pool mid-execution. Without the
  // timeout, the same job warm on this thread (jobs 1) and on a worker
  // thread (jobs 4) must report what a cold boot reports.
  spec.timeout_ms = 0;
  Executor::Options cold;
  cold.cold_boot = true;
  const std::string want = Executor::Run(spec, cold).DeterministicJson();
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    Executor::Options warm;
    warm.jobs = jobs;
    EXPECT_EQ(Executor::Run(spec, warm).DeterministicJson(), want);
  }
}

// Warm-start (restore a pooled run from its boot snapshot) is the executor
// default; it must be an implementation detail, invisible in the report.
TEST(CampaignTest, WarmStartIsBitIdenticalToColdBoot) {
  // Once per engine: the bytecode tier's warm path also carries its lowered
  // module across RestoreBoot, faults injected or not.
  for (opec_apps::EngineKind engine :
       {opec_apps::EngineKind::kInterp, opec_apps::EngineKind::kBytecode}) {
    SCOPED_TRACE(opec_apps::EngineKindName(engine));
    CampaignSpec spec;
    spec.seed = 13;
    spec.AddScenarioMatrix({"PinLock", "Animation"},
                           {opec_apps::BuildMode::kVanilla, opec_apps::BuildMode::kOpec});
    spec.AddFaultSweep({"PinLock", "Animation"}, 8);
    for (JobSpec& job : spec.jobs) {
      job.engine = engine;
    }

    Executor::Options warm;  // cold_boot defaults to false
    warm.jobs = 1;
    CampaignResult warm_result = Executor::Run(spec, warm);

    Executor::Options cold;
    cold.cold_boot = true;
    cold.jobs = 1;
    CampaignResult cold_result = Executor::Run(spec, cold);

    EXPECT_EQ(warm_result.DeterministicJson(), cold_result.DeterministicJson());

    // And warm stays deterministic when the same worker replays many jobs of
    // the same app back to back (the cache-reuse path).
    Executor::Options warm4;
    warm4.jobs = 4;
    CampaignResult warm4_result = Executor::Run(spec, warm4);
    EXPECT_EQ(warm_result.DeterministicJson(), warm4_result.DeterministicJson());
  }
}

// Crash-state forensics: --snapshot-dir dumps a restorable snapshot for every
// diverging job, with the digest folded into the deterministic report. The
// dumps themselves must be byte-identical across thread counts and across
// warm/cold boot.
TEST(CampaignTest, SnapshotDirDumpsAreDeterministicAcrossThreadsAndBootModes) {
  namespace fs = std::filesystem;
  CampaignSpec spec;
  spec.seed = 7;
  spec.AddFaultSweep({"PinLock", "Animation"}, 12);

  auto run = [&spec](int jobs, bool cold, const std::string& dir) {
    fs::create_directories(dir);
    Executor::Options options;
    options.jobs = jobs;
    options.cold_boot = cold;
    options.snapshot_dir = dir;
    return Executor::Run(spec, options);
  };
  auto dir_bytes = [](const std::string& dir) {
    std::map<std::string, std::string> files;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      std::ifstream in(e.path(), std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      files[e.path().filename().string()] = bytes;
    }
    return files;
  };

  std::string base = ::testing::TempDir() + "/opec_snapdir";
  CampaignResult serial = run(1, /*cold=*/false, base + "_serial");
  CampaignResult parallel = run(4, /*cold=*/false, base + "_parallel");
  CampaignResult coldrun = run(1, /*cold=*/true, base + "_cold");

  EXPECT_EQ(serial.DeterministicJson(), parallel.DeterministicJson());
  EXPECT_EQ(serial.DeterministicJson(), coldrun.DeterministicJson());

  auto serial_files = dir_bytes(base + "_serial");
  EXPECT_FALSE(serial_files.empty()) << "fault sweep produced no diverging jobs";
  EXPECT_EQ(serial_files, dir_bytes(base + "_parallel"));
  EXPECT_EQ(serial_files, dir_bytes(base + "_cold"));

  // Every diverging job advertised its snapshot digest in the report, and
  // only diverging jobs did.
  size_t tagged = 0;
  for (const opec_campaign::JobResult& r : serial.results) {
    if (r.snapshot_digest != 0) {
      ++tagged;
      EXPECT_NE(r.outcome, Outcome::kOk);
      EXPECT_NE(r.outcome, Outcome::kNotFired);
    }
  }
  EXPECT_GT(tagged, 0u);
}

// An output directory that cannot be created fails the whole campaign up
// front with std::runtime_error (the CLI's exit 2), not an OPEC_CHECK abort
// when the first diverging job tries to dump state.
TEST(CampaignTest, SnapshotDirUnwritableThrowsRuntimeError) {
  std::string file = ::testing::TempDir() + "/opec_snapdir_blocker";
  {
    std::ofstream f(file);
    f << "x";
  }
  CampaignSpec spec;
  spec.seed = 3;
  spec.AddFaultSweep({"PinLock"}, 1);
  Executor::Options options;
  options.jobs = 1;
  options.snapshot_dir = file + "/snaps";
  EXPECT_THROW(Executor::Run(spec, options), std::runtime_error);
}

TEST(CampaignSpecTest, ParseTextBuildsJobsAndReportsErrors) {
  CampaignSpec spec;
  std::string err = spec.ParseText("seed 9\n"
                                   "timeout-ms 5000\n"
                                   "# comment line\n"
                                   "scenario PinLock both\n"
                                   "fault Animation 3 stack-bit-flip\n",
                                   "inline");
  EXPECT_EQ(err, "");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.timeout_ms, 5000u);
  ASSERT_EQ(spec.jobs.size(), 5u);
  EXPECT_EQ(spec.jobs[0].kind, JobKind::kScenario);
  EXPECT_EQ(spec.jobs[4].kind, JobKind::kFault);
  EXPECT_EQ(spec.jobs[4].fault, FaultClass::kStackBitFlip);

  CampaignSpec bad;
  EXPECT_NE(bad.ParseText("scenario NoSuchApp opec\n", "inline"), "");
  EXPECT_NE(bad.ParseText("fault PinLock 3 no-such-class\n", "inline"), "");
  EXPECT_NE(bad.ParseText("frobnicate 1\n", "inline"), "");

  // Numbers parse as strictly as flags: the whole token, decimal, no sign,
  // and a fault count in [1, 1000000] like --fault-sweep. Extra tokens are
  // errors. Every error names its origin and line.
  for (const char* text : {"seed 12abc\n", "seed -1\n", "seed\n", "seed 1 2\n",
                           "timeout-ms +5\n", "timeout-ms 18446744073709551616\n",
                           "fault PinLock -1\n", "fault PinLock 0\n",
                           "fault PinLock 1000001\n", "fault PinLock 0x10\n",
                           "fault PinLock\n", "fault PinLock 3 any extra\n",
                           "scenario PinLock opec extra\n"}) {
    CampaignSpec strict;
    std::string error = strict.ParseText(std::string("# header\n") + text, "spec.txt");
    EXPECT_EQ(error.rfind("spec.txt:2: ", 0), 0u) << text << " -> '" << error << "'";
    EXPECT_TRUE(strict.jobs.empty()) << text;
  }
  CampaignSpec edge;
  EXPECT_EQ(edge.ParseText("seed 18446744073709551615\nfault PinLock 2 svc-arg\n", "x"), "");
  EXPECT_EQ(edge.seed, 18446744073709551615u);
  EXPECT_EQ(edge.jobs.size(), 2u);
}

}  // namespace
