// Regression tests for the shared helpers in bench/bench_util.h.
//
// NsPerStatement: host_speed used to compute exec_ns / statements unguarded —
// a zero-statement run emitted nan/inf into BENCH_host_speed.json, corrupting
// the deterministic-JSON contract. The guard must emit exactly 0.0.

#include <gtest/gtest.h>

#include <cmath>

#include "bench/bench_util.h"

namespace opec_bench {
namespace {

TEST(NsPerStatement, ZeroStatementsYieldsZeroNotNan) {
  double r = NsPerStatement(123456, 0);
  EXPECT_EQ(r, 0.0);
  EXPECT_FALSE(std::isnan(r));
  EXPECT_FALSE(std::isinf(r));
  // 0/0 was the nan case; n/0 the inf case.
  EXPECT_EQ(NsPerStatement(0, 0), 0.0);
}

TEST(NsPerStatement, NormalDivision) {
  EXPECT_DOUBLE_EQ(NsPerStatement(1000, 250), 4.0);
}

}  // namespace
}  // namespace opec_bench
