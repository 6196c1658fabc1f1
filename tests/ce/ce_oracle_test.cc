// Serial-replay oracle for the concurrency controller on the deterministic
// simulated executor pool: smallbank, zipfian ycsb and tpcc_lite over 20
// seeds each plus a skew sweep (testutil::CeOracleSweep). Every batch's
// declared serialization order must replay serially to the same emitted
// values, first reads and final state (testutil/history_checker.h).
#include <gtest/gtest.h>

#include "testutil/history_checker.h"

namespace thunderbolt::ce {
namespace {

class CeOracleSimTest
    : public ::testing::TestWithParam<testutil::CeOracleCell> {};

TEST_P(CeOracleSimTest, HistoryReplaysSerially) {
  testutil::RunCeOracle(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, CeOracleSimTest,
                         ::testing::ValuesIn(testutil::CeOracleSweep("sim",
                                                                     16)),
                         testutil::CeOracleCellName);

}  // namespace
}  // namespace thunderbolt::ce
