// Serial-replay oracle for the concurrency controller on real worker
// threads: the sweep of ce_oracle_test.cc through ThreadExecutorPool, so
// every seed explores a different real interleaving (and the TSan CI leg,
// `ctest -L thread`, checks the engine's locking while it does).
#include <gtest/gtest.h>

#include "testutil/history_checker.h"

namespace thunderbolt::ce {
namespace {

class CeOracleThreadTest
    : public ::testing::TestWithParam<testutil::CeOracleCell> {};

TEST_P(CeOracleThreadTest, HistoryReplaysSerially) {
  testutil::RunCeOracle(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, CeOracleThreadTest,
                         ::testing::ValuesIn(testutil::CeOracleSweep("thread",
                                                                     4)),
                         testutil::CeOracleCellName);

}  // namespace
}  // namespace thunderbolt::ce
