// Property tests for the CC's serializability theorem (paper section 10):
// for randomized high-contention SmallBank batches executed through the
// simulated executor pool, re-executing the batch *serially* in the CC's
// scheduled order must reproduce every transaction's emitted results and
// first reads (Read-Complete) and the exact final state (Write-Complete),
// as checked by testutil::CheckSerialHistory. This sweep varies the
// executor count and batch size on SmallBank; ce_oracle_test covers the
// other workloads.
#include <gtest/gtest.h>

#include "testutil/history_checker.h"
#include "testutil/testutil.h"

namespace thunderbolt::ce {
namespace {

struct PropertyParam {
  uint64_t seed;
  uint64_t accounts;
  double theta;
  double read_ratio;
  uint32_t batch;
  uint32_t executors;
};

class CcSerializabilityTest : public ::testing::TestWithParam<PropertyParam> {
};

TEST_P(CcSerializabilityTest, ScheduledOrderIsSerialOrder) {
  const PropertyParam p = GetParam();
  testutil::CeOracleCell cell;
  cell.workload = "smallbank";
  cell.options =
      testutil::WorkloadTestOptions(p.accounts, p.seed, p.read_ratio, p.theta);
  cell.pool = "sim";
  cell.executors = p.executors;
  cell.batch_size = p.batch;
  cell.batches = 1;
  // Also checks an acyclic graph and SmallBank's balance conservation.
  testutil::RunCeOracle(cell);
}

INSTANTIATE_TEST_SUITE_P(
    ContentionSweep, CcSerializabilityTest,
    ::testing::Values(
        // Low contention, read-heavy.
        PropertyParam{1, 1000, 0.5, 0.8, 200, 4},
        // Paper's default contention.
        PropertyParam{2, 1000, 0.85, 0.5, 300, 8},
        PropertyParam{3, 1000, 0.85, 0.5, 500, 16},
        // Update-only (Pr = 0), high contention.
        PropertyParam{4, 500, 0.85, 0.0, 300, 8},
        // Extreme contention: tiny hot set.
        PropertyParam{5, 20, 0.9, 0.2, 200, 8},
        PropertyParam{6, 10, 0.9, 0.0, 100, 16},
        // Single executor degenerates to serial execution.
        PropertyParam{7, 100, 0.85, 0.5, 200, 1},
        // Many executors vs small batch.
        PropertyParam{8, 50, 0.85, 0.3, 64, 32},
        // More seeds over the default setup.
        PropertyParam{9, 1000, 0.85, 0.5, 400, 12},
        PropertyParam{10, 200, 0.95, 0.5, 300, 8},
        PropertyParam{11, 2000, 0.75, 0.1, 300, 8},
        PropertyParam{12, 30, 0.99, 0.5, 150, 6}));

}  // namespace
}  // namespace thunderbolt::ce
