#include "ce/sim_executor_pool.h"

#include <gtest/gtest.h>

#include "ce/concurrency_controller.h"
#include "contract/contract.h"
#include "obs/metrics.h"
#include "testutil/stub_engine.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt::ce {
namespace {

class PoolTest : public ::testing::Test {
 protected:
  PoolTest() : registry_(contract::Registry::CreateDefault()) {}

  std::vector<txn::Transaction> MakeBatch(size_t n, uint64_t seed,
                                          double read_ratio = 0.5) {
    return testutil::MakeSmallBankBatch(
        &store_, n, testutil::SmallBankTestConfig(100, seed, read_ratio));
  }

  storage::MemKVStore store_;
  std::shared_ptr<contract::Registry> registry_;
};

TEST_F(PoolTest, EmptyBatch) {
  ConcurrencyController cc(&store_, 0);
  SimExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records.size(), 0u);
  EXPECT_EQ(r->duration, 0u);
}

TEST_F(PoolTest, ZeroExecutorsRejected) {
  ConcurrencyController cc(&store_, 1);
  SimExecutorPool pool(0, ExecutionCostModel{});
  auto batch = MakeBatch(1, 11);
  EXPECT_TRUE(pool.Run(cc, *registry_, batch).status().IsInvalidArgument());
}

TEST_F(PoolTest, AllTransactionsCommit) {
  auto batch = MakeBatch(200, 12);
  ConcurrencyController cc(&store_, 200);
  SimExecutorPool pool(8, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->order.size(), 200u);
  EXPECT_EQ(r->records.size(), 200u);
  // Every slot appears exactly once in the order.
  std::vector<bool> seen(200, false);
  for (TxnSlot s : r->order) {
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
  }
  EXPECT_GT(r->duration, 0u);
  EXPECT_EQ(r->commit_latency_us.Count(), 200u);
}

TEST_F(PoolTest, MoreExecutorsShortenMakespan) {
  auto batch = MakeBatch(300, 13, /*read_ratio=*/0.9);  // Low conflict.
  SimTime d1, d8;
  {
    storage::MemKVStore store = store_.Clone();
    ConcurrencyController cc(&store, 300);
    SimExecutorPool pool(1, ExecutionCostModel{});
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok());
    d1 = r->duration;
  }
  {
    storage::MemKVStore store = store_.Clone();
    ConcurrencyController cc(&store, 300);
    SimExecutorPool pool(8, ExecutionCostModel{});
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok());
    d8 = r->duration;
  }
  // 8 executors should be markedly faster on a low-conflict batch.
  EXPECT_LT(d8 * 3, d1);
}

TEST_F(PoolTest, StartTimeOffsetsClock) {
  auto batch = MakeBatch(50, 14);
  ConcurrencyController cc(&store_, 50);
  SimExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch, /*start_time=*/Seconds(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->start_time, Seconds(5));
  EXPECT_GT(r->duration, 0u);
  EXPECT_LT(r->duration, Seconds(1));  // Duration excludes the offset.
}

TEST_F(PoolTest, DeterministicAcrossRuns) {
  auto batch = MakeBatch(250, 15);
  SimTime durations[2];
  uint64_t aborts[2];
  for (int i = 0; i < 2; ++i) {
    storage::MemKVStore store = store_.Clone();
    ConcurrencyController cc(&store, 250);
    SimExecutorPool pool(8, ExecutionCostModel{});
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok());
    durations[i] = r->duration;
    aborts[i] = r->total_aborts;
  }
  EXPECT_EQ(durations[0], durations[1]);
  EXPECT_EQ(aborts[0], aborts[1]);
}

// A stub whose slot 0 aborts at every Finish, forever. A real engine never
// does this, but a buggy one (or a pathological contract) can; the pool's
// per-transaction restart bound must fail the batch at
// kMaxRestartsPerTxn * n consecutive restarts instead of spinning on
// toward the much larger global kMaxRestartFactor * n backstop.
TEST_F(PoolTest, PerSlotLivelockBoundTripsBeforeGlobalCap) {
  const uint32_t n = 4;
  testutil::StubEngine engine(n, /*always_abort=*/{0});
  SimExecutorPool pool(2, ExecutionCostModel{});
  obs::MetricsRegistry metrics;
  pool.SetObs(PoolObsContext{obs::NullTracerInstance(), &metrics, 0});
  auto r = pool.Run(engine, *registry_, testutil::MakeKvBatch(n));
  ASSERT_EQ(r.status().code(), StatusCode::kInternal)
      << r.status().ToString();
  EXPECT_GT(engine.total_aborts(), kMaxRestartsPerTxn * n);
  EXPECT_LT(engine.total_aborts(), kMaxRestartFactor * n / 2);
  const obs::Counter* bound =
      metrics.FindCounter("pool.sim.restart_reason.restart_bound");
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(bound->value(), 1u);
}

TEST_F(PoolTest, DetachesAbortCallback) {
  SimExecutorPool pool(2, ExecutionCostModel{});
  testutil::StubEngine ok(4);
  ASSERT_TRUE(pool.Run(ok, *registry_, testutil::MakeKvBatch(4)).ok());
  EXPECT_FALSE(ok.has_abort_callback());

  testutil::StubEngine livelocked(4, /*always_abort=*/{0});
  ASSERT_FALSE(pool.Run(livelocked, *registry_, testutil::MakeKvBatch(4)).ok());
  EXPECT_FALSE(livelocked.has_abort_callback());
}

TEST_F(PoolTest, ReportsReExecutions) {
  // Update-only on a tiny hot set forces conflicts.
  auto batch = testutil::MakeSmallBankBatch(
      &store_, 100,
      testutil::SmallBankTestConfig(/*num_accounts=*/4, /*seed=*/16,
                                    /*read_ratio=*/0.0, /*theta=*/0.9));
  ConcurrencyController cc(&store_, 100);
  SimExecutorPool pool(8, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->total_aborts, 0u);
}

}  // namespace
}  // namespace thunderbolt::ce
