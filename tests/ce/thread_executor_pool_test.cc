// ThreadExecutorPool: real-thread execution must uphold the same Run
// contract as the sim pool — every transaction commits exactly once, the
// livelock bounds hold, unsupported engines are refused — and, on batches
// with commutative committed effects, drive the store to the *same* final
// fingerprint as the sim pool (the threaded-vs-sim agreement leg).
#include "ce/thread_executor_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/engine_registration.h"
#include "ce/concurrency_controller.h"
#include "ce/executor_pool.h"
#include "ce/sim_executor_pool.h"
#include "contract/contract.h"
#include "obs/metrics.h"
#include "testutil/stub_engine.h"
#include "testutil/testutil.h"
#include "workload/workload.h"

namespace thunderbolt::ce {
namespace {

using testutil::MakeKvBatch;
using testutil::StubEngine;

class ThreadPoolTest : public ::testing::Test {
 protected:
  ThreadPoolTest() : registry_(contract::Registry::CreateDefault()) {}

  std::vector<txn::Transaction> MakeBatch(size_t n, uint64_t seed,
                                          double read_ratio = 0.5) {
    return testutil::MakeSmallBankBatch(
        &store_, n, testutil::SmallBankTestConfig(100, seed, read_ratio));
  }

  storage::MemKVStore store_;
  std::shared_ptr<contract::Registry> registry_;
};

TEST_F(ThreadPoolTest, EmptyBatch) {
  ConcurrencyController cc(&store_, 0);
  ThreadExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records.size(), 0u);
  EXPECT_EQ(r->duration, 0u);
}

TEST_F(ThreadPoolTest, ZeroExecutorsRejected) {
  ConcurrencyController cc(&store_, 1);
  ThreadExecutorPool pool(0, ExecutionCostModel{});
  auto batch = MakeBatch(1, 21);
  EXPECT_TRUE(pool.Run(cc, *registry_, batch).status().IsInvalidArgument());
}

TEST_F(ThreadPoolTest, FactoryKnowsBothPools) {
  EXPECT_NE(CreateExecutorPool("sim", 2, ExecutionCostModel{}), nullptr);
  auto pool = CreateExecutorPool("thread", 2, ExecutionCostModel{});
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->name(), "thread");
  EXPECT_EQ(pool->num_executors(), 2u);
  EXPECT_EQ(CreateExecutorPool("bogus", 2, ExecutionCostModel{}), nullptr);
  EXPECT_EQ(ExecutorPoolNames(),
            (std::vector<std::string>{"sim", "thread"}));
}

TEST_F(ThreadPoolTest, RefusesUnsupportedEngineWithMultipleWorkers) {
  auto batch = MakeKvBatch(4);
  StubEngine stub(4);
  ThreadExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(stub, *registry_, batch);
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST_F(ThreadPoolTest, SingleWorkerRunsUnsupportedEngine) {
  auto batch = MakeKvBatch(6);
  StubEngine stub(6);
  ThreadExecutorPool pool(1, ExecutionCostModel{});
  auto r = pool.Run(stub, *registry_, batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->order.size(), 6u);
}

TEST_F(ThreadPoolTest, AllTransactionsCommit) {
  auto batch = MakeBatch(200, 22);
  ConcurrencyController cc(&store_, 200);
  ThreadExecutorPool pool(4, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->order.size(), 200u);
  EXPECT_EQ(r->records.size(), 200u);
  std::vector<bool> seen(200, false);
  for (TxnSlot s : r->order) {
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
  }
  EXPECT_GT(r->duration, 0u);
  // One latency sample per transaction, as in the sim pool.
  EXPECT_EQ(r->commit_latency_us.Count(), 200u);
}

TEST_F(ThreadPoolTest, PoolReusableAcrossBatches) {
  ThreadExecutorPool pool(4, ExecutionCostModel{});
  for (uint64_t seed : {23u, 24u, 25u}) {
    storage::MemKVStore store = store_.Clone();
    auto batch = MakeBatch(100, seed);
    ConcurrencyController cc(&store, 100);
    auto r = pool.Run(cc, *registry_, batch);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->order.size(), 100u);
  }
}

TEST_F(ThreadPoolTest, HighContentionStillCommitsEverything) {
  // Update-only on 4 hot accounts: maximal write-write conflict pressure.
  auto batch = testutil::MakeSmallBankBatch(
      &store_, 120,
      testutil::SmallBankTestConfig(/*num_accounts=*/4, /*seed=*/26,
                                    /*read_ratio=*/0.0, /*theta=*/0.9));
  ConcurrencyController cc(&store_, 120);
  ThreadExecutorPool pool(8, ExecutionCostModel{});
  auto r = pool.Run(cc, *registry_, batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->order.size(), 120u);
}

TEST_F(ThreadPoolTest, PerSlotLivelockBoundTripsBeforeGlobalCap) {
  const uint32_t n = 4;
  auto batch = MakeKvBatch(n);
  StubEngine stub(n, /*always_abort=*/{0});
  // Negligible backoff so the bounded restart storm stays fast.
  ExecutionCostModel costs;
  costs.restart_cost = Micros(1);
  costs.restart_backoff_cap = 0;
  ThreadExecutorPool pool(1, costs);
  obs::MetricsRegistry metrics;
  pool.SetObs(PoolObsContext{obs::NullTracerInstance(), &metrics, 0});
  auto r = pool.Run(stub, *registry_, batch);
  ASSERT_EQ(r.status().code(), StatusCode::kInternal)
      << r.status().ToString();
  // The per-transaction bound (64 * n) must fire long before the global
  // backstop (1000 * n) would.
  EXPECT_GT(stub.total_aborts(), kMaxRestartsPerTxn * n);
  EXPECT_LT(stub.total_aborts(), kMaxRestartFactor * n / 2);
  // The failed batch still publishes why it failed.
  const obs::Counter* bound =
      metrics.FindCounter("pool.thread.restart_reason.restart_bound");
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(bound->value(), 1u);
}

TEST_F(ThreadPoolTest, DetachesAbortCallback) {
  ExecutionCostModel costs;
  costs.restart_cost = Micros(1);
  costs.restart_backoff_cap = 0;
  ThreadExecutorPool pool(1, costs);
  StubEngine ok(4);
  ASSERT_TRUE(pool.Run(ok, *registry_, MakeKvBatch(4)).ok());
  EXPECT_FALSE(ok.has_abort_callback());

  StubEngine livelocked(4, /*always_abort=*/{0});
  ASSERT_FALSE(pool.Run(livelocked, *registry_, MakeKvBatch(4)).ok());
  EXPECT_FALSE(livelocked.has_abort_callback());
}

// --- threaded-vs-sim agreement -------------------------------------------
// Mirrors workload/cross_engine_agreement_test.cc: batches with commutative
// committed effects admit exactly one final state per seed, so the thread
// pool must land on the sim pool's fingerprint for every engine.

constexpr uint32_t kAgreementBatch = 150;
constexpr uint32_t kAgreementBatches = 2;

workload::WorkloadOptions AgreementOptions(const std::string& workload_name,
                                           uint64_t seed) {
  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_records = 300;
  options.theta = 0.85;
  if (workload_name == "ycsb") {
    options.read_ratio = 0.5;   // Reads + commuting RMW increments,
    options.update_ratio = 0.0; // no blind last-writer-wins updates.
  }
  return options;
}

uint64_t RunWithPool(const std::string& workload_name,
                     const std::string& engine_name,
                     const std::string& pool_name, uint32_t executors,
                     uint64_t seed) {
  auto w = workload::WorkloadRegistry::Global().Create(
      workload_name, AgreementOptions(workload_name, seed));
  EXPECT_NE(w, nullptr);
  storage::MemKVStore store;
  w->InitStore(&store);
  auto registry = contract::Registry::CreateDefault();
  auto pool = CreateExecutorPool(pool_name, executors, ExecutionCostModel{});
  EXPECT_NE(pool, nullptr);
  for (uint32_t b = 0; b < kAgreementBatches; ++b) {
    auto batch = w->MakeBatch(kAgreementBatch);
    std::unique_ptr<BatchEngine> engine =
        baselines::RegisterBaselineEngines().Create(engine_name, &store,
                                                    kAgreementBatch);
    EXPECT_NE(engine, nullptr) << engine_name;
    if (engine == nullptr) return 0;
    auto r = pool->Run(*engine, *registry, batch);
    EXPECT_TRUE(r.ok()) << engine_name << "/" << pool_name << ": "
                        << r.status().ToString();
    if (!r.ok()) return 0;
    EXPECT_TRUE(store.Write(r->final_writes).ok());
  }
  Status invariant = w->CheckInvariant(store);
  EXPECT_TRUE(invariant.ok())
      << workload_name << " under " << engine_name << "/" << pool_name
      << ": " << invariant.ToString();
  return store.ContentFingerprint();
}

TEST(ThreadVsSimAgreementTest, IdenticalFingerprintsPerSeed) {
  for (const char* workload_name : {"smallbank", "ycsb"}) {
    for (const char* engine_name : {"ce", "occ", "2pl"}) {
      for (uint64_t seed : {31u, 32u}) {
        const uint64_t sim_fp =
            RunWithPool(workload_name, engine_name, "sim", 8, seed);
        const uint64_t thread_fp =
            RunWithPool(workload_name, engine_name, "thread", 4, seed);
        EXPECT_EQ(thread_fp, sim_fp)
            << workload_name << "/" << engine_name
            << " diverged from sim at seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace thunderbolt::ce
