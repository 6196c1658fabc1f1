#include "core/cross_shard_executor.h"

#include <gtest/gtest.h>

#include "baselines/serial_executor.h"
#include "contract/contract.h"
#include "contract/smallbank.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt::core {
namespace {

class CrossShardTest : public ::testing::Test {
 protected:
  CrossShardTest()
      : registry_(contract::Registry::CreateDefault()), mapper_(4) {}

  txn::Transaction Send(TxnId id, std::string from, std::string to,
                        storage::Value amount) {
    txn::Transaction tx;
    tx.id = id;
    tx.contract = contract::kSendPayment;
    tx.accounts = {std::move(from), std::move(to)};
    tx.params = {amount};
    return tx;
  }

  std::shared_ptr<contract::Registry> registry_;
  txn::ShardMapper mapper_;
};

// Execute borrows the committed transactions by pointer.
std::vector<const txn::Transaction*> Ptrs(
    const std::vector<txn::Transaction>& txs) {
  std::vector<const txn::Transaction*> out;
  for (const txn::Transaction& tx : txs) out.push_back(&tx);
  return out;
}

TEST_F(CrossShardTest, EmptyBatch) {
  storage::MemKVStore store;
  CrossShardExecutor ex(registry_.get(), Micros(10));
  CrossShardResult r = ex.Execute({}, &store);
  EXPECT_EQ(r.executed, 0u);
  EXPECT_EQ(r.duration, 0u);
}

TEST_F(CrossShardTest, StateMatchesSerialExecution) {
  workload::SmallBankConfig wc = testutil::SmallBankTestConfig(
      /*num_accounts=*/200, /*seed=*/51, /*read_ratio=*/0.0);
  wc.num_shards = 4;
  wc.cross_shard_ratio = 1.0;
  workload::SmallBankWorkload w(wc);
  storage::MemKVStore store, serial_store;
  w.InitStore(&store);
  w.InitStore(&serial_store);

  std::vector<txn::Transaction> txs;
  for (int i = 0; i < 100; ++i) txs.push_back(w.NextForShard(i % 4));

  CrossShardExecutor ex(registry_.get(), Micros(10));
  CrossShardResult r = ex.Execute(Ptrs(txs), &store);
  EXPECT_EQ(r.executed, txs.size());

  baselines::ExecuteSerial(*registry_, txs, &serial_store, Micros(10));
  EXPECT_EQ(store.ContentFingerprint(), serial_store.ContentFingerprint());
}

TEST_F(CrossShardTest, IndependentQueuesRunInParallel) {
  storage::MemKVStore store;
  // Find accounts in 4 distinct shards.
  std::vector<std::string> per_shard(4);
  for (int i = 0; i < 1000; ++i) {
    std::string a = "acct" + std::to_string(i);
    per_shard[mapper_.ShardOfAccount(a)] = a;
  }
  for (auto& a : per_shard) {
    ASSERT_FALSE(a.empty());
    store.Put(txn::CheckingKey(a), 1000);
  }
  // Two independent pairs: (s0 -> s1) and (s2 -> s3).
  std::vector<txn::Transaction> txs{
      Send(1, per_shard[0], per_shard[1], 10),
      Send(2, per_shard[2], per_shard[3], 10),
  };
  CrossShardExecutor ex(registry_.get(), Micros(10));
  CrossShardResult r = ex.Execute(Ptrs(txs), &store);
  EXPECT_EQ(r.distinct_accounts, 4u);
  // Makespan is one transaction's cost (queues drain in parallel), while
  // chained transactions on the same accounts take twice as long.
  CrossShardResult serial_like =
      ex.Execute(Ptrs({Send(3, per_shard[0], per_shard[1], 1),
                       Send(4, per_shard[1], per_shard[0], 1)}),
                 &store);
  EXPECT_EQ(serial_like.distinct_accounts, 2u);
  EXPECT_LT(r.duration, serial_like.duration);
  EXPECT_GT(serial_like.critical_path, r.critical_path);
}

TEST_F(CrossShardTest, SharedAccountsChainInCommitOrder) {
  storage::MemKVStore store;
  std::vector<std::string> per_shard(4);
  for (int i = 0; i < 1000; ++i) {
    std::string a = "acct" + std::to_string(i);
    per_shard[mapper_.ShardOfAccount(a)] = a;
  }
  store.Put(txn::CheckingKey(per_shard[0]), 100);
  store.Put(txn::CheckingKey(per_shard[1]), 0);
  store.Put(txn::CheckingKey(per_shard[2]), 0);
  // Chain: s0 -> s1 (60), then s1 -> s2 (50): the second only succeeds if
  // it observes the first (commit order preserved on shared accounts).
  std::vector<txn::Transaction> txs{
      Send(1, per_shard[0], per_shard[1], 60),
      Send(2, per_shard[1], per_shard[2], 50),
  };
  CrossShardExecutor ex(registry_.get(), Micros(10));
  CrossShardResult r = ex.Execute(Ptrs(txs), &store);
  EXPECT_EQ(r.distinct_accounts, 3u);
  EXPECT_EQ(store.GetOrDefault(txn::CheckingKey(per_shard[1]), -1), 10);
  EXPECT_EQ(store.GetOrDefault(txn::CheckingKey(per_shard[2]), -1), 50);
}

TEST_F(CrossShardTest, WorkerPoolBoundsMakespan) {
  storage::MemKVStore store;
  // 8 fully independent transfers; 2 workers -> makespan ~ total/2.
  std::vector<txn::Transaction> txs;
  for (int i = 0; i < 8; ++i) {
    std::string a = "u" + std::to_string(2 * i);
    std::string b = "u" + std::to_string(2 * i + 1);
    store.Put(txn::CheckingKey(a), 100);
    store.Put(txn::CheckingKey(b), 100);
    txs.push_back(Send(i + 1, a, b, 1));
  }
  CrossShardExecutor two(registry_.get(), Micros(10), 2);
  CrossShardExecutor eight(registry_.get(), Micros(10), 8);
  storage::MemKVStore s1 = store.Clone(), s2 = store.Clone();
  CrossShardResult r2 = two.Execute(Ptrs(txs), &s1);
  CrossShardResult r8 = eight.Execute(Ptrs(txs), &s2);
  EXPECT_EQ(s1.ContentFingerprint(), s2.ContentFingerprint());
  EXPECT_GT(r2.duration, r8.duration);
  EXPECT_EQ(r2.critical_path, r8.critical_path);
}

}  // namespace
}  // namespace thunderbolt::core
