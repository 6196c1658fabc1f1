// End-to-end integration tests for the simulated Thunderbolt cluster:
// liveness, state convergence, balance conservation, the Tusk and
// Thunderbolt-OCC modes, cross-shard handling, failures, and non-blocking
// reconfiguration.
#include "core/cluster.h"

#include <gtest/gtest.h>

#include <string>

#include "testutil/testutil.h"

namespace thunderbolt::core {
namespace {

ThunderboltConfig SmallConfig(uint32_t n = 4) {
  ThunderboltConfig cfg;
  cfg.n = n;
  cfg.batch_size = 50;
  cfg.num_executors = 4;
  cfg.num_validators = 4;
  cfg.proposal_prep_cost = Millis(5);
  cfg.leader_timeout = Millis(200);
  cfg.seed = 11;
  return cfg;
}

workload::WorkloadOptions SmallWorkload() {
  return testutil::WorkloadTestOptions(/*num_records=*/400, /*seed=*/12);
}

TEST(ClusterTest, CommitsSingleShardTransactions) {
  Cluster cluster(SmallConfig(), "smallbank", SmallWorkload());
  ClusterResult r = cluster.Run(Seconds(5));
  EXPECT_GT(r.committed_single, 500u);
  EXPECT_EQ(r.invalid_blocks, 0u);
  EXPECT_GT(r.throughput_tps, 100.0);
  EXPECT_GT(r.avg_latency_s, 0.0);
  EXPECT_LT(r.avg_latency_s, 5.0);
}

TEST(ClusterTest, BalancesConserved) {
  // Pr=0.5 mix of GetBalance and SendPayment conserves total balance
  // (SmallBank's CheckInvariant).
  Cluster cluster(SmallConfig(), "smallbank", SmallWorkload());
  cluster.Run(Seconds(5));
  EXPECT_TRUE(cluster.CheckInvariant().ok())
      << cluster.CheckInvariant().ToString();
}

TEST(ClusterTest, CrossShardTransactionsCommit) {
  auto wc = SmallWorkload();
  wc.cross_shard_ratio = 0.2;
  Cluster cluster(SmallConfig(), "smallbank", wc);
  ClusterResult r = cluster.Run(Seconds(5));
  EXPECT_GT(r.committed_cross, 50u);
  EXPECT_GT(r.committed_single, 50u);
  EXPECT_TRUE(cluster.CheckInvariant().ok())
      << cluster.CheckInvariant().ToString();
}

TEST(ClusterTest, AllCrossShard) {
  auto wc = SmallWorkload();
  wc.cross_shard_ratio = 1.0;
  Cluster cluster(SmallConfig(), "smallbank", wc);
  ClusterResult r = cluster.Run(Seconds(5));
  EXPECT_EQ(r.committed_single, 0u);
  EXPECT_GT(r.committed_cross, 200u);
}

TEST(ClusterTest, CrossShardArrivalsThatStopAllCommit) {
  // A finite open-loop schedule of 400 arrivals over the first 100 ms,
  // half of them cross-shard. Once the last one commits, no replica has a
  // pending cross-shard transaction left, and the debug build asserts at
  // every such commit that the P4 account index counts nothing.
  auto cfg = SmallConfig();
  cfg.service.enabled = true;
  cfg.service.arrival = "trace";
  std::string times;
  for (int i = 0; i < 400; ++i) {
    times += (i == 0 ? "" : ";") + std::to_string((i + 1) * 250);
  }
  cfg.service.arrival_params = "times=" + times;
  auto wc = SmallWorkload();
  wc.cross_shard_ratio = 0.5;
  Cluster cluster(cfg, "smallbank", wc);
  ClusterResult r = cluster.Run(Seconds(3));
  EXPECT_EQ(r.offered, 400u);
  EXPECT_EQ(r.admitted, 400u);
  EXPECT_EQ(r.invalid_blocks, 0u);
  EXPECT_GT(r.committed_cross, 100u);
  EXPECT_EQ(r.committed_single + r.committed_cross, 400u);
  EXPECT_TRUE(cluster.CheckInvariant().ok())
      << cluster.CheckInvariant().ToString();
}

TEST(ClusterTest, TuskModeCommitsSerially) {
  auto cfg = SmallConfig();
  cfg.mode = ExecutionMode::kTusk;
  Cluster cluster(cfg, "smallbank", SmallWorkload());
  ClusterResult r = cluster.Run(Seconds(5));
  EXPECT_EQ(r.committed_single, 0u);  // Everything is raw/ordered.
  EXPECT_GT(r.committed_cross, 200u);
  EXPECT_TRUE(cluster.CheckInvariant().ok())
      << cluster.CheckInvariant().ToString();
}

TEST(ClusterTest, ThunderboltOccMode) {
  auto cfg = SmallConfig();
  cfg.mode = ExecutionMode::kThunderboltOcc;
  Cluster cluster(cfg, "smallbank", SmallWorkload());
  ClusterResult r = cluster.Run(Seconds(5));
  EXPECT_GT(r.committed_single, 500u);
  EXPECT_EQ(r.invalid_blocks, 0u);
}

TEST(ClusterTest, SurvivesFCrashedReplicas) {
  auto cfg = SmallConfig(7);  // f = 2.
  Cluster cluster(cfg, "smallbank", SmallWorkload());
  cluster.CrashReplicaAt(5, Millis(500));
  cluster.CrashReplicaAt(6, Millis(500));
  ClusterResult r = cluster.Run(Seconds(6));
  EXPECT_GT(r.committed_single, 300u);
}

TEST(ClusterTest, PeriodicReconfigurationRotatesShards) {
  auto cfg = SmallConfig();
  cfg.reconfig_period_k_prime = 6;
  Cluster cluster(cfg, "smallbank", SmallWorkload());
  ClusterResult r = cluster.Run(Seconds(8));
  EXPECT_GE(r.reconfigurations, 1u);
  EXPECT_GT(r.shift_blocks, 0u);
  // Shard ownership rotated: replica 0 no longer owns shard 0.
  EXPECT_EQ(cluster.node(0).owned_shard(),
            ThunderboltNode::ShardOwnedBy(0, cluster.node(0).epoch(), 4));
  EXPECT_GT(cluster.node(0).epoch(), 0u);
  // The system keeps committing across reconfigurations (non-blocking).
  EXPECT_GT(r.committed_single, 300u);
}

TEST(ClusterTest, SilenceTriggersReconfiguration) {
  auto cfg = SmallConfig();
  cfg.silence_rounds_k = 6;
  Cluster cluster(cfg, "smallbank", SmallWorkload());
  cluster.CrashReplicaAt(3, Millis(300));
  ClusterResult r = cluster.Run(Seconds(8));
  // The silent proposer triggers Shift blocks and a DAG switch.
  EXPECT_GE(r.reconfigurations, 1u);
  EXPECT_GT(r.committed_single, 100u);
}

TEST(ClusterTest, DeterministicGivenSeed) {
  uint64_t fp[2];
  uint64_t committed[2];
  for (int i = 0; i < 2; ++i) {
    Cluster cluster(SmallConfig(), "smallbank", SmallWorkload());
    ClusterResult r = cluster.Run(Seconds(3));
    fp[i] = cluster.canonical_state().ContentFingerprint();
    committed[i] = r.committed_single + r.committed_cross;
  }
  EXPECT_EQ(fp[0], fp[1]);
  EXPECT_EQ(committed[0], committed[1]);
}

TEST(ClusterTest, RepeatedRunWindowsAccumulate) {
  Cluster cluster(SmallConfig(), "smallbank", SmallWorkload());
  ClusterResult r1 = cluster.Run(Seconds(2));
  ClusterResult r2 = cluster.Run(Seconds(2));
  EXPECT_GT(r1.committed_single, 0u);
  EXPECT_GT(r2.committed_single, 0u);
  EXPECT_EQ(cluster.simulator().Now(), Seconds(4));
}

TEST(ClusterTest, LargerClusterScalesThroughput) {
  auto wc = SmallWorkload();
  wc.num_records = 1600;
  Cluster small(SmallConfig(4), "smallbank", wc);
  Cluster large(SmallConfig(8), "smallbank", wc);
  ClusterResult rs = small.Run(Seconds(5));
  ClusterResult rl = large.Run(Seconds(5));
  // More shards -> more parallel preplay -> higher total throughput.
  EXPECT_GT(rl.committed_single, rs.committed_single);
}

}  // namespace
}  // namespace thunderbolt::core
