// Ablation: rule-P4 immediate conversion vs section-5.4 Skip-block
// deferral for conflicting single-shard transactions (DESIGN.md section
// 2.3). 8 replicas, varying cross-shard pressure; SmallBank by default,
// `--workload <name>` for any registered workload.
//
// Expectation: conversion keeps the pipeline busy (conflicting work moves
// to the OE path immediately); deferral preserves more preplay (higher
// single-shard share) at the cost of Skip rounds and added latency for the
// deferred transactions. Both are safe (no invalid blocks).
//
// Flags:
//   --quick                  shorter virtual durations
//   --workload <name>        registered workload                [smallbank]
//   --params <k=v,...>       WorkloadOptions overrides (not
//                            cross_shard_ratio, which the sweep owns)
//   --placement <name>       placement policy                   [hash]
//   --placement-params <k=v,...>  policy parameters             []
//   --store <spec>           storage backend                    [mem]
//   --json <path>            dump the tables as JSON
//   --trace-out, --metrics-out, --timeseries-out <path>  artifacts of the
//                            LAST cluster run                   [disabled]
//   --trace-capacity <n>     trace ring size in events          [65536]
//   --timeseries-window <us> time-series window width           [100000]
#include "bench/bench_util.h"
#include "core/cluster.h"

int main(int argc, char** argv) {
  using namespace thunderbolt;
  bench::Flags flags(argc, argv);
  const SimTime duration = flags.Has("quick") ? Seconds(2) : Seconds(4);
  const std::string json = flags.Value("json");
  bench::ClusterFlags cf = bench::ParseClusterFlags(
      flags, bench::kWorkloadFlags | bench::kPlacementFlags,
      /*workload_seed=*/312, {"cross_shard_ratio"});
  flags.RejectUnread();
  bench::Banner(
      "Ablation", "P4 immediate conversion vs 5.4 Skip-block deferral",
      "conversion mode sustains throughput via the OE path; skip mode "
      "preserves a higher preplayed share but emits Skip blocks and "
      "defers conflicting work");
  std::printf("workload: %s  placement: %s  store: %s\n",
              cf.workload.c_str(), cf.config.placement.c_str(),
              cf.config.store.c_str());
  bench::Table table({"mode", "cross%", "tput(tps)", "latency(s)",
                      "single", "cross", "converted", "skips"});
  for (bool use_skip : {false, true}) {
    for (double pct : {0.04, 0.2, 0.6}) {
      core::ThunderboltConfig cfg = cf.config;
      cfg.n = 8;
      cfg.batch_size = 500;
      cfg.use_skip_blocks = use_skip;
      cfg.seed = 311;
      workload::WorkloadOptions options = cf.options;
      options.cross_shard_ratio = pct;
      core::Cluster cluster(cfg, cf.workload, options);
      core::ClusterResult r = cluster.Run(duration);
      cf.artifacts.Capture(cluster.obs());
      table.Row({use_skip ? "skip-5.4" : "convert-P4",
                 bench::Fmt(pct * 100, 0), bench::Fmt(r.throughput_tps, 0),
                 bench::Fmt(r.avg_latency_s, 2),
                 bench::FmtInt(r.committed_single),
                 bench::FmtInt(r.committed_cross),
                 bench::FmtInt(r.conversions), bench::FmtInt(r.skip_blocks)});
    }
  }
  return bench::WriteTablesJsonIfRequested(json, "ablation_skip") |
         cf.artifacts.WriteIfRequested();
}
