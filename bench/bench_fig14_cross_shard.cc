// Figure 14: throughput & latency vs fraction of cross-shard transactions
// (P%) on 16 replicas, for Thunderbolt, Thunderbolt-OCC and Tusk.
// `--workload ycsb|tpcc_lite` re-runs the sweep on any registered workload
// (each honors cross_shard_ratio through its own cross-shard generator).
// `--placement locality|directory|range` swaps the account -> shard
// policy: the crossfrac column (committed cross-shard fraction) is the
// direct read-out of how much cross-shard traffic a policy avoids at the
// same requested cross_shard_ratio.
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

namespace thunderbolt {
namespace {

void RunSweep(core::ExecutionMode mode, const char* name,
              bench::ClusterFlags* cf, SimTime duration, bench::Table& table) {
  for (double pct : {0.0, 0.04, 0.08, 0.20, 0.60, 1.0}) {
    core::ThunderboltConfig cfg = cf->config;
    cfg.n = 16;
    cfg.mode = mode;
    cfg.batch_size = 500;
    cfg.seed = 90;
    workload::WorkloadOptions options = cf->options;
    options.cross_shard_ratio = pct;
    core::Cluster cluster(cfg, cf->workload, options);
    core::ClusterResult r = cluster.Run(duration);
    cf->artifacts.Capture(cluster.obs());
    const uint64_t committed = r.committed_single + r.committed_cross;
    const double cross_frac =
        committed == 0
            ? 0
            : static_cast<double>(r.committed_cross) /
                  static_cast<double>(committed);
    table.Row({name, bench::Fmt(pct * 100, 0), bench::Fmt(r.throughput_tps, 0),
               bench::Fmt(r.avg_latency_s, 2),
               bench::FmtInt(r.committed_single),
               bench::FmtInt(r.committed_cross), bench::Fmt(cross_frac, 3),
               bench::FmtInt(r.conversions), bench::FmtInt(r.skip_blocks)});
  }
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  bench::Flags flags(argc, argv);
  const SimTime duration = flags.Has("quick") ? Seconds(2) : Seconds(5);
  const std::string json = flags.Value("json");
  bench::ClusterFlags cf = bench::ParseClusterFlags(
      flags, bench::kWorkloadFlags | bench::kPlacementFlags,
      /*workload_seed=*/91, {"cross_shard_ratio"});
  flags.RejectUnread();
  bench::Banner(
      "Figure 14", "cross-shard transaction ratio sweep on 16 replicas",
      "both Thunderbolt variants decline as P grows; at P=8% Thunderbolt "
      "sustains ~4x Thunderbolt-OCC; at P=100% Thunderbolt still beats "
      "Tusk (~19K vs ~10K tps in the paper) thanks to SID-parallel OE "
      "execution; Thunderbolt latency roughly half of Thunderbolt-OCC "
      "under high contention");
  std::printf("workload: %s  placement: %s  store: %s\n",
              cf.workload.c_str(), cf.config.placement.c_str(),
              cf.config.store.c_str());
  bench::Table table({"system", "cross%", "tput(tps)", "latency(s)",
                      "single", "cross", "crossfrac", "converted", "skips"});
  RunSweep(core::ExecutionMode::kThunderbolt, "Thunderbolt", &cf, duration,
           table);
  RunSweep(core::ExecutionMode::kThunderboltOcc, "Thunderbolt-OCC", &cf,
           duration, table);
  RunSweep(core::ExecutionMode::kTusk, "Tusk", &cf, duration, table);
  return bench::WriteTablesJsonIfRequested(json, "fig14") |
         cf.artifacts.WriteIfRequested();
}
