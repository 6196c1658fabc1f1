// Figure 16: average commit runtime per 100 committed leader rounds with
// K' = 300, on 8 replicas. Demonstrates that the system does not stall
// across non-blocking reconfigurations: per-round runtime stays flat.
// `--workload <name>` sweeps any registered workload.
//
// Flags:
//   --quick                  shorter virtual durations
//   --workload <name>        registered workload                [smallbank]
//   --params <k=v,...>       WorkloadOptions overrides
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
  const SimTime duration = flags.Has("quick") ? Seconds(8) : Seconds(30);
  const std::string json = flags.Value("json");
  bench::ClusterFlags cf = bench::ParseClusterFlags(
      flags, bench::kWorkloadFlags | bench::kPlacementFlags,
      /*workload_seed=*/66);
  flags.RejectUnread();
  bench::Banner(
      "Figure 16", "per-100-round commit runtime across reconfigurations",
      "runtime per round stays in a tight band (paper: 0.07-0.1 s) with no "
      "stall at reconfiguration boundaries (K'=300)");
  std::printf("workload: %s  placement: %s  store: %s\n",
              cf.workload.c_str(), cf.config.placement.c_str(),
              cf.config.store.c_str());

  core::ThunderboltConfig cfg = cf.config;
  cfg.n = 8;
  cfg.batch_size = 500;
  cfg.reconfig_period_k_prime = 300;
  cfg.seed = 65;
  core::Cluster cluster(cfg, cf.workload, cf.options);
  core::ClusterResult r = cluster.Run(duration);
  cf.artifacts.Capture(cluster.obs());

  bench::Table table({"commits", "avg-round-time(s)"});
  const auto& times = r.commit_times;
  const size_t window = 100;
  for (size_t start = 0; start + window <= times.size(); start += window) {
    double span = ToSeconds(times[start + window - 1].second) -
                  ToSeconds(times[start].second);
    table.Row({bench::FmtInt(start + window),
               bench::Fmt(span / static_cast<double>(window - 1), 4)});
  }
  if (times.size() < window) {
    std::printf("(fewer than %zu commits: %zu; run longer without --quick)\n",
                window, times.size());
  }
  std::printf("\nReconfigurations during the run: %llu\n",
              static_cast<unsigned long long>(r.reconfigurations));
  return bench::WriteTablesJsonIfRequested(json, "fig16") |
         cf.artifacts.WriteIfRequested();
}
