// Figure 13: system scalability — Thunderbolt vs Thunderbolt-OCC vs Tusk
// on 8..64 replicas, LAN and WAN, batch 500, 16 executors + 16 validators
// per replica. Defaults to the paper's SmallBank setup (Pr = 0.5, 1000
// accounts, theta = 0.85); `--workload ycsb|tpcc_lite` (plus optional
// `--params k=v,...`) re-runs the sweep on any registered workload, so
// scalability is measured as workload x engine x cluster-size.
//
// Also prints the paper's headline: Thunderbolt's speedup over serial
// Tusk execution at the largest scale (paper: ~50x at 64 replicas).
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

namespace thunderbolt {
namespace {

struct RunOut {
  double tps = 0;
  double latency_s = 0;
};

RunOut RunOne(core::ExecutionMode mode, uint32_t n, bool wan,
              bench::ClusterFlags* cf, SimTime warmup, SimTime duration) {
  core::ThunderboltConfig cfg = cf->config;
  cfg.n = n;
  cfg.mode = mode;
  cfg.batch_size = 500;
  cfg.num_executors = 16;
  cfg.num_validators = 16;
  cfg.latency = wan ? net::LatencyModel::Wan() : net::LatencyModel::Lan();
  cfg.seed = 77;

  core::Cluster cluster(cfg, cf->workload, cf->options);
  cluster.Run(warmup);  // Excluded: pipeline fill / first commits.
  core::ClusterResult r = cluster.Run(duration);
  cf->artifacts.Capture(cluster.obs());
  return RunOut{r.throughput_tps, r.avg_latency_s};
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  bench::Flags flags(argc, argv);
  const bool quick = flags.Has("quick");
  const std::string json = flags.Value("json");
  bench::ClusterFlags cf = bench::ParseClusterFlags(
      flags, bench::kWorkloadFlags | bench::kPlacementFlags,
      /*workload_seed=*/78);
  flags.RejectUnread();
  bench::Banner(
      "Figure 13", "throughput & latency vs replica count (LAN and WAN)",
      "Thunderbolt scales with replicas and beats Tusk by ~50x at 64 "
      "replicas; Thunderbolt-OCC tracks Thunderbolt but lags at scale; "
      "Tusk throughput stays flat (~11K tps) with latency growing to "
      "~100 s; WAN shows the same ordering with higher latencies");
  std::printf("workload: %s  placement: %s  store: %s\n",
              cf.workload.c_str(), cf.config.placement.c_str(),
              cf.config.store.c_str());

  const core::ExecutionMode modes[] = {core::ExecutionMode::kThunderbolt,
                                       core::ExecutionMode::kThunderboltOcc,
                                       core::ExecutionMode::kTusk};
  const char* mode_names[] = {"Thunderbolt", "Thunderbolt-OCC", "Tusk"};

  double tb64 = 0, tusk64 = 0;
  for (bool wan : {false, true}) {
    std::printf("\n--- %s ---\n", wan ? "WAN" : "LAN");
    bench::Table table(
        {"system", "replicas", "tput(tps)", "latency(s)"});
    for (int mi = 0; mi < 3; ++mi) {
      for (uint32_t n : {8u, 16u, 32u, 64u}) {
        // Large simulations are costly in real time; shrink the virtual
        // measurement window with scale (steady state is reached after
        // the warm-up window, which is excluded from the measurement).
        SimTime warmup = wan ? Seconds(2) : Seconds(1);
        SimTime duration = quick ? Seconds(n >= 64 ? 2 : 3)
                                 : Seconds(n >= 32 ? 3 : 5);
        RunOut out = RunOne(modes[mi], n, wan, &cf, warmup, duration);
        table.Row({mode_names[mi], bench::FmtInt(n), bench::Fmt(out.tps, 0),
                   bench::Fmt(out.latency_s, 2)});
        if (!wan && n == 64) {
          if (mi == 0) tb64 = out.tps;
          if (mi == 2) tusk64 = out.tps;
        }
      }
    }
  }
  if (tusk64 > 0) {
    std::printf(
        "\nHeadline: Thunderbolt over serial Tusk at 64 replicas (LAN): "
        "%.1fx (paper: ~50x)\n",
        tb64 / tusk64);
  }
  return bench::WriteTablesJsonIfRequested(json, "fig13") |
         cf.artifacts.WriteIfRequested();
}
