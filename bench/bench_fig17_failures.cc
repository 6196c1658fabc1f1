// Figure 17: throughput & latency vs cross-shard ratio on 16 replicas when
// f replicas (f = 1 or 2) crash during the run, compared with the failure-
// free Thunderbolt and Tusk. `--workload <name>` sweeps any registered
// workload.
//
// Flags:
//   --quick                  shorter virtual durations
//   --workload <name>        registered workload                [smallbank]
//   --params <k=v,...>       WorkloadOptions overrides (not
//                            cross_shard_ratio, which the sweep owns)
//   --placement <name>       placement policy                   [hash]
//   --placement-params <k=v,...>  policy parameters             []
//   --store <spec>           storage backend                    [mem]
//   --arrival <name>         open-loop arrival process; enables the
//                            service front end                  [poisson]
//   --arrival-params <k=v,...>  arrival process params          []
//   --rate <tps>             offered load; enables the front end [20000]
//   --admission <policy>     drop-tail, shed-oldest, codel      [drop-tail]
//   --queue-depth <n>        per-shard admission queue bound    [1024]
//   --limiter-rate <tps>     token-bucket rate; <= 0 is off     [0]
//   --limiter-burst <tokens> token-bucket size; <= 0 derives one [0]
//   --codel-target-us <us>   codel sojourn target               [50000]
//   --json <path>            dump the tables as JSON
//   --trace-out, --metrics-out, --timeseries-out <path>  artifacts of the
//                            LAST cluster run                   [disabled]
//   --trace-capacity <n>     trace ring size in events          [65536]
//   --timeseries-window <us> time-series window width           [100000]
#include "bench/bench_util.h"
#include "core/cluster.h"

namespace thunderbolt {
namespace {

void RunSweep(core::ExecutionMode mode, const char* name, uint32_t failures,
              bench::ClusterFlags* cf, SimTime duration, bench::Table& table,
              obs::LatencyBreakdown* phases) {
  for (double pct : {0.0, 0.04, 0.08, 0.20, 0.60, 1.0}) {
    core::ThunderboltConfig cfg = cf->config;
    cfg.n = 16;
    cfg.mode = mode;
    cfg.batch_size = 500;
    cfg.seed = 101;
    workload::WorkloadOptions options = cf->options;
    options.cross_shard_ratio = pct;
    core::Cluster cluster(cfg, cf->workload, options);
    // Crash the highest-numbered replicas shortly after startup (the
    // observer, replica 0, must stay alive).
    for (uint32_t i = 0; i < failures; ++i) {
      cluster.CrashReplicaAt(15 - i, Millis(400));
    }
    core::ClusterResult r = cluster.Run(duration);
    phases->Merge(r.phase_latency);
    cf->artifacts.Capture(cluster.obs());
    table.Row({name, bench::FmtInt(failures), bench::Fmt(pct * 100, 0),
               bench::Fmt(r.throughput_tps, 0),
               bench::Fmt(r.avg_latency_s, 2),
               bench::FmtInt(r.reconfigurations)});
  }
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  bench::Flags flags(argc, argv);
  const SimTime duration = flags.Has("quick") ? Seconds(2) : Seconds(5);
  const std::string json = flags.Value("json");
  // --arrival/--rate run the failure sweep open-loop: throughput under
  // crashes is then capped by offered load, and latency is arrival->commit.
  bench::ClusterFlags cf = bench::ParseClusterFlags(
      flags,
      bench::kWorkloadFlags | bench::kPlacementFlags | bench::kServiceFlags |
          bench::kOfferedLoadFlags,
      /*workload_seed=*/102, {"cross_shard_ratio"});
  flags.RejectUnread();
  const svc::ServiceConfig& service = cf.config.service;
  bench::Banner(
      "Figure 17", "replica failures (f = 1, 2) on 16 replicas",
      "Thunderbolt keeps committing with crashed replicas: throughput "
      "drops roughly in proportion to lost shards (paper: 78K/66K tps at "
      "P=0 for f=1/f=2 vs 100K failure-free; 17K/15K at P=100%) while "
      "latency stays stable thanks to DAG leader rotation");
  std::printf("workload: %s  placement: %s  store: %s\n",
              cf.workload.c_str(), cf.config.placement.c_str(),
              cf.config.store.c_str());
  if (service.enabled) {
    std::printf("open loop: arrival=%s rate=%.0f tps admission=%s\n",
                service.arrival.c_str(), service.rate_tps,
                service.admission.c_str());
  }
  bench::Table table({"system", "failed", "cross%", "tput(tps)",
                      "latency(s)", "reconfigs"});
  obs::LatencyBreakdown phases;
  RunSweep(core::ExecutionMode::kThunderbolt, "Thunderbolt", 0, &cf, duration,
           table, &phases);
  RunSweep(core::ExecutionMode::kThunderbolt, "Thunderbolt/1", 1, &cf,
           duration, table, &phases);
  RunSweep(core::ExecutionMode::kThunderbolt, "Thunderbolt/2", 2, &cf,
           duration, table, &phases);
  RunSweep(core::ExecutionMode::kTusk, "Tusk", 0, &cf, duration, table,
           &phases);
  bench::PhaseLatencyTable(phases);
  return bench::WriteTablesJsonIfRequested(json, "fig17") |
         cf.artifacts.WriteIfRequested();
}
