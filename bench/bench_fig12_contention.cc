// Figure 12: Concurrent Executor under varying contention.
//
//   (a,b) theta sweep {0.75, 0.8, 0.85, 0.9} at Pr = 0.5
//   (c,d) Pr sweep {1, 0.8, 0.5, 0.1, 0} at theta = 0.85
//
// Engines: Thunderbolt CE, OCC, 2PL-No-Wait; batch sizes 300 and 500;
// 12 executors (the plateau point of Figure 11).
//
// Flags:
//   --quick                  4 batches per cell instead of 20
//   --store <spec>           storage backend                    [mem]
//   --pool <name>            executor pool: sim, thread         [sim]
//   --json <path>            dump the tables as JSON
//   --trace-out, --metrics-out, --timeseries-out <path>  artifacts of the
//                            whole sweep                        [disabled]
//   --trace-capacity <n>     trace ring size in events          [65536]
//   --timeseries-window <us> time-series window width           [100000]
#include <memory>

#include "baselines/occ_engine.h"
#include "baselines/tpl_nowait_engine.h"
#include "bench/bench_util.h"
#include "ce/concurrency_controller.h"
#include "ce/executor_pool.h"
#include "contract/contract.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt {
namespace {

struct Measurement {
  double tps = 0;
  double latency_s = 0;
};

/// Sweep-wide accumulators: the per-phase latency decomposition and the
/// virtual clock the time-series windows ride (cells run back to back on
/// one timeline, sampled at each cell boundary).
struct SweepObs {
  obs::LatencyBreakdown phases;
  uint64_t clock_us = 0;
};

Measurement RunConfig(int kind, uint32_t batch_size, double theta,
                      double read_ratio, uint32_t runs,
                      const core::ThunderboltConfig& base,
                      obs::Observability* obs, SweepObs* sweep) {
  workload::SmallBankConfig wc;
  wc.num_accounts = 10000;
  wc.theta = theta;
  wc.read_ratio = read_ratio;
  wc.seed = 4321;
  workload::SmallBankWorkload w(wc);
  std::unique_ptr<storage::KVStore> store = bench::CreateStore(base.store);
  w.InitStore(store.get());
  auto registry = contract::Registry::CreateDefault();
  // 12 executors: the Figure 11 plateau point.
  std::unique_ptr<ce::ExecutorPool> pool =
      ce::CreateExecutorPool(base.pool, 12, {});
  pool->SetObs(ce::PoolObsContext{obs->tracer(), &obs->metrics(), 0});

  SimTime total_time = 0;
  uint64_t total_txns = 0;
  double latency_sum = 0;
  for (uint32_t run = 0; run < runs; ++run) {
    auto batch = w.MakeBatch(batch_size);
    std::unique_ptr<ce::BatchEngine> engine;
    switch (kind) {
      case 0:
        engine = std::make_unique<ce::ConcurrencyController>(store.get(),
                                                             batch_size);
        break;
      case 1:
        engine =
            std::make_unique<baselines::OccEngine>(store.get(), batch_size);
        break;
      default:
        engine = std::make_unique<baselines::TplNoWaitEngine>(store.get(),
                                                              batch_size);
        break;
    }
    auto r = pool->Run(*engine, *registry, batch);
    if (!r.ok()) continue;
    store->Write(r->final_writes);
    total_time += r->duration;
    total_txns += batch_size;
    latency_sum += r->commit_latency_us.Mean();
    sweep->phases.Merge(r->phases);
  }
  sweep->clock_us += total_time;
  obs->SampleWindow(sweep->clock_us);
  Measurement m;
  m.tps = static_cast<double>(total_txns) / ToSeconds(total_time);
  m.latency_s = (latency_sum / runs) / 1e6;
  return m;
}

const char* kEngineNames[] = {"Thunderbolt", "OCC", "2PL-No-Wait"};

void ThetaSweep(uint32_t runs, const core::ThunderboltConfig& base,
                obs::Observability* obs, SweepObs* sweep) {
  std::printf("\n--- (a,b) theta sweep, Pr = 0.5 ---\n");
  bench::Table table(
      {"engine", "batch", "theta", "tput(tps)", "latency(s)"},
      "theta_sweep");
  for (int kind = 0; kind < 3; ++kind) {
    for (uint32_t batch : {300u, 500u}) {
      for (double theta : {0.75, 0.8, 0.85, 0.9}) {
        Measurement m =
            RunConfig(kind, batch, theta, 0.5, runs, base, obs, sweep);
        table.Row({kEngineNames[kind], bench::FmtInt(batch),
                   bench::Fmt(theta, 2), bench::Fmt(m.tps, 0),
                   bench::Fmt(m.latency_s, 4)});
      }
    }
  }
}

void ReadRatioSweep(uint32_t runs, const core::ThunderboltConfig& base,
                    obs::Observability* obs, SweepObs* sweep) {
  std::printf("\n--- (c,d) Pr sweep, theta = 0.85 ---\n");
  bench::Table table({"engine", "batch", "Pr", "tput(tps)", "latency(s)"},
                     "read_ratio_sweep");
  for (int kind = 0; kind < 3; ++kind) {
    for (uint32_t batch : {300u, 500u}) {
      for (double pr : {1.0, 0.8, 0.5, 0.1, 0.0}) {
        Measurement m =
            RunConfig(kind, batch, 0.85, pr, runs, base, obs, sweep);
        table.Row({kEngineNames[kind], bench::FmtInt(batch),
                   bench::Fmt(pr, 1), bench::Fmt(m.tps, 0),
                   bench::Fmt(m.latency_s, 4)});
      }
    }
  }
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  bench::Flags flags(argc, argv);
  const uint32_t runs = flags.Has("quick") ? 4 : 20;
  const std::string json = flags.Value("json");
  bench::ClusterFlags cf = bench::ParseClusterFlags(flags, bench::kPoolFlags);
  flags.RejectUnread();
  // One bundle for the whole sweep: batch benches have no Cluster, so the
  // pools record into this standalone bundle directly.
  obs::Observability obs(cf.config.obs);
  bench::Banner(
      "Figure 12", "CE under varying contention (theta) and read ratio (Pr)",
      "comparable Thunderbolt/OCC at theta=0.75; OCC declines sharply by "
      "theta=0.9 while Thunderbolt stays ahead; at Pr=1 all engines "
      "converge (OCC slightly best); lower Pr hurts 2PL most and "
      "Thunderbolt beats OCC on write-heavy mixes");
  if (cf.config.pool != "sim") {
    std::printf("pool: %s (wall-clock timings)\n", cf.config.pool.c_str());
  }
  SweepObs sweep;
  ThetaSweep(runs, cf.config, &obs, &sweep);
  ReadRatioSweep(runs, cf.config, &obs, &sweep);
  bench::PhaseLatencyTable(sweep.phases);
  cf.artifacts.Capture(obs);
  return bench::WriteTablesJsonIfRequested(json, "fig12") |
         cf.artifacts.WriteIfRequested();
}
