// Figure 11: Concurrent Executor evaluation vs OCC and 2PL-No-Wait across
// executor counts.
//
//   (a) read-write balanced workload (Pr = 0.5)
//   (b) update-only workload (Pr = 0)
//
// For each engine x batch size (300/500) x executor count {1,4,8,12,16}:
// throughput (tps), mean latency (s), and mean re-executions per txn over
// the SmallBank workload with 10,000 accounts at theta = 0.85 — the
// paper's CE experiment setup (section 11).
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

struct EngineSpec {
  const char* name;
  int kind;  // 0 = Thunderbolt CE, 1 = OCC, 2 = 2PL-No-Wait.
};

struct Measurement {
  double tps = 0;
  double latency_s = 0;
  double re_executions = 0;
};

Measurement RunConfig(int kind, uint32_t executors, uint32_t batch_size,
                      double read_ratio, uint32_t runs,
                      const core::ThunderboltConfig& base,
                      obs::Observability* obs) {
  workload::SmallBankConfig wc;
  wc.num_accounts = 10000;
  wc.theta = 0.85;
  wc.read_ratio = read_ratio;
  wc.seed = 1234;
  workload::SmallBankWorkload w(wc);
  std::unique_ptr<storage::KVStore> store = bench::CreateStore(base.store);
  w.InitStore(store.get());
  auto registry = contract::Registry::CreateDefault();

  std::unique_ptr<ce::ExecutorPool> pool =
      ce::CreateExecutorPool(base.pool, executors, {});
  pool->SetObs(ce::PoolObsContext{obs->tracer(), &obs->metrics(), 0});
  SimTime total_time = 0;
  uint64_t total_txns = 0, total_aborts = 0;
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
    if (!r.ok()) {
      std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
      continue;
    }
    store->Write(r->final_writes);
    total_time += r->duration;
    total_txns += batch_size;
    total_aborts += r->total_aborts;
    latency_sum += r->commit_latency_us.Mean();
  }
  Measurement m;
  m.tps = static_cast<double>(total_txns) / ToSeconds(total_time);
  m.latency_s = (latency_sum / runs) / 1e6;
  m.re_executions =
      static_cast<double>(total_aborts) / static_cast<double>(total_txns);
  return m;
}

void RunWorkload(const char* title, double read_ratio, uint32_t runs,
                 const core::ThunderboltConfig& base,
                 obs::Observability* obs) {
  std::printf("\n--- %s ---\n", title);
  bench::Table table({"engine", "batch", "executors", "tput(tps)",
                      "latency(s)", "re-exec/txn"},
                     title);
  const EngineSpec engines[] = {
      {"Thunderbolt", 0}, {"OCC", 1}, {"2PL-No-Wait", 2}};
  for (const EngineSpec& engine : engines) {
    for (uint32_t batch : {300u, 500u}) {
      for (uint32_t executors : {1u, 4u, 8u, 12u, 16u}) {
        Measurement m = RunConfig(engine.kind, executors, batch,
                                  read_ratio, runs, base, obs);
        table.Row({engine.name, bench::FmtInt(batch),
                   bench::FmtInt(executors), bench::Fmt(m.tps, 0),
                   bench::Fmt(m.latency_s, 4), bench::Fmt(m.re_executions, 3)});
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
      "Figure 11", "CE vs OCC vs 2PL-No-Wait across executor counts",
      "throughput rises then plateaus (~12 executors for Thunderbolt/OCC); "
      "2PL-No-Wait degrades beyond 8 executors; Thunderbolt has the fewest "
      "re-executions (~50% of OCC, ~10% of 2PL at b500)");
  if (cf.config.pool != "sim") {
    std::printf("pool: %s (wall-clock timings)\n", cf.config.pool.c_str());
  }
  RunWorkload("(a) read-write balanced, Pr = 0.5", 0.5, runs, cf.config, &obs);
  RunWorkload("(b) update-only, Pr = 0", 0.0, runs, cf.config, &obs);
  cf.artifacts.Capture(obs);
  return bench::WriteTablesJsonIfRequested(json, "fig11") |
         cf.artifacts.WriteIfRequested();
}
