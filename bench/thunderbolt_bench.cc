// thunderbolt_bench: the unified workload x engine benchmark driver.
//
// Runs any workload registered in workload::WorkloadRegistry against any
// execution engine (serial, OCC, 2PL-No-Wait, Thunderbolt CE) over a
// batch-size x skew sweep, prints the usual table, and always writes the
// full series as machine-readable JSON — the BENCH_*.json perf trajectory.
//
//   thunderbolt_bench                          # full sweep, all x all
//   thunderbolt_bench --workload ycsb --engine ce --theta 0.5,0.9
//   thunderbolt_bench --smoke --json out.json  # tiny CI sweep
//
// Flags:
//   --workload <names|all>   comma list of registry names    [all]
//   --engine <names|all>     serial,occ,2pl,ce               [all]
//   --batch <sizes>          comma list of batch sizes  [100,300; smoke 64]
//   --theta <values>         comma list of Zipfian skews     [0.85]
//   --executors <n>          simulated executors             [8]
//   --pool <names>           executor pools: sim,thread      [sim]
//   --threads <counts>       comma list of pool widths; overrides
//                            --executors as a sweep axis     [--executors]
//   --runs <n>               batches per configuration  [5; smoke 2]
//   --records <n>            population scale           [10000; smoke 200]
//   --shards <n>             shard-homed generation over n shards  [1]
//   --store <name>           storage backend (see --store-list)    [mem]
//   --placement <name>       placement policy (see --placement-list) [hash]
//   --placement-params <k=v,...>  policy parameters          []
//   --arrival <name>         open-loop arrival process (poisson,burst,
//                            trace); enables the service front end
//   --arrival-params <k=v,...>  arrival process params       []
//   --rate <tps>             open-loop offered load; enables the
//                            service front end               [20000]
//   --admission <policy>     drop-tail, shed-oldest, codel   [drop-tail]
//   --queue-depth <n>        per-shard admission queue bound [1024]
//   --limiter-rate <tps>     token-bucket rate; <= 0 is off  [0]
//   --limiter-burst <tokens> token-bucket size; <= 0 derives one  [0]
//   --codel-target-us <us>   codel sojourn target            [50000]
//   --params <k=v,...>       extra WorkloadOptions overrides []
//   --json <path>            output path          [thunderbolt_bench.json]
//   --trace-out <path>       write a Chrome trace of the sweep's last cell
//                            (load at ui.perfetto.dev)          [disabled]
//   --metrics-out <path>     write the metrics-registry JSON snapshot
//                            (pool.*, engine abort reasons)     [disabled]
//   --timeseries-out <path>  write windowed counter deltas over the
//                            sweep's accumulated virtual time   [disabled]
//   --timeseries-window <us> time-series window width           [100000]
//   --trace-capacity <n>     trace ring size in events          [65536]
//   --smoke                  shrink everything for CI
//   --list                   print registered workloads and exit
//   --engine-list            print registered engines and exit
//   --placement-list         print registered placement policies and exit
//   --store-list             print registered storage backends and exit
//
// With --shards > 1 each batch is drawn shard-homed (round-robin over the
// shards) and every cell reports cross_frac: the fraction of generated
// transactions the placement policy classifies as cross-shard. Comparing
// `--placement hash` against `--placement locality` at the same
// cross_shard_ratio makes the policy's traffic reduction visible per run.
//
// With --pool thread the batch engines run on real std::thread workers and
// tps/latency are wall-clock numbers; with the default sim pool they are
// virtual time. The two are not comparable — see EXPERIMENTS.md. The
// "serial" engine always executes inline regardless of --pool.
//
// With --arrival/--rate each cell runs OPEN LOOP: a svc::ServiceFrontEnd
// generates arrivals on the cell's virtual clock, the admission policy
// decides what the queues keep, and the pool executes dequeued batches
// with arrival-stamped submit times — so p50/p99/p999 become end-to-end
// (arrival -> commit). Requires the sim pool (arrivals live on virtual
// time) and a real batch engine (serial has no pipeline to backpressure).
#include <array>
#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include "baselines/engine_registration.h"
#include "baselines/serial_executor.h"
#include "bench/bench_util.h"
#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "common/histogram.h"
#include "contract/contract.h"
#include "workload/workload.h"

namespace thunderbolt {
namespace {

struct DriverConfig {
  std::vector<std::string> workloads;
  std::vector<std::string> engines;
  std::vector<uint32_t> batch_sizes;
  std::vector<double> thetas;
  /// Executor pools to sweep ("sim", "thread").
  std::vector<std::string> pools;
  /// Pool widths to sweep; defaults to {executors}.
  std::vector<uint32_t> threads;
  uint32_t executors = 8;
  uint32_t runs = 5;
  uint64_t records = 10000;
  /// Shard count for shard-homed generation (1 = the global mix).
  uint32_t shards = 1;
  /// placement, store, service and obs from the shared flags.
  core::ThunderboltConfig base;
  bench::ObsArtifacts artifacts;
  /// Raw `--params` overrides, applied after the flag-derived fields.
  std::string params;
  std::string json_path = "thunderbolt_bench.json";
};

struct SweepResult {
  std::string workload;
  std::string engine;
  std::string pool;
  uint32_t threads = 0;
  uint32_t batch_size = 0;
  double theta = 0;
  uint64_t txns = 0;
  uint64_t aborts = 0;
  /// `aborts` by cause, indexed by obs::AbortReason.
  std::array<uint64_t, obs::kNumAbortReasons> abort_reasons{};
  double tps = 0;
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  double p999_latency_us = 0;
  /// Samples behind the percentiles. 0 means an idle cell: the percentile
  /// fields carry no information (JSON emits null, the table prints "-").
  uint64_t latency_samples = 0;
  double re_execs_per_txn = 0;
  /// Fraction of generated transactions classified cross-shard by the
  /// placement policy (0 with --shards 1).
  double cross_frac = 0;
  bool invariant_ok = false;
  /// Per-phase decomposition of the cell's commit latency (queue_wait /
  /// execute / restart_backoff from the pool; empty for the inline
  /// "serial" engine, which has no admission pipeline).
  obs::LatencyBreakdown phases;
  /// Virtual (sim pool) or wall (thread pool) time the cell consumed;
  /// drives the sweep-level time-series clock.
  SimTime total_time = 0;
  /// Open-loop accounting (all 0 in closed-loop cells); see
  /// svc/admission.h for the terminology.
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
};

/// One workload x engine x batch x theta cell: `runs` batches executed
/// back-to-back against one store, then the workload invariant check.
Result<SweepResult> RunCell(const DriverConfig& config,
                            const std::string& workload_name,
                            const std::string& engine_name,
                            const std::string& pool_name, uint32_t threads,
                            uint32_t batch_size, double theta,
                            obs::Observability* obs) {
  workload::WorkloadOptions options;
  options.num_records = config.records;
  options.theta = theta;
  options.num_shards = config.shards;
  // Scale TPC-C-lite tables with --records so --smoke stays small.
  options.num_warehouses =
      static_cast<uint32_t>(config.records >= 2000 ? 2 : 1);
  options.customers_per_district =
      static_cast<uint32_t>(config.records / 100 + 10);
  options.num_items = static_cast<uint32_t>(config.records / 50 + 20);
  THUNDERBOLT_RETURN_NOT_OK(
      workload::ApplyWorkloadParams(config.params, &options));

  auto w = workload::WorkloadRegistry::Global().Create(workload_name, options);
  if (w == nullptr) {
    return Status::NotFound("unknown workload: " + workload_name);
  }
  std::shared_ptr<placement::PlacementPolicy> policy =
      workload::InstallPlacement(w.get(), config.base.placement,
                                 config.base.placement_params, config.shards);
  if (policy == nullptr) {
    return Status::NotFound("unknown placement: " + config.base.placement);
  }
  std::unique_ptr<storage::KVStore> store =
      bench::CreateStore(config.base.store);
  w->InitStore(store.get());
  auto registry = contract::Registry::CreateDefault();
  std::unique_ptr<ce::ExecutorPool> pool =
      ce::CreateExecutorPool(pool_name, threads, ce::ExecutionCostModel{});
  if (pool == nullptr) {
    return Status::NotFound("unknown executor pool: " + pool_name);
  }
  pool->SetObs(ce::PoolObsContext{obs->tracer(), &obs->metrics(), 0});
  const SimTime serial_op_cost = ce::ExecutionCostModel{}.op_cost;

  SweepResult out;
  out.workload = workload_name;
  out.engine = engine_name;
  out.pool = pool_name;
  out.threads = threads;
  out.batch_size = batch_size;
  out.theta = theta;
  SimTime total_time = 0;
  Histogram latency_us;
  uint64_t cross_generated = 0;
  auto add_batch = [&](const ce::BatchExecutionResult& r) {
    out.phases.Merge(r.phases);
    out.aborts += r.total_aborts;
    for (size_t reason = 0; reason < obs::kNumAbortReasons; ++reason) {
      out.abort_reasons[reason] += r.abort_reasons[reason];
    }
    for (double sample : r.commit_latency_us.samples()) {
      latency_us.Add(sample);
    }
  };

  if (config.base.service.enabled) {
    // Open loop: the front end generates arrivals on the cell's virtual
    // clock; the pool executes dequeued batches with arrival-stamped
    // submit times (pool latency = committed - submit_time, i.e. end to
    // end). ParseFlags already rejected "serial" and the thread pool.
    svc::ServiceFrontEnd front_end(
        config.base.service, config.shards, options.seed,
        [&w](ShardId shard) { return w->NextForShard(shard); },
        &obs->metrics());
    const uint64_t target =
        static_cast<uint64_t>(config.runs) * batch_size;
    SimTime clock = 0;
    ShardId next_shard = 0;
    while (out.txns < target) {
      front_end.AdvanceTo(clock);
      std::vector<txn::Transaction> batch;
      batch.reserve(batch_size);
      // Round-robin dequeue across shards, rotating the starting shard so
      // no shard's queue is structurally favored.
      for (uint32_t k = 0; k < config.shards && batch.size() < batch_size;
           ++k) {
        const ShardId shard =
            static_cast<ShardId>((next_shard + k) % config.shards);
        std::vector<txn::Transaction> part =
            front_end.Dequeue(shard, clock, batch_size - batch.size());
        for (txn::Transaction& tx : part) batch.push_back(std::move(tx));
      }
      next_shard = static_cast<ShardId>((next_shard + 1) % config.shards);
      if (batch.empty()) {
        // Idle: fast-forward to the next arrival instead of spinning.
        const SimTime next = front_end.NextArrivalTime();
        if (next == kSimTimeNever) break;  // Trace replay exhausted.
        clock = next;
        continue;
      }
      for (const txn::Transaction& tx : batch) {
        if (!w->mapper().IsSingleShard(tx)) ++cross_generated;
      }
      // Size the engine to the batch actually dequeued: under open loop
      // batches can be partial, and AllCommitted() compares against the
      // constructed capacity.
      auto engine = ce::EngineRegistry::Global().Create(
          engine_name, store.get(), static_cast<uint32_t>(batch.size()));
      if (engine == nullptr) {
        return Status::NotFound("unknown engine: " + engine_name);
      }
      THUNDERBOLT_ASSIGN_OR_RETURN(
          ce::BatchExecutionResult r,
          pool->Run(*engine, *registry, batch, clock));
      THUNDERBOLT_RETURN_NOT_OK(store->Write(r.final_writes));
      clock += r.duration;
      add_batch(r);
      out.txns += batch.size();
    }
    total_time = clock;
    const svc::ServiceFrontEnd::Counters& c = front_end.counters();
    out.offered = c.offered;
    out.admitted = c.admitted;
    out.shed = c.shed;
    out.rejected = c.rejected;
  } else {
    for (uint32_t run = 0; run < config.runs; ++run) {
      std::vector<txn::Transaction> batch;
      if (config.shards > 1) {
        // Shard-homed generation, round-robin over the shards, so the
        // placement policy's single- vs cross-shard split is measurable.
        batch.reserve(batch_size);
        for (uint32_t i = 0; i < batch_size; ++i) {
          batch.push_back(
              w->NextForShard(static_cast<ShardId>(i % config.shards)));
        }
        for (const txn::Transaction& tx : batch) {
          if (!w->mapper().IsSingleShard(tx)) ++cross_generated;
        }
      } else {
        batch = w->MakeBatch(batch_size);
      }
      if (engine_name == "serial") {
        baselines::SerialExecutionResult r = baselines::ExecuteSerial(
            *registry, batch, store.get(), serial_op_cost);
        // Commit latency of txn i = virtual time until its sequential turn
        // completes.
        SimTime clock = 0;
        for (const ce::TxnRecord& record : r.records) {
          clock += serial_op_cost *
                   (record.rw_set.reads.size() + record.rw_set.writes.size());
          latency_us.Add(static_cast<double>(clock));
        }
        total_time += r.duration;
      } else {
        // "serial" above is not a BatchEngine; everything else resolves
        // through the engine registry (baselines registered in main).
        auto engine = ce::EngineRegistry::Global().Create(
            engine_name, store.get(), batch_size);
        if (engine == nullptr) {
          return Status::NotFound("unknown engine: " + engine_name);
        }
        THUNDERBOLT_ASSIGN_OR_RETURN(ce::BatchExecutionResult r,
                                     pool->Run(*engine, *registry, batch));
        THUNDERBOLT_RETURN_NOT_OK(store->Write(r.final_writes));
        total_time += r.duration;
        add_batch(r);
      }
      out.txns += batch_size;
    }
  }
  out.tps = total_time == 0
                ? 0
                : static_cast<double>(out.txns) / ToSeconds(total_time);
  out.p50_latency_us = latency_us.Percentile(50.0);
  out.p99_latency_us = latency_us.Percentile(99.0);
  out.p999_latency_us = latency_us.Percentile(99.9);
  out.latency_samples = latency_us.Count();
  out.re_execs_per_txn =
      out.txns == 0 ? 0
                    : static_cast<double>(out.aborts) /
                          static_cast<double>(out.txns);
  out.cross_frac = out.txns == 0
                       ? 0
                       : static_cast<double>(cross_generated) /
                             static_cast<double>(out.txns);
  out.invariant_ok = w->CheckInvariant(*store).ok();
  out.total_time = total_time;
  return out;
}

bool WriteResultsJson(const std::string& path,
                      const std::vector<SweepResult>& results,
                      const DriverConfig& config) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"bench\": \"thunderbolt_bench\",\n"
               "  \"executors\": %u,\n  \"runs\": %u,\n  \"records\": "
               "%" PRIu64 ",\n  \"shards\": %u,\n  \"placement\": \"%s\",\n"
               "  \"store\": \"%s\",\n  \"results\": [",
               config.executors, config.runs, config.records, config.shards,
               bench::JsonEscape(config.base.placement).c_str(),
               bench::JsonEscape(config.base.store).c_str());
  // Percentiles over zero samples are meaningless, not zero: an idle cell
  // emits null so downstream tooling cannot mistake it for a fast run.
  auto latency_or_null = [](const SweepResult& r, double value) {
    if (r.latency_samples == 0) return std::string("null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", value);
    return std::string(buf);
  };
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(
        f,
        "%s\n    {\"workload\": \"%s\", \"engine\": \"%s\", "
        "\"pool\": \"%s\", \"threads\": %u, "
        "\"batch_size\": %u, \"theta\": %.3f, \"txns\": %" PRIu64
        ", \"tps\": %.1f, \"latency_samples\": %" PRIu64
        ", \"p50_latency_us\": %s, \"p99_latency_us\": "
        "%s, \"p999_latency_us\": %s, \"aborts\": %" PRIu64
        ", \"abort_reasons\": {",
        i == 0 ? "" : ",", bench::JsonEscape(r.workload).c_str(),
        bench::JsonEscape(r.engine).c_str(), bench::JsonEscape(r.pool).c_str(),
        r.threads, r.batch_size, r.theta, r.txns, r.tps, r.latency_samples,
        latency_or_null(r, r.p50_latency_us).c_str(),
        latency_or_null(r, r.p99_latency_us).c_str(),
        latency_or_null(r, r.p999_latency_us).c_str(), r.aborts);
    // kNone (index 0) never reaches the callback; emit the real causes.
    for (size_t reason = 1; reason < obs::kNumAbortReasons; ++reason) {
      std::fprintf(
          f, "%s\"%s\": %" PRIu64, reason == 1 ? "" : ", ",
          obs::AbortReasonName(static_cast<obs::AbortReason>(reason)),
          r.abort_reasons[reason]);
    }
    std::fprintf(
        f,
        "}, \"phase_latency\": %s, \"re_execs_per_txn\": %.4f, "
        "\"cross_frac\": %.4f, \"invariant_ok\": %s",
        r.phases.ToJson().c_str(), r.re_execs_per_txn, r.cross_frac,
        r.invariant_ok ? "true" : "false");
    if (config.base.service.enabled) {
      // Open-loop cells carry the front end's accounting; closed-loop
      // JSON keeps its historical schema.
      std::fprintf(f,
                   ", \"offered\": %" PRIu64 ", \"admitted\": %" PRIu64
                   ", \"shed\": %" PRIu64 ", \"rejected\": %" PRIu64,
                   r.offered, r.admitted, r.shed, r.rejected);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "%s\n  ]\n}\n", results.empty() ? "" : "\n");
  std::fclose(f);
  return true;
}

DriverConfig ParseFlags(bench::Flags& flags) {
  DriverConfig config;
  const bool smoke = flags.Has("smoke");
  std::string workloads = flags.Value("workload");
  if (workloads.empty() || workloads == "all") {
    config.workloads = workload::WorkloadRegistry::Global().Names();
  } else {
    config.workloads = bench::SplitList(workloads);
  }
  std::string engines = flags.Value("engine");
  if (engines.empty() || engines == "all") {
    config.engines = {"serial", "occ", "2pl", "ce"};
  } else {
    config.engines = bench::SplitList(engines);
  }
  for (const std::string& b : bench::SplitList(flags.Value("batch"))) {
    config.batch_sizes.push_back(bench::ParseNumber<uint32_t>("batch", b));
  }
  if (config.batch_sizes.empty()) {
    config.batch_sizes = smoke ? std::vector<uint32_t>{64}
                               : std::vector<uint32_t>{100, 300};
  }
  for (const std::string& t : bench::SplitList(flags.Value("theta"))) {
    const double theta = bench::ParseNumber<double>("theta", t, false);
    if (theta < 0 || theta >= 1) {
      std::fprintf(stderr, "invalid --theta entry \"%s\" (need [0, 1))\n",
                   t.c_str());
      std::exit(2);
    }
    config.thetas.push_back(theta);
  }
  if (config.thetas.empty()) config.thetas = {0.85};
  config.executors = flags.Number("executors", config.executors);
  config.pools = bench::SplitList(flags.Value("pool", "sim"));
  // A typo in a list must not cost the rest of the sweep.
  auto require_all = [](const std::vector<std::string>& names,
                        const char* what,
                        const std::vector<std::string>& registered) {
    for (const std::string& name : names) {
      bench::RequireKnown(std::find(registered.begin(), registered.end(),
                                    name) != registered.end(),
                          what, name, registered);
    }
  };
  std::vector<std::string> engine_names = ce::EngineRegistry::Global().Names();
  engine_names.insert(engine_names.begin(), "serial");
  require_all(config.workloads, "workload",
              workload::WorkloadRegistry::Global().Names());
  require_all(config.engines, "engine", engine_names);
  require_all(config.pools, "executor pool", ce::ExecutorPoolNames());
  for (const std::string& t : bench::SplitList(flags.Value("threads"))) {
    config.threads.push_back(bench::ParseNumber<uint32_t>("threads", t));
  }
  // Smoke shrinks only what the user didn't set explicitly.
  config.runs = flags.Number<uint32_t>("runs", smoke ? 2 : config.runs);
  config.records =
      flags.Number<uint64_t>("records", smoke ? 200 : config.records);
  config.shards = flags.Number("shards", config.shards);
  bench::ClusterFlags shared = bench::ParseClusterFlags(
      flags, bench::kPlacementFlags | bench::kServiceFlags |
                 bench::kOfferedLoadFlags);
  config.base = shared.config;
  config.artifacts = shared.artifacts;
  if (config.base.service.enabled) {
    // Open loop needs the virtual clock (arrivals are sim events) and a
    // pipeline to backpressure: "serial" executes inline with no admission
    // point, and the thread pool runs on wall time. A defaulted "all"
    // engine list just drops serial; an explicit request is an error.
    for (const std::string& pool_name : config.pools) {
      if (pool_name != "sim") {
        std::fprintf(stderr,
                     "--arrival/--rate (open loop) requires --pool sim: "
                     "arrivals are virtual-time events\n");
        std::exit(2);
      }
    }
    const bool serial_explicit = !engines.empty() && engines != "all";
    std::vector<std::string> kept;
    for (const std::string& engine_name : config.engines) {
      if (engine_name != "serial") {
        kept.push_back(engine_name);
        continue;
      }
      if (serial_explicit) {
        std::fprintf(stderr,
                     "--arrival/--rate (open loop) does not support the "
                     "\"serial\" engine: it executes inline with no "
                     "admission pipeline\n");
        std::exit(2);
      }
    }
    config.engines = std::move(kept);
  }
  config.params = flags.Value("params");
  // The driver's own flags/sweep own these axes; a --params override would
  // be clobbered per cell and mislabel the JSON series.
  bench::RejectReservedParams(
      config.params, {"theta", "num_records", "num_accounts", "num_shards"});
  config.json_path = flags.Value("json", config.json_path);
  // --threads defaults to the single --executors width, keeping the
  // historical sweep shape when the axis isn't exercised.
  if (config.threads.empty()) config.threads = {config.executors};
  return config;
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  baselines::RegisterBaselineEngines();
  bench::Flags flags(argc, argv);
  if (flags.Has("list")) {
    for (const std::string& name :
         workload::WorkloadRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (flags.Has("engine-list")) {
    std::printf("serial\n");  // ExecuteSerial path, not a BatchEngine.
    for (const std::string& name : ce::EngineRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (flags.Has("placement-list")) {
    for (const std::string& name :
         placement::PlacementRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (flags.Has("store-list")) {
    for (const std::string& name : storage::StoreRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  DriverConfig config = ParseFlags(flags);
  flags.RejectUnread();
  bench::Banner("thunderbolt_bench", "workload x engine x batch/skew sweep",
                "CE sustains the highest throughput with the fewest "
                "re-executions as batch size and skew grow");
  const svc::ServiceConfig& service = config.base.service;
  if (config.shards > 1 || config.base.store != "mem") {
    std::printf("shards: %u  placement: %s  store: %s\n", config.shards,
                config.base.placement.c_str(), config.base.store.c_str());
  }
  if (service.enabled) {
    std::printf(
        "open loop: arrival=%s rate=%.0f tps admission=%s queue-depth=%u\n",
        service.arrival.c_str(), service.rate_tps, service.admission.c_str(),
        service.queue_depth);
  }
  bench::Table table({"workload", "engine", "pool", "thr", "batch", "theta",
                      "tput(tps)", "p50(us)", "p99(us)", "p999(us)",
                      "re-exec/txn", "crossfrac", "invariant"},
                     "sweep");
  std::vector<SweepResult> results;
  bool all_ok = true;
  // One bundle for the whole sweep; each cell's pool re-records into it,
  // so --trace-out captures the final cell (ring keeps the newest events)
  // and --metrics-out aggregates pool.* across the entire sweep.
  obs::Observability obs(config.base.obs);
  // Sweep-level time-series clock: cells run back to back on one virtual
  // timeline, sampled at each cell boundary (Capture flushes the tail).
  uint64_t sweep_clock_us = 0;
  for (const std::string& workload_name : config.workloads) {
    for (const std::string& engine_name : config.engines) {
      for (const std::string& pool_name : config.pools) {
        for (uint32_t threads : config.threads) {
          for (uint32_t batch_size : config.batch_sizes) {
            for (double theta : config.thetas) {
              auto cell =
                  RunCell(config, workload_name, engine_name, pool_name,
                          threads, batch_size, theta, &obs);
              if (!cell.ok()) {
                std::fprintf(stderr, "%s/%s/%s t%u b%u theta %.2f failed: %s\n",
                             workload_name.c_str(), engine_name.c_str(),
                             pool_name.c_str(), threads, batch_size, theta,
                             cell.status().ToString().c_str());
                all_ok = false;
                continue;
              }
              if (!cell->invariant_ok) all_ok = false;
              sweep_clock_us += cell->total_time;
              obs.SampleWindow(sweep_clock_us);
              results.push_back(*cell);
              table.Row({cell->workload, cell->engine, cell->pool,
                         bench::FmtInt(cell->threads),
                         bench::FmtInt(cell->batch_size),
                         bench::Fmt(cell->theta, 2), bench::Fmt(cell->tps, 0),
                         cell->latency_samples == 0
                             ? "-"
                             : bench::Fmt(cell->p50_latency_us, 1),
                         cell->latency_samples == 0
                             ? "-"
                             : bench::Fmt(cell->p99_latency_us, 1),
                         cell->latency_samples == 0
                             ? "-"
                             : bench::Fmt(cell->p999_latency_us, 1),
                         bench::Fmt(cell->re_execs_per_txn, 3),
                         bench::Fmt(cell->cross_frac, 3),
                         cell->invariant_ok ? "ok" : "VIOLATED"});
            }
          }
        }
      }
    }
  }
  if (!WriteResultsJson(config.json_path, results, config)) {
    std::fprintf(stderr, "failed to write %s\n", config.json_path.c_str());
    return 1;
  }
  std::printf("\n%zu results written to %s\n", results.size(),
              config.json_path.c_str());
  config.artifacts.Capture(obs);
  if (config.artifacts.WriteIfRequested() != 0) return 1;
  return all_ok ? 0 : 1;
}
