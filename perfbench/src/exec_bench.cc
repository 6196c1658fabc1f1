// exec_* workloads: the real-thread EOV path, driven batch by batch.
//
//   workload.MakeBatch -> ce engine on ThreadExecutorPool (preplay)
//     -> PreplayedTxn block in serialization order
//     -> core::ValidatePreplay against the committed store   (check)
//     -> ThunderboltPayload::ContentDigest                  (as a replica)
//     -> store.Write(final writes)
//
// Closed loop: the next batch is generated only after the previous one is
// applied. exec_tps times engine construction + Run + engine teardown +
// apply; generation, validation and digest sit outside it and are timed
// separately.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "contract/contract.h"
#include "core/payload.h"
#include "core/validator.h"
#include "layers.h"
#include "report.h"
#include "storage/kv_store.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace ce = thunderbolt::ce;
namespace contract = thunderbolt::contract;
namespace core = thunderbolt::core;
namespace storage = thunderbolt::storage;
namespace txn = thunderbolt::txn;
namespace workload = thunderbolt::workload;

struct ExecSpec {
  std::string workload;
  workload::WorkloadOptions options;
  uint32_t batch_size = 0;
  /// Batches per epoch. Each epoch starts from a fresh store, so state
  /// that grows with committed work (TPC-C orders) and with it peak memory
  /// stay bounded however fast the program runs.
  uint32_t epoch_batches = 0;
};

bool SpecFor(const std::string& name, uint64_t seed, ExecSpec* spec) {
  spec->options.seed = seed;
  if (name == "exec_kv") {
    spec->workload = "ycsb";
    spec->options.num_records = 100000;
    spec->options.distribution = "uniform";
    spec->options.read_ratio = 0.5;
    spec->batch_size = 500;
    spec->epoch_batches = 1000;
    return true;
  }
  if (name == "exec_tpcc") {
    spec->workload = "tpcc_lite";
    spec->options.num_warehouses = 2;
    spec->options.payment_ratio = 0.5;
    spec->batch_size = 200;
    spec->epoch_batches = 200;
    return true;
  }
  return false;
}

// One core is left to the caller thread and the OS, and the pool never
// runs more than three workers, so results stay comparable across larger
// hosts. With every core busy, a worker descheduled while it holds the
// engine's lock stalls the others, and wall times follow host load.
uint32_t PoolWidth() {
  const uint32_t hw = std::max(2u, std::thread::hardware_concurrency());
  return std::min(hw - 1, 3u);
}

constexpr uint32_t kWarmupBatches = 10;
// Batches per throughput window; the speed figures are taken over windows.
constexpr size_t kWindowBatches = 20;

/// One stood-up EOV pipeline: workload, committed store, pool.
struct Pipeline {
  std::unique_ptr<workload::Workload> workload;
  std::unique_ptr<storage::KVStore> store;
  /// Owned by the phase: the workers outlive epochs, so each epoch does not
  /// spawn threads (and with them fresh malloc arenas) again.
  ce::ExecutorPool* pool = nullptr;
  std::shared_ptr<contract::Registry> registry;  // Validation + untraced.
  std::unique_ptr<TimedContracts> timed;         // Traced preplay only.
  std::string engine;
};

struct BatchTiming {
  uint64_t gen_ns = 0;
  uint64_t exec_ns = 0;      // Engine create + Run + teardown + apply.
  uint64_t exec_cpu_ns = 0;  // Process CPU time of the same step.
  uint64_t run_ns = 0;       // ExecutorPool::Run alone.
  uint64_t validate_ns = 0;
  uint64_t validate_ops = 0;
  uint64_t digest_ns = 0;
  uint64_t apply_ns = 0;
  uint64_t loop_ns = 0;  // The whole closed-loop iteration (set by caller).
  uint64_t committed = 0;
  uint64_t aborts = 0;
  OpTotals run_ops;      // Decorator totals inside Run (traced only).
};

/// Runs one closed-loop iteration. Returns false (with `error`) when the
/// batch fails to execute, its block fails validation or the store does
/// not hold the validated writes afterwards.
bool Step(Pipeline& p, const ExecSpec& spec, SpanRecorder* spans,
          uint64_t id, BatchTiming* t, std::string* error) {
  const bool traced = p.timed != nullptr;
  ScopedSpan batch_span(spans, "batch", id);

  std::vector<txn::Transaction> batch;
  {
    ScopedSpan s(spans, "workload.gen", id);
    const uint64_t g0 = NowNs();
    batch = p.workload->MakeBatch(spec.batch_size);
    t->gen_ns = NowNs() - g0;
  }
  if (traced) p.timed->Cover(batch);
  const contract::Registry& preplay_registry =
      traced ? p.timed->registry() : *p.registry;
  const OpTotals ops0 = traced ? SumOps() : OpTotals{};

  const uint64_t c0 = ProcessCpuNs();
  const uint64_t e0 = NowNs();
  std::unique_ptr<ce::BatchEngine> engine;
  {
    ScopedSpan s(spans, "ce.engine.create", id);
    engine = ce::EngineRegistry::Global().Create(
        p.engine, p.store.get(), static_cast<uint32_t>(batch.size()));
  }
  if (engine == nullptr) {
    *error = "unknown engine " + p.engine;
    return false;
  }
  thunderbolt::Result<ce::BatchExecutionResult> r =
      thunderbolt::Status::Internal("not run");
  {
    ScopedSpan s(spans, "ce.pool.run", id);
    const uint64_t r0 = NowNs();
    r = p.pool->Run(*engine, preplay_registry, batch);
    t->run_ns = NowNs() - r0;
  }
  {
    ScopedSpan s(spans, "ce.engine.destroy", id);
    engine.reset();
  }
  const uint64_t e1 = NowNs();
  const uint64_t c1 = ProcessCpuNs();
  if (traced) t->run_ops = SumOps() - ops0;
  if (!r.ok()) {
    *error = "batch " + std::to_string(id) + ": " + r.status().ToString();
    return false;
  }
  const ce::BatchExecutionResult& res = *r;
  if (res.order.size() != batch.size() || res.records.size() != batch.size()) {
    *error = "batch " + std::to_string(id) + ": " +
             std::to_string(res.order.size()) + " of " +
             std::to_string(batch.size()) + " transactions committed";
    return false;
  }
  t->committed = res.order.size();
  t->aborts = res.total_aborts;

  // The block a proposer would broadcast: preplayed txns in serialization
  // order, validated the way every replica validates it.
  core::ThunderboltPayload payload;
  {
    ScopedSpan s(spans, "block.assemble", id);
    payload.preplayed.reserve(res.order.size());
    for (ce::TxnSlot slot : res.order) {
      const ce::TxnRecord& rec = res.records[slot];
      payload.preplayed.push_back(
          core::PreplayedTxn{batch[slot], rec.rw_set, rec.emitted});
    }
  }
  std::map<storage::Key, storage::Value> validated;
  {
    ScopedSpan s(spans, "core.validate", id);
    const uint64_t v0 = NowNs();
    core::ValidationResult vr =
        core::ValidatePreplay(*p.registry, payload.preplayed, *p.store);
    t->validate_ns = NowNs() - v0;
    t->validate_ops = vr.ops;
    if (!vr.valid) {
      *error = "batch " + std::to_string(id) +
               " failed validation: " + vr.failure;
      return false;
    }
    std::map<storage::Key, storage::Value> engine_writes;
    for (const auto& e : vr.writes.entries()) validated[e.key] = e.value;
    for (const auto& e : res.final_writes.entries()) {
      if (e.op != storage::WriteBatch::Op::kPut) {
        *error = "batch " + std::to_string(id) + ": engine emitted a delete";
        return false;
      }
      engine_writes[e.key] = e.value;
    }
    if (validated != engine_writes) {
      *error = "batch " + std::to_string(id) +
               ": validated writes differ from the engine's FinalWrites";
      return false;
    }
  }
  {
    ScopedSpan s(spans, "crypto.digest", id);
    const uint64_t d0 = NowNs();
    (void)payload.ContentDigest();
    t->digest_ns = NowNs() - d0;
  }

  const uint64_t ca0 = ProcessCpuNs();
  const uint64_t a0 = NowNs();
  thunderbolt::Status applied;
  {
    ScopedSpan s(spans, "storage.apply", id);
    applied = p.store->Write(res.final_writes);
  }
  const uint64_t a1 = NowNs();
  const uint64_t ca1 = ProcessCpuNs();
  if (!applied.ok()) {
    *error = "batch " + std::to_string(id) + ": apply " + applied.ToString();
    return false;
  }
  t->apply_ns = a1 - a0;
  t->exec_ns = (e1 - e0) + (a1 - a0);
  t->exec_cpu_ns = (c1 - c0) + (ca1 - ca0);
  // Validation replays against this same store, so a store that drops or
  // corrupts a write would agree with itself there; read every validated
  // write back instead.
  ScopedSpan readback(spans, "check.readback", id);
  for (const auto& [key, value] : validated) {
    const thunderbolt::Result<storage::VersionedValue> got = p.store->Get(key);
    if (!got.ok() || got->value != value) {
      *error = "batch " + std::to_string(id) + ": store lost the write to " +
               key;
      return false;
    }
  }
  return true;
}

/// Stands up a pipeline whose inputs come from `seed` and runs the
/// warm-up batches through it.
bool Setup(const ExecSpec& spec, uint64_t seed, bool traced,
           ce::ExecutorPool* pool, Pipeline* p, uint64_t* batches,
           std::string* error) {
  workload::WorkloadOptions options = spec.options;
  options.seed = seed;
  p->workload =
      workload::WorkloadRegistry::Global().Create(spec.workload, options);
  if (p->workload == nullptr) {
    *error = "unknown workload " + spec.workload;
    return false;
  }
  p->store = storage::StoreRegistry::Global().Create(
      traced ? std::string(kTimedStore) + ":inner=mem" : "mem");
  p->workload->InitStore(p->store.get());
  p->registry = contract::Registry::CreateDefault();
  if (traced) p->timed = std::make_unique<TimedContracts>();
  p->engine = traced ? kTimedEngine : "ce";
  p->pool = pool;
  for (uint32_t i = 0; i < kWarmupBatches; ++i) {
    BatchTiming t;
    ++*batches;
    if (!Step(*p, spec, nullptr, i, &t, error)) return false;
  }
  return true;
}

/// Totals of one measured phase.
struct Phase {
  std::vector<BatchTiming> batches;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;  // One per completed epoch.

  uint64_t Sum(uint64_t BatchTiming::*field) const {
    uint64_t s = 0;
    for (const BatchTiming& b : batches) s += b.*field;
    return s;
  }
};

/// Runs closed-loop epochs for `seconds`: each sets up a fresh pipeline
/// (timed as setup), runs up to epoch_batches batches and checks the
/// workload invariant. Epoch k draws its inputs from (seed, k).
Phase RunPhase(const ExecSpec& spec, bool traced, double seconds,
               SpanRecorder* spans, Outcome* out) {
  Phase ph;
  std::string error;
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t start = NowNs();
  const uint64_t start_cpu = ProcessCpuNs();
  // Pool start-up counts toward the first epoch's setup.
  const std::unique_ptr<ce::ExecutorPool> pool = ce::CreateExecutorPool(
      "thread", PoolWidth(), ce::ExecutionCostModel{});
  uint64_t id = 0;
  for (uint64_t epoch = 0; NowNs() - start < budget_ns; ++epoch) {
    Pipeline p;
    uint64_t warm = 0;
    ResetPeakRss();
    const uint64_t s0 = epoch == 0 ? start_cpu : ProcessCpuNs();
    const bool ok =
        Setup(spec, spec.options.seed + epoch * 0x9E3779B97F4A7C15ull, traced,
              pool.get(), &p, &warm, &error);
    ph.attempted += warm * spec.batch_size;
    if (!ok) {
      out->Fail("setup: " + error);
      ph.failed = ph.attempted;
      return ph;
    }
    ph.setup_s.push_back(static_cast<double>(ProcessCpuNs() - s0) / 1e9);
    for (uint32_t i = 0; i < spec.epoch_batches && NowNs() - start < budget_ns;
         ++i) {
      BatchTiming t;
      ph.attempted += spec.batch_size;
      const uint64_t loop0 = NowNs();
      if (!Step(p, spec, spans, id++, &t, &error)) {
        out->Fail(error);
        ph.failed += spec.batch_size;
        return ph;
      }
      t.loop_ns = NowNs() - loop0;
      ph.batches.push_back(t);
    }
    thunderbolt::Status inv = p.workload->CheckInvariant(*p.store);
    if (!inv.ok()) {
      out->Fail("invariant: " + inv.ToString());
      ph.failed = ph.attempted;
      return ph;
    }
    ph.peak_rss_mb.push_back(PeakRssMb());
  }
  return ph;
}

double PerTxn(uint64_t total, uint64_t txns) {
  return txns == 0 ? 0 : static_cast<double>(total) / static_cast<double>(txns);
}

/// `enforce` fails the run when the sample counts are too small for the
/// reported medians and percentiles (the untraced run, whose JSON carries
/// them).
void ReportEndToEnd(const Phase& ph, bool enforce, Outcome* out) {
  std::vector<double> batch_ms;
  std::vector<double> window_tps;
  std::vector<double> window_cpu_us;
  std::vector<double> window_loop_us;
  for (size_t w = 0; w + kWindowBatches <= ph.batches.size();
       w += kWindowBatches) {
    uint64_t txns = 0, exec_ns = 0, loop_ns = 0, cpu_ns = 0;
    for (size_t i = w; i < w + kWindowBatches; ++i) {
      txns += ph.batches[i].committed;
      exec_ns += ph.batches[i].exec_ns;
      loop_ns += ph.batches[i].loop_ns;
      cpu_ns += ph.batches[i].exec_cpu_ns;
    }
    window_tps.push_back(static_cast<double>(txns) * 1e9 /
                         static_cast<double>(exec_ns));
    window_cpu_us.push_back(static_cast<double>(cpu_ns) / 1e3 /
                            static_cast<double>(txns));
    window_loop_us.push_back(static_cast<double>(loop_ns) / 1e3 /
                             static_cast<double>(txns));
  }
  for (const BatchTiming& b : ph.batches) {
    batch_ms.push_back(static_cast<double>(b.exec_ns) / 1e6);
  }
  const std::string windows =
      std::to_string(window_tps.size()) + " windows of " +
      std::to_string(kWindowBatches) + " batches";
  const std::string nb = std::to_string(batch_ms.size()) + " batches";
  out->end_to_end["exec_tps"] = {Percentile(window_tps, kFastRatePct),
                                 "txn/s", "p75 of " + windows + ", wall"};
  out->end_to_end["setup_s"] = {
      Median(ph.setup_s), "s",
      "median of " + std::to_string(ph.setup_s.size()) + " setups, CPU"};
  out->end_to_end["peak_rss_mb"] = {
      Median(ph.peak_rss_mb), "MB",
      "median of " + std::to_string(ph.peak_rss_mb.size()) +
          " epoch peaks (VmHWM)"};
  out->detail["batch_p50_ms"] = {Percentile(batch_ms, 50), "ms",
                                 "p50 of " + nb};
  out->detail["batch_p90_ms"] = {Percentile(batch_ms, 90), "ms",
                                 "p90 of " + nb};
  out->detail["cpu_us_per_txn"] = {Median(window_cpu_us), "us",
                                   "median of " + windows + ", process CPU"};
  out->detail["loop_us_per_txn"] = {
      Median(window_loop_us), "us",
      "median of " + windows + ", whole loop incl. validation + digest"};
  if (enforce && (window_tps.size() < 5 || batch_ms.size() < 100)) {
    out->Fail("too few samples: " + windows + ", " + nb +
              " (need 5 windows and 100 batches)");
  }
}

void ReportLayers(const Phase& untraced, const Phase& traced,
                  const SpanRecorder& spans, Outcome* out) {
  const uint64_t txns = traced.Sum(&BatchTiming::committed);
  OpTotals ops;
  for (const BatchTiming& b : traced.batches) ops += b.run_ops;
  const uint64_t run_ns = traced.Sum(&BatchTiming::run_ns);
  const double workers = PoolWidth();

  // Engine calls on the workers; extraction runs on the caller thread
  // after they are quiescent.
  const uint64_t worker_engine_ns =
      ops.Ns(Op::kEngineBegin) + ops.Ns(Op::kEngineRead) +
      ops.Ns(Op::kEngineWrite) + ops.Ns(Op::kEngineEmit) +
      ops.Ns(Op::kEngineFinish);
  const uint64_t engine_ns = worker_engine_ns + ops.Ns(Op::kEngineExtract);
  // Worker time: Begin, the contract (whose Read/Write calls nest inside
  // it), Emit and Finish.
  const uint64_t busy_ns = ops.Ns(Op::kEngineBegin) +
                           ops.Ns(Op::kContractExecute) +
                           ops.Ns(Op::kEngineEmit) + ops.Ns(Op::kEngineFinish);
  const uint64_t store_ns = ops.Ns(Op::kStoreGet) + ops.Ns(Op::kStoreOther);
  const uint64_t engine_ops =
      ops.Calls(Op::kEngineRead) + ops.Calls(Op::kEngineWrite);
  const double busy_frac = Frac(static_cast<double>(busy_ns),
                                workers * static_cast<double>(run_ns));
  auto mean = [&ops](Op op) {
    return PerTxn(ops.Ns(op), ops.Calls(op));
  };
  auto& L = out->layers;
  L["ce.pool.run_ns_per_txn"] = {PerTxn(run_ns, txns), "ns/txn", ""};
  L["ce.pool.busy_frac"] = {busy_frac, "frac", ""};
  L["ce.pool.self_frac"] = {1.0 - busy_frac, "frac", ""};
  L["ce.engine.begin_ns"] = {mean(Op::kEngineBegin), "ns", ""};
  L["ce.engine.read_ns"] = {mean(Op::kEngineRead), "ns", ""};
  L["ce.engine.write_ns"] = {mean(Op::kEngineWrite), "ns", ""};
  L["ce.engine.finish_ns"] = {mean(Op::kEngineFinish), "ns", ""};
  L["ce.engine.self_ns_per_txn"] = {
      PerTxn(engine_ns - std::min(engine_ns, store_ns), txns), "ns/txn", ""};
  L["ce.engine.restarts_per_txn"] = {
      PerTxn(traced.Sum(&BatchTiming::aborts), txns), "count", ""};
  L["ce.engine.useful_frac"] = {
      Frac(static_cast<double>(txns),
           static_cast<double>(ops.Calls(Op::kEngineBegin))),
      "frac", ""};
  L["ce.engine.ops_per_txn"] = {PerTxn(engine_ops, txns), "count", ""};
  const double measured_op_ns = PerTxn(busy_ns, engine_ops);
  L["ce.cost_model_ratio"] = {
      Frac(static_cast<double>(ce::ExecutionCostModel{}.op_cost) * 1e3,
           measured_op_ns),
      "ratio", ""};
  const uint64_t contract_ns = ops.Ns(Op::kContractExecute);
  const uint64_t nested_ns = ops.Ns(Op::kEngineRead) + ops.Ns(Op::kEngineWrite);
  L["contract.self_ns_per_txn"] = {
      PerTxn(contract_ns - std::min(contract_ns, nested_ns), txns), "ns/txn",
      ""};
  L["contract.calls_per_txn"] = {
      PerTxn(ops.Calls(Op::kContractExecute), txns), "count", ""};
  L["storage.get_ns"] = {mean(Op::kStoreGet), "ns", ""};
  L["storage.gets_per_txn"] = {PerTxn(ops.Calls(Op::kStoreGet), txns),
                               "count", ""};
  L["storage.apply_ns_per_txn"] = {
      PerTxn(traced.Sum(&BatchTiming::apply_ns), txns), "ns/txn", ""};
  L["core.validate_ns_per_txn"] = {
      PerTxn(traced.Sum(&BatchTiming::validate_ns), txns), "ns/txn", ""};
  L["core.validate_ops_per_txn"] = {
      PerTxn(traced.Sum(&BatchTiming::validate_ops), txns), "count", ""};
  L["crypto.digest_ns_per_txn"] = {
      PerTxn(traced.Sum(&BatchTiming::digest_ns), txns), "ns/txn", ""};
  L["workload.gen_ns_per_txn"] = {
      PerTxn(traced.Sum(&BatchTiming::gen_ns), txns), "ns/txn", ""};

  // Attribution of the traced loop: span self times, where the self time
  // of "batch" is the benchmark's own bookkeeping, then the pool split.
  const uint64_t loop_ns = spans.TotalNs("batch");
  uint64_t unattributed_ns = 0;
  char line[256];
  for (const auto& [name, self_ns] : spans.SelfNsByName()) {
    if (name == "batch") unattributed_ns = self_ns;
    std::snprintf(line, sizeof(line), "  span %-18s self %8.1f ns/txn  %5.1f%%",
                  name.c_str(), PerTxn(self_ns, txns),
                  100.0 * Frac(static_cast<double>(self_ns),
                               static_cast<double>(loop_ns)));
    out->notes.push_back(line);
  }
  const double pool_wall = workers * static_cast<double>(run_ns);
  const double parts[] = {
      static_cast<double>(worker_engine_ns -
                          std::min(worker_engine_ns, store_ns)),
      static_cast<double>(contract_ns - std::min(contract_ns, nested_ns)),
      static_cast<double>(store_ns), (1.0 - busy_frac) * pool_wall};
  const char* part_names[] = {"engine self", "contract self", "store get",
                              "pool self (queues, idle, extraction)"};
  for (size_t i = 0; i < 4; ++i) {
    std::snprintf(line, sizeof(line),
                  "  ce.pool.run worker-time %-34s %5.1f%%", part_names[i],
                  100.0 * Frac(parts[i], pool_wall));
    out->notes.push_back(line);
  }
  L["exec.unattributed_frac"] = {
      Frac(static_cast<double>(unattributed_ns), static_cast<double>(loop_ns)),
      "frac", ""};

  const double untraced_ns_per_txn =
      PerTxn(untraced.Sum(&BatchTiming::exec_cpu_ns),
             untraced.Sum(&BatchTiming::committed));
  const double traced_ns_per_txn =
      PerTxn(traced.Sum(&BatchTiming::exec_cpu_ns), txns);
  L["trace.overhead_frac"] = {
      Frac(traced_ns_per_txn, untraced_ns_per_txn) - 1.0, "frac", ""};
}

}  // namespace

bool RunExec(const Args& args, Outcome* out) {
  ExecSpec spec;
  if (!SpecFor(args.workload, args.seed, &spec)) return false;
  RegisterDecorators();
  if (!args.trace) {
    const Phase ph = RunPhase(spec, false, args.seconds, nullptr, out);
    out->attempted = ph.attempted;
    out->failed = ph.failed;
    if (out->correct) ReportEndToEnd(ph, true, out);
    return true;
  }
  // Traced run: the untraced half gives the reference for the overhead,
  // the traced half the layer numbers; both pass every correctness check.
  SpanRecorder spans;
  const Phase plain = RunPhase(spec, false, args.seconds / 2, nullptr, out);
  const Phase traced = RunPhase(spec, true, args.seconds / 2, &spans, out);
  out->attempted = plain.attempted + traced.attempted;
  out->failed = plain.failed + traced.failed;
  if (!out->correct) return true;
  ReportEndToEnd(plain, false, out);
  ReportLayers(plain, traced, spans, out);
  const std::string path =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
      ".trace.json";
  if (!spans.WriteChromeJson(path)) {
    out->Fail("cannot write span file " + path);
  } else {
    out->notes.push_back("  spans: " + path + " (" +
                         std::to_string(spans.spans().size()) + " spans)");
  }
  return true;
}

}  // namespace perfbench
