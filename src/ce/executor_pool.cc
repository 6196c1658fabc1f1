#include "ce/executor_pool.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ce/sim_executor_pool.h"
#include "ce/thread_executor_pool.h"

namespace thunderbolt::ce {

Result<BatchExecutionResult> ExecutorPool::Run(
    BatchEngine& engine, const contract::Registry& registry,
    const std::vector<txn::Transaction>& batch, SimTime start_time) {
  const uint32_t n = static_cast<uint32_t>(batch.size());
  if (n == 0) {
    BatchExecutionResult empty;
    empty.start_time = start_time;
    return empty;
  }
  if (num_executors_ == 0) {
    return Status::InvalidArgument("executor pool needs >= 1 executor");
  }

  BatchLedger& l = ledger_;
  l.engine = &engine;
  l.registry = &registry;
  l.batch = &batch;
  l.n = n;
  l.start_time = start_time;
  l.error = Status::OK();
  l.queued.assign(n, 1);
  l.pinned.assign(n, 0);
  l.restart_pending.assign(n, 0);
  l.consecutive_restarts.assign(n, 0);
  l.reason_counts = {};
  l.begin_us = start_time;
  l.end_us = start_time;
  l.first_start_us.assign(n, 0);
  l.exec_us.assign(n, 0);
  l.backoff_us.assign(n, 0);
  l.commit_us.assign(n, 0);
  l.lane.assign(n, 0);
  l.max_queue_depth = 0;
  l.occupancy_sum = 0;
  l.occupancy_samples = 0;

  engine.SetAbortCallback(
      [this](TxnSlot slot, obs::AbortReason reason) { OnAbort(slot, reason); });
  const Status status = Schedule();
  engine.SetAbortCallback({});

  if (!status.ok()) {
    const uint64_t bound_trips =
        l.reason_counts[static_cast<size_t>(obs::AbortReason::kRestartBound)];
    if (obs_.metrics != nullptr && bound_trips > 0) {
      obs_.metrics
          ->GetCounter("pool." + name() + ".restart_reason.restart_bound")
          .Inc(bound_trips);
    }
    return status;
  }
  BatchExecutionResult result = Assemble();
  Publish(result);
  return result;
}

void ExecutorPool::OnAbort(TxnSlot slot, obs::AbortReason reason) {
  std::lock_guard<std::mutex> lk(mu_);
  BatchLedger& l = ledger_;
  ++l.consecutive_restarts[slot];
  ++l.reason_counts[static_cast<size_t>(reason)];
  RecordRestart(slot, reason);
  // Per-transaction livelock bound (the Run contract). It counts
  // *consecutive* restarts, which reset when the slot finishes, so an abort
  // ping-pong that keeps finishing-then-invalidating evades it; the global
  // kMaxRestartFactor cap backstops that pattern.
  const uint64_t bound = kMaxRestartsPerTxn * l.n;
  if (l.consecutive_restarts[slot] > bound && l.error.ok()) {
    ++l.reason_counts[static_cast<size_t>(obs::AbortReason::kRestartBound)];
    RecordRestart(slot, obs::AbortReason::kRestartBound);
    l.error = Status::Internal(
        "executor pool livelock: txn slot " + std::to_string(slot) +
        " restarted " + std::to_string(l.consecutive_restarts[slot]) +
        " times consecutively (per-txn bound " + std::to_string(bound) + ")");
  }
  // A pinned slot stays with its executor, which observes the abort (stale
  // incarnation) or, if its attempt already completed, re-admits the slot
  // on Release. An idle slot is re-admitted here, exactly once.
  bool readmit = false;
  if (l.pinned[slot]) {
    l.restart_pending[slot] = 1;
  } else if (!l.queued[slot]) {
    l.queued[slot] = 1;
    readmit = true;
  }
  OnRestart(slot, readmit);
}

void ExecutorPool::RecordRestart(TxnSlot slot,
                                 obs::AbortReason reason) const {
  if (!obs_.tracer->enabled()) return;
  // Under a threaded scheduler engine locks and mu_ are held here; the
  // ring's own mutex is a leaf, so recording preserves the lock order.
  const TracePoint at = RestartPoint();
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kTxnRestart;
  ev.reason = reason;
  ev.pid = obs_.pid;
  ev.tid = at.tid;
  ev.ts_us = at.ts_us;
  ev.txn = (*ledger_.batch)[slot].id;
  ev.a = ledger_.consecutive_restarts[slot];
  obs_.tracer->Record(ev);
}

ExecutorPool::AttemptOutcome ExecutorPool::FinishAttempt(
    BatchEngine& engine, TxnSlot slot, uint32_t incarnation,
    const Status& status, const std::vector<Value>& emits) {
  if (status.IsAborted()) return AttemptOutcome::kAborted;
  if (status.ok()) {
    for (Value v : emits) engine.Emit(slot, incarnation, v);
  }
  if (engine.Finish(slot, incarnation).IsAborted()) {
    return AttemptOutcome::kAborted;
  }
  return status.ok() ? AttemptOutcome::kFinished : AttemptOutcome::kFailed;
}

bool ExecutorPool::OverGlobalCap() const {
  return ledger_.engine->total_aborts() > kMaxRestartFactor * ledger_.n;
}

Status ExecutorPool::GlobalCapError() const {
  return Status::Internal(
      "executor pool livelock: " +
      std::to_string(ledger_.engine->total_aborts()) +
      " restarts for batch of " + std::to_string(ledger_.n));
}

Status ExecutorPool::StallError() const {
  // Every remaining transaction should be Finished and commit through
  // dependency cascades inside the engine; reaching here with an
  // incomplete batch means the engine's graph logic is broken.
  return Status::Internal(
      "executor pool stalled: no runnable transactions but batch "
      "incomplete (" +
      std::to_string(ledger_.engine->committed_count()) + "/" +
      std::to_string(ledger_.n) + " committed)");
}

BatchExecutionResult ExecutorPool::Assemble() const {
  // The scheduler has returned: the engine is quiescent, so extraction
  // needs no synchronization.
  const BatchLedger& l = ledger_;
  const BatchEngine& engine = *l.engine;
  const std::vector<txn::Transaction>& batch = *l.batch;
  obs::Tracer& tracer = *obs_.tracer;
  BatchExecutionResult result;
  result.start_time = l.start_time;
  result.order = engine.SerializationOrder();
  result.total_aborts = engine.total_aborts();
  result.final_writes = engine.FinalWrites();
  result.abort_reasons = l.reason_counts;
  result.records.reserve(l.n);
  for (TxnSlot s = 0; s < l.n; ++s) {
    result.records.push_back(engine.ExtractRecord(s));
    const SimTime submitted = virtual_clock_ && batch[s].submit_time > 0
                                  ? batch[s].submit_time
                                  : l.begin_us;
    const SimTime committed = std::max(l.commit_us[s], submitted);
    result.commit_latency_us.Add(static_cast<double>(committed - submitted));
    // Phase decomposition: one sample per committed transaction in each
    // pool-side phase (zeros included so counts line up across phases).
    const SimTime first_start = std::max(l.first_start_us[s], submitted);
    result.phases[obs::Phase::kQueueWait].Add(
        static_cast<double>(first_start - submitted));
    result.phases[obs::Phase::kExecute].Add(static_cast<double>(l.exec_us[s]));
    result.phases[obs::Phase::kRestartBackoff].Add(
        static_cast<double>(l.backoff_us[s]));
    if (tracer.enabled()) {
      // One lifecycle span per committed transaction: first attempt start
      // through its commit. Root of the transaction's causal tree; the
      // cluster's cross-shard hold spans hang under the same trace_id.
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kTxnSpan;
      ev.pid = obs_.pid;
      ev.tid = l.lane[s];
      ev.ts_us = l.first_start_us[s];
      ev.dur_us = l.commit_us[s] > l.first_start_us[s]
                      ? l.commit_us[s] - l.first_start_us[s]
                      : 0;
      ev.txn = batch[s].id;
      ev.a = result.records[s].re_executions;
      ev.b = static_cast<uint64_t>(result.records[s].order);
      ev.trace_id = batch[s].id;
      ev.span_id = 1;
      tracer.Record(ev);
    }
  }
  result.duration = l.end_us - l.begin_us;
  if (tracer.enabled()) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kBatchSpan;
    ev.pid = obs_.pid;
    ev.tid = num_executors_;  // Dedicated lane above the executor lanes.
    ev.ts_us = l.begin_us;
    ev.dur_us = result.duration;
    ev.a = l.n;
    ev.b = result.total_aborts;
    tracer.Record(ev);
  }
  return result;
}

void ExecutorPool::Publish(const BatchExecutionResult& result) const {
  if (obs_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs_.metrics;
  const BatchLedger& l = ledger_;
  const std::string prefix = "pool." + name() + ".";
  m.GetCounter(prefix + "batches").Inc();
  m.GetCounter(prefix + "txns").Inc(l.n);
  m.GetCounter(prefix + "restarts").Inc(result.total_aborts);
  for (size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    if (result.abort_reasons[r] == 0) continue;
    m.GetCounter(prefix + "restart_reason." +
                 obs::AbortReasonName(static_cast<obs::AbortReason>(r)))
        .Inc(result.abort_reasons[r]);
  }
  m.GetHistogram(prefix + "commit_latency_us").Merge(result.commit_latency_us);
  obs::MergeIntoRegistry(m, result.phases);
  m.GetGauge(prefix + "queue_depth")
      .Set(static_cast<double>(l.max_queue_depth));
  m.GetGauge(prefix + "wave_occupancy")
      .Set(l.occupancy_samples > 0
               ? static_cast<double>(l.occupancy_sum) /
                     (static_cast<double>(l.occupancy_samples) *
                      num_executors_)
               : 0.0);
}

std::unique_ptr<ExecutorPool> CreateExecutorPool(const std::string& name,
                                                 uint32_t num_executors,
                                                 ExecutionCostModel costs) {
  if (name == "sim") {
    return std::make_unique<SimExecutorPool>(num_executors, costs);
  }
  if (name == "thread") {
    return std::make_unique<ThreadExecutorPool>(num_executors, costs);
  }
  return nullptr;
}

std::vector<std::string> ExecutorPoolNames() { return {"sim", "thread"}; }

}  // namespace thunderbolt::ce
