// ExecutorPool: the common interface over the two ways this repository
// drives a batch of transactions through a BatchEngine.
//
//   "sim"     SimExecutorPool (sim_executor_pool.h): E *virtual* executors
//             interleaved deterministically on one physical thread over a
//             virtual clock. Reproduces the paper's executor-count sweeps
//             and is the only pool determinism_test accepts.
//   "thread"  ThreadExecutorPool (thread_executor_pool.h): E real
//             std::thread workers with double-buffered batch admission.
//             Produces wall-clock throughput numbers; timings (and, for
//             engines whose serialization order is interleaving-dependent,
//             the order itself) are nondeterministic. Final state still
//             agrees with "sim" on commutative batches — pinned by
//             thread_executor_pool_test / thread_pool_stress_test.
//
// Selection threads through ThunderboltConfig::pool and the benches'
// --pool flag via CreateExecutorPool, mirroring the registry idiom of
// EngineRegistry / WorkloadRegistry / PlacementRegistry / StoreRegistry.
#ifndef THUNDERBOLT_CE_EXECUTOR_POOL_H_
#define THUNDERBOLT_CE_EXECUTOR_POOL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ce/batch_engine.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "contract/contract.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/transaction.h"

namespace thunderbolt::ce {

/// Virtual-time costs of the execution pipeline. Defaults are calibrated so
/// a single executor sustains roughly the per-core SmallBank rate of the
/// paper's testbed; see EXPERIMENTS.md. The thread pool consumes only the
/// restart-backoff fields (restart_cost / restart_backoff_cap), as real
/// wall-clock pauses between re-admissions of a repeatedly aborted slot.
struct ExecutionCostModel {
  /// Contract logic + storage access per operation (executor-local).
  SimTime op_cost = Micros(18);
  /// Serialized engine critical section per operation (CC latch, lock
  /// manager, or OCC verifier — the shared resource that caps scaling).
  SimTime engine_serial_cost = Micros(2);
  /// Charged to an executor when it begins (or restarts) a transaction.
  SimTime start_cost = Micros(4);
  /// Base penalty before re-running an aborted transaction. Consecutive
  /// restarts of the same transaction back off exponentially with a
  /// per-slot deterministic jitter, breaking the symmetric abort ping-pong
  /// two crossing read-modify-writes would otherwise fall into.
  SimTime restart_cost = Micros(10);
  /// Cap exponent for the restart backoff (max factor 2^cap).
  uint32_t restart_backoff_cap = 6;
};

/// Livelock guards shared by both pools. A batch fails with Internal when
/// one transaction restarts more than kMaxRestartsPerTxn times the batch
/// size (the per-transaction bound promised by the Run contract), or when
/// total restarts exceed kMaxRestartFactor times the batch size (global
/// backstop for ping-pong patterns that keep resetting the per-slot
/// consecutive-restart counter).
inline constexpr uint64_t kMaxRestartsPerTxn = 64;
inline constexpr uint64_t kMaxRestartFactor = 1000;

/// Outcome of executing one batch. `duration` (and the latency histogram)
/// is virtual time for the "sim" pool and wall-clock microseconds for the
/// "thread" pool — see EXPERIMENTS.md before comparing the two.
struct BatchExecutionResult {
  std::vector<TxnRecord> records;      // Indexed by slot.
  std::vector<TxnSlot> order;          // Serialization order.
  storage::WriteBatch final_writes;    // To apply to storage.
  uint64_t total_aborts = 0;           // Re-executions across the batch.
  /// total_aborts broken down by cause, indexed by obs::AbortReason (the
  /// engine reports the reason through the abort callback).
  std::array<uint64_t, obs::kNumAbortReasons> abort_reasons{};
  SimTime start_time = 0;
  SimTime duration = 0;                // Makespan of the batch.
  Histogram commit_latency_us;         // Per-txn commit latency.
  /// Per-transaction phase decomposition of commit_latency_us: the pool
  /// fills kQueueWait / kExecute / kRestartBackoff (one sample per
  /// committed transaction, zeros included so counts line up); the
  /// cluster commit path adds the consensus-side phases on top. Also
  /// merged into the registry's "phase.<name>_us" histograms when a
  /// metrics sink is installed.
  obs::LatencyBreakdown phases;
};

/// Observability context a pool records into. Set once (per node / bench
/// cell) before Run; both sinks may be shared across pools. `tracer` is
/// never null — the default is the shared no-op NullTracer, so an
/// un-instrumented pool costs one branch per would-be event. `pid` scopes
/// trace events to a replica in multi-node runs.
struct PoolObsContext {
  obs::Tracer* tracer = obs::NullTracerInstance();
  obs::MetricsRegistry* metrics = nullptr;
  uint32_t pid = 0;
};

/// A pool of E executors (virtual or physical) that drives one batch at a
/// time through any BatchEngine. Run is not itself thread-safe: one batch
/// per pool at a time, from one caller thread.
///
/// The batch contract lives here, once: input checks, the abort callback
/// (restart counting, the livelock bounds, re-admission), result assembly
/// and `pool.<name>.*` publication all work on one per-batch ledger. A
/// subclass supplies only the scheduler that decides which executor runs
/// which slot when (Schedule), where a re-admitted slot waits (OnRestart)
/// and the clock its trace events carry.
class ExecutorPool {
 public:
  virtual ~ExecutorPool() = default;

  /// Executes `batch` through `engine` using the contracts in `registry`.
  /// `start_time` seeds the clock (used when the pool runs inside the
  /// cluster simulation). Returns InvalidArgument for a pool with no
  /// executors, Internal on livelock (see kMaxRestartsPerTxn /
  /// kMaxRestartFactor above) or a stalled engine. The engine's abort
  /// callback is detached again on every return.
  Result<BatchExecutionResult> Run(BatchEngine& engine,
                                   const contract::Registry& registry,
                                   const std::vector<txn::Transaction>& batch,
                                   SimTime start_time = 0);

  uint32_t num_executors() const { return num_executors_; }

  /// Selection name: "sim" or "thread".
  virtual std::string name() const = 0;

  /// Installs the observability sinks this pool records into (trace events
  /// per transaction/batch, `pool.<name>.*` metrics). Call between
  /// batches, not during Run.
  void SetObs(const PoolObsContext& ctx) { obs_ = ctx; }
  const PoolObsContext& obs_context() const { return obs_; }

 protected:
  /// `virtual_clock`: the scheduler's clock is the simulation's, so a
  /// transaction's submit_time is the origin of its latency; otherwise
  /// latency runs from the batch's begin_us.
  ExecutorPool(uint32_t num_executors, ExecutionCostModel costs,
               bool virtual_clock)
      : num_executors_(num_executors),
        costs_(costs),
        virtual_clock_(virtual_clock) {}

  /// How an attempt ended once its contract returned (FinishAttempt).
  /// kFailed: the contract itself failed (bad arguments, declared failure)
  /// and the engine still finalized the operations it performed.
  enum class AttemptOutcome { kFinished, kFailed, kAborted };

  /// The batch in flight and everything the pool learns about it. The
  /// fields up to `start_time` are fixed for the batch. Under a
  /// multi-threaded scheduler the rest are guarded by mu_ until Schedule
  /// returns, except a pinned slot's per-slot accounting, which its
  /// executor owns.
  struct BatchLedger {
    BatchEngine* engine = nullptr;
    const contract::Registry* registry = nullptr;
    const std::vector<txn::Transaction>* batch = nullptr;
    uint32_t n = 0;
    SimTime start_time = 0;
    /// First error; a set error stops the scheduler.
    Status error = Status::OK();

    // Re-admission state. Every slot starts queued; a scheduler Claims a
    // slot for an executor and Releases it after a completed attempt. An
    // abort re-admits a slot that is neither queued nor pinned, and marks
    // a pinned one restart_pending.
    std::vector<uint8_t> queued;
    std::vector<uint8_t> pinned;
    std::vector<uint8_t> restart_pending;
    std::vector<uint32_t> consecutive_restarts;
    std::array<uint64_t, obs::kNumAbortReasons> reason_counts{};

    // The batch's first and last event, then per-slot accounting, in the
    // scheduler's clock (µs): first attempt start (0 = not yet started),
    // summed attempt and backoff time, commit time, and the executor lane
    // that ran the slot last.
    uint64_t begin_us = 0;
    uint64_t end_us = 0;
    std::vector<uint64_t> first_start_us;
    std::vector<uint64_t> exec_us;
    std::vector<uint64_t> backoff_us;
    std::vector<uint64_t> commit_us;
    std::vector<uint32_t> lane;

    // Admission pressure for the queue_depth / wave_occupancy gauges.
    size_t max_queue_depth = 0;
    uint64_t occupancy_sum = 0;  // Busy executors, summed per sample.
    uint64_t occupancy_samples = 0;

    void Claim(TxnSlot slot) {
      queued[slot] = 0;
      pinned[slot] = 1;
    }
    /// Unpins `slot` after an attempt. Returns true when it must go back
    /// to the scheduler's queue (the attempt aborted, or the slot was
    /// aborted while pinned). A contract that ran to completion ends the
    /// slot's run of consecutive restarts.
    bool Release(TxnSlot slot, AttemptOutcome outcome) {
      pinned[slot] = 0;
      const bool readmit =
          restart_pending[slot] != 0 || outcome == AttemptOutcome::kAborted;
      restart_pending[slot] = 0;
      if (readmit) {
        queued[slot] = 1;
      } else if (outcome == AttemptOutcome::kFinished) {
        consecutive_restarts[slot] = 0;
      }
      return readmit;
    }
  };

  /// Lane and timestamp a restart trace event lands on.
  struct TracePoint {
    uint32_t tid = 0;
    uint64_t ts_us = 0;
  };

  /// Drives ledger_'s batch until the engine reports AllCommitted (returns
  /// OK) or the batch fails. Every slot starts queued. On OK, end_us must
  /// be the batch's last event in the scheduler's clock.
  virtual Status Schedule() = 0;
  /// Called from the abort callback with mu_ held, after the ledger has
  /// counted the restart. `readmit`: the slot was idle and is now queued;
  /// the scheduler must put it on its ready queue.
  virtual void OnRestart(TxnSlot slot, bool readmit) = 0;
  virtual TracePoint RestartPoint() const = 0;

  /// Completes an attempt whose contract returned `status`: forwards the
  /// buffered emits and Finishes the slot. A failed contract is Finished
  /// too, so the batch outcome stays well-defined on every replica.
  static AttemptOutcome FinishAttempt(BatchEngine& engine, TxnSlot slot,
                                      uint32_t incarnation,
                                      const Status& status,
                                      const std::vector<Value>& emits);

  /// The global livelock backstop (lock-free engine counter).
  bool OverGlobalCap() const;
  Status GlobalCapError() const;
  /// No runnable slot is left but the batch is not committed.
  Status StallError() const;

  const uint32_t num_executors_;
  const ExecutionCostModel costs_;
  PoolObsContext obs_;
  /// The pool lock, over the ledger and the scheduler's queues. The abort
  /// callback takes it (lock order: engine lock, then pool lock). It has a
  /// cache line to itself: threaded workers read the ledger's batch
  /// pointers without it on every attempt.
  alignas(64) std::mutex mu_;
  alignas(64) BatchLedger ledger_;

 private:
  void OnAbort(TxnSlot slot, obs::AbortReason reason);
  void RecordRestart(TxnSlot slot, obs::AbortReason reason) const;
  BatchExecutionResult Assemble() const;
  void Publish(const BatchExecutionResult& result) const;

  const bool virtual_clock_;
};

/// Instantiates the named pool ("sim" or "thread") with `num_executors`
/// executors. Returns nullptr for unknown names.
std::unique_ptr<ExecutorPool> CreateExecutorPool(const std::string& name,
                                                 uint32_t num_executors,
                                                 ExecutionCostModel costs);

/// Registered pool names, sorted ("sim", "thread").
std::vector<std::string> ExecutorPoolNames();

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_EXECUTOR_POOL_H_
