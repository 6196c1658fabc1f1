// Simulated executor pool: E *virtual* executors on a virtual clock
// (DESIGN.md section 2.1). The decisions — dependency edges, lock
// conflicts, validation failures, aborts — are made by the real engine;
// only the passage of time is simulated, so the paper's executor-count
// sweeps (Figures 11/12) reproduce on one physical core, deterministically.
// The batch contract (restart bounds, results, metrics) is ExecutorPool's;
// this class is only the scheduler.
//
// Interleaving model. Contracts call ContractContext synchronously and
// cannot be suspended mid-body, so the pool advances a transaction one
// *operation* at a time by deterministic re-execution: each step re-runs
// the contract from the top, replaying the previously observed operation
// results from a log, and performs exactly one new engine operation before
// pausing. Contracts are deterministic given their reads, so the replay is
// exact and engine state is touched only by the new operation, at the
// correct virtual time. SmallBank transactions have ~4 operations, so the
// quadratic replay cost is negligible.
//
// Timing model per operation:
//   start   = max(executor_free, engine_serial_free)
//   engine_serial_free = start + costs.engine_serial_cost   (shared latch /
//                        lock-manager / central-verifier critical section)
//   executor_free      = start + costs.engine_serial_cost + costs.op_cost
// An aborted slot restarts in place on its executor after a jittered
// exponential backoff (ExecutionCostModel::restart_cost).
#ifndef THUNDERBOLT_CE_SIM_EXECUTOR_POOL_H_
#define THUNDERBOLT_CE_SIM_EXECUTOR_POOL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "ce/batch_engine.h"
#include "ce/executor_pool.h"
#include "common/types.h"

namespace thunderbolt::ce {

class SimExecutorPool final : public ExecutorPool {
 public:
  SimExecutorPool(uint32_t num_executors, ExecutionCostModel costs)
      : ExecutorPool(num_executors, costs, /*virtual_clock=*/true) {}

  std::string name() const override { return "sim"; }

 private:
  class SteppingContext;

  /// One logged operation result of a previous partial run.
  struct LoggedOp {
    bool is_read;
    Key key;
    Value value;  // Read result, or value written.
  };

  Status Schedule() override;
  void OnRestart(TxnSlot slot, bool readmit) override;
  TracePoint RestartPoint() const override {
    return {acting_executor_, clock_};
  }

  /// Replay state of one slot's current incarnation.
  struct SlotRun {
    std::vector<LoggedOp> log;
    uint32_t incarnation = 0;
    bool started = false;
  };

  // Per-batch scheduler state, reset by Schedule.
  std::vector<SlotRun> runs_;
  std::vector<bool> needs_backoff_;
  /// Slots waiting for an executor, with the virtual time they became
  /// ready.
  std::deque<std::pair<TxnSlot, SimTime>> ready_;
  SimTime clock_ = 0;             // Start of the step being executed.
  uint32_t acting_executor_ = 0;  // Executor running that step.
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_SIM_EXECUTOR_POOL_H_
