// Real threaded executor pool: E std::thread workers, the pool behind the
// repo's wall-clock tps-vs-threads numbers (thunderbolt_bench --pool
// thread --threads ...). The batch contract (restart bounds, results,
// metrics) is ExecutorPool's; this class is only the scheduler.
//
// Admission is double-buffered, Aria-style (SNIPPETS.md Snippet 1,
// chenhao-ye/polaris BatchMgr): workers drain the *current* queue while
// every re-admitted slot waits in the *next* queue; when the current queue
// runs dry the buffers swap. Restart storms therefore wait for the
// in-flight wave to pass instead of hammering the engine, and a slot
// restarted consecutively sleeps an exponentially growing real backoff
// (ExecutionCostModel::restart_cost / restart_backoff_cap) first.
//
// Each attempt runs the contract straight through, every ContractContext
// operation forwarded to the engine, so workers call the engine
// concurrently: the engine must declare SupportsConcurrentExecutors() (see
// the thread-safety contract in batch_engine.h). Lock order: engine lock,
// then the pool lock mu_, never the reverse.
//
// Timings, abort counts and (for engines whose serialization order depends
// on the interleaving) the commit order are not deterministic;
// determinism_test stays on the "sim" pool.
#ifndef THUNDERBOLT_CE_THREAD_EXECUTOR_POOL_H_
#define THUNDERBOLT_CE_THREAD_EXECUTOR_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "ce/batch_engine.h"
#include "ce/executor_pool.h"
#include "common/types.h"

namespace thunderbolt::ce {

class ThreadExecutorPool final : public ExecutorPool {
 public:
  /// Starts `num_executors` worker threads immediately; they idle between
  /// batches so per-Run overhead is one mutex round-trip, not thread
  /// creation. `costs` feeds only the restart backoff.
  explicit ThreadExecutorPool(uint32_t num_executors,
                              ExecutionCostModel costs = {});
  ~ThreadExecutorPool() override;

  ThreadExecutorPool(const ThreadExecutorPool&) = delete;
  ThreadExecutorPool& operator=(const ThreadExecutorPool&) = delete;

  std::string name() const override { return "thread"; }

 private:
  /// Scheduler state of the batch in flight; touched under mu_.
  struct Job {
    std::deque<TxnSlot> current;  // Workers pop from here.
    std::deque<TxnSlot> next;     // Re-admitted slots; swapped in when
                                  // `current` drains.
    uint32_t executing = 0;       // Workers inside an attempt.
    uint32_t workers_inside = 0;  // Workers inside the job loop.
    bool done = false;
  };

  /// Refuses a non-concurrent engine with more than one worker, then
  /// hands the batch to the workers and blocks until it commits or fails.
  Status Schedule() override;
  void OnRestart(TxnSlot slot, bool readmit) override;
  TracePoint RestartPoint() const override { return {0, TraceNowUs()}; }

  void WorkerLoop();
  /// Runs one attempt of `slot` against the engine, without mu_.
  AttemptOutcome Attempt(TxnSlot slot);

  /// Wall-clock microseconds since pool construction — this pool's clock
  /// (monotonic across batches, so consecutive Runs land side by side on
  /// the Perfetto timeline).
  uint64_t TraceNowUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - trace_epoch_)
            .count());
  }

  const std::chrono::steady_clock::time_point trace_epoch_ =
      std::chrono::steady_clock::now();

  std::condition_variable work_cv_;  // Workers: new work / job start / end.
  std::condition_variable done_cv_;  // Schedule: batch finished or failed.
  Job job_;
  bool active_ = false;     // A batch is in flight.
  bool shutdown_ = false;   // Destructor ran; workers exit.
  uint64_t job_gen_ = 0;    // Bumped per batch; keeps late workers off a
                            // finished job and lets them join the next one.
  uint32_t next_worker_id_ = 0;  // Lane assignment.
  std::vector<std::thread> workers_;
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_THREAD_EXECUTOR_POOL_H_
