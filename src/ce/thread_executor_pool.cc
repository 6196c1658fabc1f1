#include "ce/thread_executor_pool.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

namespace thunderbolt::ce {

namespace {

/// Forwards every contract operation to the engine directly. Unlike the
/// sim pool's SteppingContext there is no replay log: the attempt runs the
/// contract straight through on this worker's thread.
class DirectContext final : public contract::ContractContext {
 public:
  DirectContext(BatchEngine* engine, TxnSlot slot, uint32_t incarnation)
      : engine_(engine), slot_(slot), incarnation_(incarnation) {}

  Result<Value> Read(const Key& key) override {
    return engine_->Read(slot_, incarnation_, key);
  }

  Status Write(const Key& key, Value value) override {
    return engine_->Write(slot_, incarnation_, key, value);
  }

  void EmitResult(Value value) override {
    // Buffered; only a successfully completing attempt forwards emits.
    emits_.push_back(value);
  }

  const std::vector<Value>& emits() const { return emits_; }

 private:
  BatchEngine* engine_;
  TxnSlot slot_;
  uint32_t incarnation_;
  std::vector<Value> emits_;
};

}  // namespace

ThreadExecutorPool::ThreadExecutorPool(uint32_t num_executors,
                                       ExecutionCostModel costs)
    : ExecutorPool(num_executors, costs, /*virtual_clock=*/false) {
  workers_.reserve(num_executors_);
  for (uint32_t i = 0; i < num_executors_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadExecutorPool::~ThreadExecutorPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ExecutorPool::AttemptOutcome ThreadExecutorPool::Attempt(TxnSlot slot) {
  BatchEngine& engine = *ledger_.engine;
  const uint32_t incarnation = engine.Begin(slot);
  DirectContext ctx(&engine, slot, incarnation);
  Status s = ledger_.registry->Execute((*ledger_.batch)[slot], ctx);
  return FinishAttempt(engine, slot, incarnation, s, ctx.emits());
}

void ThreadExecutorPool::OnRestart(TxnSlot slot, bool readmit) {
  if (!readmit) return;
  job_.next.push_back(slot);
  work_cv_.notify_one();
}

void ThreadExecutorPool::WorkerLoop() {
  // Worker index = this thread's trace lane; assigned in start order.
  std::unique_lock<std::mutex> lk(mu_);
  const uint32_t id = next_worker_id_++;
  uint64_t served = 0;
  BatchLedger& l = ledger_;
  for (;;) {
    work_cv_.wait(lk,
                  [&] { return shutdown_ || (active_ && job_gen_ != served); });
    if (shutdown_) return;
    served = job_gen_;
    Job& job = job_;
    ++job.workers_inside;

    while (active_ && !job.done && l.error.ok()) {
      if (job.current.empty() && !job.next.empty()) {
        // Double-buffer swap: the next wave (re-admitted aborted txns)
        // becomes the current batch.
        std::swap(job.current, job.next);
        if (obs_.tracer->enabled()) {
          obs::TraceEvent ev;
          ev.kind = obs::EventKind::kWave;
          ev.pid = obs_.pid;
          ev.tid = id;
          ev.ts_us = TraceNowUs();
          ev.a = job.current.size();
          obs_.tracer->Record(ev);
        }
      }
      if (job.current.empty()) {
        if (job.executing == 0) {
          // No queued work and no attempt in flight: the engine state is
          // frozen, so this is terminal. Calling into the engine while
          // holding the pool mutex is safe here — no worker holds an
          // engine lock (executing == 0).
          if (l.engine->AllCommitted()) {
            job.done = true;
          } else {
            l.error = StallError();
          }
          work_cv_.notify_all();
          done_cv_.notify_all();
          break;
        }
        work_cv_.wait(lk);
        continue;
      }

      const size_t backlog = job.current.size() + job.next.size() + 1;
      if (backlog > l.max_queue_depth) l.max_queue_depth = backlog;
      const TxnSlot slot = job.current.front();
      job.current.pop_front();
      l.Claim(slot);
      ++job.executing;
      l.occupancy_sum += job.executing;
      ++l.occupancy_samples;
      const uint32_t restarts = l.consecutive_restarts[slot];

      lk.unlock();
      uint64_t backoff_slept_us = 0;
      if (restarts > 0) {
        // Real exponential backoff before re-running a restarted slot,
        // mirroring the sim pool's virtual restart_cost model.
        const uint32_t exp = std::min(restarts, costs_.restart_backoff_cap);
        backoff_slept_us = costs_.restart_cost * (uint64_t{1} << exp);
        std::this_thread::sleep_for(
            std::chrono::microseconds(backoff_slept_us));
      }
      const uint64_t attempt_start_us = TraceNowUs();
      const AttemptOutcome outcome = Attempt(slot);
      const uint64_t attempt_end_us = TraceNowUs();
      // Engine progress counters are lock-free by contract, so these are
      // safe without the pool mutex.
      const bool all_committed = l.engine->AllCommitted();
      const bool over_global_cap = OverGlobalCap();
      // The slot's accounting is this worker's while the slot is pinned,
      // so it needs no lock: the next claim (under mu_) and the quiescent
      // result assembly both order after it. A slot's last attempt is the
      // one that completes it, so its end stands for the commit time.
      if (l.first_start_us[slot] == 0) {
        l.first_start_us[slot] = attempt_start_us;
      }
      l.exec_us[slot] += attempt_end_us - attempt_start_us;
      l.backoff_us[slot] += backoff_slept_us;
      l.commit_us[slot] = attempt_end_us;
      l.lane[slot] = id;
      lk.lock();

      --job.executing;
      if (l.Release(slot, outcome)) {
        job.next.push_back(slot);
        work_cv_.notify_one();
      }
      if (over_global_cap && l.error.ok()) l.error = GlobalCapError();
      if (all_committed) job.done = true;
      if (job.done || !l.error.ok()) {
        work_cv_.notify_all();
        done_cv_.notify_all();
      }
    }

    --job.workers_inside;
    done_cv_.notify_all();
  }
}

Status ThreadExecutorPool::Schedule() {
  if (num_executors_ > 1 && !ledger_.engine->SupportsConcurrentExecutors()) {
    return Status::InvalidArgument(
        "engine does not support concurrent executors (see the "
        "thread-safety contract in ce/batch_engine.h)");
  }
  std::unique_lock<std::mutex> lk(mu_);
  job_ = Job{};
  for (TxnSlot s = 0; s < ledger_.n; ++s) job_.current.push_back(s);
  ledger_.begin_us = TraceNowUs();
  active_ = true;
  ++job_gen_;
  work_cv_.notify_all();

  done_cv_.wait(lk, [&] {
    return (job_.done || !ledger_.error.ok()) && job_.workers_inside == 0;
  });
  active_ = false;
  ledger_.end_us = TraceNowUs();
  return ledger_.error;
}

}  // namespace thunderbolt::ce
