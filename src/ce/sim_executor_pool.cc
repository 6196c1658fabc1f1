#include "ce/sim_executor_pool.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

namespace thunderbolt::ce {

namespace {

/// Status code used internally to unwind contract execution after the
/// single new operation of a step has been performed.
constexpr StatusCode kPauseCode = StatusCode::kUnavailable;

bool IsPause(const Status& s) { return s.code() == kPauseCode; }

/// An executor currently advancing a transaction; ordered by next free time.
struct BusyExecutor {
  SimTime free_at = 0;
  uint32_t id = 0;
  TxnSlot slot = 0;
  bool operator>(const BusyExecutor& other) const {
    if (free_at != other.free_at) return free_at > other.free_at;
    return id > other.id;
  }
};

/// An executor with no transaction assigned.
struct IdleExecutor {
  SimTime free_at = 0;
  uint32_t id = 0;
  bool operator>(const IdleExecutor& other) const {
    if (free_at != other.free_at) return free_at > other.free_at;
    return id > other.id;
  }
};

}  // namespace

/// Contract context that replays `log` and then performs exactly one new
/// engine operation before pausing (see the file header of
/// sim_executor_pool.h).
class SimExecutorPool::SteppingContext final
    : public contract::ContractContext {
 public:
  SteppingContext(BatchEngine* engine, TxnSlot slot, uint32_t incarnation,
                  std::vector<LoggedOp>* log)
      : engine_(engine), slot_(slot), incarnation_(incarnation), log_(log) {}

  Result<Value> Read(const Key& key) override {
    if (pos_ < log_->size()) {
      const LoggedOp& op = (*log_)[pos_++];
      // Determinism check: the contract must re-issue the same op sequence.
      if (!op.is_read || op.key != key) {
        return Status::Internal("nondeterministic contract replay (read)");
      }
      return op.value;
    }
    if (did_new_op_) {
      // Should not happen: we pause immediately after the new op.
      return Status(kPauseCode, "step boundary");
    }
    did_new_op_ = true;
    Result<Value> r = engine_->Read(slot_, incarnation_, key);
    if (!r.ok()) return r.status();
    log_->push_back(LoggedOp{true, key, *r});
    return Status(kPauseCode, "step boundary");
  }

  Status Write(const Key& key, Value value) override {
    if (pos_ < log_->size()) {
      const LoggedOp& op = (*log_)[pos_++];
      if (op.is_read || op.key != key || op.value != value) {
        return Status::Internal("nondeterministic contract replay (write)");
      }
      return Status::OK();
    }
    if (did_new_op_) {
      return Status(kPauseCode, "step boundary");
    }
    did_new_op_ = true;
    Status s = engine_->Write(slot_, incarnation_, key, value);
    if (!s.ok()) return s;
    log_->push_back(LoggedOp{false, key, value});
    return Status(kPauseCode, "step boundary");
  }

  void EmitResult(Value value) override {
    // Buffer locally; only the final completing run forwards emits, so
    // replays do not duplicate them.
    emits_.push_back(value);
  }

  bool did_new_op() const { return did_new_op_; }
  const std::vector<Value>& emits() const { return emits_; }

 private:
  BatchEngine* engine_;
  TxnSlot slot_;
  uint32_t incarnation_;
  std::vector<LoggedOp>* log_;
  size_t pos_ = 0;
  bool did_new_op_ = false;
  std::vector<Value> emits_;
};


void SimExecutorPool::OnRestart(TxnSlot slot, bool readmit) {
  runs_[slot].log.clear();
  runs_[slot].started = false;
  needs_backoff_[slot] = true;
  if (readmit) ready_.emplace_back(slot, clock_);
  // A pinned slot restarts in place on its executor: the cleared log makes
  // its next step Begin afresh.
}

Status SimExecutorPool::Schedule() {
  BatchLedger& l = ledger_;
  BatchEngine& engine = *l.engine;
  const std::vector<txn::Transaction>& batch = *l.batch;
  const uint32_t n = l.n;
  runs_.assign(n, SlotRun{});
  needs_backoff_.assign(n, false);
  ready_.clear();
  for (TxnSlot s = 0; s < n; ++s) ready_.emplace_back(s, l.start_time);
  clock_ = l.start_time;
  acting_executor_ = 0;

  std::priority_queue<BusyExecutor, std::vector<BusyExecutor>, std::greater<>>
      busy;
  std::priority_queue<IdleExecutor, std::vector<IdleExecutor>, std::greater<>>
      idle;
  for (uint32_t e = 0; e < num_executors_; ++e) {
    idle.push(IdleExecutor{l.start_time, e});
  }
  SimTime engine_serial_free = l.start_time;
  uint32_t last_committed = 0;
  // Events carry virtual timestamps, so traces are byte-deterministic per
  // seed (determinism_test pins this).
  obs::Tracer& tracer = *obs_.tracer;

  // Deterministic per-slot jittered exponential backoff (see
  // ExecutionCostModel::restart_cost).
  auto restart_backoff = [&](TxnSlot slot) {
    uint32_t exp = std::min(l.consecutive_restarts[slot],
                            costs_.restart_backoff_cap);
    uint64_t jitter = 1 + ((slot * 2654435761u) >> 28) % 8;  // 1..8
    return costs_.restart_cost * jitter * (uint64_t{1} << exp);
  };

  // Hands waiting transactions to idle executors.
  auto assign = [&]() {
    if (ready_.size() > l.max_queue_depth) l.max_queue_depth = ready_.size();
    while (!ready_.empty() && !idle.empty()) {
      auto [slot, available_at] = ready_.front();
      ready_.pop_front();
      l.Claim(slot);
      IdleExecutor ex = idle.top();
      idle.pop();
      busy.push(
          BusyExecutor{std::max(ex.free_at, available_at), ex.id, slot});
    }
  };

  // Advances `slot` by one step at virtual time `now`, adding the consumed
  // virtual cost to `cost`. Returns nullopt when the step paused.
  auto step = [&](TxnSlot slot, SimTime now,
                  SimTime* cost) -> std::optional<AttemptOutcome> {
    SlotRun& run = runs_[slot];
    if (!run.started) {
      // Restarting in place consumes an abort taken while pinned.
      l.restart_pending[slot] = 0;
      run.incarnation = engine.Begin(slot);
      run.started = true;
      // 0 doubles as "not started", so a slot first started at virtual
      // time 0 takes the start of its next incarnation instead.
      if (l.first_start_us[slot] == 0) l.first_start_us[slot] = now;
      *cost += costs_.start_cost;
    }
    SteppingContext ctx(&engine, slot, run.incarnation, &run.log);
    Status s = l.registry->Execute(batch[slot], ctx);
    if (ctx.did_new_op()) *cost += costs_.op_cost;
    if (IsPause(s)) return std::nullopt;
    return FinishAttempt(engine, slot, run.incarnation, s, ctx.emits());
  };

  assign();
  while (!engine.AllCommitted()) {
    if (!l.error.ok()) return l.error;
    if (OverGlobalCap()) return GlobalCapError();
    if (busy.empty()) return StallError();

    l.occupancy_sum += busy.size();
    ++l.occupancy_samples;
    BusyExecutor ex = busy.top();
    busy.pop();
    const TxnSlot slot = ex.slot;

    // Apply pending restart backoff before re-running an aborted slot.
    if (needs_backoff_[slot]) {
      needs_backoff_[slot] = false;
      const SimTime pause = restart_backoff(slot);
      l.backoff_us[slot] += pause;
      busy.push(BusyExecutor{ex.free_at + pause, ex.id, slot});
      continue;
    }

    // Serialize the engine critical section across executors.
    const SimTime start = std::max(ex.free_at, engine_serial_free);
    clock_ = start;
    acting_executor_ = ex.id;
    l.lane[slot] = ex.id;
    SimTime cost = 0;
    const std::optional<AttemptOutcome> outcome = step(slot, start, &cost);
    const SimTime serial_cost = cost > 0 ? costs_.engine_serial_cost : 0;
    engine_serial_free = start + serial_cost;
    SimTime done = start + serial_cost + cost;
    l.exec_us[slot] += serial_cost + cost;

    if (!outcome) {
      busy.push(BusyExecutor{done, ex.id, slot});
    } else if (*outcome == AttemptOutcome::kAborted) {
      // Restart in place on the same executor (the abort callback already
      // cleared the run state and flagged backoff; defensively clear again
      // for engines that self-abort without the callback).
      runs_[slot].log.clear();
      runs_[slot].started = false;
      done += costs_.restart_cost;
      l.backoff_us[slot] += costs_.restart_cost;
      busy.push(BusyExecutor{done, ex.id, slot});
    } else {
      if (l.Release(slot, *outcome)) ready_.emplace_back(slot, done);
      idle.push(IdleExecutor{done, ex.id});
    }
    l.end_us = std::max(l.end_us, done);

    // Record commit times for transactions committed by this step.
    const std::vector<TxnSlot>& order = engine.SerializationOrder();
    for (; last_committed < order.size(); ++last_committed) {
      const TxnSlot committed_slot = order[last_committed];
      l.commit_us[committed_slot] = done;
      if (tracer.enabled()) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kTxnCommit;
        ev.pid = obs_.pid;
        ev.tid = ex.id;
        ev.ts_us = done;
        ev.txn = batch[committed_slot].id;
        ev.a = runs_[committed_slot].incarnation;
        ev.b = last_committed;
        tracer.Record(ev);
      }
    }

    assign();
  }
  return l.error;
}

}  // namespace thunderbolt::ce
