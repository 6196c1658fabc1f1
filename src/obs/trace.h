// Transaction-lifecycle event tracing.
//
// A Tracer is a sink for TraceEvent records emitted by the executor pools,
// the engines (via the abort callback's AbortReason), and the sharded
// cluster (validation, epoch fences, reconfiguration, migration, crashes).
// The default sink is the no-op NullTracer, so a disabled trace costs one
// virtual call guarded by one `enabled()` branch (see bench_micro
// BM_TraceDisabled). The real sink is RingTracer: a bounded, mutex-guarded
// ring buffer that keeps the most recent `capacity` events and exports them
// as Chrome trace-event-format JSON — load the file at https://ui.perfetto.dev
// or chrome://tracing.
//
// Timestamps are supplied by the recorder, not the tracer: virtual SimTime
// microseconds under the sim executor pool (same seed -> byte-identical
// trace JSON, asserted by determinism_test) and steady_clock microseconds
// under the thread pool (wall-clock, nondeterministic by nature).
#ifndef THUNDERBOLT_OBS_TRACE_H_
#define THUNDERBOLT_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace thunderbolt::obs {

/// Why a transaction was torn down and re-queued. Threaded through the
/// BatchEngine abort callback (ce/batch_engine.h), so the executor pools
/// can break total_aborts down by cause.
enum class AbortReason : uint8_t {
  kNone = 0,
  /// CC: no consistent read source exists for the acting transaction
  /// (paper section 8.4 case 1).
  kReadWriteConflict,
  /// CC: a victim of someone else's abort or re-write — its consumed value
  /// was invalidated (section 8.4 case 2, Figure 10b).
  kCascadeInvalidation,
  /// OCC: version check failed in the Finish validate+commit section.
  kValidationFailure,
  /// 2PL-No-Wait: a read/write/upgrade lock could not be granted.
  kLockAcquireFailure,
  /// Pool: the per-transaction consecutive-restart bound tripped; the
  /// batch fails with Internal (livelock guard, ce/executor_pool.h).
  kRestartBound,
};

inline constexpr size_t kNumAbortReasons = 6;

/// Stable snake_case name, used as the JSON field / trace-arg spelling.
const char* AbortReasonName(AbortReason reason);

/// What a TraceEvent describes. Span kinds carry a duration; instant kinds
/// are points in time.
enum class EventKind : uint8_t {
  kTxnSpan = 0,     // Span: one transaction, admit/start -> last attempt end.
  kTxnCommit,       // Instant: transaction entered the serialization order.
  kTxnRestart,      // Instant: transaction aborted + re-queued (has reason).
  kBatchSpan,       // Span: one batch through an executor pool.
  kWave,            // Instant: thread pool double-buffer swap.
  kValidateSpan,    // Span: replica validation replay of a committed block.
  kCrossShardSpan,  // Span: committed cross-shard batch execution.
  kEpochFence,      // Instant: epoch boundary fence at a replica.
  kReconfiguration, // Instant: reconfiguration (DAG switch) completed.
  kMigration,       // Instant: hot-key migration batch applied.
  kCrash,           // Instant: replica crashed.
  kWalAppend,       // Span: one WAL group-commit barrier (buffered frames flushed).
  kWalCheckpoint,   // Span: checkpoint written + log truncated.
  kWalRecover,      // Span: recovery replay (checkpoint load + log suffix).
  kCrossHoldSpan,   // Span: one cross-shard txn's hold on one participant shard.
};

/// Trace-viewer name for the kind ("txn", "commit", "restart", ...).
const char* EventKindName(EventKind kind);

/// Position of a span in a cross-shard causal chain. Spans with
/// flow != kNone additionally export Chrome *flow* records ("ph":"s"/"t"/
/// "f" sharing the span's trace_id), which Perfetto renders as arrows
/// linking the spans on different shards into one causal tree.
enum class FlowPhase : uint8_t {
  kNone = 0,  // Not part of a flow; no extra record exported.
  kStart,     // First span of the chain (the txn's home shard).
  kStep,      // Intermediate participant shard.
  kEnd,       // Last participant shard; terminates the arrow chain.
};

/// One trace record. Fixed-size POD so the ring buffer never allocates per
/// event. `pid` scopes the event to a replica (0 outside the cluster) and
/// `tid` to an executor/worker lane; `a`/`b` are kind-specific arguments:
///   kTxnSpan:     a = restarts so far, b = serialization-order index
///   kTxnRestart:  a = consecutive restarts after this one
///   kBatchSpan:   a = batch size, b = total aborts
///   kWave:        a = wave size (slots re-admitted)
///   kValidateSpan: a = block sequence, b = txn count
///   kCrossShardSpan: a = txn count, b = remote accesses
///   kEpochFence / kReconfiguration: a = epoch, b = ending round
///   kMigration:   a = epoch, b = moved key count
///   kWalAppend:   a = frames flushed, b = bytes flushed
///   kWalCheckpoint: a = entries written, b = last sequence covered
///   kWalRecover:  a = checkpoint entries restored, b = log frames replayed
///   kCrossHoldSpan: a = participant index, b = participant count
///
/// `trace_id`/`span_id`/`parent_id` form the causal tree: all spans of one
/// logical transaction share a trace_id (the txn id), each span gets a
/// per-trace span_id, and parent_id names the span it hangs under (0 for
/// the root). They default to 0 = "not part of a tree", in which case the
/// exporter emits exactly the pre-causality record bytes.
struct TraceEvent {
  EventKind kind = EventKind::kTxnSpan;
  AbortReason reason = AbortReason::kNone;
  FlowPhase flow = FlowPhase::kNone;
  uint32_t pid = 0;
  uint32_t tid = 0;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;
  uint64_t txn = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

/// True for kinds exported as Chrome "X" (complete) events; instants
/// export as "i".
bool IsSpanKind(EventKind kind);

/// Event sink. The base class IS the null tracer: `enabled()` is false and
/// `Record` drops the event, so instrumentation sites guard the argument
/// construction with one branch:
///
///   if (tracer->enabled()) tracer->Record({...});
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual bool enabled() const { return false; }
  virtual void Record(const TraceEvent& event) { (void)event; }
};

/// The explicit no-op sink. A process-wide instance is available from
/// NullTracerInstance() so "no tracer" never means a null pointer.
class NullTracer final : public Tracer {};

/// Shared no-op sink (safe from any thread; it has no state).
Tracer* NullTracerInstance();

/// Bounded ring-buffer sink. Keeps the most recent `capacity` events;
/// older events are overwritten and counted in dropped(). Record is
/// mutex-guarded so concurrent workers can share one tracer (the
/// `thread`-labeled stress test runs this under TSan).
class RingTracer final : public Tracer {
 public:
  explicit RingTracer(size_t capacity = 1 << 16);

  bool enabled() const override { return true; }
  void Record(const TraceEvent& event) override;

  size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  size_t size() const;
  /// Events ever recorded.
  uint64_t total_recorded() const;
  /// Events overwritten by wraparound.
  uint64_t dropped() const;
  void Clear();

  /// Events oldest-to-newest.
  std::vector<TraceEvent> Snapshot() const;

  /// Chrome trace-event-format JSON. The header's "otherData" carries the
  /// ring's drop accounting ({"recorded_events":N,"dropped_events":M}) so
  /// a wrapped capture is visibly partial; events with a FlowPhase emit an
  /// extra flow record each (see FlowToChromeJson). Load in Perfetto
  /// (ui.perfetto.dev) or chrome://tracing. Deterministic given the same
  /// event sequence.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`. Returns false on IO failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  std::vector<TraceEvent> ring_;  // Ring storage, wraps at capacity_.
  uint64_t recorded_ = 0;         // Total ever; head = recorded_ % capacity_.
};

/// Serializes one event as a Chrome trace-event object (no trailing
/// newline). Exposed for tests.
std::string EventToChromeJson(const TraceEvent& event);

/// The companion Chrome *flow* record for an event with flow != kNone
/// ("ph":"s"/"t"/"f" at the span's start, sharing its pid/tid and
/// "id" = trace_id), or "" when the event carries no flow. Perfetto binds
/// the record to the span open at that timestamp on that track, drawing
/// the causal arrow. Exposed for tests.
std::string FlowToChromeJson(const TraceEvent& event);

}  // namespace thunderbolt::obs

#endif  // THUNDERBOLT_OBS_TRACE_H_
