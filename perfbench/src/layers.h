// Layer timing from outside the program under test.
//
// Nothing here edits src/: every per-layer number comes from
//  - forwarding decorators over the program's own extension points (a
//    ce::BatchEngine registered in ce::EngineRegistry, contract::Contract
//    wrappers in a registry the benchmark builds, a storage::KVStore
//    registered in storage::StoreRegistry), which add per-thread call
//    counts and nanoseconds;
//  - spans the benchmark records around its own calls into the program
//    (pool Run, validation, digest, generation, Cluster::Run).
//
// Per-op layers get accumulators, not spans: one span per engine/store
// call would not fit in memory. Each thread owns its accumulator slot and
// is its only writer; Sum() reads the slots after the pool is quiescent.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <time.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "contract/contract.h"
#include "txn/transaction.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of every thread of this process. Time a thread spends blocked,
/// descheduled or stolen by the hypervisor does not count, so a measure
/// taken in it moves much less with host load than wall time does.
inline uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// The per-op boundaries the decorators time.
enum class Op : size_t {
  kEngineBegin,
  kEngineRead,
  kEngineWrite,
  kEngineEmit,
  kEngineFinish,
  /// SerializationOrder / ExtractRecord / FinalWrites, on the caller
  /// thread after the workers are quiescent.
  kEngineExtract,
  kContractExecute,
  kStoreGet,
  kStoreWrite,
  /// Scan, Snapshot, Fork, fingerprint, stats and other store calls.
  kStoreOther,
  kCount,
};
inline constexpr size_t kNumOps = static_cast<size_t>(Op::kCount);

/// Calls and nanoseconds per Op, summed over threads.
struct OpTotals {
  std::array<uint64_t, kNumOps> calls{};
  std::array<uint64_t, kNumOps> ns{};

  uint64_t Calls(Op op) const { return calls[static_cast<size_t>(op)]; }
  uint64_t Ns(Op op) const { return ns[static_cast<size_t>(op)]; }
  /// Window delta; both operands come from Sum(), which is monotone.
  OpTotals operator-(const OpTotals& earlier) const;
  OpTotals& operator+=(const OpTotals& other);
};

/// Adds one call of `ns` nanoseconds to the calling thread's slot.
void RecordOp(Op op, uint64_t ns);
/// Totals over every thread that ever recorded. Call with the recording
/// threads quiescent (after ExecutorPool::Run / Cluster::Run returns).
OpTotals SumOps();

/// Times one call into a layer.
class OpTimer {
 public:
  explicit OpTimer(Op op) : op_(op), start_(NowNs()) {}
  ~OpTimer() { RecordOp(op_, NowNs() - start_); }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  Op op_;
  uint64_t start_;
};

/// Batch- and block-level spans, kept in memory and written out at the
/// end of the run as Chrome/Perfetto trace JSON. Single-threaded: only
/// the benchmark's main thread opens and closes spans.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  // Index into spans(), -1 for a root.
    uint64_t id = 0;      // Batch or chunk number the span belongs to.
  };

  /// Opens a span under the innermost open one; returns its index.
  size_t Begin(std::string name, uint64_t id);
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time its direct children cover, summed per span
  /// name over all spans with that name.
  std::vector<std::pair<std::string, uint64_t>> SelfNsByName() const;
  /// Summed duration per span name.
  uint64_t TotalNs(const std::string& name) const;

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null recorder records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t id)
      : recorder_(recorder),
        index_(recorder == nullptr ? 0 : recorder->Begin(name, id)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_;
};

/// Engine registry name of the timed decorator over "ce".
inline constexpr char kTimedEngine[] = "ce.timed";
/// Store registry name of the timed decorator; spec "timed:inner=<spec>".
inline constexpr char kTimedStore[] = "timed";

/// Registers kTimedEngine in ce::EngineRegistry::Global() and kTimedStore
/// in storage::StoreRegistry::Global(). Idempotent.
void RegisterDecorators();

/// A contract registry whose entries forward to the default registry's
/// contracts and time each Execute. Contracts are wrapped on first sight
/// (Cover), so a contract added to the program later needs no change here.
class TimedContracts {
 public:
  TimedContracts();

  /// Wraps every contract `batch` names that is not wrapped yet. Call
  /// between batches, never while a pool is running.
  void Cover(const std::vector<thunderbolt::txn::Transaction>& batch);

  const thunderbolt::contract::Registry& registry() const { return timed_; }

 private:
  std::shared_ptr<thunderbolt::contract::Registry> inner_;
  thunderbolt::contract::Registry timed_;
  std::set<std::string> covered_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
