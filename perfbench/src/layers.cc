#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

#include "ce/engine_registry.h"
#include "storage/kv_store.h"

namespace perfbench {

using thunderbolt::Result;
using thunderbolt::Status;
namespace ce = thunderbolt::ce;
namespace contract = thunderbolt::contract;
namespace storage = thunderbolt::storage;
namespace txn = thunderbolt::txn;

// ---------------------------------------------------------------------------
// Per-thread accumulators
// ---------------------------------------------------------------------------

namespace {

// Single writer (the owning thread) per slot: a relaxed load + store is
// race-free and avoids a locked read-modify-write per call.
struct Slot {
  std::array<std::atomic<uint64_t>, kNumOps> calls{};
  std::array<std::atomic<uint64_t>, kNumOps> ns{};
};

std::mutex& SlotsMutex() {
  static std::mutex mu;
  return mu;
}

// Slots outlive their threads, so totals stay monotone when a pool's
// workers exit.
std::vector<std::unique_ptr<Slot>>& Slots() {
  static std::vector<std::unique_ptr<Slot>> slots;
  return slots;
}

Slot& LocalSlot() {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    std::lock_guard<std::mutex> lk(SlotsMutex());
    Slots().push_back(std::make_unique<Slot>());
    slot = Slots().back().get();
  }
  return *slot;
}

}  // namespace

void RecordOp(Op op, uint64_t ns) {
  Slot& slot = LocalSlot();
  const size_t i = static_cast<size_t>(op);
  slot.calls[i].store(slot.calls[i].load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  slot.ns[i].store(slot.ns[i].load(std::memory_order_relaxed) + ns,
                   std::memory_order_relaxed);
}

OpTotals SumOps() {
  OpTotals totals;
  std::lock_guard<std::mutex> lk(SlotsMutex());
  for (const auto& slot : Slots()) {
    for (size_t i = 0; i < kNumOps; ++i) {
      totals.calls[i] += slot->calls[i].load(std::memory_order_relaxed);
      totals.ns[i] += slot->ns[i].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

OpTotals OpTotals::operator-(const OpTotals& earlier) const {
  OpTotals d;
  for (size_t i = 0; i < kNumOps; ++i) {
    d.calls[i] = calls[i] - earlier.calls[i];
    d.ns[i] = ns[i] - earlier.ns[i];
  }
  return d;
}

OpTotals& OpTotals::operator+=(const OpTotals& other) {
  for (size_t i = 0; i < kNumOps; ++i) {
    calls[i] += other.calls[i];
    ns[i] += other.ns[i];
  }
  return *this;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

size_t SpanRecorder::Begin(std::string name, uint64_t id) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  spans_[index].end_ns = NowNs();
  // Spans close innermost-first (ScopedSpan is RAII).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<std::pair<std::string, uint64_t>> SpanRecorder::SelfNsByName()
    const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, uint64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] += dur - std::min(dur, child_ns[i]);
  }
  return {self.begin(), self.end()};
}

uint64_t SpanRecorder::TotalNs(const std::string& name) const {
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_ns - s.start_ns;
  }
  return total;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%" PRId64 ",\"id\":%" PRIu64 "}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.id);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Engine decorator
// ---------------------------------------------------------------------------

namespace {

class TimedEngine final : public ce::BatchEngine {
 public:
  explicit TimedEngine(std::unique_ptr<ce::BatchEngine> inner)
      : inner_(std::move(inner)) {}

  bool SupportsConcurrentExecutors() const override {
    return inner_->SupportsConcurrentExecutors();
  }
  void SetAbortCallback(ce::AbortCallback cb) override {
    inner_->SetAbortCallback(std::move(cb));
  }
  uint32_t Begin(ce::TxnSlot slot) override {
    OpTimer t(Op::kEngineBegin);
    return inner_->Begin(slot);
  }
  Result<storage::Value> Read(ce::TxnSlot slot, uint32_t incarnation,
                              const storage::Key& key) override {
    OpTimer t(Op::kEngineRead);
    return inner_->Read(slot, incarnation, key);
  }
  Status Write(ce::TxnSlot slot, uint32_t incarnation,
               const storage::Key& key, storage::Value value) override {
    OpTimer t(Op::kEngineWrite);
    return inner_->Write(slot, incarnation, key, value);
  }
  void Emit(ce::TxnSlot slot, uint32_t incarnation,
            storage::Value value) override {
    OpTimer t(Op::kEngineEmit);
    inner_->Emit(slot, incarnation, value);
  }
  Status Finish(ce::TxnSlot slot, uint32_t incarnation) override {
    OpTimer t(Op::kEngineFinish);
    return inner_->Finish(slot, incarnation);
  }
  // Polled by the pool's bookkeeping; left untimed so the pool's own
  // time stays in ce.pool.self_frac.
  bool AllCommitted() const override { return inner_->AllCommitted(); }
  uint32_t committed_count() const override {
    return inner_->committed_count();
  }
  uint64_t total_aborts() const override { return inner_->total_aborts(); }
  const std::vector<ce::TxnSlot>& SerializationOrder() const override {
    OpTimer t(Op::kEngineExtract);
    return inner_->SerializationOrder();
  }
  ce::TxnRecord ExtractRecord(ce::TxnSlot slot) const override {
    OpTimer t(Op::kEngineExtract);
    return inner_->ExtractRecord(slot);
  }
  storage::WriteBatch FinalWrites() const override {
    OpTimer t(Op::kEngineExtract);
    return inner_->FinalWrites();
  }

 private:
  std::unique_ptr<ce::BatchEngine> inner_;
};

// ---------------------------------------------------------------------------
// Store decorator
// ---------------------------------------------------------------------------

class TimedStore final : public storage::KVStore {
 public:
  explicit TimedStore(std::unique_ptr<storage::KVStore> inner)
      : inner_(std::move(inner)) {}

  // The inner backend's name, so anything keyed by it is unchanged.
  std::string name() const override { return inner_->name(); }

  Result<storage::VersionedValue> Get(const storage::Key& key) const override {
    OpTimer t(Op::kStoreGet);
    return inner_->Get(key);
  }
  storage::Value GetOrDefault(const storage::Key& key,
                              storage::Value default_value) const override {
    OpTimer t(Op::kStoreGet);
    return inner_->GetOrDefault(key, default_value);
  }
  size_t size() const override { return inner_->size(); }
  Status Put(const storage::Key& key, storage::Value value) override {
    OpTimer t(Op::kStoreWrite);
    return inner_->Put(key, value);
  }
  Status Delete(const storage::Key& key) override {
    OpTimer t(Op::kStoreWrite);
    return inner_->Delete(key);
  }
  Status Write(const storage::WriteBatch& batch) override {
    OpTimer t(Op::kStoreWrite);
    return inner_->Write(batch);
  }
  Status RestoreEntry(const storage::Key& key,
                      const storage::VersionedValue& vv) override {
    OpTimer t(Op::kStoreWrite);
    return inner_->RestoreEntry(key, vv);
  }
  Status Flush() override {
    OpTimer t(Op::kStoreOther);
    return inner_->Flush();
  }
  std::vector<storage::ScanEntry> Scan(const storage::Key& begin,
                                       const storage::Key& end,
                                       size_t limit) const override {
    OpTimer t(Op::kStoreOther);
    return inner_->Scan(begin, end, limit);
  }
  std::shared_ptr<const storage::StoreSnapshot> Snapshot() const override {
    OpTimer t(Op::kStoreOther);
    return inner_->Snapshot();
  }
  // A fork is an independent store; the decorator follows it so work on
  // forked state stays timed.
  std::unique_ptr<storage::KVStore> Fork() const override {
    OpTimer t(Op::kStoreOther);
    return std::make_unique<TimedStore>(inner_->Fork());
  }
  void Reserve(size_t expected_keys) override {
    inner_->Reserve(expected_keys);
  }
  uint64_t ContentFingerprint() const override {
    OpTimer t(Op::kStoreOther);
    return inner_->ContentFingerprint();
  }
  storage::StoreStats Stats() const override { return inner_->Stats(); }

 private:
  std::unique_ptr<storage::KVStore> inner_;
};

// ---------------------------------------------------------------------------
// Contract decorator
// ---------------------------------------------------------------------------

class TimedContract final : public contract::Contract {
 public:
  explicit TimedContract(const contract::Contract* inner) : inner_(inner) {}

  Status Execute(const txn::Transaction& tx,
                 contract::ContractContext& ctx) const override {
    OpTimer t(Op::kContractExecute);
    return inner_->Execute(tx, ctx);
  }

 private:
  const contract::Contract* inner_;  // Owned by TimedContracts::inner_.
};

}  // namespace

void RegisterDecorators() {
  ce::EngineRegistry::Global().Register(
      kTimedEngine,
      [](const storage::ReadView* base,
         uint32_t batch_size) -> std::unique_ptr<ce::BatchEngine> {
        auto inner =
            ce::EngineRegistry::Global().Create("ce", base, batch_size);
        if (inner == nullptr) return nullptr;
        return std::make_unique<TimedEngine>(std::move(inner));
      });
  storage::StoreRegistry::Global().Register(
      kTimedStore,
      [](const storage::StoreOptions& options)
          -> std::unique_ptr<storage::KVStore> {
        std::string inner_spec = "mem";
        for (const auto& [key, value] :
             storage::ParseStoreParams(options.params)) {
          if (key == "inner") inner_spec = value;
        }
        storage::StoreOptions inner_options = options;
        inner_options.params.clear();
        auto inner =
            storage::StoreRegistry::Global().Create(inner_spec, inner_options);
        if (inner == nullptr) return nullptr;
        return std::make_unique<TimedStore>(std::move(inner));
      });
}

TimedContracts::TimedContracts()
    : inner_(contract::Registry::CreateDefault()) {}

void TimedContracts::Cover(const std::vector<txn::Transaction>& batch) {
  for (const txn::Transaction& tx : batch) {
    if (covered_.count(tx.contract) != 0) continue;
    covered_.insert(tx.contract);
    const contract::Contract* inner = inner_->Lookup(tx.contract);
    // Unknown names stay unregistered, so Execute reports NotFound exactly
    // as the default registry would.
    if (inner != nullptr) {
      timed_.Register(tx.contract, std::make_unique<TimedContract>(inner));
    }
  }
}

}  // namespace perfbench
