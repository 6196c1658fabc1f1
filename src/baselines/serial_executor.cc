#include "baselines/serial_executor.h"

namespace thunderbolt::baselines {

namespace {

using storage::Key;
using storage::Value;

/// Context executing directly against the store, buffering writes until the
/// transaction completes (so failed contracts leave no partial state).
class SerialContext final : public contract::ContractContext {
 public:
  explicit SerialContext(const storage::KVStore* store) : store_(store) {}

  Result<Value> Read(const Key& key) override {
    ++ops;
    auto wit = writes.find(key);
    if (wit != writes.end()) {
      record.rw_set.reads.push_back(
          txn::Operation{txn::OpType::kRead, key, wit->second});
      return wit->second;
    }
    Value v = store_->GetOrDefault(key, 0);
    record.rw_set.reads.push_back(
        txn::Operation{txn::OpType::kRead, key, v});
    return v;
  }

  Status Write(const Key& key, Value value) override {
    ++ops;
    writes[key] = value;
    return Status::OK();
  }

  void EmitResult(Value value) override { record.emitted.push_back(value); }

  ce::TxnRecord record;
  std::map<Key, Value> writes;
  uint64_t ops = 0;

 private:
  const storage::KVStore* store_;
};

}  // namespace

ce::TxnRecord ExecuteSerialTxn(const contract::Registry& registry,
                               const txn::Transaction& tx,
                               storage::KVStore* store, uint64_t* ops) {
  SerialContext ctx(store);
  Status s = registry.Execute(tx, ctx);
  if (s.ok()) {
    for (const auto& [key, value] : ctx.writes) {
      store->Put(key, value);
      ctx.record.rw_set.writes.push_back(
          txn::Operation{txn::OpType::kWrite, key, value});
    }
  } else {
    // Deterministic no-op: drop buffered writes, keep the record empty.
    ctx.record.rw_set.Clear();
    ctx.record.emitted.clear();
  }
  *ops = ctx.ops;
  return std::move(ctx.record);
}

SerialExecutionResult ExecuteSerial(const contract::Registry& registry,
                                    const std::vector<txn::Transaction>& batch,
                                    storage::KVStore* store,
                                    SimTime op_cost) {
  SerialExecutionResult result;
  result.records.reserve(batch.size());
  int order = 0;
  for (const txn::Transaction& tx : batch) {
    uint64_t ops = 0;
    result.records.push_back(ExecuteSerialTxn(registry, tx, store, &ops));
    result.records.back().order = order++;
    result.total_ops += ops;
    result.duration += ops * op_cost;
  }
  return result;
}

}  // namespace thunderbolt::baselines
