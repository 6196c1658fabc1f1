// StubEngine: the smallest BatchEngine the executor-pool suites drive.
// Every slot commits at its first Finish, except the slots listed in
// `always_abort`, which abort at every Finish forever — a probe for the
// pools' livelock bounds. It keeps the default
// SupportsConcurrentExecutors() == false, so a multi-worker thread pool
// must refuse it, and it reports whether a pool left its abort callback
// installed.
#ifndef THUNDERBOLT_TESTS_TESTUTIL_STUB_ENGINE_H_
#define THUNDERBOLT_TESTS_TESTUTIL_STUB_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ce/batch_engine.h"
#include "contract/kv.h"
#include "txn/transaction.h"

namespace thunderbolt::testutil {

class StubEngine final : public ce::BatchEngine {
 public:
  explicit StubEngine(uint32_t n, std::vector<ce::TxnSlot> always_abort = {})
      : n_(n), always_abort_(std::move(always_abort)), committed_(n, false) {}

  void SetAbortCallback(ce::AbortCallback cb) override { cb_ = std::move(cb); }
  bool has_abort_callback() const { return static_cast<bool>(cb_); }

  uint32_t Begin(ce::TxnSlot) override { return 0; }
  Result<ce::Value> Read(ce::TxnSlot, uint32_t, const ce::Key&) override {
    return ce::Value{0};
  }
  Status Write(ce::TxnSlot, uint32_t, const ce::Key&, ce::Value) override {
    return Status::OK();
  }
  void Emit(ce::TxnSlot, uint32_t, ce::Value) override {}
  Status Finish(ce::TxnSlot slot, uint32_t) override {
    if (std::find(always_abort_.begin(), always_abort_.end(), slot) !=
        always_abort_.end()) {
      ++total_aborts_;
      if (cb_) cb_(slot, obs::AbortReason::kValidationFailure);
      return Status::Aborted("stub: permanent abort");
    }
    if (!committed_[slot]) {
      committed_[slot] = true;
      ++committed_count_;
      order_.push_back(slot);
    }
    return Status::OK();
  }
  bool AllCommitted() const override { return committed_count_ == n_; }
  uint32_t committed_count() const override { return committed_count_; }
  uint64_t total_aborts() const override { return total_aborts_; }
  const std::vector<ce::TxnSlot>& SerializationOrder() const override {
    return order_;
  }
  ce::TxnRecord ExtractRecord(ce::TxnSlot) const override { return {}; }
  storage::WriteBatch FinalWrites() const override { return {}; }

 private:
  const uint32_t n_;
  const std::vector<ce::TxnSlot> always_abort_;
  ce::AbortCallback cb_;
  std::vector<bool> committed_;
  uint32_t committed_count_ = 0;
  uint64_t total_aborts_ = 0;
  std::vector<ce::TxnSlot> order_;
};

/// `count` kv.update transactions over a three-record set — enough to
/// drive StubEngine, which ignores the keys anyway.
inline std::vector<txn::Transaction> MakeKvBatch(size_t count) {
  std::vector<txn::Transaction> batch(count);
  for (size_t i = 0; i < count; ++i) {
    batch[i].id = i;
    batch[i].contract = contract::kKvUpdate;
    batch[i].accounts = {"r" + std::to_string(i % 3)};
    batch[i].params = {static_cast<ce::Value>(i)};
  }
  return batch;
}

}  // namespace thunderbolt::testutil

#endif  // THUNDERBOLT_TESTS_TESTUTIL_STUB_ENGINE_H_
