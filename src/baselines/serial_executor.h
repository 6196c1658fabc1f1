// Serial execution, as used by the Tusk baseline: transactions are executed
// one after another against storage in their committed order (the paper's
// Order-Execute model with no execution parallelism).
#ifndef THUNDERBOLT_BASELINES_SERIAL_EXECUTOR_H_
#define THUNDERBOLT_BASELINES_SERIAL_EXECUTOR_H_

#include <vector>

#include "ce/batch_engine.h"
#include "common/types.h"
#include "contract/contract.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

namespace thunderbolt::baselines {

struct SerialExecutionResult {
  std::vector<ce::TxnRecord> records;  // In input order.
  SimTime duration = 0;                // Virtual time consumed.
  uint64_t total_ops = 0;
};

/// Executes one transaction against `store` (writes applied when it
/// commits) and returns its record; `*ops` receives the storage operations
/// it performed. A contract-level failure is a no-op with an empty record.
ce::TxnRecord ExecuteSerialTxn(const contract::Registry& registry,
                               const txn::Transaction& tx,
                               storage::KVStore* store, uint64_t* ops);

/// Executes `batch` sequentially against `store` (writes applied as each
/// transaction commits). `op_cost` is charged per storage operation on the
/// virtual clock. Transactions that fail at the contract level (bad args)
/// are applied as no-ops deterministically.
SerialExecutionResult ExecuteSerial(const contract::Registry& registry,
                                    const std::vector<txn::Transaction>& batch,
                                    storage::KVStore* store,
                                    SimTime op_cost);

}  // namespace thunderbolt::baselines

#endif  // THUNDERBOLT_BASELINES_SERIAL_EXECUTOR_H_
