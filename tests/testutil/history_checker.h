// Serial-replay history checker: an oracle for batch engines that does not
// trust the engine's own bookkeeping. Given a batch, the serialization
// order an engine declared and the per-transaction records it extracted
// (first-read / last-write form), it re-executes the batch serially in that
// order with baselines::ExecuteSerial and compares what a serial execution
// would have observed against what the engine reported:
//   - every emitted value (Read-Complete, paper section 10);
//   - every first-read value;
//   - the final store fingerprint (Write-Complete).
// In the spirit of Elle (Kingsbury & Alvaro, VLDB 2020): check the observed
// history, not the engine's claims.
#ifndef THUNDERBOLT_TESTS_TESTUTIL_HISTORY_CHECKER_H_
#define THUNDERBOLT_TESTS_TESTUTIL_HISTORY_CHECKER_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ce/batch_engine.h"
#include "contract/contract.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"
#include "workload/workload.h"

namespace thunderbolt::testutil {

/// Replays `batch` serially in `order` over a copy of `before` (the state
/// the engine executed against) and checks it against the engine's history:
/// `records` is indexed by slot (ConcurrencyController::ExtractRecord) and
/// `after` is the engine's store once its final writes are applied. Also
/// checks that `order` is a permutation of the slots and that each record's
/// order index matches its position. The failure message names the first
/// divergences.
::testing::AssertionResult CheckSerialHistory(
    const contract::Registry& registry,
    const std::vector<txn::Transaction>& batch,
    const std::vector<ce::TxnSlot>& order,
    const std::vector<ce::TxnRecord>& records,
    const storage::MemKVStore& before, const storage::KVStore& after);

/// One oracle run of the concurrency controller: `batches` batches of
/// `batch_size` transactions from the named workload, each executed by a
/// fresh ConcurrencyController on the named executor pool, checked with
/// CheckSerialHistory and applied to the store before the next batch.
struct CeOracleCell {
  std::string workload;
  workload::WorkloadOptions options;
  std::string pool;  // "sim" or "thread".
  uint32_t executors = 8;
  uint32_t batch_size = 200;
  uint32_t batches = 2;
};

/// Runs `cell` and reports every divergence as a gtest failure. Also
/// checks that each batch fully commits with an acyclic graph and that the
/// workload invariant holds at the end.
void RunCeOracle(const CeOracleCell& cell);

/// The sweep both pools run: smallbank, zipfian ycsb and tpcc_lite, each
/// over 20 seeds at a default skew plus a skew sweep; tpcc_lite runs 1-2
/// warehouses at batch 200-300, where co-writers of the warehouse YTD
/// commit one after another.
std::vector<CeOracleCell> CeOracleSweep(const std::string& pool,
                                        uint32_t executors);

/// gtest parameter-name generator: "<workload>_<knobs>_seed<n>".
std::string CeOracleCellName(
    const ::testing::TestParamInfo<CeOracleCell>& info);

/// gtest value printer, so test listings show the cell's knobs rather
/// than its raw bytes (which include heap pointers).
void PrintTo(const CeOracleCell& cell, std::ostream* os);

}  // namespace thunderbolt::testutil

#endif  // THUNDERBOLT_TESTS_TESTUTIL_HISTORY_CHECKER_H_
