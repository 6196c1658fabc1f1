#include "testutil/history_checker.h"

#include <map>
#include <sstream>

#include "baselines/serial_executor.h"
#include "ce/concurrency_controller.h"
#include "ce/executor_pool.h"

namespace thunderbolt::testutil {

::testing::AssertionResult CheckSerialHistory(
    const contract::Registry& registry,
    const std::vector<txn::Transaction>& batch,
    const std::vector<ce::TxnSlot>& order,
    const std::vector<ce::TxnRecord>& records,
    const storage::MemKVStore& before, const storage::KVStore& after) {
  const size_t n = batch.size();
  if (order.size() != n || records.size() != n) {
    return ::testing::AssertionFailure()
           << "history covers " << order.size() << " ordered slots and "
           << records.size() << " records for a batch of " << n;
  }
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    const ce::TxnSlot slot = order[i];
    if (slot >= n || seen[slot]) {
      return ::testing::AssertionFailure()
             << "order is not a permutation: slot " << slot
             << " at position " << i;
    }
    seen[slot] = true;
    if (records[slot].order != static_cast<int>(i)) {
      return ::testing::AssertionFailure()
             << "slot " << slot << " sits at position " << i
             << " but its record says " << records[slot].order;
    }
  }

  std::vector<txn::Transaction> serial_batch;
  serial_batch.reserve(n);
  for (ce::TxnSlot slot : order) serial_batch.push_back(batch[slot]);
  storage::MemKVStore serial_store = before.Clone();
  baselines::SerialExecutionResult serial = baselines::ExecuteSerial(
      registry, serial_batch, &serial_store, Micros(1));

  constexpr size_t kMaxReported = 5;
  size_t divergences = 0;
  std::ostringstream report;
  std::ostringstream unreported;
  auto diverge = [&](size_t pos) -> std::ostream& {
    if (++divergences > kMaxReported) return unreported;
    const ce::TxnSlot slot = order[pos];
    report << "\n  position " << pos << ", slot " << slot << " (txn "
           << batch[slot].id << ", " << batch[slot].contract << "): ";
    return report;
  };

  for (size_t i = 0; i < n; ++i) {
    const ce::TxnRecord& got = records[order[i]];
    const ce::TxnRecord& want = serial.records[i];
    if (got.emitted != want.emitted) {
      diverge(i) << "emitted " << ::testing::PrintToString(got.emitted)
                 << ", serial replay emits "
                 << ::testing::PrintToString(want.emitted);
    }
    // The engine keeps one read per key, taken before the transaction's own
    // write to it; the serial replay logs every read, so the first per key
    // is the one to match.
    std::map<storage::Key, storage::Value> serial_first;
    for (const txn::Operation& op : want.rw_set.reads) {
      serial_first.emplace(op.key, op.value);
    }
    for (const txn::Operation& op : got.rw_set.reads) {
      auto it = serial_first.find(op.key);
      if (it == serial_first.end()) {
        diverge(i) << "read " << op.key << " = " << op.value
                   << ", which the serial replay never reads";
      } else if (it->second != op.value) {
        diverge(i) << "first read of " << op.key << " = " << op.value
                   << ", serial replay reads " << it->second;
      }
    }
  }

  const uint64_t got_fp = after.ContentFingerprint();
  const uint64_t want_fp = serial_store.ContentFingerprint();
  if (got_fp != want_fp) {
    ++divergences;
    report << "\n  final store fingerprint " << got_fp
           << ", serial replay ends at " << want_fp;
  }

  if (divergences == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << divergences << " divergence(s) from the serial replay"
         << report.str();
}

void RunCeOracle(const CeOracleCell& cell) {
  auto w = workload::WorkloadRegistry::Global().Create(cell.workload,
                                                        cell.options);
  ASSERT_NE(w, nullptr) << cell.workload;
  storage::MemKVStore store;
  w->InitStore(&store);
  auto registry = contract::Registry::CreateDefault();
  auto pool = ce::CreateExecutorPool(cell.pool, cell.executors,
                                     ce::ExecutionCostModel{});
  ASSERT_NE(pool, nullptr) << cell.pool;

  for (uint32_t b = 0; b < cell.batches; ++b) {
    std::vector<txn::Transaction> batch = w->MakeBatch(cell.batch_size);
    const storage::MemKVStore before = store.Clone();
    ce::ConcurrencyController cc(&store, static_cast<uint32_t>(batch.size()));
    auto result = pool->Run(cc, *registry, batch);
    ASSERT_TRUE(result.ok()) << "batch " << b << ": "
                             << result.status().ToString();
    ASSERT_TRUE(cc.AllCommitted()) << "batch " << b;
    EXPECT_TRUE(cc.GraphIsAcyclic()) << "batch " << b;

    std::vector<ce::TxnRecord> records;
    records.reserve(batch.size());
    for (ce::TxnSlot slot = 0; slot < batch.size(); ++slot) {
      records.push_back(cc.ExtractRecord(slot));
    }
    ASSERT_TRUE(store.Write(cc.FinalWrites()).ok());
    EXPECT_TRUE(CheckSerialHistory(*registry, batch, cc.SerializationOrder(),
                                   records, before, store))
        << "batch " << b;
  }
  Status invariant = w->CheckInvariant(store);
  EXPECT_TRUE(invariant.ok()) << invariant.ToString();
}

std::vector<CeOracleCell> CeOracleSweep(const std::string& pool,
                                        uint32_t executors) {
  constexpr uint64_t kSeeds = 20;
  constexpr double kDefaultTheta = 0.85;
  const std::vector<double> kSkews = {0.5, 0.7, 0.9, 0.99};

  std::vector<CeOracleCell> cells;
  auto add = [&](const std::string& workload_name, uint64_t seed,
                 double theta) {
    CeOracleCell cell;
    cell.workload = workload_name;
    cell.pool = pool;
    cell.executors = executors;
    cell.options.seed = seed;
    cell.options.theta = theta;
    if (workload_name == "smallbank") {
      cell.options.num_records = 200;
    } else if (workload_name == "ycsb") {
      cell.options.num_records = 500;
      cell.options.distribution = "zipfian";
    } else {
      // Every Payment (half the mix) writes its warehouse's YTD, so with
      // one or two warehouses long runs of co-writers commit on one key.
      cell.options.num_warehouses = 1 + seed % 2;
      cell.batch_size = 200 + 100 * ((seed / 2) % 2);
    }
    cells.push_back(cell);
  };
  for (const char* workload_name : {"smallbank", "ycsb", "tpcc_lite"}) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      add(workload_name, seed, kDefaultTheta);
    }
    for (size_t i = 0; i < kSkews.size(); ++i) {
      for (uint64_t s = 0; s < 2; ++s) {
        add(workload_name, 100 + 2 * i + s, kSkews[i]);
      }
    }
  }
  return cells;
}

std::string CeOracleCellName(
    const ::testing::TestParamInfo<CeOracleCell>& info) {
  const CeOracleCell& cell = info.param;
  std::ostringstream name;
  name << cell.workload << "_theta"
       << static_cast<int>(cell.options.theta * 100 + 0.5);
  if (cell.workload == "tpcc_lite") {
    name << "_w" << cell.options.num_warehouses << "_b" << cell.batch_size;
  }
  name << "_seed" << cell.options.seed;
  return name.str();
}

void PrintTo(const CeOracleCell& cell, std::ostream* os) {
  *os << cell.workload << " on " << cell.pool << " x" << cell.executors
      << ", theta " << cell.options.theta << ", seed " << cell.options.seed;
  if (cell.workload == "tpcc_lite") {
    *os << ", " << cell.options.num_warehouses << " warehouse(s)";
  }
  *os << ", " << cell.batches << " batches of " << cell.batch_size;
}

}  // namespace thunderbolt::testutil
