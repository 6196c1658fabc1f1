#include "core/cross_shard_executor.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "baselines/serial_executor.h"

namespace thunderbolt::core {

CrossShardResult CrossShardExecutor::Execute(
    const std::vector<const txn::Transaction*>& txs, storage::KVStore* store,
    const std::vector<ShardId>* home_shards,
    placement::AccessTracker* tracker) const {
  CrossShardResult result;
  if (txs.empty()) return result;
  const bool track = mapper_ != nullptr && home_shards != nullptr &&
                     home_shards->size() == txs.size();

  // Execute in commit order (the state outcome), accumulating per-account
  // queue times (the virtual-time plan). A transaction's cost lands on
  // every account queue it touches; queues drain in parallel on the worker
  // pool, so the makespan is bounded below by the heaviest queue and by
  // total work divided by the workers.
  std::unordered_map<std::string, SimTime> account_queue;
  SimTime total = 0;
  for (size_t t = 0; t < txs.size(); ++t) {
    const txn::Transaction& tx = *txs[t];
    if (track) {
      // Remote-access accounting: every account this transaction reaches
      // outside its home shard is a pull the placement policy could have
      // avoided — the signal hot-key migration ranks on.
      const ShardId home = (*home_shards)[t];
      for (const std::string& account : tx.accounts) {
        if (mapper_->ShardOfAccount(account) != home) {
          ++result.remote_accesses;
          if (tracker != nullptr) tracker->RecordRemoteAccess(account, home);
        }
      }
    }
    uint64_t ops = 0;
    baselines::ExecuteSerialTxn(*registry_, tx, store, &ops);
    const SimTime duration = ops * op_cost_;
    result.total_ops += ops;
    ++result.executed;
    total += duration;
    // Chained dependency: the transaction starts after every queue it
    // participates in has drained; its cost extends all of them.
    SimTime ready = 0;
    for (const std::string& account : tx.accounts) {
      ready = std::max(ready, account_queue[account]);
    }
    for (const std::string& account : tx.accounts) {
      account_queue[account] = ready + duration;
    }
  }
  result.distinct_accounts = account_queue.size();
  for (const auto& [account, finish] : account_queue) {
    result.critical_path = std::max(result.critical_path, finish);
  }
  result.duration =
      std::max(total / num_workers_, result.critical_path);
  return result;
}

}  // namespace thunderbolt::core
