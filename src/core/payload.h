// Thunderbolt block payloads (the BlockContent carried by DAG vertices).
//
// A shard proposer's block carries up to three sections:
//   - preplayed single-shard transactions with their CE outcomes
//     (read/write sets, results, scheduled order) — the EOV path;
//   - raw cross-shard transactions, submitted to the DAG without
//     execution (rule P1) — the OE path;
//   - a marker making the block a Skip block (section 5.4) or a Shift
//     block (section 6).
#ifndef THUNDERBOLT_CORE_PAYLOAD_H_
#define THUNDERBOLT_CORE_PAYLOAD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "dag/block.h"
#include "txn/transaction.h"

namespace thunderbolt::core {

/// A single-shard transaction together with its preplay outcome. Blocks
/// list these in the CE's scheduled (serialization) order.
struct PreplayedTxn {
  txn::Transaction tx;
  txn::ReadWriteSet rw_set;
  std::vector<storage::Value> emitted;
};

/// Dense ids for account strings, assigned 0, 1, 2, ... in first-seen
/// order. A simulated cluster keeps one (SharedClusterState::accounts), so
/// each account string is hashed once per payload rather than once per
/// replica, and per-replica account indexes can be flat vectors.
class AccountInterner {
 public:
  /// Returned by Find for an account never interned.
  static constexpr uint32_t kUnknown = UINT32_MAX;

  uint32_t Intern(const std::string& account) {
    return ids_.try_emplace(account, static_cast<uint32_t>(ids_.size()))
        .first->second;
  }
  uint32_t Find(const std::string& account) const {
    auto it = ids_.find(account);
    return it == ids_.end() ? kUnknown : it->second;
  }
  /// Number of ids handed out; every id is below it.
  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

enum class PayloadKind : uint8_t {
  kNormal = 0,  // Preplayed single-shard txs and/or cross-shard txs.
  kSkip = 1,    // Preplay paused awaiting cross-shard finalization (5.4).
  kShift = 2,   // Reconfiguration vote (section 6).
};

class ThunderboltPayload final : public dag::BlockContent {
 public:
  ThunderboltPayload() = default;
  /// Copies drop the digest and account-id memos so a mutated copy
  /// recomputes them.
  ThunderboltPayload(const ThunderboltPayload& other)
      : kind(other.kind),
        shard(other.shard),
        preplayed(other.preplayed),
        cross_shard(other.cross_shard) {}
  ThunderboltPayload& operator=(const ThunderboltPayload& other) {
    if (this != &other) {
      kind = other.kind;
      shard = other.shard;
      preplayed = other.preplayed;
      cross_shard = other.cross_shard;
      digest_cached_ = false;
      cross_account_ids_.clear();
    }
    return *this;
  }

  PayloadKind kind = PayloadKind::kNormal;
  /// The shard this proposer owned when creating the block.
  ShardId shard = 0;
  /// EOV section: preplayed single-shard transactions in scheduled order.
  std::vector<PreplayedTxn> preplayed;
  /// OE section: cross-shard transactions awaiting total ordering.
  std::vector<txn::Transaction> cross_shard;

  /// Cached after the first call; payloads are immutable once proposed.
  Hash256 ContentDigest() const override;

  /// Approximate wire size, used by the simulated network's bandwidth and
  /// processing cost models.
  uint64_t SizeBytes() const override;

  /// The interned ids of every cross_shard transaction's accounts,
  /// flattened in transaction order: transaction i's ids follow those of
  /// transactions 0..i-1, one per entry of its `accounts`. Computed by the
  /// first caller and then reused; every call must pass the same interner.
  const std::vector<uint32_t>& CrossAccountIds(AccountInterner* interner) const;

 private:
  mutable Hash256 digest_cache_{};
  mutable bool digest_cached_ = false;
  /// Empty until computed (recomputing an empty list is free).
  mutable std::vector<uint32_t> cross_account_ids_;
};

}  // namespace thunderbolt::core

#endif  // THUNDERBOLT_CORE_PAYLOAD_H_
