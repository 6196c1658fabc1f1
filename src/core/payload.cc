#include "core/payload.h"

namespace thunderbolt::core {

namespace {

void HashOperation(Sha256& h, const txn::Operation& op) {
  h.UpdateInt<uint8_t>(static_cast<uint8_t>(op.type));
  h.UpdateInt<uint32_t>(static_cast<uint32_t>(op.key.size()));
  h.Update(op.key);
  h.UpdateInt(op.value);
}

void HashTransaction(Sha256& h, const txn::Transaction& tx) {
  Hash256 d = tx.Digest();
  h.Update(d.bytes.data(), d.bytes.size());
}

}  // namespace

Hash256 ThunderboltPayload::ContentDigest() const {
  if (digest_cached_) return digest_cache_;
  Sha256 h;
  h.Update("thunderbolt-payload", 19);
  h.UpdateInt<uint8_t>(static_cast<uint8_t>(kind));
  h.UpdateInt(shard);
  h.UpdateInt<uint32_t>(static_cast<uint32_t>(preplayed.size()));
  for (const PreplayedTxn& p : preplayed) {
    HashTransaction(h, p.tx);
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(p.rw_set.reads.size()));
    for (const txn::Operation& op : p.rw_set.reads) HashOperation(h, op);
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(p.rw_set.writes.size()));
    for (const txn::Operation& op : p.rw_set.writes) HashOperation(h, op);
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(p.emitted.size()));
    for (storage::Value v : p.emitted) h.UpdateInt(v);
  }
  h.UpdateInt<uint32_t>(static_cast<uint32_t>(cross_shard.size()));
  for (const txn::Transaction& tx : cross_shard) HashTransaction(h, tx);
  digest_cache_ = h.Finalize();
  digest_cached_ = true;
  return digest_cache_;
}

const std::vector<uint32_t>& ThunderboltPayload::CrossAccountIds(
    AccountInterner* interner) const {
  if (!cross_account_ids_.empty()) return cross_account_ids_;
  for (const txn::Transaction& tx : cross_shard) {
    for (const std::string& account : tx.accounts) {
      cross_account_ids_.push_back(interner->Intern(account));
    }
  }
  return cross_account_ids_;
}

uint64_t ThunderboltPayload::SizeBytes() const {
  // Rough wire estimate: a transaction is ~120 bytes; a preplayed entry
  // additionally carries its read/write sets and results.
  uint64_t size = 64;  // Header.
  for (const PreplayedTxn& p : preplayed) {
    size += 120;
    size += 40 * (p.rw_set.reads.size() + p.rw_set.writes.size());
    size += 8 * p.emitted.size();
  }
  size += 120 * cross_shard.size();
  return size;
}

}  // namespace thunderbolt::core
