// The "sorted" storage backend: a std::map-ordered twin of MemKVStore.
//
// Keeps keys in lexicographic order so Scan() is a real range walk
// (lower_bound + iterate) instead of the collect-and-sort pass the hash
// backend pays. Point operations are O(log n); Snapshot()/Fork() are O(n)
// copies like "mem". Pick it when range-placement audits or future TPC-C
// table scans dominate; "mem" is faster on point reads and writes.
#ifndef THUNDERBOLT_STORAGE_SORTED_KV_STORE_H_
#define THUNDERBOLT_STORAGE_SORTED_KV_STORE_H_

#include <map>

#include "storage/kv_store.h"

namespace thunderbolt::storage {

class SortedKVStore final : public KVStore {
 public:
  SortedKVStore() = default;

  std::string name() const override { return "sorted"; }
  Result<VersionedValue> Get(const Key& key) const override;
  Value GetOrDefault(const Key& key, Value default_value) const override;
  Status Put(const Key& key, Value value) override;
  Status Delete(const Key& key) override;
  Status Write(const WriteBatch& batch) override;
  Status RestoreEntry(const Key& key, const VersionedValue& vv) override;
  size_t size() const override { return map_.size(); }
  std::vector<ScanEntry> Scan(const Key& begin, const Key& end,
                              size_t limit = 0) const override;
  std::shared_ptr<const StoreSnapshot> Snapshot() const override;
  std::unique_ptr<KVStore> Fork() const override;
  uint64_t ContentFingerprint() const override;
  StoreStats Stats() const override;

 private:
  std::map<Key, VersionedValue> map_;
  mutable StoreCounters counters_;
};

}  // namespace thunderbolt::storage

#endif  // THUNDERBOLT_STORAGE_SORTED_KV_STORE_H_
