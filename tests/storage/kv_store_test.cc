#include "storage/kv_store.h"

#include <gtest/gtest.h>

namespace thunderbolt::storage {
namespace {

TEST(MemKVStoreTest, GetMissingIsNotFound) {
  MemKVStore store;
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
  EXPECT_EQ(store.GetOrDefault("nope", 7), 7);
}

TEST(MemKVStoreTest, PutBumpsVersion) {
  MemKVStore store;
  ASSERT_TRUE(store.Put("k", 1).ok());
  auto v1 = store.Get("k");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->value, 1);
  EXPECT_EQ(v1->version, 1u);
  ASSERT_TRUE(store.Put("k", 2).ok());
  auto v2 = store.Get("k");
  EXPECT_EQ(v2->value, 2);
  EXPECT_EQ(v2->version, 2u);
}

TEST(MemKVStoreTest, WriteBatchAtomicallyApplies) {
  MemKVStore store;
  WriteBatch batch;
  batch.Put("a", 1);
  batch.Put("b", 2);
  batch.Put("a", 3);  // Later entry wins.
  ASSERT_TRUE(store.Write(batch).ok());
  EXPECT_EQ(store.GetOrDefault("a", 0), 3);
  EXPECT_EQ(store.GetOrDefault("b", 0), 2);
  EXPECT_EQ(store.size(), 2u);
  // "a" was written twice within the batch: version 2.
  EXPECT_EQ(store.Get("a")->version, 2u);
}

TEST(MemKVStoreTest, CloneIsIndependent) {
  MemKVStore store;
  store.Put("x", 10);
  MemKVStore copy = store.Clone();
  copy.Put("x", 20);
  EXPECT_EQ(store.GetOrDefault("x", 0), 10);
  EXPECT_EQ(copy.GetOrDefault("x", 0), 20);
}

TEST(MemKVStoreTest, FingerprintDetectsDivergence) {
  MemKVStore a, b;
  a.Put("k1", 1);
  a.Put("k2", 2);
  b.Put("k2", 2);
  b.Put("k1", 1);
  // Insertion order must not matter.
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());
  b.Put("k1", 9);
  EXPECT_NE(a.ContentFingerprint(), b.ContentFingerprint());
}

TEST(MemKVStoreTest, CloneCarriesVersionsAndFingerprint) {
  MemKVStore store;
  store.Put("x", 1);
  store.Put("x", 2);  // version 2
  store.Put("y", 7);
  MemKVStore copy = store.Clone();
  EXPECT_EQ(copy.size(), store.size());
  EXPECT_EQ(copy.ContentFingerprint(), store.ContentFingerprint());
  auto vv = copy.Get("x");
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ(vv->value, 2);
  EXPECT_EQ(vv->version, 2u);
}

TEST(MemKVStoreTest, ReserveDoesNotChangeContent) {
  MemKVStore store;
  store.Put("a", 1);
  uint64_t before = store.ContentFingerprint();
  store.Reserve(10000);
  EXPECT_EQ(store.ContentFingerprint(), before);
  EXPECT_EQ(store.size(), 1u);
}

TEST(MemKVStoreTest, BatchWithDuplicateKeysBumpsVersionPerEntry) {
  MemKVStore store;
  WriteBatch batch;
  batch.Put("k", 1);
  batch.Put("k", 2);  // Last write wins; both bump the version.
  ASSERT_TRUE(store.Write(batch).ok());
  auto vv = store.Get("k");
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ(vv->value, 2);
  EXPECT_EQ(vv->version, 2u);
}

TEST(MemKVStoreTest, BatchMixesFreshAndLiveKeys) {
  MemKVStore store;
  store.Put("live", 1);
  WriteBatch batch;
  batch.Put("live", 2);
  batch.Put("fresh", 3);
  ASSERT_TRUE(store.Write(batch).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.GetOrDefault("live", 0), 2);
  EXPECT_EQ(store.Get("live")->version, 2u);
  EXPECT_EQ(store.Get("fresh")->version, 1u);
}

TEST(MemKVStoreTest, EmptyBatchIsNoop) {
  MemKVStore store;
  WriteBatch batch;
  EXPECT_TRUE(batch.empty());
  ASSERT_TRUE(store.Write(batch).ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST(WriteBatchTest, ClearResets) {
  WriteBatch batch;
  batch.Put("a", 1);
  EXPECT_EQ(batch.size(), 1u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}


TEST(MemKVStoreTest, DeleteRemovesKeyAndVersionState) {
  MemKVStore store;
  ASSERT_TRUE(store.Put("k", 1).ok());
  ASSERT_TRUE(store.Put("k", 2).ok());
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
  EXPECT_EQ(store.size(), 0u);
  // Deleting an absent key is a no-op; re-creation restarts at version 1.
  ASSERT_TRUE(store.Delete("k").ok());
  ASSERT_TRUE(store.Put("k", 3).ok());
  EXPECT_EQ(store.Get("k")->version, 1u);
}

TEST(MemKVStoreTest, BatchDeleteAppliesInOrder) {
  MemKVStore store;
  store.Put("a", 1);
  WriteBatch batch;
  batch.Delete("a");
  batch.Put("a", 2);   // Later entry wins: key re-created at version 1.
  batch.Put("b", 3);
  batch.Delete("c");   // Absent key: no-op.
  ASSERT_TRUE(store.Write(batch).ok());
  EXPECT_EQ(store.Get("a")->value, 2);
  EXPECT_EQ(store.Get("a")->version, 1u);
  EXPECT_EQ(store.Get("b")->value, 3);
  EXPECT_EQ(store.size(), 2u);
}

TEST(MemKVStoreTest, ScanSortsOnDemand) {
  MemKVStore store;
  store.Put("b", 2);
  store.Put("a", 1);
  store.Put("c", 3);
  std::vector<ScanEntry> all = store.Scan("", "");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, "a");
  EXPECT_EQ(all[1].key, "b");
  EXPECT_EQ(all[2].key, "c");
  std::vector<ScanEntry> window = store.Scan("a", "c");
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].key, "a");
  EXPECT_EQ(window[1].key, "b");
  EXPECT_EQ(store.Scan("", "", 1).size(), 1u);
}

TEST(MemKVStoreTest, SnapshotIgnoresLaterWrites) {
  MemKVStore store;
  store.Put("k", 1);
  std::shared_ptr<const StoreSnapshot> snap = store.Snapshot();
  store.Put("k", 2);
  store.Put("fresh", 9);
  EXPECT_EQ(snap->GetOrDefault("k", -1), 1);
  EXPECT_FALSE(snap->Get("fresh").ok());
  EXPECT_EQ(snap->size(), 1u);
  EXPECT_EQ(store.GetOrDefault("k", -1), 2);
}

TEST(MemKVStoreTest, ForkMatchesCloneSemantics) {
  MemKVStore store;
  store.Put("k", 1);
  std::unique_ptr<KVStore> fork = store.Fork();
  MemKVStore clone = store.Clone();
  EXPECT_EQ(fork->ContentFingerprint(), clone.ContentFingerprint());
  fork->Put("k", 2);
  EXPECT_EQ(store.GetOrDefault("k", -1), 1);
}

TEST(StoreRegistryTest, GlobalKnowsAllBuiltins) {
  StoreRegistry& registry = StoreRegistry::Global();
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{
                                  "mem", "sorted", "wal"}));
  for (const std::string& name : registry.Names()) {
    std::unique_ptr<KVStore> store = registry.Create(name);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->name(), name);
    EXPECT_EQ(store->size(), 0u);
  }
  EXPECT_EQ(registry.Create("leveldb"), nullptr);
  EXPECT_FALSE(registry.Contains("leveldb"));
}

TEST(StoreRegistryTest, SpecSyntaxResolvesBaseNameAndParams) {
  StoreRegistry& registry = StoreRegistry::Global();
  // Contains validates the base name only; params are the factory's job.
  EXPECT_TRUE(registry.Contains("wal:group_commit=4,inner=sorted"));
  EXPECT_TRUE(registry.Contains("mem:capactiy=16"));
  EXPECT_FALSE(registry.Contains("rocksdb:path=/tmp/x"));

  std::unique_ptr<KVStore> store =
      registry.Create("wal:group_commit=4,inner=sorted");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->name(), "wal");

  // Unknown params are a configuration error, not silently ignored: the
  // plain backends take none, and a wrapper's inner spec is checked too.
  EXPECT_EQ(registry.Create("mem:capactiy=16"), nullptr);
  EXPECT_EQ(registry.Create("sorted:x=1"), nullptr);
  EXPECT_EQ(registry.Create("wal:fsycn=1"), nullptr);
  EXPECT_EQ(registry.Create("wal:inner=nosuch"), nullptr);
  EXPECT_EQ(registry.Create("wal:inner=mem:capactiy=16"), nullptr);
}

TEST(StoreRegistryTest, ParseStoreParamsSplitsPairsAndNestsInner) {
  auto params = ParseStoreParams("capacity=16,inner=wal:group_commit=2");
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].first, "capacity");
  EXPECT_EQ(params[0].second, "16");
  // `inner` swallows the rest of the string: nested specs carry their own
  // commas and must reach the inner factory intact.
  EXPECT_EQ(params[1].first, "inner");
  EXPECT_EQ(params[1].second, "wal:group_commit=2");

  EXPECT_TRUE(ParseStoreParams("").empty());
  // A bare key (no '=') surfaces with an empty value so factories can
  // reject it by name instead of silently dropping it.
  auto bare = ParseStoreParams("fsync");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].first, "fsync");
  EXPECT_EQ(bare[0].second, "");
}

TEST(KVStoreTest, FlushIsANoopByDefault) {
  MemKVStore store;
  EXPECT_TRUE(store.Flush().ok());
  std::unique_ptr<KVStore> sorted = StoreRegistry::Global().Create("sorted");
  ASSERT_NE(sorted, nullptr);
  EXPECT_TRUE(sorted->Flush().ok());
}

TEST(KVStoreTest, RestoreEntryInstallsExactVersionOnEveryBuiltin) {
  for (const char* name : {"mem", "sorted", "wal:inner=sorted"}) {
    std::unique_ptr<KVStore> store = StoreRegistry::Global().Create(name);
    ASSERT_NE(store, nullptr) << name;
    ASSERT_TRUE(store->RestoreEntry("k", VersionedValue{42, 17}).ok()) << name;
    auto got = store->Get("k");
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(got->value, 42) << name;
    EXPECT_EQ(got->version, 17u) << name;
    // The next Put resumes the normal bump from the restored version.
    ASSERT_TRUE(store->Put("k", 43).ok()) << name;
    EXPECT_EQ(store->Get("k")->version, 18u) << name;
  }
}

TEST(StoreRegistryTest, ExpectedKeysHintIsHonored) {
  // The hint must not change observable content (Reserve is semantics-free).
  StoreOptions options;
  options.expected_keys = 1024;
  std::unique_ptr<KVStore> store = StoreRegistry::Global().Create("mem",
                                                                  options);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 0u);
  store->Put("k", 1);
  EXPECT_EQ(store->GetOrDefault("k", 0), 1);
}

}  // namespace
}  // namespace thunderbolt::storage
