// Kill-at-random-offset recovery battery for the "wal" backend.
//
// The durability contract under test (wal_kv_store.h): after a crash that
// leaves the log truncated or torn at ANY byte offset, recovery must land
// the store on the state produced by some prefix of the applied mutation
// sequence — never a corrupted or interleaved state — and must never
// abort. 100 seeds randomize the op history, the wrapper configuration
// (inner backend, group_commit, checkpoint cadence) and the kill offset.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/kv_store.h"
#include "storage/wal_kv_store.h"
#include "testutil/testutil.h"

namespace thunderbolt::storage {
namespace {

namespace fs = std::filesystem;

/// One recorded mutation, replayable onto any KVStore.
struct Mutation {
  WriteBatch batch;
};

std::string KeyName(uint64_t i) { return "acct" + std::to_string(i % 40); }

Mutation RandomMutation(Rng* rng) {
  Mutation m;
  const uint64_t entries = 1 + rng->NextBounded(4);
  for (uint64_t e = 0; e < entries; ++e) {
    Key key = KeyName(rng->NextBounded(200));
    if (rng->NextBounded(4) == 0) {
      m.batch.Delete(key);
    } else {
      m.batch.Put(key, static_cast<Value>(rng->NextBounded(1000000)));
    }
  }
  return m;
}

void Apply(KVStore* store, const Mutation& m) {
  ASSERT_TRUE(store->Write(m.batch).ok());
}

/// State after applying mutations[0, count) to a fresh store: the
/// reference for prefix equality, versions included.
std::unique_ptr<KVStore> ReplayPrefix(const std::vector<Mutation>& mutations,
                                      size_t count) {
  std::unique_ptr<KVStore> store = StoreRegistry::Global().Create("sorted");
  for (size_t i = 0; i < count; ++i) Apply(store.get(), mutations[i]);
  return store;
}

void ExpectSameContent(const KVStore& got, const KVStore& want,
                       const std::string& context) {
  EXPECT_EQ(got.ContentFingerprint(), want.ContentFingerprint()) << context;
  std::vector<ScanEntry> a = got.Scan("", "");
  std::vector<ScanEntry> b = want.Scan("", "");
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << context;
    EXPECT_EQ(a[i].value.value, b[i].value.value) << context << a[i].key;
    EXPECT_EQ(a[i].value.version, b[i].value.version) << context << a[i].key;
  }
}

std::string FreshDir(const std::string& tag) {
  fs::path dir = fs::path(::testing::TempDir()) / ("wal-recovery-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

size_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

void TruncateFile(const std::string& path, size_t size) {
  fs::resize_file(path, size);
}

/// Creates a wal store over `dir` with a seed-randomized configuration.
std::unique_ptr<KVStore> OpenWal(const std::string& dir, Rng* rng) {
  static const char* kInners[] = {"mem", "sorted"};
  const size_t group_commit = 1 + rng->NextBounded(8);
  // checkpoint_every=0 disables checkpoints in a third of the runs so the
  // pure log-replay path stays covered.
  const size_t checkpoint_every =
      rng->NextBounded(3) == 0 ? 0 : 5 + rng->NextBounded(40);
  const std::string spec =
      "wal:dir=" + dir + ",group_commit=" + std::to_string(group_commit) +
      ",checkpoint_every=" + std::to_string(checkpoint_every) +
      ",inner=" + kInners[rng->NextBounded(2)];
  std::unique_ptr<KVStore> store = StoreRegistry::Global().Create(spec);
  EXPECT_NE(store, nullptr) << spec;
  return store;
}

/// Reopens `dir` (any inner works — content is backend-agnostic) and
/// asserts the recovered state equals the reference state after some
/// prefix of `mutations`. Returns the matching prefix length.
size_t ExpectRecoversToPrefix(const std::string& dir,
                              const std::vector<Mutation>& mutations,
                              size_t min_prefix, const std::string& context) {
  std::unique_ptr<KVStore> recovered =
      StoreRegistry::Global().Create("wal:dir=" + dir + ",inner=sorted");
  if (recovered == nullptr) {
    ADD_FAILURE() << context << ": reopen failed";
    return 0;
  }

  // Match the fingerprint against every prefix state, longest first:
  // adjacent prefixes can legitimately coincide (a deleted-absent-key
  // no-op), and the durability bound below is about the newest state
  // recovery can account for. Any match deep-compares equal by
  // construction.
  const uint64_t got_fp = recovered->ContentFingerprint();
  for (size_t k = mutations.size() + 1; k-- > 0;) {
    std::unique_ptr<KVStore> want = ReplayPrefix(mutations, k);
    if (want->ContentFingerprint() == got_fp) {
      EXPECT_GE(k, min_prefix)
          << context << ": recovered to a prefix older than the last "
          << "durability barrier";
      ExpectSameContent(*recovered, *want, context + "/prefix");
      return k;
    }
  }
  ADD_FAILURE() << context
                << ": recovered state matches no committed prefix, fp="
                << got_fp;
  return 0;
}

TEST(WalRecoveryPropertyTest, KillAtRandomOffsetRecoversACommittedPrefix) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(testutil::kDefaultSeed + seed);
    const std::string dir = FreshDir("kill" + std::to_string(seed));
    std::vector<Mutation> mutations;
    const size_t ops = 20 + rng.NextBounded(60);
    {
      std::unique_ptr<KVStore> store = OpenWal(dir, &rng);
      for (size_t i = 0; i < ops; ++i) {
        mutations.push_back(RandomMutation(&rng));
        Apply(store.get(), mutations.back());
      }
      // Destructor flush = the final group-commit barrier before the
      // "crash".
    }
    const std::string log = dir + "/" + WalKVStore::kLogFileName;
    const size_t log_size = FileSize(log);
    // Kill at a random offset: everything past it is lost, exactly as a
    // torn write at that boundary would leave the file.
    TruncateFile(log, rng.NextBounded(log_size + 1));
    ExpectRecoversToPrefix(dir, mutations, /*min_prefix=*/0,
                           "seed=" + std::to_string(seed));
    fs::remove_all(dir);
  }
}

TEST(WalRecoveryPropertyTest, CleanShutdownRecoversEverythingAfterFlush) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(testutil::kDefaultSeed ^ (seed * 0x9e3779b9ULL));
    const std::string dir = FreshDir("clean" + std::to_string(seed));
    std::vector<Mutation> mutations;
    const size_t ops = 10 + rng.NextBounded(40);
    {
      std::unique_ptr<KVStore> store = OpenWal(dir, &rng);
      for (size_t i = 0; i < ops; ++i) {
        mutations.push_back(RandomMutation(&rng));
        Apply(store.get(), mutations.back());
      }
      ASSERT_TRUE(store->Flush().ok());
    }
    // No truncation: the full history must come back, not just a prefix.
    const size_t k = ExpectRecoversToPrefix(
        dir, mutations, /*min_prefix=*/mutations.size(),
        "clean seed=" + std::to_string(seed));
    EXPECT_EQ(k, mutations.size());
    fs::remove_all(dir);
  }
}

TEST(WalRecoveryPropertyTest, GarbageTailNeverAbortsRecovery) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(testutil::kDefaultSeed + 1000 + seed);
    const std::string dir = FreshDir("garbage" + std::to_string(seed));
    std::vector<Mutation> mutations;
    {
      std::unique_ptr<KVStore> store = OpenWal(dir, &rng);
      for (size_t i = 0; i < 30; ++i) {
        mutations.push_back(RandomMutation(&rng));
        Apply(store.get(), mutations.back());
      }
      ASSERT_TRUE(store->Flush().ok());
    }
    // Torn-write debris: random bytes appended past the valid frames.
    const std::string log = dir + "/" + WalKVStore::kLogFileName;
    std::FILE* f = std::fopen(log.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const size_t garbage = 1 + rng.NextBounded(64);
    for (size_t i = 0; i < garbage; ++i) {
      std::fputc(static_cast<int>(rng.NextBounded(256)), f);
    }
    std::fclose(f);
    const size_t k = ExpectRecoversToPrefix(
        dir, mutations, /*min_prefix=*/mutations.size(),
        "garbage seed=" + std::to_string(seed));
    EXPECT_EQ(k, mutations.size());
    fs::remove_all(dir);
  }
}

TEST(WalRecoveryPropertyTest, CheckpointPlusLogSuffixReplay) {
  // Deterministic leg pinning the checkpoint interaction: a checkpoint
  // mid-history, more mutations after it, then a kill that truncates the
  // whole log — recovery must land at least on the checkpoint state.
  Rng rng(testutil::kDefaultSeed);
  const std::string dir = FreshDir("ckpt");
  std::vector<Mutation> mutations;
  constexpr size_t kBeforeCheckpoint = 25;
  {
    std::unique_ptr<KVStore> store = StoreRegistry::Global().Create(
        "wal:dir=" + dir + ",group_commit=4,checkpoint_every=0,inner=sorted");
    ASSERT_NE(store, nullptr);
    auto* wal = static_cast<WalKVStore*>(store.get());
    for (size_t i = 0; i < kBeforeCheckpoint; ++i) {
      mutations.push_back(RandomMutation(&rng));
      Apply(store.get(), mutations.back());
    }
    ASSERT_TRUE(wal->Checkpoint().ok());
    for (size_t i = 0; i < 15; ++i) {
      mutations.push_back(RandomMutation(&rng));
      Apply(store.get(), mutations.back());
    }
  }
  // Wipe the post-checkpoint log entirely: recovery = checkpoint alone.
  TruncateFile(dir + "/" + WalKVStore::kLogFileName, 0);
  const size_t k = ExpectRecoversToPrefix(dir, mutations,
                                          /*min_prefix=*/kBeforeCheckpoint,
                                          "checkpoint");
  EXPECT_EQ(k, kBeforeCheckpoint);
  fs::remove_all(dir);
}

TEST(WalRecoveryPropertyTest, RecoveryCountersAndRepeatedReopen) {
  Rng rng(testutil::kDefaultSeed);
  const std::string dir = FreshDir("counters");
  std::vector<Mutation> mutations;
  {
    std::unique_ptr<KVStore> store = StoreRegistry::Global().Create(
        "wal:dir=" + dir + ",group_commit=1,checkpoint_every=0,inner=mem");
    ASSERT_NE(store, nullptr);
    for (size_t i = 0; i < 10; ++i) {
      mutations.push_back(RandomMutation(&rng));
      Apply(store.get(), mutations.back());
    }
    const StoreStats stats = store->Stats();
    EXPECT_EQ(stats.wal_appends, 10u);
    EXPECT_EQ(stats.wal_syncs, 10u);  // group_commit=1: barrier per frame.
    EXPECT_EQ(stats.wal_recovered_records, 0u);
  }
  uint64_t fp = 0;
  for (int reopen = 0; reopen < 3; ++reopen) {
    std::unique_ptr<KVStore> store = StoreRegistry::Global().Create(
        "wal:dir=" + dir + ",inner=sorted");
    ASSERT_NE(store, nullptr);
    const StoreStats stats = store->Stats();
    EXPECT_EQ(stats.wal_recovered_records, 10u) << "reopen " << reopen;
    if (reopen == 0) {
      fp = store->ContentFingerprint();
    } else {
      // Recovery is idempotent: reopening without new writes never
      // changes the state.
      EXPECT_EQ(store->ContentFingerprint(), fp) << "reopen " << reopen;
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace thunderbolt::storage
