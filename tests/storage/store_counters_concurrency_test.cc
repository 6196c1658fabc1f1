// Pins the StoreCounters::ToStats() tearing contract (kv_store.h): a
// snapshot taken while readers run sees each counter individually torn-free
// and monotone, but NOT a consistent cross-counter cut. Exact totals only
// hold at quiescence.
//
// Runs under TSan (label: thread) — relaxed atomics on every counter mean
// the races here are benign by construction, and this test is the proof.
// The store is "mem", the backend the thread executor pool reads from.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/kv_store.h"

namespace thunderbolt::storage {
namespace {

constexpr int kReaders = 4;
constexpr int kOpsPerReader = 5000;
constexpr uint64_t kTotalReads = uint64_t{kReaders} * kOpsPerReader;

std::unique_ptr<KVStore> MakeStore() {
  std::unique_ptr<KVStore> store = StoreRegistry::Global().Create("mem");
  for (int i = 0; i < 32; ++i) {
    store->Put("key" + std::to_string(i), i);
  }
  return store;
}

/// Reader `t`'s traffic: half Get, half GetOrDefault, over 48 keys of
/// which 32 exist, so both the hit and the NotFound paths count.
void ReadTraffic(const KVStore& view, int t) {
  for (int i = 0; i < kOpsPerReader; ++i) {
    const std::string key = "key" + std::to_string((t * 7 + i) % 48);
    if (i % 2 == 0) {
      (void)view.Get(key);
    } else {
      (void)view.GetOrDefault(key, 0);
    }
  }
}

TEST(StoreCountersConcurrencyTest, SnapshotsAreMonotonePerCounter) {
  std::unique_ptr<KVStore> store = MakeStore();
  const StoreStats base = store->Stats();
  const uint64_t max_gets = base.gets + kTotalReads;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    // Const-path traffic only: Get/GetOrDefault are the operations the
    // contract allows concurrently with Stats().
    readers.emplace_back([&store, t] { ReadTraffic(*store, t); });
  }

  // The poller is the test: every mid-run snapshot must be per-counter
  // monotone relative to the previous one, and no counter may exceed the
  // traffic ever issued (a torn 64-bit load would show up as a wild value).
  StoreStats prev = base;
  uint64_t polls = 0;
  while (true) {
    const StoreStats s = store->Stats();
    EXPECT_GE(s.gets, prev.gets);
    EXPECT_LE(s.gets, max_gets);
    // Readers never write: the write-side counters stay at their base.
    EXPECT_EQ(s.puts, base.puts);
    EXPECT_EQ(s.live_keys, base.live_keys);
    prev = s;
    ++polls;
    if (polls % 64 == 0) std::this_thread::yield();
    // Stop polling once all reader work is observably complete.
    if (s.gets == max_gets) break;
  }

  for (auto& r : readers) r.join();

  // Quiescence: the snapshot is now exact.
  EXPECT_EQ(store->Stats().gets, max_gets);
}

TEST(StoreCountersConcurrencyTest, ConcurrentReadersAgreeWithSerialBaseline) {
  // The same traffic applied serially and concurrently must land on the
  // same totals: relaxed counter increments lose nothing, they only
  // reorder.
  std::unique_ptr<KVStore> serial = MakeStore();
  for (int t = 0; t < kReaders; ++t) ReadTraffic(*serial, t);

  std::unique_ptr<KVStore> concurrent = MakeStore();
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&concurrent, t] { ReadTraffic(*concurrent, t); });
  }
  for (auto& r : readers) r.join();

  const StoreStats want = serial->Stats();
  const StoreStats got = concurrent->Stats();
  EXPECT_EQ(want.gets, kTotalReads);  // MakeStore only writes.
  EXPECT_EQ(got.gets, want.gets);
  EXPECT_EQ(got.puts, want.puts);
  EXPECT_EQ(got.live_keys, want.live_keys);
}

}  // namespace
}  // namespace thunderbolt::storage
