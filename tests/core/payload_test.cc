#include "core/payload.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace thunderbolt::core {
namespace {

ThunderboltPayload MakePayload() {
  ThunderboltPayload p;
  p.kind = PayloadKind::kNormal;
  p.shard = 3;
  PreplayedTxn t;
  t.tx.id = 7;
  t.tx.contract = "smallbank.send_payment";
  t.tx.accounts = {"a", "b"};
  t.tx.params = {5};
  t.rw_set.reads.push_back({txn::OpType::kRead, "a/checking", 100});
  t.rw_set.writes.push_back({txn::OpType::kWrite, "a/checking", 95});
  t.emitted = {1};
  p.preplayed.push_back(t);
  txn::Transaction cross;
  cross.id = 8;
  cross.contract = "smallbank.send_payment";
  cross.accounts = {"c", "d"};
  cross.params = {2};
  p.cross_shard.push_back(cross);
  return p;
}

TEST(PayloadTest, DigestIsDeterministic) {
  EXPECT_EQ(MakePayload().ContentDigest(), MakePayload().ContentDigest());
}

TEST(PayloadTest, DigestCoversKind) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.kind = PayloadKind::kSkip;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversShard) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.shard = 4;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversDeclaredReads) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.preplayed[0].rw_set.reads[0].value += 1;  // Tampered read value.
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversDeclaredWrites) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.preplayed[0].rw_set.writes[0].value += 1;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversEmittedResults) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.preplayed[0].emitted[0] = 0;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversCrossSection) {
  ThunderboltPayload a = MakePayload();
  ThunderboltPayload b = MakePayload();
  b.cross_shard[0].params[0] += 1;
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, DigestCoversScheduleOrder) {
  ThunderboltPayload a = MakePayload();
  PreplayedTxn second = a.preplayed[0];
  second.tx.id = 9;
  a.preplayed.push_back(second);
  ThunderboltPayload b = a;
  std::swap(b.preplayed[0], b.preplayed[1]);
  // Copies share no digest cache; order matters.
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(PayloadTest, SizeGrowsWithContent) {
  ThunderboltPayload empty;
  ThunderboltPayload loaded = MakePayload();
  EXPECT_GT(loaded.SizeBytes(), empty.SizeBytes());
  ThunderboltPayload bigger = MakePayload();
  for (int i = 0; i < 100; ++i) {
    bigger.cross_shard.push_back(bigger.cross_shard[0]);
  }
  EXPECT_GT(bigger.SizeBytes(), loaded.SizeBytes() + 100 * 100);
}

txn::Transaction CrossTxn(TxnId id, std::vector<std::string> accounts) {
  txn::Transaction tx;
  tx.id = id;
  tx.contract = "smallbank.send_payment";
  tx.accounts = std::move(accounts);
  return tx;
}

TEST(PayloadTest, CrossAccountIdsAreDenseInTransactionOrder) {
  ThunderboltPayload p;
  p.cross_shard = {CrossTxn(1, {"x", "y"}), CrossTxn(2, {"y", "z", "x"})};
  AccountInterner interner;
  const std::vector<uint32_t>& ids = p.CrossAccountIds(&interner);
  // First-seen order from 0, flattened transaction by transaction; a
  // repeated account reuses its id.
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 1, 2, 0}));
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.Find("z"), 2u);
  EXPECT_EQ(interner.Find("w"), AccountInterner::kUnknown);
}

TEST(PayloadTest, EqualAccountsGetEqualIdsAcrossPayloads) {
  ThunderboltPayload a;
  a.cross_shard = {CrossTxn(1, {"p", "q"})};
  ThunderboltPayload b;
  b.cross_shard = {CrossTxn(2, {"r", "q"}), CrossTxn(3, {"p"})};
  AccountInterner interner;
  const std::vector<uint32_t>& ia = a.CrossAccountIds(&interner);
  const std::vector<uint32_t>& ib = b.CrossAccountIds(&interner);
  EXPECT_EQ(ia, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(ib, (std::vector<uint32_t>{2, 1, 0}));
  EXPECT_EQ(interner.size(), 3u);
}

TEST(PayloadTest, CrossAccountIdsAreMemoized) {
  ThunderboltPayload p;
  p.cross_shard = {CrossTxn(1, {"x", "y"})};
  AccountInterner interner;
  const std::vector<uint32_t>* first = &p.CrossAccountIds(&interner);
  // Payloads are immutable once proposed, so an in-place edit after the
  // first call must not show: the second call returns the memo as is and
  // interns nothing new.
  p.cross_shard[0].accounts = {"u", "v"};
  const std::vector<uint32_t>& second = p.CrossAccountIds(&interner);
  EXPECT_EQ(&second, first);
  EXPECT_EQ(second, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(interner.size(), 2u);
}

TEST(PayloadTest, MutatedCopyRecomputesCrossAccountIds) {
  ThunderboltPayload original;
  original.cross_shard = {CrossTxn(1, {"x", "y"})};
  AccountInterner interner;
  EXPECT_EQ(original.CrossAccountIds(&interner),
            (std::vector<uint32_t>{0, 1}));

  ThunderboltPayload copy = original;
  copy.cross_shard[0].accounts = {"y", "z"};
  EXPECT_EQ(copy.CrossAccountIds(&interner), (std::vector<uint32_t>{1, 2}));

  ThunderboltPayload assigned;
  assigned.cross_shard = {CrossTxn(9, {"x"})};
  EXPECT_EQ(assigned.CrossAccountIds(&interner), (std::vector<uint32_t>{0}));
  assigned = original;
  assigned.cross_shard.push_back(CrossTxn(2, {"w"}));
  EXPECT_EQ(assigned.CrossAccountIds(&interner),
            (std::vector<uint32_t>{0, 1, 3}));
  // The source keeps its own memo.
  EXPECT_EQ(original.CrossAccountIds(&interner),
            (std::vector<uint32_t>{0, 1}));
}

}  // namespace
}  // namespace thunderbolt::core
