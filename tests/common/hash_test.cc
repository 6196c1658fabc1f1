#include "common/hash.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/hash_internal.h"

namespace thunderbolt {
namespace {

// FIPS 180-4 known-answer tests.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::Digest(input).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data =
      "the quick brown fox jumps over the lazy dog multiple times";
  Sha256 h;
  for (char c : data) h.Update(&c, 1);
  EXPECT_EQ(h.Finalize(), Sha256::Digest(data));
}

TEST(Sha256Test, EmptyUpdatesAreNoOps) {
  Sha256 h;
  h.Update(std::string_view{});
  h.Update("abc");
  h.Update(nullptr, 0);
  EXPECT_EQ(h.Finalize(), Sha256::Digest("abc"));
}

TEST(Sha256Test, BoundaryLengths) {
  // Exercise the padding logic around the 55/56/64-byte boundaries.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string data(len, 'x');
    Sha256 h;
    h.Update(data.substr(0, len / 2));
    h.Update(data.substr(len / 2));
    EXPECT_EQ(h.Finalize(), Sha256::Digest(data)) << "len=" << len;
  }
}

// Digest of `data` through one kernel, padded here byte by byte as FIPS
// 180-4 states it, independently of Sha256::Finalize.
Hash256 KernelDigest(sha256_internal::Kernel kernel, std::string_view data) {
  std::vector<uint8_t> msg(data.begin(), data.end());
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernel(state, msg.data(), msg.size() / 64);
  Hash256 out;
  for (int i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

void ExpectFipsVectors(sha256_internal::Kernel kernel) {
  EXPECT_EQ(KernelDigest(kernel, "").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(KernelDigest(kernel, "abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      KernelDigest(kernel,
                   "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(KernelDigest(kernel, std::string(1000000, 'a')).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256KernelTest, PortableMatchesFipsVectors) {
  ExpectFipsVectors(sha256_internal::CompressPortable);
}

TEST(Sha256KernelTest, ShaNiMatchesFipsVectors) {
  sha256_internal::Kernel sha_ni = sha256_internal::ShaNiKernel();
  if (sha_ni == nullptr) GTEST_SKIP() << "no SHA-NI on this CPU or build";
  ExpectFipsVectors(sha_ni);
}

TEST(Sha256KernelTest, ActiveKernelIsShaNiWhenAvailable) {
  sha256_internal::Kernel sha_ni = sha256_internal::ShaNiKernel();
  EXPECT_EQ(sha256_internal::ActiveKernel(),
            sha_ni != nullptr ? sha_ni : sha256_internal::CompressPortable);
}

// Random lengths around the one- and two-block padding cases, fed to Sha256
// in random pieces: the kernels agree with each other and with Sha256's
// buffered Update and block-wise Finalize.
TEST(Sha256KernelTest, KernelsAgreeOnRandomLengthsAndSplits) {
  sha256_internal::Kernel sha_ni = sha256_internal::ShaNiKernel();
  std::mt19937_64 rng(12345);
  for (int trial = 0; trial < 10000; ++trial) {
    std::string data(rng() % 301, '\0');
    for (char& c : data) c = static_cast<char>(rng());
    const Hash256 portable =
        KernelDigest(sha256_internal::CompressPortable, data);
    if (sha_ni != nullptr) {
      ASSERT_EQ(KernelDigest(sha_ni, data), portable)
          << "len=" << data.size();
    }
    Sha256 h;
    size_t pos = 0;
    while (pos < data.size()) {
      size_t n = rng() % (data.size() - pos + 1);
      h.Update(data.data() + pos, n);
      pos += n;
    }
    ASSERT_EQ(h.Finalize(), portable) << "len=" << data.size();
  }
}

TEST(Hash256Test, HexRoundTrip) {
  Hash256 d = Sha256::Digest("round trip");
  EXPECT_EQ(Hash256::FromHex(d.ToHex()), d);
}

TEST(Hash256Test, ShortHexIsPrefix) {
  Hash256 d = Sha256::Digest("prefix");
  EXPECT_EQ(d.ToHex().substr(0, 8), d.ToShortHex());
}

TEST(Hash256Test, ZeroDetection) {
  Hash256 zero{};
  EXPECT_TRUE(zero.IsZero());
  EXPECT_FALSE(Sha256::Digest("x").IsZero());
}

TEST(Hash256Test, Prefix64Differs) {
  EXPECT_NE(Sha256::Digest("a").Prefix64(), Sha256::Digest("b").Prefix64());
}

TEST(Hash256Test, UpdateIntLittleEndian) {
  Sha256 a;
  a.UpdateInt<uint32_t>(0x01020304);
  uint8_t bytes[4] = {0x04, 0x03, 0x02, 0x01};
  Sha256 b;
  b.Update(bytes, 4);
  EXPECT_EQ(a.Finalize(), b.Finalize());
}

}  // namespace
}  // namespace thunderbolt
