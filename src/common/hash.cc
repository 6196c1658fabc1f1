#include "common/hash.h"

#include "common/hash_internal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace thunderbolt {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__) || defined(__i386__)
// SHA extensions kernel (Gulley et al., "Intel SHA Extensions", 2013). The
// rounds instruction holds the working words as the lane pairs ABEF and
// CDGH (lanes named high to low); each of the 16 groups runs four rounds
// and extends the message schedule four words ahead with sha256msg1/msg2.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  auto* out = reinterpret_cast<__m128i*>(state);
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(out), 0xB1);      // CDAB
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128(out + 1), 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byte_swap);
      }
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
      const __m128i msg = _mm_add_epi32(w[g & 3], k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g < 15) {
        __m128i& next = w[(g + 1) & 3];
        next =
            _mm_add_epi32(next, _mm_alignr_epi8(w[g & 3], w[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, w[g & 3]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      if (g >= 1 && g <= 12) {
        w[(g + 3) & 3] = _mm_sha256msg1_epu32(w[(g + 3) & 3], w[g & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(out, _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(out + 1, _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}
#endif

constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             (static_cast<uint32_t>(data[4 * i + 3]));
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Kernel ShaNiKernel() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_init makes the query safe before libgcc's own CPU probe
  // runs, e.g. from a static initializer that hashes.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
           __builtin_cpu_supports("ssse3");
  }();
  return supported ? CompressShaNi : nullptr;
#else
  return nullptr;
#endif
}

Kernel ActiveKernel() {
  static const Kernel kernel = [] {
    Kernel sha_ni = ShaNiKernel();
    return sha_ni != nullptr ? sha_ni : CompressPortable;
  }();
  return kernel;
}

}  // namespace sha256_internal

std::string Hash256::ToHex() const {
  std::string out;
  out.reserve(64);
  for (uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

std::string Hash256::ToShortHex() const {
  std::string out;
  out.reserve(8);
  for (size_t i = 0; i < 4; ++i) {
    out.push_back(kHexDigits[bytes[i] >> 4]);
    out.push_back(kHexDigits[bytes[i] & 0xf]);
  }
  return out;
}

Hash256 Hash256::FromHex(std::string_view hex) {
  Hash256 h;
  size_t n = hex.size() / 2;
  if (n > h.bytes.size()) n = h.bytes.size();
  for (size_t i = 0; i < n; ++i) {
    int hi = HexValue(hex[2 * i]);
    int lo = HexValue(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) break;
    h.bytes[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return h;
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const void* data, size_t len) {
  // An empty view may carry a null pointer, which memcpy must not see.
  if (len == 0) return;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    sha256_internal::ActiveKernel()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole input blocks are compressed where they lie.
  if (len >= 64) {
    sha256_internal::ActiveKernel()(state_, p, len / 64);
    p += len & ~size_t{63};
    len &= 63;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finalize() {
  // Append 0x80, zero-pad to 56 mod 64, then the big-endian bit count.
  const sha256_internal::Kernel compress = sha256_internal::ActiveKernel();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  compress(state_, buffer_, 1);
  buffer_len_ = 0;

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256::Digest(std::string_view data) {
  return Digest(data.data(), data.size());
}

Hash256 Sha256::Digest(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

}  // namespace thunderbolt
