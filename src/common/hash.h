// SHA-256 implemented from scratch (FIPS 180-4) plus the fixed-size digest
// value type used for block ids, transaction digests and signatures. The
// compression kernel is picked once per process: the x86 SHA extensions
// where the CPU has them, else a portable one (common/hash_internal.h).
#ifndef THUNDERBOLT_COMMON_HASH_H_
#define THUNDERBOLT_COMMON_HASH_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace thunderbolt {

/// A 256-bit digest value. Comparable, hashable, hex-printable.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  /// First 8 bytes interpreted as a little-endian integer; used for
  /// deterministic pseudo-random choices (e.g., hash-based tie breaks).
  uint64_t Prefix64() const {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    return v;
  }

  std::string ToHex() const;
  /// Short hex prefix for logs ("a3f19c02").
  std::string ToShortHex() const;

  static Hash256 FromHex(std::string_view hex);

  friend bool operator==(const Hash256& a, const Hash256& b) {
    return a.bytes == b.bytes;
  }
  friend bool operator!=(const Hash256& a, const Hash256& b) {
    return !(a == b);
  }
  friend bool operator<(const Hash256& a, const Hash256& b) {
    return a.bytes < b.bytes;
  }
};

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.Update(data, len);
///   Hash256 digest = h.Finalize();
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Convenience for appending integers in little-endian order.
  template <typename T>
  void UpdateInt(T v) {
    static_assert(std::is_integral_v<T>);
    uint8_t buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Update(buf, sizeof(T));
  }

  /// Finalizes and returns the digest. The hasher must be Reset() before
  /// reuse.
  Hash256 Finalize();

  /// One-shot helpers.
  static Hash256 Digest(std::string_view data);
  static Hash256 Digest(const void* data, size_t len);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

}  // namespace thunderbolt

namespace std {
template <>
struct hash<thunderbolt::Hash256> {
  size_t operator()(const thunderbolt::Hash256& h) const noexcept {
    return static_cast<size_t>(h.Prefix64());
  }
};
}  // namespace std

#endif  // THUNDERBOLT_COMMON_HASH_H_
