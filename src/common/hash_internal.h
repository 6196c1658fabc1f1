// SHA-256 compression kernels behind Sha256, exposed so that tests can run
// each one directly. Production code uses Sha256 and never names a kernel.
#ifndef THUNDERBOLT_COMMON_HASH_INTERNAL_H_
#define THUNDERBOLT_COMMON_HASH_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace thunderbolt::sha256_internal {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`
/// (the eight working words, FIPS 180-4 order).
using Kernel = void (*)(uint32_t state[8], const uint8_t* data,
                        size_t blocks);

/// Portable scalar kernel: the fallback and the reference.
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks);

/// The x86 SHA extensions kernel, or nullptr when the build targets another
/// architecture or the CPU lacks SHA-NI.
Kernel ShaNiKernel();

/// The kernel Sha256 uses, chosen once per process from CPUID.
Kernel ActiveKernel();

}  // namespace thunderbolt::sha256_internal

#endif  // THUNDERBOLT_COMMON_HASH_INTERNAL_H_
