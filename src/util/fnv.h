/**
 * @file
 * FNV-1a 64-bit hashing — the one fold behind every determinism
 * witness: serving and multi-GPU run fingerprints, profile digests, and
 * the golden hashes the tests and benches pin.
 *
 * Two entry points share the constants: fnv() folds one 64-bit word
 * byte by byte (least significant byte first) into a running digest,
 * fnv_bytes() digests a raw buffer from the offset basis. Doubles enter
 * a digest through double_bits(), so equal digests mean bit-identical
 * values, not merely equal ones.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace fastgl {
namespace util {

/** FNV-1a 64-bit offset basis: the empty digest. */
inline constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

/** FNV-1a 64-bit prime. */
inline constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

/** Fold the eight bytes of @p v, low byte first, into digest @p h. */
inline uint64_t
fnv(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a digest of the @p n bytes at @p data. */
inline uint64_t
fnv_bytes(const void *data, size_t n)
{
    uint64_t h = kFnvOffset;
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** IEEE-754 bit pattern of @p x, for folding doubles bit-exactly. */
inline uint64_t
double_bits(double x)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

} // namespace util
} // namespace fastgl
