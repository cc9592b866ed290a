/**
 * @file
 * 64-bit FNV-1a, the stable hash behind sweep spec hashes, manifest
 * hashes and the checkpoint config hash.
 */

#ifndef GETM_COMMON_FNV1A_HH
#define GETM_COMMON_FNV1A_HH

#include <cstdint>
#include <string_view>

namespace getm {

/** The FNV-1a offset basis: the hash of no bytes. */
inline constexpr std::uint64_t fnv1aBasis = 0xcbf29ce484222325ull;

/** Fold @p text into @p hash (start from fnv1aBasis). */
inline std::uint64_t
fnv1a64(std::string_view text, std::uint64_t hash = fnv1aBasis)
{
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

} // namespace getm

#endif // GETM_COMMON_FNV1A_HH
