/**
 * @file
 * Shared definitions for the WarpTM baseline (paper Sec. II-B) and its
 * idealized eager-lazy variant (Sec. III).
 */

#ifndef GETM_WARPTM_WTM_COMMON_HH
#define GETM_WARPTM_WTM_COMMON_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace getm {

/** Conflict-detection flavour of the WarpTM engine. */
enum class WtmMode : std::uint8_t
{
    /** Original WarpTM: lazy value-based validation (two round trips). */
    LazyLazy,
    /**
     * Idealized eager-lazy variant used in Sec. III: value validation
     * runs on every transactional access with zero latency and traffic;
     * commits skip validation and take a single write+ack round trip.
     */
    EagerLazy,
};

/**
 * Global commit-id allocator shared by all cores. WarpTM serializes
 * validation/commit per partition in global commit order (KiloTM-style);
 * empty slices are announced with skip messages so every partition sees
 * a contiguous id sequence. Ids are drawn in the cycle loop's core
 * order, so they are a pure function of the simulated schedule.
 */
struct WtmShared
{
    std::uint64_t nextCommitId = 1;
};

/** 64-bit Bloom signature over word addresses (EAPG broadcasts). */
inline std::uint64_t
signatureBit(Addr addr)
{
    return 1ull << (hashMix(addr, 0xe4b9) & 63);
}

} // namespace getm

#endif // GETM_WARPTM_WTM_COMMON_HH
