/**
 * @file
 * Shared abort/stall-reason taxonomy for all TM protocols.
 *
 * Every abort and every stall-buffer entry in the simulator is tagged
 * with one of these typed reasons plus (when known) the conflicting
 * address, and reported through the TxEvents hub (obs/tx_events.hh).
 * Using a single enum across GETM, WarpTM, and EAPG means exported
 * metrics have zero per-protocol stat-name drift: the same reason
 * always serializes to the same string.
 *
 * GETM reasons follow the validation-unit flowchart (paper Fig. 6):
 * timestamp-order conflicts split by hazard kind, stalls behind older
 * writers, stall-buffer overflow, and conflicts against Bloom-seeded
 * (approximate) metadata, which the paper calls false positives.
 */

#ifndef GETM_OBS_ABORT_REASON_HH
#define GETM_OBS_ABORT_REASON_HH

#include <cstdint>

namespace getm {

/** Why a transaction aborted (or a request stalled). */
enum class AbortReason : std::uint8_t
{
    None = 0,           ///< Not a conflict (success path).
    RawTs,              ///< Load saw a logically later write (wts > warpts).
    WarTs,              ///< Store saw a logically later read (rts > warpts).
    WawTs,              ///< Store saw a logically later write.
    LockedByWriter,     ///< Stalled behind an older writer's reservation.
    StallBufferFull,    ///< Would stall, but the stall buffer was full.
    BloomFalsePositive, ///< Timestamp conflict against Bloom-seeded
                        ///< (approximate, overestimated) metadata.
    IntraWarp,          ///< Conflict with a sibling lane of the same warp.
    Validation,         ///< Value-based validation failure (WarpTM-LL).
    EagerValidation,    ///< Idealized eager check failure (WarpTM-EL).
    EarlyAbort,         ///< EAPG conflict-set broadcast hit a read set.
    Rollover,           ///< GETM timestamp-rollover drain.
    Count               ///< Number of reasons (array sizing only).
};

/** Number of distinct reasons (excluding Count). */
constexpr unsigned numAbortReasons =
    static_cast<unsigned>(AbortReason::Count);

/** Stable machine-readable name ("WAR_TS", "ROLLOVER", ...). */
constexpr const char *
abortReasonName(AbortReason reason)
{
    switch (reason) {
      case AbortReason::None: return "NONE";
      case AbortReason::RawTs: return "RAW_TS";
      case AbortReason::WarTs: return "WAR_TS";
      case AbortReason::WawTs: return "WAW_TS";
      case AbortReason::LockedByWriter: return "LOCKED_BY_WRITER";
      case AbortReason::StallBufferFull: return "STALL_BUFFER_FULL";
      case AbortReason::BloomFalsePositive: return "BLOOM_FALSE_POSITIVE";
      case AbortReason::IntraWarp: return "INTRA_WARP";
      case AbortReason::Validation: return "VALIDATION_FAIL";
      case AbortReason::EagerValidation: return "EAGER_VALIDATION_FAIL";
      case AbortReason::EarlyAbort: return "EARLY_ABORT";
      case AbortReason::Rollover: return "ROLLOVER";
      case AbortReason::Count: break;
    }
    return "?";
}

} // namespace getm

#endif // GETM_OBS_ABORT_REASON_HH
