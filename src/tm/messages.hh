/**
 * @file
 * Messages exchanged between SIMT cores and memory partitions.
 *
 * One tagged struct covers every protocol (plain loads/stores, atomics,
 * GETM eager requests, WarpTM validation/commit traffic, EAPG broadcasts).
 * The `bytes` field is what the crossbar charges for serialization, so
 * each sender is responsible for setting it to the modelled wire size --
 * this is how Fig. 12's traffic comparison is produced.
 */

#ifndef GETM_TM_MESSAGES_HH
#define GETM_TM_MESSAGES_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace getm {

/** Message kinds, both directions. */
enum class MsgKind : std::uint8_t
{
    // ---- core -> partition -------------------------------------------
    NtxRead,        ///< Non-transactional read of (parts of) a line.
    NtxWrite,       ///< Non-transactional write-through.
    Atomic,         ///< Atomic read-modify-writes (executed at the LLC).
    GetmTxLoad,     ///< GETM transactional load (eager check + data).
    GetmTxStore,    ///< GETM encounter-time write reservation.
    GetmCommit,     ///< GETM commit/abort log chunk (off critical path).
    WtmTxLoad,      ///< WarpTM transactional load (data + TCD probe).
    WtmValidate,    ///< WarpTM read+write log slice for validation.
    WtmSkip,        ///< WarpTM empty slice (keeps commit-id order).
    WtmDecision,    ///< WarpTM commit/abort decision.
    // ---- partition -> core -------------------------------------------
    NtxReadResp,
    NtxWriteAck,    ///< Only for L1-bypass (volatile) stores.
    AtomicResp,
    GetmLoadResp,   ///< Data or abort notification.
    GetmStoreResp,  ///< Reservation grant or abort notification.
    WtmLoadResp,    ///< Data plus TCD last-write timestamps.
    WtmValidateResp,
    WtmCommitAck,
    EapgSignature,  ///< EAPG write-signature broadcast (idealized 64-bit).
    EapgCommitDone, ///< EAPG end-of-commit broadcast.
};

/** Per-lane element of a request/response. */
struct LaneOp
{
    std::uint8_t lane = 0;
    Addr addr = 0;          ///< Word address.
    std::uint32_t value = 0;///< Store data / loaded data / old value.
    std::uint32_t aux = 0;  ///< CAS swap value / write count / flags.

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(lane, addr, value, aux);
    }
};

/** Atomic operation kinds executed at the LLC. */
enum class AtomicOp : std::uint8_t
{
    Cas,
    Exch,
    Add,
};

/** Outcome carried by GETM responses. */
enum class GetmOutcome : std::uint8_t
{
    Success,
    Abort,
};

/**
 * MemMsg::warpSlot of a message with no warp attached (e.g. EAPG
 * broadcasts); the core hands it to TmCoreProtocol::onBroadcast().
 */
constexpr std::uint32_t noWarpSlot = ~0u;

/** A core<->partition message. */
struct MemMsg
{
    MsgKind kind = MsgKind::NtxRead;
    CoreId core = 0;            ///< Originating (or target) core.
    PartitionId partition = 0;
    GlobalWarpId wid = invalidWarp;
    std::uint32_t warpSlot = 0; ///< Core-local warp slot.
    std::uint32_t seq = 0;      ///< Request/response matching tag.
    Addr addr = 0;              ///< Line or granule base address.
    LogicalTs ts = 0;           ///< warpts (req) or abort cause (resp).
    std::uint64_t txId = 0;     ///< WarpTM global commit id / signature.
    bool flag = false;          ///< Multipurpose (commit vs abort, ...).
    std::uint8_t aop = 0;       ///< Atomic opcode (AtomicOp) for Atomic.
    GetmOutcome outcome = GetmOutcome::Success;
    std::uint8_t reason = 0;    ///< AbortReason for Abort outcomes; the
                                ///< partition decides the reason, the
                                ///< core attributes the abort with it.
    std::vector<LaneOp> ops;    ///< Lane ops or log entries.
    std::uint32_t bytes = 8;    ///< Modelled wire size for the crossbar.

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(kind, core, partition, wid, warpSlot, seq, addr, ts, txId,
           flag, aop, outcome, reason, ops, bytes);
    }
};

} // namespace getm

#endif // GETM_TM_MESSAGES_HH
