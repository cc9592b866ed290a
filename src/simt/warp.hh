/**
 * @file
 * Warp execution state: registers, the SIMT reconvergence stack (with the
 * Transaction and Retry entry types of Fung et al. [24]), and per-warp
 * transactional bookkeeping shared by all TM protocols.
 *
 * A protocol's own per-slot state lives in its core engine, indexed by
 * Warp::slot: GETM's timestamps, grant table and intra-warp table in
 * GetmCoreTm, WarpTM's commit sequence in WtmCoreTm.
 */

#ifndef GETM_SIMT_WARP_HH
#define GETM_SIMT_WARP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "tm/backoff.hh"
#include "tm/tx_log.hh"

namespace getm {

/** SIMT stack entry types. */
enum class EntryKind : std::uint8_t
{
    Normal,      ///< Plain divergence/base entry.
    Transaction, ///< Currently running transaction attempt.
    Retry,       ///< Lanes that aborted and must re-run the transaction.
};

/** Sentinel meaning "this entry never reconverges by rpc". */
constexpr Pc noRpc = 0xffffffffu;

/** One SIMT stack entry. */
struct SimtEntry
{
    EntryKind kind = EntryKind::Normal;
    Pc pc = 0;
    Pc rpc = noRpc;
    LaneMask mask = 0;

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(kind, pc, rpc, mask);
    }
};

/** Why a warp cannot issue this cycle. */
enum class WarpState : std::uint8_t
{
    Ready,        ///< Can issue.
    MemWait,      ///< Blocked on outstanding memory responses.
    ThrottleWait, ///< Blocked on the transactional-concurrency limit.
    CommitWait,   ///< Blocked in the protocol commit sequence.
    BackoffWait,  ///< Aborted; waiting out the backoff window.
    PipelineWait, ///< In a long-latency functional unit (div/hash).
    Finished,     ///< Ran Exit for all lanes; slot is reclaimable.
    Idle,         ///< Slot has no work assigned.
};

/** Number of WarpState values (Idle is the last). */
constexpr unsigned numWarpStates = static_cast<unsigned>(WarpState::Idle) + 1;

/** Stable scheduler-state name, for diagnostics and dumps. */
constexpr const char *
warpStateName(WarpState state)
{
    switch (state) {
      case WarpState::Ready: return "ready";
      case WarpState::MemWait: return "mem-wait";
      case WarpState::ThrottleWait: return "throttle-wait";
      case WarpState::CommitWait: return "commit-wait";
      case WarpState::BackoffWait: return "backoff-wait";
      case WarpState::PipelineWait: return "pipeline-wait";
      case WarpState::Finished: return "finished";
      case WarpState::Idle: return "idle";
    }
    return "?";
}

/** Per-warp execution context. */
class Warp
{
  public:
    // --- identity -------------------------------------------------------
    GlobalWarpId gwid = invalidWarp;
    std::uint32_t slot = 0;      ///< Core-local slot index (age order).
    std::uint32_t firstTid = 0;  ///< Global thread id of lane 0.
    LaneMask validLanes = 0;     ///< Lanes that actually hold threads.

    // --- architectural state ---------------------------------------------
    std::array<std::int64_t, warpSize * numRegs> regs{};
    std::vector<SimtEntry> stack;

    // --- scheduling --------------------------------------------------------
    WarpState state = WarpState::Idle;
    Cycle wakeCycle = 0;         ///< For BackoffWait.
    unsigned outstanding = 0;    ///< Blocking responses still in flight.
    unsigned outstandingTxStores = 0; ///< Non-blocking reservation acks.
    std::uint8_t pendingReg = 0; ///< Destination of the pending load.
    Cycle stateSince = 0;        ///< For tx cycle accounting.

    // --- transactional state (shared by all protocols) ---------------------
    bool inTx = false;           ///< Between TxBegin and attempt retirement.
    LaneMask abortedMask = 0;    ///< Lanes aborted in the current attempt.
    std::array<ThreadTxLog, warpSize> logs;
    Backoff backoff;
    unsigned retriesThisTx = 0;
    bool commitPointFired = false; ///< Guards duplicate commit-point entry.

    // --- stats ---------------------------------------------------------------
    Cycle txExecCycles = 0;
    Cycle txWaitCycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;

    // --- register access -----------------------------------------------------
    std::int64_t
    reg(LaneId lane, unsigned r) const
    {
        return regs[lane * numRegs + r];
    }

    void
    setReg(LaneId lane, unsigned r, std::int64_t value)
    {
        regs[lane * numRegs + r] = value;
    }

    // --- SIMT stack helpers ----------------------------------------------------
    SimtEntry &top() { return stack.back(); }
    const SimtEntry &top() const { return stack.back(); }

    /** Pop entries that reached their reconvergence point. */
    void reconverge();

    /** Index of the Transaction entry, or -1 if none. */
    int transactionIndex() const;

    /** Index of the Retry entry (directly below Transaction). */
    int retryIndex() const;

    /**
     * Remove @p lanes from the current transaction attempt (they move to
     * the Retry entry). Pops emptied divergence entries above the
     * Transaction entry.
     */
    void abortLanesOnStack(LaneMask lanes);

    /** All lanes of the current attempt have aborted. */
    bool txAllAborted() const;

    /** Reset the warp for a fresh thread assignment. */
    void launch(GlobalWarpId gwid_, std::uint32_t slot_,
                std::uint32_t first_tid, LaneMask valid, Cycle now);

    /** Checkpoint hook: the complete per-warp machine state. */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(gwid, slot, firstTid, validLanes, regs, stack, state,
           wakeCycle, outstanding, outstandingTxStores, pendingReg,
           stateSince, inTx, abortedMask, logs, backoff, retriesThisTx,
           commitPointFired, txExecCycles, txWaitCycles, commits, aborts);
    }
};

} // namespace getm

#endif // GETM_SIMT_WARP_HH
