/**
 * @file
 * Core-side WarpTM engine (paper Sec. II-B).
 *
 * Transactional loads fetch data from the LLC (recording observed values
 * in the read log and probing the TCD last-write table); stores buffer
 * in the redo log. At the commit point the warp resolves intra-warp
 * conflicts, commits read-only TCD-clean lanes silently, and otherwise
 * runs the two-round-trip value-based validation/commit sequence against
 * the validation/commit units at each LLC partition.
 *
 * The EagerLazy mode emulates eager conflict detection by re-validating
 * the read log instantly (zero latency/traffic) on every transactional
 * access, as in the paper's Sec. III study.
 */

#ifndef GETM_WARPTM_WTM_CORE_TM_HH
#define GETM_WARPTM_WTM_CORE_TM_HH

#include <cstdint>
#include <vector>

#include "ckpt/serial.hh"
#include "simt/simt_core.hh"
#include "simt/tm_iface.hh"

namespace getm {

class WtmCoreTm;

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
 * WarpTM's GPU-scope engine, shared by WarpTM-LL, WarpTM-EL and EAPG:
 * the global commit-id allocator, plus the WarpTM-EL commit micro-phase.
 */
class WtmGpuTm : public TmGpuProtocol
{
  public:
    /**
     * Next global commit id. WarpTM serializes validation/commit per
     * partition in global commit order (KiloTM-style); empty slices are
     * announced with skip messages so every partition sees a contiguous
     * id sequence. Ids are drawn in the cycle loop's core order, so
     * they are a pure function of the simulated schedule.
     */
    std::uint64_t allocCommitId() { return nextCommitId++; }

    /** Run @p engine's parked commits in every commit micro-phase. */
    void addCommitPhase(WtmCoreTm &engine) { elEngines.push_back(&engine); }

    void commitPhase(Cycle now, WakeRefresh &refresh) override;
    void ckptSave(ckpt::Writer &ar) override { ar(nextCommitId); }
    void ckptLoad(ckpt::Reader &ar) override { ar(nextCommitId); }

  private:
    std::uint64_t nextCommitId = 1;
    /** WarpTM-EL engines, in core order. */
    std::vector<WtmCoreTm *> elEngines;
};

/** WarpTM TmCoreProtocol implementation (LL and EL modes). */
class WtmCoreTm : public TmCoreProtocol
{
  public:
    /** EagerLazy engines register with @p gpu_ for its commit phase. */
    WtmCoreTm(SimtCore &core_, WtmGpuTm &gpu_, WtmMode mode_);

    void onTxBegin(Warp &warp) override;
    void txAccess(Warp &warp, bool is_store, const LaneAddrs &addrs,
                  const LaneVals &vals, LaneMask lanes,
                  std::uint8_t rd) override;
    void txCommitPoint(Warp &warp) override;
    void onResponse(Warp &warp, const MemMsg &msg) override;
    void ckptSave(ckpt::Writer &ar) override;
    void ckptLoad(ckpt::Reader &ar) override;

    /**
     * Finish the EL commit points parked during this cycle's ticks
     * (WtmGpuTm::commitPhase), after every core ticked: an EL commit's
     * final instant validation and write-log apply then run in core
     * order, so every core's tick of the cycle saw the same shared
     * memory. Adds the core to @p refresh if any commit ran.
     */
    void runCommitPhase(Cycle now, WakeRefresh &refresh);

  protected:
    /** One warp slot's commit-sequence state for its current attempt. */
    struct SlotState
    {
        Cycle startCycle = 0;          ///< Cycle the attempt began.
        LaneMask tcdStale = 0;         ///< Lanes that read a word the
                                       ///< TCD saw written since then.
        LaneMask silent = 0;           ///< Lanes committing silently.
        LaneMask validating = 0;       ///< Lanes in value validation.
        LaneMask validationFailed = 0; ///< Lanes that failed it.
        std::uint64_t commitId = 0;
        unsigned pendingValidations = 0;
        unsigned pendingAcks = 0;
        bool commitIssued = false;     ///< Slices sent, not yet decided.
        /** Partitions holding a validation slice. */
        std::vector<PartitionId> sliceParts;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(startCycle, tcdStale, silent, validating, validationFailed,
               commitId, pendingValidations, pendingAcks, commitIssued,
               sliceParts);
        }
    };

    /**
     * A new attempt of @p warp began: at TxBegin, or as the retry that
     * retireTxAttempt started. Subclasses extend it to reset their own
     * per-attempt state.
     */
    virtual void beginAttempt(Warp &warp);

    /** @p warp's transaction committed its last lanes and ended. */
    virtual void endTransaction(Warp &warp) { (void)warp; }

    /**
     * Retire @p warp's attempt through the core, then begin its retry
     * if the core started one, or end the transaction.
     */
    void retire(Warp &warp, LaneMask committed);

    /** EAPG hook: @p lane of @p warp logged a read of @p addr. */
    virtual void
    noteRead(Warp &warp, LaneId lane, Addr addr)
    {
        (void)warp;
        (void)lane;
        (void)addr;
    }

    /**
     * EAPG hook: return true to pause the commit (the subclass must
     * later call startValidation() when the conflict clears).
     */
    virtual bool maybePause(Warp &warp)
    {
        (void)warp;
        return false;
    }

    /** Allocate a commit id and send validation slices / skips. */
    void startValidation(Warp &warp);

    /**
     * The body of the commit point. EagerLazy warps reach it through
     * the commit micro-phase (runCommitPhase) because an EL commit
     * applies its write log to shared memory core-side. LazyLazy warps
     * run it inline from txCommitPoint.
     */
    void finishCommitPoint(Warp &warp);

    /**
     * Idealized value validation of @p lanes' read logs; returns the
     * lanes whose logged values no longer match memory. Reports each
     * conflicting address as a TxEvents conflict; when
     * @p conflict_addr is non-null it receives the first conflicting
     * address (for abort attribution).
     */
    LaneMask instantValidate(const Warp &warp, LaneMask lanes,
                             Addr *conflict_addr = nullptr) const;

    SimtCore &core;
    WtmGpuTm &gpu;
    WtmMode mode;
    /** startValidation's per-partition slices. */
    LogChunks slices;
    /** Commit-sequence state, indexed by warp slot. */
    std::vector<SlotState> slotState;
    /** Warp slots whose EL commit waits for the serial micro-phase. */
    std::vector<std::uint32_t> deferredCommits;

    // Hot-path stat handles: one add per access/commit event.
    StatSet::Counter &stElEagerAborts;
    StatSet::Counter &stLoadReqs;
    StatSet::Counter &stValidationAborts;
    StatSet::Counter &stIntraWarpAborts;
    StatSet::Counter &stSilentCommits;
    StatSet::Counter &stValidations;
};

} // namespace getm

#endif // GETM_WARPTM_WTM_CORE_TM_HH
