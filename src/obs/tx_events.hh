/**
 * @file
 * The transaction event hub: the one reporting surface of the engines.
 *
 * SIMT cores, memory partitions and the protocol engines make one
 * TxEvents call at each decision point (attempt begin, access
 * decision, conflict, stall, abort, commit hand-off, retire, ...). The
 * hub fans the call out to the instruments that exist:
 *
 *  - Observability: abort/stall attribution and the hot-address
 *    profiler;
 *  - TxTracer:      per-transaction lifecycle tracing (--trace-tx);
 *  - Checker:       online serializability checking (--check);
 *  - Timeline:      the Perfetto "tx"/"tx-retry" spans and
 *                   "abort:REASON" instants (--timeline).
 *
 * Every pointer is nullable and starts null, so an engine driven by a
 * test context reports into nothing. GpuSystem owns the hub and fills
 * in the pointers of the instruments its configuration enables. The
 * set of consumers is closed: no subscriber list, no virtual dispatch,
 * and each method fans out in a fixed order, so two instruments that
 * share the timeline always interleave the same way.
 *
 * Observe-only: methods take values and const references and are
 * const, so no instrument can reach back into simulated state.
 *
 * Placement contract (the checker's soundness depends on it):
 *
 *  - readObserved() fires where transactional load data is bound to a
 *    value: at the partition's serialization point (GETM respondLoad,
 *    WarpTM WtmTxLoad), never at core delivery time;
 *  - writeApplied() / externalWrite() fire next to the BackingStore
 *    mutation, so the checker's shadow memory advances in lockstep
 *    with functional memory in simulation event order;
 *  - attemptBegin(), abort() and retire() fire at the SIMT core's
 *    single accounting points (execTxBegin / retireTxAttempt,
 *    abortTxLanes, retireTxAttempt). At retire the per-lane redo logs
 *    are still intact and carry the committed write intent.
 *
 * The fan-out is inline, so this header is compiled into the engines
 * that include it; each of them links both getm_obs and getm_check.
 */

#ifndef GETM_OBS_TX_EVENTS_HH
#define GETM_OBS_TX_EVENTS_HH

#include <array>
#include <bit>
#include <string>

#include "check/checker.hh"
#include "obs/observability.hh"
#include "obs/timeline.hh"
#include "obs/tx_tracer.hh"
#include "tm/tx_log.hh"

namespace getm {

class TxEvents
{
  public:
    Observability *obs = nullptr;
    TxTracer *tracer = nullptr;
    Checker *checker = nullptr;
    Timeline *timeline = nullptr;

    /**
     * Lanes @p lanes of warp @p gwid (on @p core / @p slot, lane 0
     * running thread @p firstTid) start attempt @p attempt (0 = first).
     * A retry begins at the preceding retire's cycle @p now; its
     * timeline span opens at @p spanStart, after the backoff delay.
     */
    void
    attemptBegin(GlobalWarpId gwid, CoreId core, std::uint32_t slot,
                 unsigned attempt, LaneMask lanes, std::uint32_t firstTid,
                 Cycle now, Cycle spanStart) const
    {
        if (checker)
            checker->attemptBegin(gwid, lanes, firstTid);
        if (tracer)
            tracer->txAttemptBegin(gwid, core, slot, attempt,
                                   std::popcount(lanes), now);
        if (timeline)
            timeline->begin(core, slot, attempt == 0 ? "tx" : "tx-retry",
                            spanStart);
    }

    /** A transactional warp's scheduler state changed. */
    void
    phase(GlobalWarpId gwid, TxPhase phase, Cycle now) const
    {
        if (tracer)
            tracer->txPhase(gwid, phase, now);
    }

    /** A transactional access for @p granule left the core. */
    void
    accessIssue(GlobalWarpId gwid, Addr granule, bool store,
                Cycle now) const
    {
        if (tracer)
            tracer->txAccessIssue(gwid, granule, store, now);
    }

    /** The owning partition decided an access (see TxTracer). */
    void
    accessDecision(GlobalWarpId gwid, Addr granule, PartitionId partition,
                   bool ok, Cycle arrival, Cycle ready) const
    {
        if (tracer)
            tracer->txAccessDecision(gwid, granule, partition, ok,
                                     arrival, ready);
    }

    /** The response for @p granule arrived back at the core. */
    void
    accessResponse(GlobalWarpId gwid, Addr granule, Cycle now) const
    {
        if (tracer)
            tracer->txAccessResponse(gwid, granule, now);
    }

    /**
     * @p addr was implicated in a conflict of kind @p reason that dooms
     * @p victim; @p aborter is the winner when known (else invalidWarp).
     */
    void
    conflict(GlobalWarpId victim, GlobalWarpId aborter, AbortReason reason,
             Addr addr, PartitionId partition, Cycle now) const
    {
        if (obs)
            obs->conflictEvent(reason, addr, partition);
        if (tracer)
            tracer->txConflict(victim, aborter, reason, addr, partition,
                               now);
    }

    /**
     * @p gwid's access to @p granule was parked in a stall buffer;
     * @p depth is the queue depth on the granule after insertion.
     */
    void
    stallEnter(GlobalWarpId gwid, AbortReason reason, Addr granule,
               PartitionId partition, unsigned depth, Cycle now) const
    {
        if (obs)
            obs->stallEvent(reason, granule, partition, depth);
        if (tracer)
            tracer->txStallEnter(gwid, granule, partition, now);
    }

    /** A parked access (queued at @p enqueued) left the stall buffer. */
    void
    stallExit(GlobalWarpId gwid, Addr granule, PartitionId partition,
              Cycle enqueued, Cycle now) const
    {
        if (obs)
            obs->stallRelease();
        if (tracer)
            tracer->txStallExit(gwid, granule, partition, enqueued, now);
    }

    /**
     * Lanes @p lanes of @p gwid aborted for @p reason; @p addr is the
     * conflicting granule when known (invalidAddr otherwise), owned by
     * @p partition.
     */
    void
    abort(GlobalWarpId gwid, CoreId core, std::uint32_t slot,
          AbortReason reason, Addr addr, PartitionId partition,
          LaneMask lanes, Cycle now) const
    {
        const unsigned count = std::popcount(lanes);
        if (checker)
            checker->attemptAborted(gwid, lanes);
        if (obs)
            obs->abortEvent(reason, addr, partition, count);
        if (tracer)
            tracer->txAbort(gwid, reason, addr, count, now);
        if (timeline) {
            static const auto labels = [] {
                std::array<std::string, numAbortReasons> all;
                for (unsigned r = 0; r < numAbortReasons; ++r)
                    all[r] = std::string("abort:") +
                             abortReasonName(static_cast<AbortReason>(r));
                return all;
            }();
            timeline->instant(core, slot,
                              labels[static_cast<unsigned>(reason)].c_str(),
                              now);
        }
    }

    /** The warp reached its commit point and handed off. */
    void
    commitHandoff(GlobalWarpId gwid, Cycle now) const
    {
        if (tracer)
            tracer->txCommitHandoff(gwid, now);
    }

    /** A validation unit was busy on @p gwid over [@p start, @p end). */
    void
    validation(GlobalWarpId gwid, PartitionId partition, bool pass,
               Cycle start, Cycle end) const
    {
        if (tracer)
            tracer->txValidation(gwid, partition, pass, start, end);
    }

    /**
     * The attempt retired with @p committed lanes committed; @p logs
     * hold their redo logs (the write intent). When @p willRetry, the
     * survivors re-enter through attemptBegin() at the same cycle.
     */
    void
    retire(GlobalWarpId gwid, CoreId core, std::uint32_t slot,
           LaneMask committed,
           const std::array<ThreadTxLog, warpSize> &logs, bool willRetry,
           Cycle now) const
    {
        if (tracer)
            tracer->txRetire(gwid, std::popcount(committed), willRetry,
                             now);
        if (checker)
            for (LaneId lane = 0; lane < warpSize; ++lane)
                if (committed & (1u << lane))
                    checker->attemptCommitted(gwid, lane,
                                              logs[lane].writeLog());
        if (timeline)
            timeline->end(core, slot, now);
    }

    /** A transactional load bound @p value at the serialization point. */
    void
    readObserved(GlobalWarpId gwid, LaneId lane, Addr addr,
                 std::uint32_t value) const
    {
        if (checker)
            checker->readObserved(gwid, lane, addr, value);
    }

    /** A committed transactional write of @p value hit memory. */
    void
    writeApplied(GlobalWarpId gwid, LaneId lane, Addr addr,
                 std::uint32_t value) const
    {
        if (checker)
            checker->writeApplied(gwid, lane, addr, value);
    }

    /** A non-transactional store or atomic mutated memory. */
    void
    externalWrite(Addr addr, std::uint32_t value) const
    {
        if (checker)
            checker->externalWrite(addr, value);
    }
};

/** The all-null hub (PartitionContext's default). */
extern const TxEvents noTxEvents;

} // namespace getm

#endif // GETM_OBS_TX_EVENTS_HH
