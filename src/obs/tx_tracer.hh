/**
 * @file
 * Sampled per-transaction lifecycle tracer.
 *
 * The TxTracer consumes the tx* lifecycle events the TxEvents hub
 * (obs/tx_events.hh) fans out to it and, for
 * every Nth transaction (the sample rate; 1 = all), assembles:
 *
 *  - exact cycle accounting: a telescoping cursor charges every
 *    wall-clock slice of an attempt to exactly one phase (exec / NoC /
 *    validation / backoff, with a stall-dwell overlay while any of the
 *    transaction's accesses sits in a stall buffer), so the exported
 *    categories sum to the transaction's lifetime with no gaps or
 *    double counting — the tx-trace analogue of PR 1's abort-sum
 *    invariant;
 *  - per-access spans: issue -> partition arrival -> decision ->
 *    response, correlated FIFO per (warp, granule);
 *  - abort genealogy: partition-side txConflict events (who killed
 *    whom, where) merged with the core-side txAbort accounting point,
 *    forming kill chains across retries;
 *  - Perfetto track events (optional Timeline): access and validation
 *    spans, stall dwell, and "killed-by" instants.
 *
 * The tracer is strictly observe-only: it owns no wake sources, sends
 * no messages, and the hub's tracer pointer stays null unless tracing
 * is enabled, so it can never perturb simulated timing (the
 * InstrumentsInvisible tests enforce this).
 */

#ifndef GETM_OBS_TX_TRACER_HH
#define GETM_OBS_TX_TRACER_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/abort_reason.hh"
#include "obs/schema_version.hh"
#include "obs/timeline.hh"

namespace getm {

/**
 * Coarse transaction lifecycle phase, mapped from the warp scheduler
 * state by the reporting core. The tracer charges wall-clock slices of
 * a transaction attempt to exactly one phase at a time (with an
 * overlay for stall-buffer dwell), so the per-phase cycle accounting
 * telescopes to the attempt's lifetime with no gaps or overlaps.
 */
enum class TxPhase : std::uint8_t
{
    Exec,     ///< Ready/PipelineWait: issuing transactional work.
    Mem,      ///< MemWait: NoC round-trips outstanding.
    Validate, ///< CommitWait: commit/validation sequence in flight.
    Backoff,  ///< BackoffWait/ThrottleWait: waiting to retry.
};

/** One abort suffered by a traced transaction (a kill-chain link). */
struct TxAbortRecord
{
    unsigned attempt = 0;      ///< Attempt index the abort ended.
    AbortReason reason = AbortReason::None;
    Addr addr = 0;             ///< Conflicting granule (invalidAddr: n/a).
    GlobalWarpId aborter = invalidWarp; ///< Killer warp when known.
    PartitionId partition = 0; ///< Conflict site (with a valid addr).
    Cycle cycle = 0;           ///< When the abort was accounted.

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(attempt, reason, addr, aborter, partition, cycle);
    }
};

/** Where a traced transaction's cycles went (exact; sums to lifetime). */
struct TxCycleBreakdown
{
    std::uint64_t exec = 0;       ///< Useful execution (final attempt).
    std::uint64_t noc = 0;        ///< Memory round-trips (final attempt).
    std::uint64_t stall = 0;      ///< Stall-buffer dwell overlay.
    std::uint64_t validation = 0; ///< Commit/validation sequence.
    std::uint64_t retry = 0;      ///< Redo: backoff + aborted attempts.

    std::uint64_t
    total() const
    {
        return exec + noc + stall + validation + retry;
    }

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(exec, noc, stall, validation, retry);
    }
};

/** One traced transaction (all attempts of one warp-level tx). */
struct TxRecord
{
    std::uint64_t traceId = 0;   ///< Dense id in trace order.
    GlobalWarpId gwid = invalidWarp;
    CoreId core = 0;
    std::uint32_t slot = 0;
    Cycle beginCycle = 0;        ///< First attempt's begin.
    Cycle endCycle = 0;          ///< Final retire (or end of run).
    unsigned attempts = 0;       ///< Attempts made (1 + retries).
    unsigned committedLanes = 0; ///< Lanes that eventually committed.
    bool committed = false;      ///< Closed by a final retire.
    Cycle commitHandoff = 0;     ///< Last commit-point hand-off cycle.
    bool sawHandoff = false;
    TxCycleBreakdown cycles;     ///< Exact lifetime decomposition.
    /**
     * Raw per-scheduler-state totals across *all* attempts, before the
     * committed/aborted folding above. exec+mem mirrors the run's
     * tx_exec_cycles and validate+backoff its tx_wait_cycles (the
     * tracer's totals are provably <= those aggregate counters: it
     * clips at txbegin and excludes pre-begin throttling), which is
     * what the fig10_tx_cycles cross-check leans on.
     */
    std::uint64_t rawExec = 0, rawMem = 0, rawValidate = 0,
                  rawBackoff = 0;
    unsigned accessesIssued = 0;
    unsigned accessesCompleted = 0; ///< Issued, decided, and responded.
    std::vector<TxAbortRecord> aborts; ///< Kill chain, in order.

    Cycle lifetime() const { return endCycle - beginCycle; }

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(traceId, gwid, core, slot, beginCycle, endCycle, attempts,
           committedLanes, committed, commitHandoff, sawHandoff, cycles,
           rawExec, rawMem, rawValidate, rawBackoff, accessesIssued,
           accessesCompleted, aborts);
    }
};

/** Plain-data snapshot exported inside ObsReport. */
struct TxTraceReport
{
    bool enabled = false;
    std::uint64_t sampleRate = 0;
    std::uint64_t txSeen = 0;    ///< Transactions begun (traced or not).
    std::uint64_t traced = 0;
    std::uint64_t committedCount = 0;
    std::uint64_t openAtEnd = 0; ///< Traced but never retired (0 on a
                                 ///< completed run).
    std::vector<TxRecord> transactions; ///< In trace order.

    /** NoC per-hop latency aggregates (send -> delivery). */
    struct NocAggregate
    {
        std::uint64_t msgs = 0;
        std::uint64_t latencyCycles = 0;
        std::uint64_t bytes = 0;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(msgs, latencyCycles, bytes);
        }
    };
    NocAggregate nocUp, nocDown;

    /** Sum of every transaction's breakdown (exact per tx, so exact
     *  in aggregate). */
    TxCycleBreakdown totals;
    std::uint64_t totalLifetime = 0;
    std::uint64_t rawExec = 0, rawMem = 0, rawValidate = 0,
                  rawBackoff = 0;
};

/** The per-transaction lifecycle consumer (TxEvents::tracer). */
class TxTracer
{
  public:
    /** Trace every @p sampleRate'th transaction (>= 1). */
    explicit TxTracer(std::uint64_t sampleRate);

    /**
     * Mirror access, stall and validation spans and "killed-by"
     * instants into @p timeline: warp spans land on the per-warp
     * tracks, validation-unit spans on process @p vuPid (one thread
     * per partition).
     */
    void
    mirrorTo(Timeline *timeline, std::uint32_t vu_pid)
    {
        mirror = timeline;
        vuPid = vu_pid;
    }

    void txAttemptBegin(GlobalWarpId gwid, CoreId core,
                        std::uint32_t slot, unsigned attempt,
                        unsigned lanes, Cycle now);
    void txPhase(GlobalWarpId gwid, TxPhase phase, Cycle now);
    void txAccessIssue(GlobalWarpId gwid, Addr granule, bool store,
                       Cycle now);
    void txAccessDecision(GlobalWarpId gwid, Addr granule,
                          PartitionId partition, bool ok, Cycle arrival,
                          Cycle ready);
    void txAccessResponse(GlobalWarpId gwid, Addr granule,
                          Cycle now);
    void txStallEnter(GlobalWarpId gwid, Addr granule,
                      PartitionId partition, Cycle now);
    void txStallExit(GlobalWarpId gwid, Addr granule,
                     PartitionId partition, Cycle enqueued,
                     Cycle now);
    void txConflict(GlobalWarpId victim, GlobalWarpId aborter,
                    AbortReason reason, Addr addr, PartitionId partition,
                    Cycle now);
    void txAbort(GlobalWarpId gwid, AbortReason reason, Addr addr,
                 unsigned lanes, Cycle now);
    void txCommitHandoff(GlobalWarpId gwid, Cycle now);
    void txValidation(GlobalWarpId gwid, PartitionId partition, bool pass,
                      Cycle start, Cycle end);
    void txRetire(GlobalWarpId gwid, unsigned committedLanes,
                  bool willRetry, Cycle now);

    /** NoC hop observed (crossbar send hook; delivery is known at
     *  send time). */
    void nocHop(bool up, Cycle sent, Cycle arrived, unsigned bytes);

    /** Is this warp's current transaction being traced? */
    bool tracing(GlobalWarpId gwid) const;

    /**
     * Snapshot everything. Transactions still open (only possible when
     * a run is cut short) are closed at @p endCycle with
     * committed == false so the sum invariant holds for every exported
     * row.
     */
    TxTraceReport report(Cycle endCycle);

    /**
     * Checkpoint hook. The sample rate and the timeline mirror come
     * from config and are re-installed by GpuSystem setup; everything
     * else — including live (open) transactions mid-attempt —
     * round-trips.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(seen, nextTraceId, open, closed, upAgg, downAgg);
    }

  private:
    /** An in-flight access span awaiting correlation. */
    struct PendingAccess
    {
        Addr granule = 0;
        bool store = false;
        bool decided = false;
        bool ok = false;
        Cycle issue = 0;
        Cycle arrival = 0;
        Cycle ready = 0;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(granule, store, decided, ok, issue, arrival, ready);
        }
    };

    /** Live charging state of the open attempt of one traced tx. */
    struct LiveTx
    {
        TxRecord rec;
        Cycle cursor = 0;             ///< Last charged-to cycle.
        TxPhase phase = TxPhase::Exec;
        unsigned stallDepth = 0;      ///< Accesses parked in buffers.
        /** Per-phase charges of the open attempt (pre-folding). */
        std::array<std::uint64_t, 4> attemptPhase{};
        std::uint64_t attemptStall = 0;
        std::vector<PendingAccess> accesses;
        /** Partition-side conflict awaiting the core-side txAbort. */
        bool conflictPending = false;
        TxAbortRecord conflict;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(rec, cursor, phase, stallDepth, attemptPhase,
               attemptStall, accesses, conflictPending, conflict);
        }
    };

    void charge(LiveTx &tx, Cycle now);
    void foldAttempt(LiveTx &tx, bool committedAny);
    void close(LiveTx &tx, Cycle now);
    LiveTx *find(GlobalWarpId gwid);

    std::uint64_t rate;
    std::uint64_t seen = 0;
    std::uint64_t nextTraceId = 0;
    std::unordered_map<GlobalWarpId, LiveTx> open;
    std::vector<TxRecord> closed;
    TxTraceReport::NocAggregate upAgg, downAgg;
    Timeline *mirror = nullptr;
    std::uint32_t vuPid = 0;
};

/**
 * Render the tx_trace JSON object (the value of the metrics
 * document's "tx_trace" key) — shared between obs/metrics.cc and the
 * sweep runner's standalone points/<id>.trace.json side files.
 */
std::string txTraceSectionJson(const TxTraceReport &trace);

/** Render a standalone trace document ("schema": "getm-tx-trace"). */
std::string txTraceToJson(const TxTraceReport &trace,
                          const std::string &pointId);

} // namespace getm

#endif // GETM_OBS_TX_TRACER_HH
