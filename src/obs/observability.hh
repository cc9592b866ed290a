/**
 * @file
 * Run-wide observability aggregates, fed through the TxEvents hub
 * (obs/tx_events.hh) and owned by GpuSystem for the duration of a run.
 *
 * Aggregates abort/stall attribution (per-reason totals plus the
 * hot-address conflict profiler) and hosts the cycle sampler. At the
 * end of a run, report() snapshots everything into a plain-data
 * ObsReport that travels inside RunResult, so benches and the metrics
 * exporter never need the live object.
 */

#ifndef GETM_OBS_OBSERVABILITY_HH
#define GETM_OBS_OBSERVABILITY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "obs/abort_reason.hh"
#include "obs/conflict_profiler.hh"
#include "obs/sampler.hh"
#include "obs/tx_tracer.hh"

namespace getm {

/** Plain-data snapshot of a run's observability state. */
struct ObsReport
{
    /** Aborted lanes per reason; sums exactly to the run's abort count. */
    std::array<std::uint64_t, numAbortReasons> abortLanesByReason{};
    /** Stall-buffer insertions per reason. */
    std::array<std::uint64_t, numAbortReasons> stallsByReason{};

    /** Peak simultaneous stall-buffer occupancy across all partitions. */
    unsigned stallPeakOccupancy = 0;
    /** Sum/count of per-address queue depths at stall-insertion time. */
    std::uint64_t stallDepthSum = 0;
    std::uint64_t stallDepthCount = 0;

    /** Top-N contended granules (sorted by total events, descending). */
    std::vector<HotAddrRow> hotAddrs;
    /** Distinct contended granules observed (not just the top N). */
    std::uint64_t distinctConflictAddrs = 0;

    /** Cycle-sampled telemetry (empty when sampling is disabled). */
    SampleSeries samples;

    /** Per-transaction lifecycle trace (enabled == false when off). */
    TxTraceReport txTrace;

    std::uint64_t
    totalAbortLanes() const
    {
        std::uint64_t t = 0;
        for (auto v : abortLanesByReason)
            t += v;
        return t;
    }

    /** Mean stall-queue depth behind a contended address (Fig. 16). */
    double
    meanStallWaiters() const
    {
        return stallDepthCount ? static_cast<double>(stallDepthSum) /
                                     static_cast<double>(stallDepthCount)
                               : 0.0;
    }
};

/** Aggregates attribution events and owns the sampler. */
class Observability
{
  public:
    /**
     * Profile hot addresses per @p granule_bytes-byte metadata granule
     * (GpuConfig::getmGranule): every site's address, word or granule,
     * lands on the row of the granule that holds it.
     */
    explicit Observability(unsigned granule_bytes) : granule(granule_bytes)
    {
    }

    /**
     * @p lanes lanes aborted for @p reason. @p addr is the conflicting
     * address when known (invalidAddr otherwise); @p partition is only
     * meaningful when @p addr is valid. Reported once per aborted lane
     * set (SimtCore::abortTxLanes), so the per-reason totals sum to the
     * run's abort counter.
     */
    void abortEvent(AbortReason reason, Addr addr, PartitionId partition,
                    unsigned lanes);

    /** Address @p addr was implicated in a conflict of kind @p reason. */
    void conflictEvent(AbortReason reason, Addr addr,
                       PartitionId partition);

    /**
     * A request was queued in a stall buffer on @p addr; @p depth is the
     * queue depth on that address after insertion (Fig. 16 metric).
     */
    void stallEvent(AbortReason reason, Addr addr, PartitionId partition,
                    unsigned depth);

    /** A previously queued request left a stall buffer. */
    void stallRelease();

    CycleSampler &cycleSampler() { return sampler; }
    const ConflictProfiler &profiler() const { return prof; }

    /** Live gauge: requests currently parked in stall buffers. */
    unsigned stallOccupancy() const { return stallCurrent; }

    /** Snapshot everything, keeping at most @p maxHotAddrs rows. */
    ObsReport report(std::size_t maxHotAddrs) const;

    /** Checkpoint hook: aggregates, the live stall gauge, profiler,
     *  and the sampler's recorded series. */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(abortLanes, stalls, stallCurrent, stallPeak, depthSum,
           depthCount, prof, sampler);
    }

  private:
    /** The granule holding @p addr (invalidAddr stays invalid). */
    Addr
    granuleOf(Addr addr) const
    {
        return addr == invalidAddr ? addr : addr - addr % granule;
    }

    unsigned granule;
    std::array<std::uint64_t, numAbortReasons> abortLanes{};
    std::array<std::uint64_t, numAbortReasons> stalls{};
    unsigned stallCurrent = 0;
    unsigned stallPeak = 0;
    std::uint64_t depthSum = 0;
    std::uint64_t depthCount = 0;
    ConflictProfiler prof;
    CycleSampler sampler;
};

} // namespace getm

#endif // GETM_OBS_OBSERVABILITY_HH
