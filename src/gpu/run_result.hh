/** @file Plain-data outcome of GpuSystem::run(). */

#ifndef GETM_GPU_RUN_RESULT_HH
#define GETM_GPU_RUN_RESULT_HH

#include "check/violation.hh"
#include "common/stats.hh"
#include "obs/observability.hh"

namespace getm {

/** Aggregate results of one kernel run. */
struct RunResult
{
    Cycle cycles = 0;              ///< Total kernel execution time.
    std::uint64_t commits = 0;     ///< Thread-level transaction commits.
    std::uint64_t aborts = 0;      ///< Thread-level transaction aborts.
    Cycle txExecCycles = 0;        ///< Warp-cycles executing tx code.
    Cycle txWaitCycles = 0;        ///< Warp-cycles waiting (throttle,
                                   ///< backoff, commit sequence).
    std::uint64_t xbarFlits = 0;   ///< Up+down crossbar flits (Fig. 12).
    std::uint64_t rollovers = 0;   ///< GETM timestamp rollovers taken.
    LogicalTs maxLogicalTs = 0;    ///< Highest warpts reached (GETM).
    StatSet stats{"run"};          ///< Everything else, merged.
    ObsReport obs;                 ///< Attribution, profiler, telemetry.
    CheckReport check;             ///< Runtime checker verdict (if on).

    /**
     * Cycles per logical-timestamp increment (paper Sec. V-B1 reports
     * 1265-15836 for its workloads, i.e., rollover is rare).
     */
    double
    cyclesPerTsIncrement() const
    {
        return maxLogicalTs
                   ? static_cast<double>(cycles) /
                         static_cast<double>(maxLogicalTs)
                   : 0.0;
    }

    /** Aborts per 1000 commits (Table IV). */
    double
    abortsPer1kCommits() const
    {
        return commits ? 1000.0 * static_cast<double>(aborts) /
                             static_cast<double>(commits)
                       : 0.0;
    }
};

} // namespace getm

#endif // GETM_GPU_RUN_RESULT_HH
