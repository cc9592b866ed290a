/**
 * @file
 * Top-level simulated GPU: SIMT cores, dual crossbars, and memory
 * partitions, wired with the selected TM protocol (paper Fig. 5).
 *
 * This is the main entry point of the library: construct a GpuSystem
 * from a GpuConfig, lay out workload data in memory(), and run() a
 * kernel. The simulation loop is cycle-driven with idle-cycle skipping,
 * so memory-latency-dominated phases cost nothing to simulate.
 */

#ifndef GETM_GPU_GPU_SYSTEM_HH
#define GETM_GPU_GPU_SYSTEM_HH

#include <chrono>
#include <memory>
#include <vector>

#include "check/violation.hh"
#include "ckpt/serial.hh"
#include "common/sim_error.hh"
#include "core/getm_partition.hh"
#include "gpu/gpu_config.hh"
#include "gpu/mem_partition.hh"
#include "gpu/timeline.hh"
#include "isa/kernel.hh"
#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "noc/crossbar.hh"
#include "obs/observability.hh"
#include "obs/tx_tracer.hh"
#include "simt/simt_core.hh"
#include "warptm/wtm_common.hh"

namespace getm {

class Checker;
class FaultInjector;

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
    double metaAccessCycles = 0;   ///< Mean metadata access (Fig. 13).
    unsigned stallPeakOccupancy = 0; ///< GPU-wide peak (Fig. 15).
    double stallWaitersPerAddr = 0;  ///< Mean queue depth (Fig. 16).
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

/** The simulated GPU. */
class GpuSystem
{
  public:
    explicit GpuSystem(const GpuConfig &config);
    ~GpuSystem();

    /** Functional memory, for workload setup and verification. */
    BackingStore &memory() { return store; }

    const GpuConfig &config() const { return cfg; }

    /**
     * Run @p kernel over @p num_threads threads to completion.
     *
     * Simulation pathologies throw SimError (common/sim_error.hh)
     * with a diagnostic snapshot instead of killing the process:
     *  - CYCLE_LIMIT when @p max_cycles is exceeded;
     *  - DEADLOCK when no future events exist but the run is not done;
     *  - LIVELOCK when events keep firing but no instruction retires
     *    and no transaction lane commits for cfg.watchdogCycles;
     *  - WALL_TIMEOUT when cfg.timeoutSec of wall clock elapses.
     * The watchdog and timeout only *observe* progress counters at
     * already-visited cycles, so enabling them never changes the
     * cycle-accurate behaviour of a passing run.
     *
     * @param max_cycles Safety bound; SimError CYCLE_LIMIT if exceeded.
     */
    RunResult run(const Kernel &kernel, std::uint64_t num_threads,
                  Cycle max_cycles = 2'000'000'000ull);

    // Test access.
    SimtCore &coreAt(unsigned i) { return *coreArray[i]; }
    MemPartition &partitionAt(unsigned i) { return *partArray[i]; }
    unsigned numCores() const { return cfg.numCores; }
    unsigned numPartitions() const { return cfg.numPartitions; }

    /** Live observability hub (every protocol reports into it). */
    Observability &observabilityHub() { return observability; }

    /** Runtime checker, when cfg.checkLevel > 0 (else nullptr). */
    Checker *checkerPtr() { return checker.get(); }

    /** Transaction tracer, when cfg.traceTx > 0 (else nullptr). */
    TxTracer *tracerPtr() { return txTracer.get(); }

  private:
    void wireProtocol();
    void setupTelemetry();
    Cycle computeNextCycle(Cycle now) const;
    bool allDone() const;
    bool drained(Cycle now) const;

    /**
     * Event-driven main loop: per-component wake cycles are cached when
     * a component ticks, so idle components are neither ticked nor
     * rescanned. Returns the final cycle count.
     */
    Cycle runEventLoop(const Kernel &kernel, Cycle max_cycles);

    /**
     * Reference loop that ticks every component on every visited cycle
     * (GpuConfig::legacyLoop). Not a production path: the scheduler
     * equivalence tests run it next to runEventLoop() and require
     * identical results, which is what licenses the event loop's
     * skipping of not-due components.
     */
    Cycle runLegacyLoop(const Kernel &kernel, Cycle max_cycles);

    /** GETM timestamp-rollover coordination; returns true if mid-flush. */
    void maybeRollover(Cycle now);

    /**
     * Monotone forward-progress measure: instructions retired plus tx
     * lanes committed, summed over every core. The watchdog declares
     * livelock when this stops moving for cfg.watchdogCycles.
     */
    std::uint64_t progressSample() const;

    /** Per-run state of the safety guards (one instance per loop). */
    struct GuardState
    {
        std::uint64_t lastProgressValue = 0;
        Cycle lastProgressCycle = 0;
        std::chrono::steady_clock::time_point wallStart;
        std::uint64_t iterations = 0;
    };

    /**
     * Run the safety guards for one visited cycle: the max_cycles
     * bound, the forward-progress watchdog (cfg.watchdogCycles), and
     * the wall-clock budget (cfg.timeoutSec). Throws the matching
     * SimError; on the happy path it only reads counters, so it can
     * never perturb simulated timing.
     */
    void checkGuards(const Kernel &kernel, Cycle now, Cycle max_cycles,
                     GuardState &guard);

    /** Snapshot the stuck machine into a SimError diagnostic. */
    SimDiagnostic buildDiagnostic(SimErrorKind kind, std::string message,
                                  Cycle now, Cycle since_progress);

    // --- durability (docs/DURABILITY.md) -------------------------------

    /**
     * Checkpoint compatibility hash for one run: FNV-1a over the
     * config-provenance pairs plus every state-shaping knob excluded
     * from provenance (checker level, tracer rate, fault injection,
     * telemetry) and the workload identity (kernel name, thread
     * count). A snapshot only restores into a bit-equivalent machine.
     */
    std::uint64_t checkpointHash(const Kernel &kernel,
                                 std::uint64_t num_threads) const;

    /** Serialize (Ar = ckpt::Writer) or restore (ckpt::Reader) the
     *  complete machine state, in one fixed component order. */
    template <class Ar> void ckptMachine(Ar &ar);

    /** Write an atomically-renamed snapshot of the machine at @p now
     *  into cfg.ckptDir (default "."). */
    void saveCheckpoint(Cycle now);

    /** Restore cfg.restorePath (file or directory); sets resumeCycle
     *  so the loops resume mid-kernel. Throws SimError CHECKPOINT on
     *  any corrupt, truncated, version- or config-skewed snapshot. */
    void restoreFromSnapshot();

    /**
     * Iteration-top durability hook, run by every loop at the start of
     * each visited cycle, where the machine is between ticks: the
     * --ckpt-kill-at crash hook, pending SIGINT/SIGTERM (final
     * checkpoint + SimError INTERRUPT), and the periodic checkpoint.
     */
    void checkpointTop(const Kernel &kernel, Cycle now);

    GpuConfig cfg;
    BackingStore store;
    AddressMap addrMap;
    Crossbar<MemMsg> xbarUp;
    Crossbar<MemMsg> xbarDown;
    std::vector<std::unique_ptr<SimtCore>> coreArray;
    std::vector<std::unique_ptr<MemPartition>> partArray;
    std::shared_ptr<WtmShared> wtmShared;
    std::vector<GetmPartitionUnit *> getmUnits; // borrowed from partitions
    StallOccupancyTracker stallTracker;
    Timeline timeline;
    Observability observability;
    std::unique_ptr<TxTracer> txTracer;
    std::unique_ptr<Checker> checker;
    /**
     * One injector per component when cfg.injectFault > 0: cores first
     * (index = CoreId), then partitions (index = numCores + PartitionId).
     * Per-component counter streams make each component's fire()
     * sequence depend only on its own decisions (check/fault.hh).
     */
    std::vector<std::unique_ptr<FaultInjector>> faultInjectors;

    bool rolloverPending = false;
    std::uint64_t rollovers = 0;

    /** Next warp to assign (run()'s work source; checkpointed so a
     *  restored run keeps pulling from where the snapshot stopped). */
    std::uint64_t warpCursor = 0;

    /** Archive buffer every snapshot of this machine is serialized
     *  into: cleared, not freed, between snapshots, so only the first
     *  one allocates and page-faults a payload-sized buffer. */
    ckpt::Writer ckptArchive;

    /** This run's checkpoint compatibility hash (set by run()). */
    std::uint64_t ckptHash = 0;

    /** First cycle the loops simulate (nonzero after a restore). */
    Cycle resumeCycle = 0;

    /** Next periodic-checkpoint boundary (sampler-style alignment). */
    Cycle nextCkptDue = 0;

    /**
     * Live safety-guard state. A member (reset by run(), wall clock
     * re-armed by each loop) so checkpoints capture the watchdog's
     * progress window and a restored run resumes it exactly.
     */
    GuardState guard;
};

} // namespace getm

#endif // GETM_GPU_GPU_SYSTEM_HH
