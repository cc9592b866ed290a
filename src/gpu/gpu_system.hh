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

#include "ckpt/serial.hh"
#include "common/sim_error.hh"
#include "gpu/gpu_config.hh"
#include "gpu/mem_partition.hh"
#include "gpu/run_result.hh"
#include "isa/kernel.hh"
#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "noc/crossbar.hh"
#include "obs/tx_events.hh"
#include "simt/simt_core.hh"

namespace getm {

class FaultInjector;

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
     *  - LIVELOCK when events keep firing but no transaction lane
     *    commits and no instruction retires outside a transaction for
     *    cfg.watchdogCycles;
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

    /** Runtime checker, when cfg.checkLevel > 0 (else nullptr). */
    Checker *checkerPtr() { return checker.get(); }

  private:
    void wireProtocol();
    void setupTelemetry();
    bool allDone() const;
    bool drained(Cycle now) const;

    /**
     * The cycle loop; returns the final cycle count. By default it is
     * event-driven: per-component wake cycles are cached when a
     * component ticks, so idle components are neither ticked nor
     * rescanned. GpuConfig::legacyLoop selects the reference mode,
     * which ticks every component on every visited cycle and recomputes
     * every wake at the end of the cycle. The scheduler equivalence
     * tests require both modes to give identical results, which is
     * what licenses the skipping of not-due components.
     */
    Cycle runLoop(const Kernel &kernel, Cycle max_cycles);

    /**
     * Monotone forward-progress measure: tx lanes committed plus
     * instructions retired outside a transaction (a TxBegin once it
     * starts an attempt), summed over every core. Aborted attempts and
     * throttled TxBegin re-issues do not count. The watchdog declares
     * livelock when this stops moving for cfg.watchdogCycles.
     */
    std::uint64_t progressSample() const;

    /** Per-run state of the safety guards (the `guard` member). */
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
    void checkGuards(const Kernel &kernel, Cycle now, Cycle max_cycles);

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
     *  so the loop resumes mid-kernel. Throws SimError CHECKPOINT on
     *  any corrupt, truncated, version- or config-skewed snapshot. */
    void restoreFromSnapshot();

    /**
     * Iteration-top durability hook, run at the start of each visited
     * cycle, where the machine is between ticks: the --ckpt-kill-at
     * crash hook, pending SIGINT/SIGTERM (final checkpoint + SimError
     * INTERRUPT), and the periodic checkpoint.
     */
    void checkpointTop(const Kernel &kernel, Cycle now);

    GpuConfig cfg;
    BackingStore store;
    AddressMap addrMap;
    /** The instrument hub every core and partition reports into; its
     *  pointers name the instruments below that this run enables. */
    TxEvents events;
    Crossbar<MemMsg> xbarUp;
    Crossbar<MemMsg> xbarDown;
    std::vector<std::unique_ptr<SimtCore>> coreArray;
    std::vector<std::unique_ptr<MemPartition>> partArray;
    /** The protocol's GPU-scope engine (null for the lock baseline). */
    std::unique_ptr<TmGpuProtocol> gpuProtocol;
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

    /** Next warp to assign (run()'s work source; checkpointed so a
     *  restored run keeps pulling from where the snapshot stopped). */
    std::uint64_t warpCursor = 0;

    /** Archive buffer every snapshot of this machine is serialized
     *  into: cleared, not freed, between snapshots, so only the first
     *  one allocates and page-faults a payload-sized buffer. */
    ckpt::Writer ckptArchive;

    /** This run's checkpoint compatibility hash (set by run()). */
    std::uint64_t ckptHash = 0;

    /** First cycle the loop simulates (nonzero after a restore). */
    Cycle resumeCycle = 0;

    /** Next periodic-checkpoint boundary (sampler-style alignment). */
    Cycle nextCkptDue = 0;

    /**
     * Live safety-guard state. A member (reset by run(), wall clock
     * re-armed by runLoop()) so checkpoints capture the watchdog's
     * progress window and a restored run resumes it exactly.
     */
    GuardState guard;
};

} // namespace getm

#endif // GETM_GPU_GPU_SYSTEM_HH
