#include "gpu/gpu_system.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <string>

#include "check/checker.hh"
#include "check/fault.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/serial.hh"
#include "common/cycle_workers.hh"
#include "common/log.hh"
#include "common/stop_flag.hh"
#include "core/getm_core_tm.hh"
#include "gpu/config_file.hh"
#include "gpu/deferred_sinks.hh"
#include "eapg/eapg.hh"
#include "warptm/wtm_core_tm.hh"
#include "warptm/wtm_partition.hh"

namespace getm {

const char *
protocolName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::FgLock: return "FGLock";
      case ProtocolKind::Getm: return "GETM";
      case ProtocolKind::WarpTmLL: return "WarpTM-LL";
      case ProtocolKind::WarpTmEL: return "WarpTM-EL";
      case ProtocolKind::Eapg: return "EAPG";
    }
    return "?";
}

GpuConfig
GpuConfig::gtx480()
{
    GpuConfig cfg;
    cfg.numCores = 15;
    cfg.numPartitions = 6;
    cfg.core.maxWarps = 48;
    return cfg;
}

GpuConfig
GpuConfig::scaled56()
{
    GpuConfig cfg;
    cfg.numCores = 56;
    cfg.numPartitions = 8;
    cfg.core.maxWarps = 48;
    cfg.llcBytesPerPartition = 512 * 1024; // 4 MB total, 8 banks
    // Paper: for WarpTM the recency filter (TCD) doubles; for GETM only
    // the precise metadata table is doubled.
    cfg.wtm.tcdEntries = 4096;
    cfg.getmPreciseEntriesTotal = 8192;
    return cfg;
}

GpuConfig
GpuConfig::testRig()
{
    GpuConfig cfg;
    cfg.numCores = 2;
    cfg.numPartitions = 2;
    cfg.core.maxWarps = 4;
    cfg.llcBytesPerPartition = 32 * 1024;
    cfg.llcLatency = 20;
    cfg.dram.accessLatency = 40;
    cfg.getmPreciseEntriesTotal = 512;
    cfg.getmBloomEntriesTotal = 128;
    return cfg;
}

namespace {

/**
 * Screen a configuration before any member construction touches it (a
 * zero partition count would already break the AddressMap). Rejections
 * are recoverable CONFIG errors, not process aborts.
 */
const GpuConfig &
validatedConfig(const GpuConfig &config)
{
    std::string error;
    if (!validateGpuConfig(config, error))
        throw SimError(SimErrorKind::Config, error);
    return config;
}

} // namespace

GpuSystem::GpuSystem(const GpuConfig &config)
    : cfg(validatedConfig(config)),
      addrMap(cfg.numPartitions, cfg.lineBytes),
      xbarUp("xbar.up", cfg.numCores, cfg.numPartitions, cfg.xbar),
      xbarDown("xbar.down", cfg.numPartitions, cfg.numCores, cfg.xbar)
{
    CoreConfig core_cfg = cfg.core;
    core_cfg.lineBytes = cfg.lineBytes;
    core_cfg.txGranule = cfg.getmGranule;
    core_cfg.seed = cfg.seed;

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        coreArray.push_back(std::make_unique<SimtCore>(
            c, core_cfg, addrMap, store, [this, c](MemMsg &&msg) {
                const PartitionId part = msg.partition;
                const unsigned bytes = msg.bytes;
                xbarUp.send(c, part, bytes, coreArray[c]->now(),
                            std::move(msg));
            }));
    }
    for (PartitionId p = 0; p < cfg.numPartitions; ++p) {
        partArray.push_back(std::make_unique<MemPartition>(
            p, cfg, addrMap, store, xbarUp, xbarDown, cfg.numCores));
    }
    if (!cfg.timelinePath.empty())
        for (auto &core : coreArray)
            core->setTimeline(&timeline);
    for (auto &core : coreArray)
        core->setObserver(&observability);
    for (auto &part : partArray)
        part->setObserver(&observability);
    if (cfg.traceTx > 0) {
        txTracer = std::make_unique<TxTracer>(cfg.traceTx);
        for (auto &core : coreArray)
            core->setTracer(txTracer.get());
        for (auto &part : partArray)
            part->setTracer(txTracer.get());
        // Passive hop observer: delivery cycles are already decided
        // when the hook runs, so the NoC model cannot be perturbed.
        xbarUp.setSendHook(
            [this](const MemMsg &msg, Cycle sent, Cycle arrived) {
                txTracer->nocHop(true, sent, arrived, msg.bytes);
            });
        xbarDown.setSendHook(
            [this](const MemMsg &msg, Cycle sent, Cycle arrived) {
                txTracer->nocHop(false, sent, arrived, msg.bytes);
            });
    }
    if (cfg.checkLevel > 0) {
        checker = std::make_unique<Checker>(
            static_cast<CheckLevel>(cfg.checkLevel));
        for (auto &core : coreArray)
            core->setChecker(checker.get());
        for (auto &part : partArray)
            part->setChecker(checker.get());
    }
    if (cfg.injectFault > 0 &&
        cfg.injectFault < static_cast<unsigned>(FaultKind::Count)) {
        // One injector per component, each with a counter stream derived
        // from the component's identity, so a component's Bernoulli
        // draws depend only on its own decision history — never on how
        // components interleave across sim worker threads. Partitions
        // take a disjoint seed offset so core c and partition c (same
        // seed ^ id otherwise) do not share a stream.
        const auto kind = static_cast<FaultKind>(cfg.injectFault);
        for (CoreId c = 0; c < cfg.numCores; ++c)
            faultInjectors.push_back(std::make_unique<FaultInjector>(
                kind, cfg.injectProb, cfg.seed ^ c));
        for (PartitionId p = 0; p < cfg.numPartitions; ++p)
            faultInjectors.push_back(std::make_unique<FaultInjector>(
                kind, cfg.injectProb, cfg.seed ^ (0x9e00ull + p)));
        for (CoreId c = 0; c < cfg.numCores; ++c)
            coreArray[c]->setFaults(faultInjectors[c].get());
        for (PartitionId p = 0; p < cfg.numPartitions; ++p)
            partArray[p]->setFaults(
                faultInjectors[cfg.numCores + p].get());
    }
    wireProtocol();
    setupTelemetry();
}

void
GpuSystem::setupTelemetry()
{
    // Name every Perfetto track up front so traces open with "core N" /
    // "warp slot K" rows instead of bare pids/tids. Counter tracks live
    // on a dedicated pseudo-process after the cores.
    const std::uint32_t telemetry_pid = cfg.numCores;
    if (!cfg.timelinePath.empty()) {
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            timeline.nameProcess(c, "core " + std::to_string(c));
            for (std::uint32_t s = 0; s < cfg.core.maxWarps; ++s)
                timeline.nameThread(c, s,
                                    "warp slot " + std::to_string(s));
        }
        timeline.nameProcess(telemetry_pid, "telemetry");
        if (txTracer) {
            // Validation-unit spans live on their own pseudo-process,
            // one thread per partition, after the telemetry tracks.
            const std::uint32_t vu_pid = cfg.numCores + 1;
            timeline.nameProcess(vu_pid, "validation units");
            for (PartitionId p = 0; p < cfg.numPartitions; ++p)
                timeline.nameThread(vu_pid, p,
                                    "partition " + std::to_string(p));
            TxTraceEmit emit;
            emit.warpSpan = [this](CoreId core, std::uint32_t slot,
                                   const std::string &name, Cycle ts,
                                   Cycle dur) {
                timeline.complete(core, slot, name, ts, dur);
            };
            emit.warpInstant = [this](CoreId core, std::uint32_t slot,
                                      const std::string &name, Cycle ts) {
                timeline.instant(core, slot, name.c_str(), ts);
            };
            emit.vuSpan = [this, vu_pid](PartitionId partition,
                                         const std::string &name,
                                         Cycle ts, Cycle dur) {
                timeline.complete(vu_pid, partition, name, ts, dur);
            };
            txTracer->setEmit(std::move(emit));
        }
    }

    if (cfg.sampleInterval == 0)
        return;
    CycleSampler &sampler = observability.cycleSampler();
    sampler.setInterval(cfg.sampleInterval);
    sampler.addProbe("active_warps", [this] {
        unsigned total = 0;
        for (const auto &core : coreArray)
            total += core->activeWarps();
        return static_cast<double>(total);
    });
    sampler.addProbe("tx_warps", [this] {
        unsigned total = 0;
        for (const auto &core : coreArray)
            total += core->activeTxWarps();
        return static_cast<double>(total);
    });
    sampler.addProbe("stall_buffer_fill", [this] {
        return static_cast<double>(observability.stallOccupancy());
    });
    sampler.addProbe("mshr_fill", [this] {
        unsigned total = 0;
        for (const auto &core : coreArray)
            total += core->mshrOccupancy();
        return static_cast<double>(total);
    });
    sampler.addProbe("xbar_inflight", [this] {
        return static_cast<double>(xbarUp.inFlight() +
                                   xbarDown.inFlight());
    });
    if (!cfg.timelinePath.empty()) {
        const std::uint32_t pid = telemetry_pid;
        sampler.setEmit(
            [this, pid](const std::string &name, Cycle ts, double value) {
                timeline.counter(pid, name, ts, value);
            });
    }
}

GpuSystem::~GpuSystem() = default;

void
GpuSystem::wireProtocol()
{
    switch (cfg.protocol) {
      case ProtocolKind::FgLock:
        break; // no TM hardware

      case ProtocolKind::Getm: {
        GetmPartitionConfig part_cfg;
        part_cfg.meta.preciseEntries =
            std::max(16u, cfg.getmPreciseEntriesTotal / cfg.numPartitions);
        part_cfg.meta.bloomEntries =
            std::max(16u, cfg.getmBloomEntriesTotal / cfg.numPartitions);
        part_cfg.meta.seed = cfg.seed ^ 0x9e7a;
        part_cfg.meta.useMaxRegisters = cfg.getmUseMaxRegisters;
        part_cfg.stall = cfg.getmStall;
        part_cfg.granule = cfg.getmGranule;
        for (auto &core : coreArray)
            core->setProtocol(std::make_unique<GetmCoreTm>(*core));
        for (auto &part : partArray) {
            auto unit = std::make_unique<GetmPartitionUnit>(
                *part, part_cfg,
                "part" + std::to_string(part->partitionId()) + ".getm");
            unit->stallBuffer().setTracker(&stallTracker);
            getmUnits.push_back(unit.get());
            part->setProtocol(std::move(unit));
        }
        break;
      }

      case ProtocolKind::WarpTmLL:
      case ProtocolKind::WarpTmEL: {
        wtmShared = std::make_shared<WtmShared>();
        const WtmMode mode = cfg.protocol == ProtocolKind::WarpTmLL
                                 ? WtmMode::LazyLazy
                                 : WtmMode::EagerLazy;
        for (auto &core : coreArray)
            core->setProtocol(
                std::make_unique<WtmCoreTm>(*core, wtmShared, mode));
        for (auto &part : partArray)
            part->setProtocol(std::make_unique<WtmPartitionUnit>(
                *part, cfg.wtm,
                "part" + std::to_string(part->partitionId()) + ".wtm"));
        break;
      }

      case ProtocolKind::Eapg: {
        wtmShared = std::make_shared<WtmShared>();
        for (auto &core : coreArray)
            core->setProtocol(std::make_unique<EapgCoreTm>(*core,
                                                           wtmShared));
        for (auto &part : partArray)
            part->setProtocol(std::make_unique<EapgPartitionUnit>(
                *part, cfg.wtm,
                "part" + std::to_string(part->partitionId()) + ".eapg"));
        break;
      }
    }
}

bool
GpuSystem::allDone() const
{
    for (const auto &core : coreArray)
        if (!core->done())
            return false;
    return true;
}

bool
GpuSystem::drained(Cycle now) const
{
    // GETM commits are fire-and-forget: after the last warp retires, its
    // write log may still be crossing the interconnect. The run only
    // ends once every message has been delivered and processed.
    if (!xbarUp.idle() || !xbarDown.idle())
        return false;
    for (const auto &part : partArray)
        if (!part->idle(now))
            return false;
    return true;
}

Cycle
GpuSystem::computeNextCycle(Cycle now) const
{
    Cycle best = ~static_cast<Cycle>(0);
    for (const auto &core : coreArray)
        best = std::min(best, core->nextEventCycle(now + 1));
    for (const auto &part : partArray)
        best = std::min(best, part->nextEventCycle(now));
    best = std::min(best, xbarUp.nextArrival());
    best = std::min(best, xbarDown.nextArrival());
    if (best == ~static_cast<Cycle>(0))
        return best;
    return std::max(best, now + 1);
}

void
GpuSystem::maybeRollover(Cycle now)
{
    // No-op under the legacy loop (every core ticked this cycle); the
    // event loop skips not-due cores, whose clocks would otherwise lag
    // the rollover's forced aborts.
    for (auto &core : coreArray)
        core->syncClock(now);

    if (!rolloverPending) {
        LogicalTs max_ts = 0;
        for (GetmPartitionUnit *unit : getmUnits)
            max_ts = std::max(max_ts, unit->maxTimestamp());
        // Timestamps embed the warp id below tsWarpIdBits; the
        // threshold is expressed in logical-clock epochs.
        if (tsClock(max_ts) < cfg.rolloverThreshold)
            return;
        // Begin rollover: freeze transactional progress and force all
        // in-flight attempts to abort and release their reservations.
        rolloverPending = true;
        for (auto &core : coreArray) {
            core->setTxFrozen(true);
            for (Warp &warp : core->allWarps()) {
                if (!warp.inTx)
                    continue;
                const int txi = warp.transactionIndex();
                if (txi >= 0 && warp.stack[txi].mask)
                    core->abortTxLanes(warp, warp.stack[txi].mask, 0,
                                       AbortReason::Rollover, invalidAddr);
            }
        }
        inform("GETM timestamp rollover initiated at cycle %llu",
               static_cast<unsigned long long>(now));
        return;
    }

    // Mid-rollover: wait for quiescence, then flush and resume.
    for (const auto &core : coreArray)
        if (!core->quiescent())
            return;
    for (GetmPartitionUnit *unit : getmUnits)
        if (unit->metadata().lockedCount() ||
            unit->stallBuffer().occupancy())
            return;

    for (GetmPartitionUnit *unit : getmUnits)
        unit->flushForRollover(now);
    for (auto &part : partArray)
        part->addPipelineStall(now, cfg.rolloverPenalty);
    for (auto &core : coreArray) {
        for (Warp &warp : core->allWarps()) {
            warp.warpts = 0;
            warp.maxObservedTs = 0;
        }
        core->setTxFrozen(false);
    }
    rolloverPending = false;
    ++rollovers;
    inform("GETM timestamp rollover completed at cycle %llu",
           static_cast<unsigned long long>(now));
}

std::uint64_t
GpuSystem::progressSample() const
{
    std::uint64_t total = 0;
    for (const auto &core : coreArray)
        total += core->instructionsRetired() + core->commitLaneCount();
    return total;
}

void
GpuSystem::checkGuards(const Kernel &kernel, Cycle now, Cycle max_cycles,
                       GuardState &guard)
{
    if (now >= max_cycles)
        throw SimError(buildDiagnostic(
            SimErrorKind::CycleLimit,
            "kernel " + kernel.name() + " exceeded max cycles (" +
                std::to_string(max_cycles) + ")",
            now, now - guard.lastProgressCycle));

    // Livelock watchdog: sampled only once the window has elapsed, so
    // a passing run pays one counter sum per cfg.watchdogCycles.
    if (cfg.watchdogCycles &&
        now - guard.lastProgressCycle >= cfg.watchdogCycles) {
        const std::uint64_t sample = progressSample();
        if (sample != guard.lastProgressValue) {
            guard.lastProgressValue = sample;
            guard.lastProgressCycle = now;
        } else {
            throw SimError(buildDiagnostic(
                SimErrorKind::Livelock,
                "no instruction retired and no transaction committed "
                "for " +
                    std::to_string(now - guard.lastProgressCycle) +
                    " cycles",
                now, now - guard.lastProgressCycle));
        }
    }

    // Wall-clock budget, checked every 256 loop iterations so the
    // clock read stays off the per-cycle path.
    if (cfg.timeoutSec > 0.0 && (++guard.iterations & 255) == 0) {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - guard.wallStart)
                .count();
        if (elapsed >= cfg.timeoutSec)
            throw SimError(buildDiagnostic(
                SimErrorKind::WallTimeout,
                "wall-clock budget of " +
                    std::to_string(cfg.timeoutSec) + " s exceeded",
                now, now - guard.lastProgressCycle));
    }
}

SimDiagnostic
GpuSystem::buildDiagnostic(SimErrorKind kind, std::string message,
                           Cycle now, Cycle since_progress)
{
    // Under the parallel loop, core-side abort attribution lives in
    // per-core shards until the end of the run; fold it in so the
    // hot-address table below is complete (absorbing clears the
    // shards, so the final end-of-run merge stays correct).
    if (activeShards)
        for (ObsShard &shard : *activeShards)
            observability.absorbShard(shard);

    SimDiagnostic diag;
    diag.kind = kind;
    diag.message = std::move(message);
    diag.cycle = now;
    diag.sinceProgressCycles = since_progress;
    for (const auto &core : coreArray) {
        diag.instructions += core->instructionsRetired();
        diag.commitLanes += core->commitLaneCount();
    }
    diag.nocInFlightUp = xbarUp.inFlight();
    diag.nocInFlightDown = xbarDown.inFlight();

    // Scheduler-state histogram and the worst consecutive-abort
    // streaks (warps at or past a quarter of the starvation ceiling).
    std::array<unsigned, numWarpStates> state_counts{};
    const unsigned starve_floor =
        std::max(1u, cfg.core.starvationAbortCeiling / 4);
    for (auto &core : coreArray) {
        for (const Warp &warp : core->allWarps()) {
            ++state_counts[static_cast<unsigned>(warp.state)];
            if (warp.inTx &&
                warp.backoff.consecutiveAborts() >= starve_floor) {
                SimDiagnostic::StarvingWarp row;
                row.core = core->id();
                row.slot = warp.slot;
                row.gwid = warp.gwid;
                row.consecutiveAborts = warp.backoff.consecutiveAborts();
                row.state = warpStateName(warp.state);
                diag.starvingWarps.push_back(std::move(row));
            }
        }
    }
    for (unsigned s = 0; s < numWarpStates; ++s)
        if (state_counts[s])
            diag.warpStates.emplace_back(
                warpStateName(static_cast<WarpState>(s)),
                state_counts[s]);
    std::sort(diag.starvingWarps.begin(), diag.starvingWarps.end(),
              [](const SimDiagnostic::StarvingWarp &a,
                 const SimDiagnostic::StarvingWarp &b) {
                  return a.consecutiveAborts > b.consecutiveAborts;
              });
    if (diag.starvingWarps.size() > 16)
        diag.starvingWarps.resize(16);

    for (std::size_t p = 0; p < getmUnits.size(); ++p) {
        SimDiagnostic::PartitionRow row;
        row.partition = static_cast<unsigned>(p);
        row.metaOccupancy = getmUnits[p]->metadata().occupancy();
        row.metaLocked = getmUnits[p]->metadata().lockedCount();
        row.stallOccupancy = getmUnits[p]->stallBuffer().occupancy();
        diag.partitions.push_back(row);
    }

    for (const HotAddrRow &row : observability.profiler().topN(8))
        diag.hotAddrs.push_back({row.addr, row.total});
    return diag;
}

Cycle
GpuSystem::runLegacyLoop(const Kernel &kernel, Cycle max_cycles)
{
    Cycle now = resumeCycle;
    const bool getm_rollover =
        cfg.protocol == ProtocolKind::Getm &&
        cfg.rolloverThreshold != ~static_cast<LogicalTs>(0);
    const bool el_micro = cfg.protocol == ProtocolKind::WarpTmEL;
    guard.wallStart = std::chrono::steady_clock::now();

    while (!allDone() || !drained(now)) {
        checkGuards(kernel, now, max_cycles, guard);
        checkpointTop(kernel, now);

        for (auto &part : partArray)
            part->tick(now);
        for (auto &core : coreArray) {
            const CoreId c = core->id();
            while (xbarDown.hasReady(c, now))
                core->deliver(xbarDown.popReady(c), now);
        }
        for (auto &core : coreArray)
            core->tick(now);

        // EL commit micro-phase: commits the engines parked during the
        // ticks run serially in core order, in every loop flavour, so
        // one-thread and N-thread runs share one schedule.
        if (el_micro)
            for (auto &core : coreArray)
                core->runDeferredProtocolWork(now);

        observability.cycleSampler().maybeSample(now);

        if (getm_rollover || rolloverPending)
            maybeRollover(now);

        Cycle next = computeNextCycle(now);
        // Wake at sample boundaries too, so idle-cycle skipping cannot
        // starve the telemetry series (a skipped boundary would collapse
        // several samples into one).
        if (next != ~static_cast<Cycle>(0) &&
            observability.cycleSampler().enabled())
            next = std::max<Cycle>(
                now + 1,
                std::min(next,
                         observability.cycleSampler().nextSampleCycle()));
        if (next == ~static_cast<Cycle>(0)) {
            if (allDone() && drained(now))
                break;
            if (rolloverPending) {
                now = now + 1; // draining towards quiescence
                continue;
            }
            throw SimError(buildDiagnostic(
                SimErrorKind::Deadlock,
                "no future events at cycle " + std::to_string(now),
                now, now - guard.lastProgressCycle));
        }
        now = next;
    }
    return now;
}

Cycle
GpuSystem::runEventLoop(const Kernel &kernel, Cycle max_cycles)
{
    // The legacy loop ticks every component on every visited cycle, but
    // a tick on a component whose nextEventCycle() lies in the future is
    // a no-op: component state only changes inside tick()/deliver() (or
    // under maybeRollover(), handled below). The wake caches therefore
    // stay valid between ticks, and skipping not-due components is
    // timing-equivalent to the legacy loop. Message arrivals are the one
    // external wake source; they are caught by the hasReady() due-checks
    // and the raw crossbar nextArrival() terms in the global next.
    const Cycle never = ~static_cast<Cycle>(0);
    const unsigned ncores = static_cast<unsigned>(coreArray.size());
    const unsigned nparts = static_cast<unsigned>(partArray.size());

    // Cycle 0 behaves like the legacy loop's first iteration: everything
    // is due once, then earns its cached wake. After a restore, the
    // first visited cycle plays the same role: forcing every component
    // due is harmless (ticking a not-due component is a no-op, the
    // equivalence this loop is built on), and each then earns its
    // cached wake from restored state.
    std::vector<Cycle> coreWake(ncores, resumeCycle);
    std::vector<Cycle> partWake(nparts, resumeCycle);

    Cycle now = resumeCycle;
    const bool getm_rollover =
        cfg.protocol == ProtocolKind::Getm &&
        cfg.rolloverThreshold != ~static_cast<LogicalTs>(0);
    const bool el_micro = cfg.protocol == ProtocolKind::WarpTmEL;
    guard.wallStart = std::chrono::steady_clock::now();

    while (!allDone() || !drained(now)) {
        checkGuards(kernel, now, max_cycles, guard);
        checkpointTop(kernel, now);

        for (PartitionId p = 0; p < nparts; ++p) {
            if (partWake[p] <= now || xbarUp.hasReady(p, now)) {
                partArray[p]->tick(now);
                partWake[p] = partArray[p]->nextEventCycle(now);
            }
        }
        for (CoreId c = 0; c < ncores; ++c) {
            if (!xbarDown.hasReady(c, now))
                continue;
            SimtCore &core = *coreArray[c];
            do
                core.deliver(xbarDown.popReady(c), now);
            while (xbarDown.hasReady(c, now));
            // A delivery can unblock same-cycle work; force the tick.
            if (coreWake[c] > now)
                coreWake[c] = now;
        }
        for (CoreId c = 0; c < ncores; ++c) {
            if (coreWake[c] <= now) {
                coreArray[c]->tick(now);
                coreWake[c] = coreArray[c]->nextEventCycle(now + 1);
            }
        }

        // EL commit micro-phase (see runLegacyLoop): refresh the wake of
        // any core whose deferred commit retired or restarted warps.
        if (el_micro) {
            for (CoreId c = 0; c < ncores; ++c)
                if (coreArray[c]->runDeferredProtocolWork(now))
                    coreWake[c] = coreArray[c]->nextEventCycle(now + 1);
        }

        observability.cycleSampler().maybeSample(now);

        if (getm_rollover || rolloverPending) {
            const bool was_pending = rolloverPending;
            maybeRollover(now);
            if (rolloverPending != was_pending) {
                // Rollover transitions mutate cores (freeze/unfreeze,
                // forced aborts) and partitions (flush, pipeline stall)
                // from outside their tick(); recompute every wake.
                for (CoreId c = 0; c < ncores; ++c)
                    coreWake[c] = coreArray[c]->nextEventCycle(now + 1);
                for (PartitionId p = 0; p < nparts; ++p)
                    partWake[p] = partArray[p]->nextEventCycle(now);
            }
        }

        Cycle next = never;
        for (Cycle wake : coreWake)
            next = std::min(next, wake);
        for (Cycle wake : partWake)
            next = std::min(next, wake);
        next = std::min(next, xbarUp.nextArrival());
        next = std::min(next, xbarDown.nextArrival());
        if (next != never)
            next = std::max(next, now + 1);
        // Wake at sample boundaries too, so idle-cycle skipping cannot
        // starve the telemetry series (a skipped boundary would collapse
        // several samples into one).
        if (next != never && observability.cycleSampler().enabled())
            next = std::max<Cycle>(
                now + 1,
                std::min(next,
                         observability.cycleSampler().nextSampleCycle()));
        if (next == never) {
            if (allDone() && drained(now))
                break;
            if (rolloverPending) {
                now = now + 1; // draining towards quiescence
                continue;
            }
            throw SimError(buildDiagnostic(
                SimErrorKind::Deadlock,
                "no future events at cycle " + std::to_string(now),
                now, now - guard.lastProgressCycle));
        }
        now = next;
    }
    return now;
}

namespace {

/** One xbarUp.send() recorded on a worker thread for serial replay. */
struct StagedSend
{
    PartitionId part;
    unsigned bytes;
    Cycle sentAt; ///< Sending core's clock at the original call.
    MemMsg msg;
};

/**
 * Per-core send staging with the same replay slots as CoreEventBuffer
 * (deferred_sinks.hh): for an epoch of K cycles, slot 2j holds the
 * deliver-stage sends of the epoch's cycle j and slot 2j+1 its
 * tick-stage sends (K = 1 is the classic two-bucket scheme). Replaying
 * slot-major across cores in id order reproduces the serial loops'
 * global send order exactly, and CrossbarTiming::route() timing depends
 * only on its arguments and the port-free state evolved in call order —
 * so the replayed messages get byte-identical arrival cycles, sequence
 * numbers, and stats.
 */
struct CoreSendStage
{
    std::vector<std::vector<StagedSend>> buckets;
    unsigned cur = 0;

    explicit CoreSendStage(unsigned slots = 2) : buckets(slots) {}
};

/** One partition down-crossbar injection staged for serial replay. */
struct StagedDownSend
{
    CoreId core;
    unsigned bytes;
    Cycle when; ///< The response's ready cycle (crossbar send time).
    MemMsg msg;
};

/**
 * Per-partition send staging: one slot per epoch cycle (partitions have
 * no deliver stage — their inbound pops happen inside tick()). Replayed
 * before the same cycle's core slots, in partition order — the serial
 * loops tick partitions first.
 */
struct PartSendStage
{
    std::vector<std::vector<StagedDownSend>> buckets;
    unsigned cur = 0;

    explicit PartSendStage(unsigned slots = 1) : buckets(slots) {}
};

} // namespace

unsigned
GpuSystem::effectiveSimThreads() const
{
    unsigned threads = cfg.simThreads;
    if (threads <= 1)
        return 1;
    if (threads > cfg.numCores) {
        debugLog("sim_threads=%u exceeds the %u simulated cores; clamping",
              threads, cfg.numCores);
        threads = cfg.numCores;
    }
    return threads;
}

Cycle
GpuSystem::runParallelLoop(const Kernel &kernel, Cycle max_cycles,
                           unsigned threads)
{
    // Cores — and, when there are enough of them to pay for the extra
    // barrier, partitions — tick on worker threads; the crossbar
    // handoff, commit-id assignment, telemetry, rollover, and the
    // guards stay on the calling thread. Worker-side effects on shared
    // objects are staged per component and replayed at the barrier in
    // the serial loops' global order, which is what makes any thread
    // count byte-identical to sim_threads=1 for every protocol
    // (contract: docs/PARALLELISM.md).
    const Cycle never = ~static_cast<Cycle>(0);
    const unsigned ncores = static_cast<unsigned>(coreArray.size());
    const unsigned nparts = static_cast<unsigned>(partArray.size());

    // Relaxed epoch budget: up to cfg.simEpoch cycles between barriers
    // while nothing is in flight, capped by the crossbar latency + 1 so
    // no message staged inside an epoch could have arrived inside it
    // (route() delivers no earlier than sent + latency + 1). WarpTM-EL
    // is excluded: its commit micro-phase is a serial point every cycle.
    const bool el_micro = cfg.protocol == ProtocolKind::WarpTmEL;
    const bool getm_rollover =
        cfg.protocol == ProtocolKind::Getm &&
        cfg.rolloverThreshold != ~static_cast<LogicalTs>(0);
    const unsigned epoch_max =
        el_micro ? 1
                 : std::min<unsigned>(std::max(1u, cfg.simEpoch),
                                      static_cast<unsigned>(
                                          cfg.xbar.latency) + 1);
    if (epoch_max < cfg.simEpoch)
        debugLog("sim_epoch=%u capped to %u (crossbar latency bound)",
              cfg.simEpoch, epoch_max);

    // Pooled partition ticking pays for its extra barrier only with
    // enough partitions; below the threshold partitions stay on the
    // calling thread (still staged when epochs are enabled).
    const bool pool_parts = nparts >= 4;
    const bool stage_parts = pool_parts || epoch_max > 1;
    const unsigned core_slots = 2 * epoch_max;

    std::vector<Cycle> coreWake(ncores, resumeCycle);
    std::vector<Cycle> partWake(nparts, resumeCycle);

    std::vector<CoreSendStage> sends(ncores, CoreSendStage(core_slots));
    std::vector<ObsShard> shards(ncores);
    const bool use_timeline = !cfg.timelinePath.empty();
    const bool defer_events = txTracer || checker || use_timeline;
    std::vector<CoreEventBuffer> events(defer_events ? ncores : 0);
    for (CoreEventBuffer &buf : events)
        buf.resize(core_slots);
    std::vector<std::unique_ptr<DeferredObsSink>> tracer_proxies;
    std::vector<std::unique_ptr<DeferredCheckSink>> check_proxies;
    std::vector<std::unique_ptr<DeferredTimeline>> timeline_proxies;

    for (CoreId c = 0; c < ncores; ++c) {
        coreArray[c]->setObserver(&shards[c]);
        coreArray[c]->setSendFn([this, c, &sends](MemMsg &&msg) {
            CoreSendStage &stage = sends[c];
            stage.buckets[stage.cur].push_back(StagedSend{
                msg.partition, msg.bytes, coreArray[c]->now(),
                std::move(msg)});
        });
        if (txTracer) {
            tracer_proxies.push_back(std::make_unique<DeferredObsSink>(
                events[c], *txTracer));
            coreArray[c]->setTracer(tracer_proxies.back().get());
        }
        if (checker) {
            check_proxies.push_back(std::make_unique<DeferredCheckSink>(
                events[c], *checker));
            coreArray[c]->setChecker(check_proxies.back().get());
        }
        if (use_timeline) {
            timeline_proxies.push_back(
                std::make_unique<DeferredTimeline>(events[c], timeline));
            coreArray[c]->setTimeline(timeline_proxies.back().get());
        }
    }

    // Partition staging: down-crossbar injections and every
    // shared-sink call (observability hub, tracer, checker, and the
    // GPU-wide stall gauge) are recorded per partition and replayed in
    // partition order at the barrier. The hub proxy is unconditional —
    // unlike cores, partitions report conflict/stall attribution into
    // the order-sensitive hub directly rather than into shards.
    std::vector<PartSendStage> partSends(stage_parts ? nparts : 0,
                                         PartSendStage(epoch_max));
    std::vector<CoreEventBuffer> partEvents(stage_parts ? nparts : 0);
    std::vector<std::unique_ptr<DeferredObsSink>> part_obs_proxies;
    std::vector<std::unique_ptr<DeferredObsSink>> part_tracer_proxies;
    std::vector<std::unique_ptr<DeferredCheckSink>> part_check_proxies;
    std::vector<std::unique_ptr<DeferredStallTracker>> stall_proxies;
    if (stage_parts) {
        for (PartitionId p = 0; p < nparts; ++p) {
            partEvents[p].resize(epoch_max);
            partArray[p]->setDownSendFn(
                [&partSends, p](MemMsg &&msg, Cycle when) {
                    PartSendStage &stage = partSends[p];
                    stage.buckets[stage.cur].push_back(StagedDownSend{
                        msg.core, msg.bytes, when, std::move(msg)});
                });
            part_obs_proxies.push_back(std::make_unique<DeferredObsSink>(
                partEvents[p], observability));
            partArray[p]->setObserver(part_obs_proxies.back().get());
            if (txTracer) {
                part_tracer_proxies.push_back(
                    std::make_unique<DeferredObsSink>(partEvents[p],
                                                      *txTracer));
                partArray[p]->setTracer(
                    part_tracer_proxies.back().get());
            }
            if (checker) {
                part_check_proxies.push_back(
                    std::make_unique<DeferredCheckSink>(partEvents[p],
                                                        *checker));
                partArray[p]->setChecker(
                    part_check_proxies.back().get());
            }
        }
        for (std::size_t p = 0; p < getmUnits.size(); ++p) {
            stall_proxies.push_back(
                std::make_unique<DeferredStallTracker>(partEvents[p],
                                                       stallTracker));
            getmUnits[p]->stallBuffer().setTracker(
                stall_proxies.back().get());
        }
    }

    // WarpTM/EAPG: commit ids go through the reservation scheme so the
    // live allocation in the core tick never races (wtm_common.hh).
    WtmShared *const wtm = wtmShared.get();
    if (wtm)
        wtm->beginStaging(ncores, core_slots);

    activeShards = &shards;

    // Rewire everything back to the shared objects and fold the shard
    // counters into the hub. Runs on every exit path — the staging
    // callbacks capture locals of this frame, and run()'s result
    // gathering expects the serial wiring.
    auto restore = [&] {
        for (CoreId c = 0; c < ncores; ++c) {
            coreArray[c]->setObserver(&observability);
            coreArray[c]->setSendFn([this, c](MemMsg &&msg) {
                const PartitionId part = msg.partition;
                const unsigned bytes = msg.bytes;
                xbarUp.send(c, part, bytes, coreArray[c]->now(),
                            std::move(msg));
            });
            if (txTracer)
                coreArray[c]->setTracer(txTracer.get());
            if (checker)
                coreArray[c]->setChecker(checker.get());
            if (use_timeline)
                coreArray[c]->setTimeline(&timeline);
        }
        if (stage_parts) {
            for (PartitionId p = 0; p < nparts; ++p) {
                partArray[p]->setDownSendFn(nullptr);
                partArray[p]->setObserver(&observability);
                if (txTracer)
                    partArray[p]->setTracer(txTracer.get());
                if (checker)
                    partArray[p]->setChecker(checker.get());
            }
            for (GetmPartitionUnit *unit : getmUnits)
                unit->stallBuffer().setTracker(&stallTracker);
        }
        if (wtm)
            wtm->endStaging();
        for (ObsShard &shard : shards)
            observability.absorbShard(shard);
        activeShards = nullptr;
    };

    // Commit the staged work of @p cycles_in_epoch simulated cycles in
    // the serial loops' global per-cycle order. For each cycle j:
    // partition sends then partition sink events (partition order —
    // the serial loops tick partitions first), commit-id assignment
    // for the cycle's deliver and tick stages (WtmShared, core order),
    // then core sends (sentinel ids patched) and core events, deliver
    // stage before tick stage, core order within each. Within a slot,
    // sends replay before sink events; the only shared object hearing
    // both is the tracer, whose nocHop() aggregation is commutative,
    // so the relative order is unobservable.
    auto flushSlots = [&](unsigned cycles_in_epoch) {
        for (unsigned j = 0; j < cycles_in_epoch; ++j) {
            if (stage_parts) {
                for (PartitionId p = 0; p < nparts; ++p) {
                    for (StagedDownSend &send : partSends[p].buckets[j])
                        xbarDown.send(p, send.core, send.bytes,
                                      send.when, std::move(send.msg));
                    partSends[p].buckets[j].clear();
                }
                for (PartitionId p = 0; p < nparts; ++p)
                    CoreEventBuffer::drain(partEvents[p].buckets[j]);
            }
            if (wtm) {
                wtm->assignSlot(2 * j);
                wtm->assignSlot(2 * j + 1);
            }
            for (unsigned stage = 0; stage < 2; ++stage) {
                const unsigned slot = 2 * j + stage;
                for (CoreId c = 0; c < ncores; ++c) {
                    for (StagedSend &send : sends[c].buckets[slot]) {
                        if (wtm)
                            send.msg.txId =
                                wtm->patchTxId(c, send.msg.txId);
                        xbarUp.send(c, send.part, send.bytes,
                                    send.sentAt, std::move(send.msg));
                    }
                    sends[c].buckets[slot].clear();
                }
                if (defer_events)
                    for (CoreId c = 0; c < ncores; ++c)
                        CoreEventBuffer::drain(events[c].buckets[slot]);
            }
        }
    };

    CycleWorkers pool(threads);

    Cycle now = resumeCycle;
    guard.wallStart = std::chrono::steady_clock::now();

    try {
        while (!allDone() || !drained(now)) {
            checkGuards(kernel, now, max_cycles, guard);
            // Iteration top is a barrier: all staged work of previous
            // cycles is flushed and the WtmShared stages are dormant,
            // so the machine is snapshot-consistent here.
            checkpointTop(kernel, now);
            if (wtm)
                wtm->resetEpoch();

            // Relaxed barrier: with both crossbars empty and no
            // rollover due, nothing any component does before cycle
            // now + epoch_max can reach another component (crossbar
            // latency bound, see epoch_max above), so workers may run
            // several cycles between syncs. Clamps keep the watchdog
            // and the telemetry sampler observing the exact cycles
            // they would have serially.
            Cycle tend = now + 1;
            if (epoch_max > 1 && !getm_rollover && !rolloverPending &&
                xbarUp.idle() && xbarDown.idle()) {
                tend = std::min(now + epoch_max, max_cycles);
                if (cfg.watchdogCycles)
                    tend = std::min(tend, guard.lastProgressCycle +
                                              cfg.watchdogCycles);
                if (observability.cycleSampler().enabled())
                    tend = std::min(
                        tend,
                        observability.cycleSampler().nextSampleCycle());
                tend = std::max(tend, now + 1);
            }
            const Cycle t0 = now;

            if (tend == t0 + 1) {
                // Lockstep cycle. Partition phase first: the serial
                // loops tick partitions before cores, and a partition's
                // store commit must be visible to same-cycle core
                // loads, so the phases need a barrier between them.
                if (pool_parts) {
                    pool.run([&, t0](unsigned worker) {
                        for (PartitionId p = worker; p < nparts;
                             p += threads) {
                            partSends[p].cur = 0;
                            partEvents[p].cur = 0;
                            if (partWake[p] <= t0 ||
                                xbarUp.hasReady(p, t0)) {
                                partArray[p]->tick(t0);
                                partWake[p] =
                                    partArray[p]->nextEventCycle(t0);
                            }
                        }
                    });
                } else {
                    for (PartitionId p = 0; p < nparts; ++p) {
                        if (stage_parts) {
                            partSends[p].cur = 0;
                            partEvents[p].cur = 0;
                        }
                        if (partWake[p] <= now ||
                            xbarUp.hasReady(p, now)) {
                            partArray[p]->tick(now);
                            partWake[p] =
                                partArray[p]->nextEventCycle(now);
                        }
                    }
                }

                // Core phase: worker w owns cores c with
                // c % threads == w — deliveries then the tick,
                // per-core work identical to the event loop. Each
                // core's downward inbox has a single owner this phase
                // (nothing sends down while cores run), and all upward
                // traffic is staged.
                pool.run([&, t0](unsigned worker) {
                    for (CoreId c = worker; c < ncores; c += threads) {
                        SimtCore &core = *coreArray[c];
                        sends[c].cur = 0;
                        if (defer_events)
                            events[c].cur = 0;
                        if (wtm)
                            wtm->stages[c].cur = 0;
                        if (xbarDown.hasReady(c, t0)) {
                            do
                                core.deliver(xbarDown.popReady(c), t0);
                            while (xbarDown.hasReady(c, t0));
                            // A delivery can unblock same-cycle work.
                            if (coreWake[c] > t0)
                                coreWake[c] = t0;
                        }
                        sends[c].cur = 1;
                        if (defer_events)
                            events[c].cur = 1;
                        if (wtm)
                            wtm->stages[c].cur = 1;
                        if (coreWake[c] <= t0) {
                            core.tick(t0);
                            coreWake[c] = core.nextEventCycle(t0 + 1);
                        }
                    }
                });

                flushSlots(1);

                // WarpTM-EL commit micro-phase: commits apply their
                // write log core-side, so they run serially in core id
                // order after the barrier — exactly where the serial
                // loops run them. Their sends were staged into the
                // tick bucket; flush again if any commit ran.
                if (el_micro) {
                    bool ran = false;
                    for (CoreId c = 0; c < ncores; ++c) {
                        if (coreArray[c]->runDeferredProtocolWork(now)) {
                            coreWake[c] =
                                coreArray[c]->nextEventCycle(now + 1);
                            ran = true;
                        }
                    }
                    if (ran)
                        flushSlots(1);
                }
            } else {
                // Epoch of tend - t0 quiescent cycles: one fused
                // pool.run, no intermediate barrier. Partitions can
                // only drain their own out-queues (the up crossbar is
                // idle, so nothing pops, and protocol state only
                // mutates on pops); cores see no deliveries (the down
                // crossbar is idle and down-traffic is staged), so the
                // phases touch disjoint state and every cross-cycle
                // dependency is within one component.
                pool.run([&, t0, tend](unsigned worker) {
                    for (PartitionId p = worker; p < nparts;
                         p += threads) {
                        MemPartition &part = *partArray[p];
                        for (Cycle t = std::max(t0, partWake[p]);
                             t < tend;
                             t = std::max(t + 1, partWake[p])) {
                            const unsigned j =
                                static_cast<unsigned>(t - t0);
                            partSends[p].cur = j;
                            partEvents[p].cur = j;
                            part.tick(t);
                            partWake[p] = part.nextEventCycle(t);
                        }
                    }
                    for (CoreId c = worker; c < ncores; c += threads) {
                        SimtCore &core = *coreArray[c];
                        for (Cycle t = std::max(t0, coreWake[c]);
                             t < tend;
                             t = std::max(t + 1, coreWake[c])) {
                            const unsigned slot =
                                2 * static_cast<unsigned>(t - t0) + 1;
                            sends[c].cur = slot;
                            if (defer_events)
                                events[c].cur = slot;
                            if (wtm)
                                wtm->stages[c].cur = slot;
                            core.tick(t);
                            coreWake[c] = core.nextEventCycle(t + 1);
                        }
                    }
                });

                flushSlots(static_cast<unsigned>(tend - t0));
                now = tend - 1;
            }

            observability.cycleSampler().maybeSample(now);

            if (getm_rollover || rolloverPending) {
                const bool was_pending = rolloverPending;
                maybeRollover(now);
                // Rollover transitions abort warps from outside their
                // tick(); the staging callbacks are still installed, so
                // commit whatever they recorded (maybeRollover itself
                // walks cores serially in id order, matching the replay
                // order).
                flushSlots(1);
                if (rolloverPending != was_pending) {
                    for (CoreId c = 0; c < ncores; ++c)
                        coreWake[c] =
                            coreArray[c]->nextEventCycle(now + 1);
                    for (PartitionId p = 0; p < nparts; ++p)
                        partWake[p] = partArray[p]->nextEventCycle(now);
                }
            }

            Cycle next = never;
            for (Cycle wake : coreWake)
                next = std::min(next, wake);
            for (Cycle wake : partWake)
                next = std::min(next, wake);
            next = std::min(next, xbarUp.nextArrival());
            next = std::min(next, xbarDown.nextArrival());
            if (next != never)
                next = std::max(next, now + 1);
            // Wake at sample boundaries too, so idle-cycle skipping
            // cannot starve the telemetry series.
            if (next != never &&
                observability.cycleSampler().enabled())
                next = std::max<Cycle>(
                    now + 1,
                    std::min(
                        next,
                        observability.cycleSampler().nextSampleCycle()));
            if (next == never) {
                if (allDone() && drained(now))
                    break;
                if (rolloverPending) {
                    now = now + 1; // draining towards quiescence
                    continue;
                }
                throw SimError(buildDiagnostic(
                    SimErrorKind::Deadlock,
                    "no future events at cycle " + std::to_string(now),
                    now, now - guard.lastProgressCycle));
            }
            now = next;
        }
    } catch (...) {
        restore();
        throw;
    }
    restore();
    return now;
}


std::uint64_t
GpuSystem::checkpointHash(const Kernel &kernel,
                          std::uint64_t num_threads) const
{
    constexpr std::uint64_t basis = 0xcbf29ce484222325ull;
    constexpr std::uint64_t prime = 0x100000001b3ull;
    std::uint64_t h = basis;
    auto mix = [&h, prime](const std::string &text) {
        for (unsigned char byte : text) {
            h ^= byte;
            h *= prime;
        }
        h ^= 0x1f; // field separator
        h *= prime;
    };
    for (const auto &[key, value] : configProvenance(cfg)) {
        mix(key);
        mix(value);
    }
    // State-shaping knobs deliberately excluded from sweep provenance
    // but baked into the snapshot payload or the run's dynamics.
    mix("check=" + std::to_string(cfg.checkLevel));
    mix("trace=" + std::to_string(cfg.traceTx));
    mix("fault=" + std::to_string(cfg.injectFault));
    mix("prob=" + std::to_string(cfg.injectProb));
    mix("sample=" + std::to_string(cfg.sampleInterval));
    mix(cfg.timelinePath.empty() ? "timeline=0" : "timeline=1");
    mix("kernel=" + kernel.name());
    mix("threads=" + std::to_string(num_threads));
    return h;
}

template <class Ar>
void
GpuSystem::ckptMachine(Ar &ar)
{
    // One fixed component order, shared by save and load. Optional
    // components (tracer, checker, injectors) are config-determined,
    // and the config hash guarantees both sides agree on the config.
    ar(store, xbarUp, xbarDown);
    for (auto &core : coreArray)
        ar(*core);
    for (auto &part : partArray) {
        ar(*part);
        if (TmPartitionProtocol *unit = part->protocol()) {
            if constexpr (Ar::saving)
                unit->ckptSave(ar);
            else
                unit->ckptLoad(ar);
        }
    }
    ar(stallTracker.current, stallTracker.peak);
    if (wtmShared)
        ar(wtmShared->nextCommitId);
    ar(rolloverPending, rollovers, warpCursor, timeline, observability);
    if (txTracer)
        ar(*txTracer);
    if (checker)
        ar(*checker);
    for (auto &injector : faultInjectors)
        ar(*injector);
    ar(guard.lastProgressValue, guard.lastProgressCycle,
       guard.iterations);
}

void
GpuSystem::saveCheckpoint(Cycle now)
{
    // Fold worker-local observability shards into the hub first: shard
    // sums are commutative, so absorbing early cannot change the
    // end-of-run report, and it makes the snapshot shard-free — a
    // restored run starts with fresh, empty shards, exactly matching
    // the just-absorbed state of the saving run.
    if (activeShards)
        for (ObsShard &shard : *activeShards)
            observability.absorbShard(shard);

    ckpt::Writer ar;
    ckptMachine(ar);
    ckpt::Snapshot snap;
    snap.configHash = ckptHash;
    snap.cycle = now;
    snap.payload = ar.take();
    const std::string dir =
        cfg.ckptDir.empty() ? std::string(".") : cfg.ckptDir;
    const std::string path = ckpt::writeSnapshot(dir, snap);
    inform("checkpoint written to %s (cycle %llu)", path.c_str(),
           static_cast<unsigned long long>(now));
}

void
GpuSystem::restoreFromSnapshot()
{
    const std::string path = ckpt::resolveRestorePath(cfg.restorePath);
    const ckpt::Snapshot snap = ckpt::readSnapshot(path, ckptHash);
    ckpt::Reader ar(snap.payload.data(), snap.payload.size());
    ckptMachine(ar);
    if (ar.remaining() != 0)
        throw SimError(SimErrorKind::Checkpoint,
                       "checkpoint payload corrupt (" +
                           std::to_string(ar.remaining()) +
                           " trailing bytes)");
    resumeCycle = snap.cycle;
    if (cfg.ckptEvery)
        nextCkptDue = CycleSampler::alignNext(snap.cycle, cfg.ckptEvery);
    inform("restored checkpoint %s (cycle %llu)", path.c_str(),
           static_cast<unsigned long long>(snap.cycle));
}

void
GpuSystem::checkpointTop(const Kernel &kernel, Cycle now)
{
    // Crash-test hook first: a real SIGKILL does not wait for
    // checkpoint work either. No cleanup, no flush, 128+9.
    if (cfg.ckptKillAt && now >= cfg.ckptKillAt)
        std::_Exit(137);

    if (stopRequested()) {
        const int sig = stopSignal();
        if (cfg.ckptEvery || !cfg.ckptDir.empty())
            saveCheckpoint(now);
        throw SimError(buildDiagnostic(
            SimErrorKind::Interrupt,
            "kernel " + kernel.name() + " stopped by signal " +
                std::to_string(sig) + " at cycle " + std::to_string(now),
            now, now - guard.lastProgressCycle));
    }

    if (cfg.ckptEvery && now >= nextCkptDue) {
        saveCheckpoint(now);
        nextCkptDue = CycleSampler::alignNext(now, cfg.ckptEvery);
    }
}

RunResult
GpuSystem::run(const Kernel &kernel, std::uint64_t num_threads,
               Cycle max_cycles)
{
    const std::uint64_t total_warps = (num_threads + warpSize - 1) /
                                      warpSize;
    warpCursor = 0;
    auto work = [this, total_warps,
                 num_threads](WarpAssignment &assign) -> bool {
        if (warpCursor >= total_warps)
            return false;
        const std::uint64_t w = warpCursor++;
        assign.firstTid = static_cast<std::uint32_t>(w * warpSize);
        const std::uint64_t remaining = num_threads - w * warpSize;
        assign.validLanes =
            remaining >= warpSize
                ? fullMask
                : ((1u << remaining) - 1);
        assign.gwid = 0; // assigned by the core from its slot
        return true;
    };

    for (auto &core : coreArray)
        core->startKernel(&kernel, num_threads, work, 0);

    // Durability setup. The restore overwrites everything startKernel
    // just initialized (including warpCursor), which is exactly the
    // point: the kernel pointer and work source are live-wired, the
    // machine state is the snapshot's.
    ckptHash = checkpointHash(kernel, num_threads);
    guard = GuardState{};
    resumeCycle = 0;
    nextCkptDue = cfg.ckptEvery
                      ? CycleSampler::alignNext(0, cfg.ckptEvery)
                      : 0;
    if (!cfg.restorePath.empty())
        restoreFromSnapshot();

    const bool legacy = cfg.legacyLoop ||
                        std::getenv("GETM_LEGACY_LOOP") != nullptr;
    const unsigned sim_threads = legacy ? 1 : effectiveSimThreads();
    Cycle now = 0;
    try {
        now = legacy ? runLegacyLoop(kernel, max_cycles)
              : sim_threads > 1
                  ? runParallelLoop(kernel, max_cycles, sim_threads)
                  : runEventLoop(kernel, max_cycles);
    } catch (const SimError &err) {
        // Final snapshot beside the diagnostic: every SimError leaves
        // the machine at a cycle boundary (the guards and the
        // iteration-top hooks throw before any tick, the deadlock
        // check after a cycle completed), so the snapshot is
        // resumable. INTERRUPT already wrote one in checkpointTop.
        if ((cfg.ckptEvery || !cfg.ckptDir.empty()) &&
            err.kind() != SimErrorKind::Interrupt &&
            err.kind() != SimErrorKind::Checkpoint) {
            try {
                saveCheckpoint(err.diagnostic().cycle);
            } catch (const SimError &ckpt_err) {
                warn("final checkpoint failed: %s", ckpt_err.what());
            }
        }
        throw;
    }

    // Gather results.
    RunResult result;
    result.cycles = now;
    result.rollovers = rollovers;
    // Report the logical-clock component: raw timestamps embed the
    // warp id in their low tsWarpIdBits for uniqueness.
    for (GetmPartitionUnit *unit : getmUnits)
        result.maxLogicalTs =
            std::max(result.maxLogicalTs, tsClock(unit->maxTimestamp()));
    for (auto &core : coreArray) {
        core->foldWarpStats();
        result.stats.merge(core->stats());
    }
    for (auto &part : partArray) {
        result.stats.merge(part->stats());
        result.stats.merge(part->llc().stats());
    }
    result.stats.merge(xbarUp.stats());
    result.stats.merge(xbarDown.stats());
    for (GetmPartitionUnit *unit : getmUnits) {
        result.stats.merge(unit->metadata().stats());
        result.stats.merge(unit->stallBuffer().stats());
    }

    result.commits = result.stats.counter("commits");
    result.aborts = result.stats.counter("aborts");
    result.txExecCycles = result.stats.counter("tx_exec_cycles");
    result.txWaitCycles = result.stats.counter("tx_wait_cycles");
    result.xbarFlits = xbarUp.totalFlits() + xbarDown.totalFlits();
    result.metaAccessCycles = result.stats.mean("access_cycles");
    result.stallPeakOccupancy = stallTracker.peak;
    result.stallWaitersPerAddr = result.stats.mean("waiters_per_addr");
    // Record the final partial telemetry window before snapshotting.
    observability.cycleSampler().finalize(now);
    result.obs = observability.report(cfg.hotAddrTopN);
    if (txTracer)
        result.obs.txTrace = txTracer->report(now);
    if (checker) {
        checker->finish(store);
        result.check = checker->report();
    }
    if (!cfg.timelinePath.empty()) {
        if (timeline.writeJson(cfg.timelinePath))
            inform("wrote transaction timeline to %s",
                   cfg.timelinePath.c_str());
        else
            warn("failed to write timeline to %s",
                 cfg.timelinePath.c_str());
    }
    return result;
}

} // namespace getm
