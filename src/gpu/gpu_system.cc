#include "gpu/gpu_system.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>

#include "check/checker.hh"
#include "check/fault.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/serial.hh"
#include "common/log.hh"
#include "common/stop_flag.hh"
#include "core/getm_core_tm.hh"
#include "gpu/config_file.hh"
#include "eapg/eapg.hh"

namespace getm {

namespace {

using PK = ProtocolKind;

/** The protocol-name table: canonical names first, then aliases. */
constexpr std::pair<std::string_view, ProtocolKind> protocolNames[] = {
    {"FGLock", PK::FgLock},      {"GETM", PK::Getm},
    {"WarpTM-LL", PK::WarpTmLL}, {"WarpTM-EL", PK::WarpTmEL},
    {"EAPG", PK::Eapg},          {"warptm", PK::WarpTmLL},
    {"el", PK::WarpTmEL},        {"lock", PK::FgLock},
};

} // namespace

const char *
protocolName(ProtocolKind kind)
{
    for (const auto &[name, k] : protocolNames)
        if (k == kind)
            return name.data();
    return "?";
}

std::optional<ProtocolKind>
parseProtocol(std::string_view name)
{
    const auto lower = [](char ch) {
        return std::tolower(static_cast<unsigned char>(ch));
    };
    for (const auto &[candidate, kind] : protocolNames)
        if (std::equal(name.begin(), name.end(), candidate.begin(),
                       candidate.end(), [&](char a, char b) {
                           return lower(a) == lower(b);
                       }))
            return kind;
    return std::nullopt;
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
      xbarDown("xbar.down", cfg.numPartitions, cfg.numCores, cfg.xbar),
      observability(cfg.getmGranule)
{
    CoreConfig core_cfg = cfg.core;
    core_cfg.lineBytes = cfg.lineBytes;
    core_cfg.txGranule = cfg.getmGranule;
    core_cfg.seed = cfg.seed;

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        coreArray.push_back(std::make_unique<SimtCore>(
            c, core_cfg, addrMap, store, xbarUp, events));
    }
    for (PartitionId p = 0; p < cfg.numPartitions; ++p) {
        partArray.push_back(std::make_unique<MemPartition>(
            p, cfg, addrMap, store, xbarUp, xbarDown, cfg.numCores,
            events));
    }
    events.obs = &observability;
    if (!cfg.timelinePath.empty())
        events.timeline = &timeline;
    if (cfg.traceTx > 0) {
        txTracer = std::make_unique<TxTracer>(cfg.traceTx);
        events.tracer = txTracer.get();
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
        events.checker = checker.get();
    }
    if (cfg.injectFault > 0 &&
        cfg.injectFault < static_cast<unsigned>(FaultKind::Count)) {
        // One injector per component, each with a counter stream derived
        // from the component's identity, so a component's Bernoulli
        // draws depend only on its own decision history. Partitions
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
            txTracer->mirrorTo(&timeline, vu_pid);
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
    const auto unit_name = [](const MemPartition &part, const char *proto) {
        return "part" + std::to_string(part.partitionId()) + "." + proto;
    };

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
        std::vector<GetmCoreTm *> engines;
        for (auto &core : coreArray) {
            auto engine = std::make_unique<GetmCoreTm>(*core);
            engines.push_back(engine.get());
            core->setProtocol(std::move(engine));
        }
        std::vector<GetmPartitionUnit *> units;
        for (auto &part : partArray) {
            auto unit = std::make_unique<GetmPartitionUnit>(
                *part, part_cfg, unit_name(*part, "getm"));
            units.push_back(unit.get());
            part->setProtocol(std::move(unit));
        }
        gpuProtocol = std::make_unique<GetmGpuTm>(
            std::move(engines), std::move(units), cfg.rolloverThreshold,
            cfg.rolloverPenalty);
        break;
      }

      case ProtocolKind::WarpTmLL:
      case ProtocolKind::WarpTmEL: {
        auto gpu_tm = std::make_unique<WtmGpuTm>();
        const WtmMode mode = cfg.protocol == ProtocolKind::WarpTmLL
                                 ? WtmMode::LazyLazy
                                 : WtmMode::EagerLazy;
        for (auto &core : coreArray)
            core->setProtocol(
                std::make_unique<WtmCoreTm>(*core, *gpu_tm, mode));
        for (auto &part : partArray)
            part->setProtocol(std::make_unique<WtmPartitionUnit>(
                *part, cfg.wtm, unit_name(*part, "wtm")));
        gpuProtocol = std::move(gpu_tm);
        break;
      }

      case ProtocolKind::Eapg: {
        auto gpu_tm = std::make_unique<WtmGpuTm>();
        for (auto &core : coreArray)
            core->setProtocol(std::make_unique<EapgCoreTm>(*core, *gpu_tm));
        for (auto &part : partArray)
            part->setProtocol(std::make_unique<EapgPartitionUnit>(
                *part, cfg.wtm, unit_name(*part, "eapg")));
        gpuProtocol = std::move(gpu_tm);
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

std::uint64_t
GpuSystem::progressSample() const
{
    std::uint64_t total = 0;
    for (const auto &core : coreArray)
        total += core->nonTxInstructions() + core->commitLaneCount();
    return total;
}

void
GpuSystem::checkGuards(const Kernel &kernel, Cycle now, Cycle max_cycles)
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
                "no instruction retired outside a transaction and no "
                "transaction lane committed for " +
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

    if (gpuProtocol)
        gpuProtocol->diagnose(diag);

    for (const HotAddrRow &row : observability.profiler().topN(8))
        diag.hotAddrs.push_back({row.addr, row.total});
    return diag;
}

Cycle
GpuSystem::runLoop(const Kernel &kernel, Cycle max_cycles)
{
    // Event mode skips components that are not due: a tick on a
    // component whose nextEventCycle() lies in the future is a no-op,
    // and state only changes in tick()/deliver() or in a GPU-scope
    // protocol hook, which names what it touched (WakeRefresh). Message
    // arrivals, the one external wake source, are caught by the
    // hasReady() due-checks and the crossbar nextArrival() terms.
    const Cycle never = ~static_cast<Cycle>(0);
    const bool reference = cfg.legacyLoop;
    const unsigned ncores = static_cast<unsigned>(coreArray.size());
    const unsigned nparts = static_cast<unsigned>(partArray.size());

    // The first visited cycle (0, or the restored cycle) finds every
    // component due once; each then earns its cached wake. Forcing a
    // not-due component is harmless: its tick is a no-op.
    std::vector<Cycle> coreWake(ncores, resumeCycle);
    std::vector<Cycle> partWake(nparts, resumeCycle);
    WakeRefresh refresh;

    Cycle now = resumeCycle;
    guard.wallStart = std::chrono::steady_clock::now();

    while (!allDone() || !drained(now)) {
        checkGuards(kernel, now, max_cycles);
        checkpointTop(kernel, now);

        for (PartitionId p = 0; p < nparts; ++p) {
            if (reference || partWake[p] <= now ||
                xbarUp.hasReady(p, now)) {
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
            coreWake[c] = std::min(coreWake[c], now);
        }
        for (CoreId c = 0; c < ncores; ++c) {
            if (reference || coreWake[c] <= now) {
                coreArray[c]->tick(now);
                coreWake[c] = coreArray[c]->nextEventCycle(now + 1);
            }
        }

        refresh.cores.clear();
        refresh.all = false;
        if (gpuProtocol)
            gpuProtocol->commitPhase(now, refresh);
        observability.cycleSampler().maybeSample(now);
        const bool protocol_busy =
            gpuProtocol && gpuProtocol->endCycle(now, refresh);

        if (reference || refresh.all) {
            for (CoreId c = 0; c < ncores; ++c)
                coreWake[c] = coreArray[c]->nextEventCycle(now + 1);
            for (PartitionId p = 0; p < nparts; ++p)
                partWake[p] = partArray[p]->nextEventCycle(now);
        } else {
            for (CoreId c : refresh.cores)
                coreWake[c] = coreArray[c]->nextEventCycle(now + 1);
        }

        Cycle next = std::min(xbarUp.nextArrival(), xbarDown.nextArrival());
        for (Cycle wake : coreWake)
            next = std::min(next, wake);
        for (Cycle wake : partWake)
            next = std::min(next, wake);
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
            if (protocol_busy) {
                now = now + 1;
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
    if (gpuProtocol) {
        if constexpr (Ar::saving)
            gpuProtocol->ckptSave(ar);
        else
            gpuProtocol->ckptLoad(ar);
    }
    ar(warpCursor, timeline, observability);
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
    ckptArchive.clear();
    ckptMachine(ckptArchive);
    const std::string dir =
        cfg.ckptDir.empty() ? std::string(".") : cfg.ckptDir;
    const std::string path = ckpt::writeSnapshot(
        dir, {ckptHash, now, ckptArchive.bytes()});
    inform("checkpoint written to %s (cycle %llu)", path.c_str(),
           static_cast<unsigned long long>(now));
}

void
GpuSystem::restoreFromSnapshot()
{
    const std::string path = ckpt::resolveRestorePath(cfg.restorePath);
    const std::string bytes = ckpt::readFile(path);
    const ckpt::Snapshot snap = ckpt::decode(bytes, ckptHash, path);
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

    Cycle now = 0;
    try {
        now = runLoop(kernel, max_cycles);
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
    if (gpuProtocol)
        gpuProtocol->finishRun(result);

    result.commits = result.stats.counter("commits");
    result.aborts = result.stats.counter("aborts");
    result.txExecCycles = result.stats.counter("tx_exec_cycles");
    result.txWaitCycles = result.stats.counter("tx_wait_cycles");
    result.xbarFlits = xbarUp.totalFlits() + xbarDown.totalFlits();
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
