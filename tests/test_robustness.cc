/**
 * @file
 * Fault-tolerance tests: typed SimError reporting for simulation
 * pathologies (cycle limit, deadlock, livelock, wall timeout), the
 * diagnostic snapshot they carry, load-time config validation, and
 * the per-warp starvation counter.
 *
 * The deadlock/livelock scenarios are manufactured with the leak-lock
 * protocol fault (check/fault.hh): a GETM commit skips releasing its
 * write reservation, so the granule stays locked by a retired warp
 * and its waiters park forever. Without a pending rollover that ends
 * in "no future events" (DEADLOCK); with a pending rollover that can
 * never quiesce, the main loop spins and the forward-progress
 * watchdog fires (LIVELOCK). A second livelock needs no fault: skewed
 * YCSB under GETM with a rollover at every timestamp, where warps
 * abort and retry without committing.
 */

#include <gtest/gtest.h>

#include "check/fault.hh"
#include "common/json.hh"
#include "common/sim_error.hh"
#include "gpu/config_file.hh"
#include "gpu/gpu_system.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace getm;

namespace {

/** testRig tuned so ATM at a tiny scale runs in milliseconds. */
GpuConfig
rigConfig()
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    cfg.core.txWarpLimit =
        optimalConcurrency(BenchId::Atm, ProtocolKind::Getm);
    return cfg;
}

/** Run ATM at a tiny scale under @p cfg; returns only on success. */
RunResult
runAtm(GpuConfig cfg, Cycle max_cycles = 50'000'000)
{
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(BenchId::Atm, 0.02, 7);
    workload->setup(gpu, false);
    return gpu.run(workload->kernel(), workload->numThreads(),
                   max_cycles);
}

/** Run ATM expecting a SimError; returns it for inspection. */
SimError
runAtmExpectingError(GpuConfig cfg, Cycle max_cycles = 50'000'000)
{
    try {
        runAtm(cfg, max_cycles);
    } catch (const SimError &e) {
        return e;
    }
    ADD_FAILURE() << "run completed without throwing SimError";
    return SimError(SimErrorKind::Internal, "no error");
}

std::uint64_t
counterValue(const StatSet &stats, const std::string &name)
{
    const auto &counters = stats.allCounters();
    const auto it = counters.find(name);
    return it == counters.end() || !it->second.touched
               ? 0
               : it->second.value;
}

} // namespace

// --------------------------------------------------------------------------
// Error taxonomy
// --------------------------------------------------------------------------

TEST(SimErrorKinds, NamesAndStatusesAreStable)
{
    EXPECT_STREQ(simErrorKindName(SimErrorKind::Deadlock), "DEADLOCK");
    EXPECT_STREQ(simErrorKindName(SimErrorKind::Livelock), "LIVELOCK");
    EXPECT_STREQ(simErrorKindName(SimErrorKind::CycleLimit),
                 "CYCLE_LIMIT");
    EXPECT_STREQ(simErrorKindName(SimErrorKind::WallTimeout),
                 "WALL_TIMEOUT");
    EXPECT_STREQ(simErrorStatus(SimErrorKind::Deadlock), "deadlock");
    EXPECT_STREQ(simErrorStatus(SimErrorKind::Livelock), "livelock");
    EXPECT_STREQ(simErrorStatus(SimErrorKind::CycleLimit),
                 "cycle-limit");
    EXPECT_STREQ(simErrorStatus(SimErrorKind::WallTimeout), "timeout");
    EXPECT_STREQ(simErrorStatus(SimErrorKind::Config), "config");
    EXPECT_STREQ(simErrorStatus(SimErrorKind::Internal), "error");
}

TEST(SimErrorKinds, WhatCombinesKindAndMessage)
{
    const SimError e(SimErrorKind::Config, "bad knob");
    EXPECT_EQ(e.kind(), SimErrorKind::Config);
    EXPECT_STREQ(e.what(), "CONFIG: bad knob");
    EXPECT_EQ(e.diagnostic().message, "bad knob");
}

// --------------------------------------------------------------------------
// Config validation
// --------------------------------------------------------------------------

TEST(ConfigValidation, AppliedTextIsValidatedAtLoadTime)
{
    const char *const bad[] = {
        "cores = 0",
        "partitions = 0",
        "warps_per_core = 0",
        "issue_width = 0",
        "line_bytes = 0",
        "getm_granule = 0",
    };
    for (const char *text : bad) {
        GpuConfig cfg;
        std::string error;
        EXPECT_FALSE(applyConfigText(text, cfg, error)) << text;
        EXPECT_NE(error.find("invalid config"), std::string::npos)
            << text << " -> " << error;
    }

    GpuConfig cfg;
    std::string error;
    EXPECT_TRUE(applyConfigText("cores = 4", cfg, error)) << error;
}

TEST(ConfigValidation, RejectsDegenerateBackoffWindows)
{
    GpuConfig cfg;
    std::string error;

    cfg.core.backoff.baseWindow = 0;
    EXPECT_FALSE(validateGpuConfig(cfg, error));
    EXPECT_NE(error.find("base window"), std::string::npos) << error;

    cfg.core.backoff.baseWindow = 64;
    cfg.core.backoff.maxWindow = 16;
    EXPECT_FALSE(validateGpuConfig(cfg, error));
    EXPECT_NE(error.find("max window"), std::string::npos) << error;
}

TEST(ConfigValidation, GpuSystemRefusesInvalidConfigs)
{
    GpuConfig cfg = rigConfig();
    cfg.core.backoff.baseWindow = 0;
    try {
        GpuSystem gpu(cfg);
        FAIL() << "constructor accepted an invalid config";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(e.diagnostic().message.find("base window"),
                  std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------------------------
// Cycle limit
// --------------------------------------------------------------------------

TEST(CycleLimit, ThrowsTypedErrorWithDiagnostic)
{
    const SimError e = runAtmExpectingError(rigConfig(), 1000);
    EXPECT_EQ(e.kind(), SimErrorKind::CycleLimit);
    const SimDiagnostic &diag = e.diagnostic();
    EXPECT_GE(diag.cycle, 1000u);
    EXPECT_NE(diag.message.find("max cycles"), std::string::npos);
    EXPECT_FALSE(diag.warpStates.empty());
}

// --------------------------------------------------------------------------
// Deadlock (leak-lock, no rollover)
// --------------------------------------------------------------------------

TEST(Deadlock, LeakedReservationEndsInTypedDeadlock)
{
    GpuConfig cfg = rigConfig();
    cfg.injectFault = static_cast<unsigned>(FaultKind::LeakLock);
    cfg.injectProb = 1.0;
    const SimError e = runAtmExpectingError(cfg);
    EXPECT_EQ(e.kind(), SimErrorKind::Deadlock);
    EXPECT_NE(e.diagnostic().message.find("no future events"),
              std::string::npos);
}

TEST(Deadlock, DiagnosticSnapshotIsPopulatedAndSerializable)
{
    GpuConfig cfg = rigConfig();
    cfg.injectFault = static_cast<unsigned>(FaultKind::LeakLock);
    cfg.injectProb = 1.0;
    const SimError e = runAtmExpectingError(cfg);
    const SimDiagnostic &diag = e.diagnostic();

    EXPECT_GT(diag.cycle, 0u);
    EXPECT_GT(diag.instructions, 0u);
    EXPECT_FALSE(diag.warpStates.empty());
    EXPECT_EQ(diag.partitions.size(), cfg.numPartitions);

    const std::string text = diag.toText();
    EXPECT_NE(text.find("DEADLOCK"), std::string::npos);
    EXPECT_NE(text.find("warp states"), std::string::npos);

    const std::string json = diag.toJson();
    std::string json_error;
    EXPECT_TRUE(jsonValidate(json, json_error)) << json_error;
    EXPECT_NE(json.find("\"kind\":\"DEADLOCK\""), std::string::npos);
    EXPECT_NE(json.find("\"warp_states\""), std::string::npos);
    EXPECT_NE(json.find("\"getm_partitions\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Livelock (leak-lock + rollover that can never quiesce)
// --------------------------------------------------------------------------

TEST(Livelock, UnquiescableRolloverTripsTheWatchdog)
{
    // With every commit leaking its reservation, the metadata table
    // can never reach lockedCount == 0, so an initiated rollover
    // spins forever without retiring anything; the forward-progress
    // watchdog must convert that spin into a typed LIVELOCK.
    GpuConfig cfg = rigConfig();
    cfg.injectFault = static_cast<unsigned>(FaultKind::LeakLock);
    cfg.injectProb = 1.0;
    cfg.rolloverThreshold = 5;
    cfg.watchdogCycles = 5'000;
    const SimError e = runAtmExpectingError(cfg);
    EXPECT_EQ(e.kind(), SimErrorKind::Livelock);
    const SimDiagnostic &diag = e.diagnostic();
    EXPECT_GE(diag.sinceProgressCycles, cfg.watchdogCycles);
    EXPECT_NE(diag.message.find("no instruction retired"),
              std::string::npos);
}

TEST(Livelock, AbortingRetriesTripTheDefaultWatchdog)
{
    // `getm-sim --bench YCSB:theta=0.9 --protocol getm --scale 0.05
    // --rollover 1`: the hot keys' warps abort and retry without end,
    // and the rest wait in the throttle. Those retried attempts and
    // throttled TxBegins retire instructions all the time, so a
    // watchdog that counted every instruction never fired (244 lanes
    // committed by cycle 104.2M). At the default window it must end
    // the run as LIVELOCK.
    WorkloadSpec spec;
    std::string error;
    ASSERT_TRUE(parseWorkloadSpec("YCSB:theta=0.9", spec, error)) << error;
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.protocol = ProtocolKind::Getm;
    cfg.seed = 7;
    cfg.core.txWarpLimit = optimalConcurrency(spec, ProtocolKind::Getm);
    cfg.rolloverThreshold = 1;
    ASSERT_EQ(cfg.watchdogCycles, 2'000'000u);

    GpuSystem gpu(cfg);
    auto workload = makeWorkload(spec, 0.05, cfg.seed);
    workload->setup(gpu, false);
    // A blind watchdog lets the run go on to this bound and end as
    // CYCLE_LIMIT instead.
    const Cycle max_cycles = 5 * cfg.watchdogCycles;
    try {
        gpu.run(workload->kernel(), workload->numThreads(), max_cycles);
        FAIL() << "the run finished instead of livelocking";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Livelock) << e.what();
        const SimDiagnostic &diag = e.diagnostic();
        EXPECT_GE(diag.sinceProgressCycles, cfg.watchdogCycles);
        EXPECT_LT(diag.commitLanes, workload->numThreads());
    }
}

// --------------------------------------------------------------------------
// Wall-clock timeout
// --------------------------------------------------------------------------

TEST(WallTimeout, ExpiredBudgetThrowsTypedTimeout)
{
    GpuConfig cfg = rigConfig();
    cfg.timeoutSec = 1e-9; // expires at the first 256-iteration check
    const SimError e = runAtmExpectingError(cfg);
    EXPECT_EQ(e.kind(), SimErrorKind::WallTimeout);
    EXPECT_NE(e.diagnostic().message.find("wall-clock"),
              std::string::npos);
}

// --------------------------------------------------------------------------
// Guards never perturb a passing run
// --------------------------------------------------------------------------

TEST(Watchdog, EnabledGuardsDoNotChangeCycleCounts)
{
    GpuConfig off = rigConfig();
    off.watchdogCycles = 0;
    const RunResult base = runAtm(off);

    GpuConfig on = rigConfig();
    on.watchdogCycles = 500; // aggressive window, generous wall budget
    on.timeoutSec = 3600.0;
    const RunResult guarded = runAtm(on);

    EXPECT_EQ(base.cycles, guarded.cycles);
    EXPECT_EQ(base.commits, guarded.commits);
    EXPECT_EQ(base.aborts, guarded.aborts);
}

// --------------------------------------------------------------------------
// Starvation accounting
// --------------------------------------------------------------------------

TEST(Starvation, ConsecutiveAbortCeilingIsCounted)
{
    // A one-entry stall buffer plus a tiny ceiling makes repeatedly
    // aborted warps cross the starvation threshold quickly on the
    // high-contention ATM mix.
    GpuConfig cfg = rigConfig();
    cfg.core.starvationAbortCeiling = 2;
    const RunResult result = runAtm(cfg);
    EXPECT_GT(counterValue(result.stats, "tx_starvation_events"), 0u);

    // The default ceiling is far above what this workload reaches, so
    // the counter stays untouched and exports stay byte-stable.
    const RunResult clean = runAtm(rigConfig());
    EXPECT_EQ(counterValue(clean.stats, "tx_starvation_events"), 0u);
}
