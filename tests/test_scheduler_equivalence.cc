/**
 * @file
 * Event-driven scheduler equivalence.
 *
 * GpuSystem's wake-list main loop skips components that are not due,
 * relying on the invariant that ticking an idle component is a pure
 * no-op. These tests run one workload per protocol on the test rig
 * under both loops (GpuConfig::legacyLoop selects the reference
 * tick-everything loop) and require the *entire* observable outcome --
 * cycle count, commits, aborts, crossbar traffic, and the full merged
 * stats dump -- to be bit-identical. Any divergence means a component
 * mutated state on a cycle the event loop skipped.
 *
 * The InstrumentsInvisible tests apply the same comparison to the
 * instruments instead of the loop flavour: one run per TM protocol
 * with the checker, tracer, sampler and timeline all on against one
 * with all of them off.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "gpu/gpu_system.hh"
#include "workloads/workload.hh"

namespace getm {
namespace {

struct Outcome
{
    RunResult run;
    std::string statsDump;
};

/** Where an instrumented run of @p protocol writes its timeline. */
std::string
timelinePathFor(ProtocolKind protocol)
{
    return testing::TempDir() + "instruments_" + protocolName(protocol) +
           ".json";
}

/**
 * @p instruments turns on every instrument: the checker (serial), the
 * tracer at sample rate 1, the cycle sampler and the timeline.
 */
Outcome
runWith(BenchId bench, ProtocolKind protocol, bool legacy,
        bool instruments = false,
        LogicalTs rollover_threshold = ~static_cast<LogicalTs>(0))
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = protocol;
    cfg.legacyLoop = legacy;
    if (instruments) {
        cfg.checkLevel = 2;
        cfg.traceTx = 1;
        cfg.sampleInterval = 512;
        cfg.timelinePath = timelinePathFor(protocol);
    }
    cfg.rolloverThreshold = rollover_threshold;
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(bench, 0.01, 123);
    workload->setup(gpu, protocol == ProtocolKind::FgLock);
    Outcome outcome;
    outcome.run = gpu.run(workload->kernel(), workload->numThreads(),
                          200'000'000);
    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why))
        << protocolName(protocol) << ": " << why;
    outcome.statsDump = outcome.run.stats.dump();
    return outcome;
}

/** Returns the reference-loop outcome for further checks. */
Outcome
expectIdentical(BenchId bench, ProtocolKind protocol,
                LogicalTs rollover_threshold = ~static_cast<LogicalTs>(0))
{
    const Outcome legacy =
        runWith(bench, protocol, true, false, rollover_threshold);
    const Outcome event =
        runWith(bench, protocol, false, false, rollover_threshold);
    const char *name = protocolName(protocol);

    EXPECT_EQ(event.run.cycles, legacy.run.cycles) << name;
    EXPECT_EQ(event.run.commits, legacy.run.commits) << name;
    EXPECT_EQ(event.run.aborts, legacy.run.aborts) << name;
    EXPECT_EQ(event.run.xbarFlits, legacy.run.xbarFlits) << name;
    EXPECT_EQ(event.run.txExecCycles, legacy.run.txExecCycles) << name;
    EXPECT_EQ(event.run.txWaitCycles, legacy.run.txWaitCycles) << name;
    EXPECT_EQ(event.run.rollovers, legacy.run.rollovers) << name;
    EXPECT_EQ(event.run.maxLogicalTs, legacy.run.maxLogicalTs) << name;
    EXPECT_EQ(event.statsDump, legacy.statsDump) << name;
    return legacy;
}

/**
 * Every instrument the TxEvents hub feeds -- the runtime checker, the
 * transaction tracer, the timeline -- and the cycle sampler must be a
 * pure observer: turning them all on may not perturb a single
 * simulated cycle or statistic, while each still records the run.
 */
void
expectInstrumentsInvisible(BenchId bench, ProtocolKind protocol)
{
    const std::string timeline = timelinePathFor(protocol);
    std::remove(timeline.c_str());
    const Outcome off = runWith(bench, protocol, false);
    const Outcome on = runWith(bench, protocol, false, true);
    const char *name = protocolName(protocol);

    EXPECT_EQ(on.run.cycles, off.run.cycles) << name;
    EXPECT_EQ(on.run.commits, off.run.commits) << name;
    EXPECT_EQ(on.run.aborts, off.run.aborts) << name;
    EXPECT_EQ(on.run.xbarFlits, off.run.xbarFlits) << name;
    EXPECT_EQ(on.run.txExecCycles, off.run.txExecCycles) << name;
    EXPECT_EQ(on.run.txWaitCycles, off.run.txWaitCycles) << name;
    EXPECT_EQ(on.statsDump, off.statsDump) << name;

    // Checker: a clean run over real commits.
    EXPECT_EQ(on.run.check.totalViolations, 0u)
        << name << ": " << on.run.check.summary();
    EXPECT_GT(on.run.check.txCommits, 0u) << name;

    // Tracer: real transactions traced, with exact cycle accounting.
    const TxTraceReport &trace = on.run.obs.txTrace;
    EXPECT_TRUE(trace.enabled) << name;
    EXPECT_FALSE(off.run.obs.txTrace.enabled) << name;
    EXPECT_GT(trace.traced, 0u) << name;
    EXPECT_GT(trace.committedCount, 0u) << name;
    EXPECT_EQ(trace.openAtEnd, 0u) << name;
    for (const TxRecord &rec : trace.transactions)
        EXPECT_EQ(rec.cycles.total(), rec.lifetime())
            << name << ": tx " << rec.traceId;

    // Sampler and timeline: both recorded the instrumented run.
    EXPECT_GT(on.run.obs.samples.numSamples(), 0u) << name;
    EXPECT_EQ(off.run.obs.samples.numSamples(), 0u) << name;
    std::ifstream file(timeline);
    const std::string doc((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(doc.find("\"name\":\"tx\""), std::string::npos) << name;
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos) << name;
    std::remove(timeline.c_str());
}

TEST(SchedulerEquivalence, FgLock)
{
    expectIdentical(BenchId::HtH, ProtocolKind::FgLock);
}

TEST(SchedulerEquivalence, Getm)
{
    expectIdentical(BenchId::HtH, ProtocolKind::Getm);
}

TEST(SchedulerEquivalence, GetmLowContention)
{
    // A sparser workload exercises long idle gaps, where the event
    // loop actually skips cycles instead of degenerating to +1 steps.
    expectIdentical(BenchId::Atm, ProtocolKind::Getm);
}

TEST(SchedulerEquivalence, GetmRollover)
{
    // A rollover freezes, aborts, flushes and stalls components from
    // outside their tick(); the event loop must refresh exactly the
    // wakes the rollover touched.
    const Outcome outcome = expectIdentical(BenchId::HtH, ProtocolKind::Getm,
                                            /*rollover_threshold=*/2);
    EXPECT_GT(outcome.run.rollovers, 0u);
}

TEST(SchedulerEquivalence, WarpTmLL)
{
    expectIdentical(BenchId::Atm, ProtocolKind::WarpTmLL);
}

TEST(SchedulerEquivalence, WarpTmEL)
{
    expectIdentical(BenchId::HtH, ProtocolKind::WarpTmEL);
}

TEST(SchedulerEquivalence, Eapg)
{
    expectIdentical(BenchId::Atm, ProtocolKind::Eapg);
}

TEST(SchedulerEquivalence, InstrumentsInvisibleGetm)
{
    expectInstrumentsInvisible(BenchId::HtH, ProtocolKind::Getm);
}

TEST(SchedulerEquivalence, InstrumentsInvisibleWarpTmLL)
{
    expectInstrumentsInvisible(BenchId::Atm, ProtocolKind::WarpTmLL);
}

TEST(SchedulerEquivalence, InstrumentsInvisibleWarpTmEL)
{
    expectInstrumentsInvisible(BenchId::HtH, ProtocolKind::WarpTmEL);
}

TEST(SchedulerEquivalence, InstrumentsInvisibleEapg)
{
    expectInstrumentsInvisible(BenchId::Atm, ProtocolKind::Eapg);
}

} // namespace
} // namespace getm
