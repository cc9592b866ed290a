/**
 * @file
 * TxTracer unit tests on hand-built event streams, plus an end-to-end
 * traced run.
 *
 * The unit tests call the tracer's tx* methods directly, as the
 * TxEvents hub (obs/tx_events.hh) does in a run, with synthetic
 * lifecycles and check the properties the exporter and the
 * Python tooling lean on: exact telescoping cycle accounting (the
 * categories sum to the lifetime, per transaction, always), the
 * stall-dwell overlay, committed-vs-aborted attempt folding, abort
 * genealogy merging, and the sampling arithmetic. The end-to-end test
 * traces a real workload and checks the same invariants over real
 * transactions (timing neutrality itself is covered by the
 * InstrumentsInvisible tests in test_scheduler_equivalence.cc).
 */

#include <gtest/gtest.h>

#include <string>

#include "gpu/gpu_system.hh"
#include "obs/tx_tracer.hh"
#include "workloads/workload.hh"

namespace getm {
namespace {

constexpr GlobalWarpId kWarp = 7;

void
begin(TxTracer &tracer, GlobalWarpId gwid, Cycle now,
      unsigned attempt = 0)
{
    tracer.txAttemptBegin(gwid, /*core=*/1, /*slot=*/2, attempt,
                          /*lanes=*/32, now);
}

TEST(TxTracer, SingleAttemptTelescopesExactly)
{
    TxTracer tracer(1);
    begin(tracer, kWarp, 100);
    tracer.txPhase(kWarp, TxPhase::Mem, 120);      // 20 exec
    tracer.txPhase(kWarp, TxPhase::Exec, 150);     // 30 mem
    tracer.txPhase(kWarp, TxPhase::Validate, 160); // 10 exec
    tracer.txRetire(kWarp, 32, /*willRetry=*/false, 200); // 40 validate

    const TxTraceReport report = tracer.report(200);
    ASSERT_EQ(report.transactions.size(), 1u);
    const TxRecord &rec = report.transactions[0];
    EXPECT_TRUE(rec.committed);
    EXPECT_EQ(rec.lifetime(), 100u);
    EXPECT_EQ(rec.cycles.exec, 30u);
    EXPECT_EQ(rec.cycles.noc, 30u);
    EXPECT_EQ(rec.cycles.validation, 40u);
    EXPECT_EQ(rec.cycles.stall, 0u);
    EXPECT_EQ(rec.cycles.retry, 0u);
    EXPECT_EQ(rec.cycles.total(), rec.lifetime());
    EXPECT_EQ(report.totals.exec, 30u);
    EXPECT_EQ(report.totalLifetime, 100u);
    EXPECT_EQ(report.committedCount, 1u);
    EXPECT_EQ(report.openAtEnd, 0u);
}

TEST(TxTracer, StallDwellOverlaysThePhase)
{
    TxTracer tracer(1);
    begin(tracer, kWarp, 0);
    tracer.txPhase(kWarp, TxPhase::Mem, 10);       // 10 exec
    tracer.txStallEnter(kWarp, 0x40, 0, 20);       // 10 mem
    tracer.txStallExit(kWarp, 0x40, 0, 20, 50);    // 30 stalled (in Mem)
    tracer.txPhase(kWarp, TxPhase::Exec, 60);      // 10 mem
    tracer.txRetire(kWarp, 32, false, 70);         // 10 exec

    const TxTraceReport report = tracer.report(70);
    ASSERT_EQ(report.transactions.size(), 1u);
    const TxRecord &rec = report.transactions[0];
    EXPECT_EQ(rec.cycles.stall, 30u);
    EXPECT_EQ(rec.cycles.noc, 20u);
    EXPECT_EQ(rec.cycles.exec, 20u);
    EXPECT_EQ(rec.cycles.total(), rec.lifetime());
    // The raw per-state totals ignore the overlay: the 30 stalled
    // cycles stay charged to Mem there.
    EXPECT_EQ(rec.rawMem, 50u);
    EXPECT_EQ(rec.rawExec, 20u);
}

TEST(TxTracer, AbortedAttemptsFoldIntoRetry)
{
    TxTracer tracer(1);
    begin(tracer, kWarp, 0);
    tracer.txPhase(kWarp, TxPhase::Mem, 30);
    tracer.txAbort(kWarp, AbortReason::RawTs, 0x80, 32, 50);
    tracer.txRetire(kWarp, 0, /*willRetry=*/true, 60);
    begin(tracer, kWarp, 60, /*attempt=*/1); // same cycle as retire
    tracer.txPhase(kWarp, TxPhase::Validate, 90);
    tracer.txRetire(kWarp, 32, /*willRetry=*/false, 100);

    const TxTraceReport report = tracer.report(100);
    ASSERT_EQ(report.transactions.size(), 1u);
    const TxRecord &rec = report.transactions[0];
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_TRUE(rec.committed);
    // Attempt 0 (0..60) was aborted: all 60 cycles are redo work.
    EXPECT_EQ(rec.cycles.retry, 60u);
    // Attempt 1 (60..100): 30 exec + 10 validation.
    EXPECT_EQ(rec.cycles.exec, 30u);
    EXPECT_EQ(rec.cycles.validation, 10u);
    EXPECT_EQ(rec.cycles.total(), rec.lifetime());
    ASSERT_EQ(rec.aborts.size(), 1u);
    EXPECT_EQ(rec.aborts[0].attempt, 0u);
    EXPECT_EQ(rec.aborts[0].reason, AbortReason::RawTs);
}

TEST(TxTracer, ConflictMergesIntoTheAbortRecord)
{
    TxTracer tracer(1);
    begin(tracer, kWarp, 0);
    tracer.txConflict(kWarp, /*aborter=*/11, AbortReason::WawTs, 0x100,
                      /*partition=*/3, 40);
    tracer.txAbort(kWarp, AbortReason::WawTs, invalidAddr, 32, 41);
    tracer.txRetire(kWarp, 0, true, 42);
    begin(tracer, kWarp, 42, 1);
    // A conflict whose reason does not match the abort stays unmerged.
    tracer.txConflict(kWarp, 13, AbortReason::RawTs, 0x140, 1, 60);
    tracer.txAbort(kWarp, AbortReason::IntraWarp, 0x180, 32, 61);
    tracer.txRetire(kWarp, 0, true, 62);
    begin(tracer, kWarp, 62, 2);
    tracer.txRetire(kWarp, 32, false, 80);

    const TxTraceReport report = tracer.report(80);
    ASSERT_EQ(report.transactions.size(), 1u);
    const TxRecord &rec = report.transactions[0];
    ASSERT_EQ(rec.aborts.size(), 2u);
    // Merged: aborter, partition, and the conflict-site address.
    EXPECT_EQ(rec.aborts[0].aborter, 11u);
    EXPECT_EQ(rec.aborts[0].partition, 3u);
    EXPECT_EQ(rec.aborts[0].addr, 0x100u);
    // Unmerged: the killer stays unknown.
    EXPECT_EQ(rec.aborts[1].aborter, invalidWarp);
    EXPECT_EQ(rec.aborts[1].addr, 0x180u);
}

TEST(TxTracer, SampleRatePicksEveryNth)
{
    TxTracer tracer(3);
    for (GlobalWarpId gwid = 0; gwid < 7; ++gwid) {
        begin(tracer, gwid, gwid * 10);
        if (tracer.tracing(gwid))
            tracer.txRetire(gwid, 32, false, gwid * 10 + 5);
    }
    const TxTraceReport report = tracer.report(100);
    EXPECT_EQ(report.txSeen, 7u);
    EXPECT_EQ(report.sampleRate, 3u);
    // Transactions 0, 3, and 6 are traced.
    ASSERT_EQ(report.traced, 3u);
    EXPECT_EQ(report.transactions[0].gwid, 0u);
    EXPECT_EQ(report.transactions[1].gwid, 3u);
    EXPECT_EQ(report.transactions[2].gwid, 6u);
}

TEST(TxTracer, OpenTransactionsAreClosedAtReportTime)
{
    TxTracer tracer(1);
    begin(tracer, kWarp, 10);
    tracer.txPhase(kWarp, TxPhase::Backoff, 30);

    const TxTraceReport report = tracer.report(90);
    EXPECT_EQ(report.openAtEnd, 1u);
    EXPECT_EQ(report.committedCount, 0u);
    ASSERT_EQ(report.transactions.size(), 1u);
    const TxRecord &rec = report.transactions[0];
    EXPECT_FALSE(rec.committed);
    EXPECT_EQ(rec.endCycle, 90u);
    // The unfinished attempt folds as redo work; the sum invariant
    // holds even for force-closed rows.
    EXPECT_EQ(rec.cycles.retry, 80u);
    EXPECT_EQ(rec.cycles.total(), rec.lifetime());
}

TEST(TxTracer, AccessSpansCorrelateFifoPerGranule)
{
    TxTracer tracer(1);
    begin(tracer, kWarp, 0);
    tracer.txAccessIssue(kWarp, 0x40, false, 5);
    tracer.txAccessIssue(kWarp, 0x80, true, 6);
    tracer.txAccessDecision(kWarp, 0x80, 1, true, 10, 12);
    tracer.txAccessDecision(kWarp, 0x40, 0, true, 11, 13);
    tracer.txAccessResponse(kWarp, 0x40, 20);
    tracer.txAccessResponse(kWarp, 0x80, 21);
    // A response with no decided issue is ignored, not miscounted.
    tracer.txAccessResponse(kWarp, 0xc0, 22);
    tracer.txRetire(kWarp, 32, false, 30);

    const TxTraceReport report = tracer.report(30);
    ASSERT_EQ(report.transactions.size(), 1u);
    EXPECT_EQ(report.transactions[0].accessesIssued, 2u);
    EXPECT_EQ(report.transactions[0].accessesCompleted, 2u);
}

TEST(TxTracer, JsonExportCarriesSchemaAndKillChains)
{
    TxTracer tracer(1);
    begin(tracer, kWarp, 0);
    tracer.txConflict(kWarp, 9, AbortReason::WarTs, 0x200, 2, 15);
    tracer.txAbort(kWarp, AbortReason::WarTs, 0x200, 32, 16);
    tracer.txRetire(kWarp, 0, true, 20);
    begin(tracer, kWarp, 20, 1);
    tracer.txRetire(kWarp, 32, false, 40);

    const std::string doc = txTraceToJson(tracer.report(40), "p0");
    EXPECT_NE(doc.find("\"schema\":\"getm-tx-trace\""), std::string::npos);
    EXPECT_NE(doc.find("\"point\":\"p0\""), std::string::npos);
    EXPECT_NE(doc.find("\"kill_chains\""), std::string::npos);
    EXPECT_NE(doc.find("\"aborter_warp\":9"), std::string::npos);
    EXPECT_NE(doc.find("\"reason\":\"WAR_TS\""), std::string::npos);
}

/** Trace a real run and hold the invariants over real transactions. */
TEST(TxTracerEndToEnd, HashtableRunSatisfiesTheInvariants)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.traceTx = 1;
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(BenchId::HtH, 0.01, 123);
    workload->setup(gpu, false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 200'000'000);
    std::string why;
    ASSERT_TRUE(workload->verify(gpu, why)) << why;

    const TxTraceReport &trace = result.obs.txTrace;
    ASSERT_TRUE(trace.enabled);
    EXPECT_EQ(trace.sampleRate, 1u);
    EXPECT_GT(trace.traced, 0u);
    EXPECT_EQ(trace.traced, trace.txSeen);
    EXPECT_GT(trace.committedCount, 0u);
    EXPECT_EQ(trace.openAtEnd, 0u);
    EXPECT_GT(trace.nocUp.msgs, 0u);
    EXPECT_GT(trace.nocDown.msgs, 0u);

    TxCycleBreakdown sum;
    std::uint64_t lifetime = 0;
    for (const TxRecord &rec : trace.transactions) {
        EXPECT_EQ(rec.cycles.total(), rec.lifetime())
            << "tx " << rec.traceId;
        if (rec.committed) {
            EXPECT_EQ(rec.accessesCompleted, rec.accessesIssued)
                << "tx " << rec.traceId;
        }
        sum.exec += rec.cycles.exec;
        sum.noc += rec.cycles.noc;
        sum.stall += rec.cycles.stall;
        sum.validation += rec.cycles.validation;
        sum.retry += rec.cycles.retry;
        lifetime += rec.lifetime();
    }
    EXPECT_EQ(trace.totals.total(), sum.total());
    EXPECT_EQ(trace.totalLifetime, lifetime);
    EXPECT_EQ(trace.totals.total(), trace.totalLifetime);
    // The raw scheduler-state totals are bounded by the aggregate
    // counters (the tracer clips at txbegin).
    EXPECT_LE(trace.rawExec + trace.rawMem, result.txExecCycles);
    EXPECT_LE(trace.rawValidate + trace.rawBackoff, result.txWaitCycles);
}

/** Sampling traces a strict subset but keeps every invariant. */
TEST(TxTracerEndToEnd, SampledRunTracesASubset)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.traceTx = 4;
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(BenchId::Atm, 0.01, 123);
    workload->setup(gpu, false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 200'000'000);

    const TxTraceReport &trace = result.obs.txTrace;
    ASSERT_TRUE(trace.enabled);
    EXPECT_GT(trace.traced, 0u);
    EXPECT_LT(trace.traced, trace.txSeen);
    for (const TxRecord &rec : trace.transactions)
        EXPECT_EQ(rec.cycles.total(), rec.lifetime())
            << "tx " << rec.traceId;
}

} // namespace
} // namespace getm
