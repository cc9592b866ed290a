/**
 * @file
 * Runtime serializability & opacity checker tests.
 *
 * Two halves:
 *
 *  - hand-built CheckSink event schedules driven straight into a
 *    Checker, pinning the violation taxonomy: a serializable history
 *    stays clean, lost-update and write-skew histories close
 *    SERIALIZABILITY_CYCLE, a read of a value no committed writer ever
 *    produced is INCONSISTENT_READ, and the commit-intent cross-checks
 *    yield CORRUPT_APPLY / LOST_WRITE / FINAL_STATE_MISMATCH exactly;
 *
 *  - end-to-end runs of a contended workload on the test rig under all
 *    four TM protocols with the checker at Serial level, asserting zero
 *    violations (the protocols really are serializable) and that the
 *    checker saw the traffic it should have.
 */

#include <gtest/gtest.h>

#include "check/checker.hh"
#include "check/fault.hh"
#include "check/reference_exec.hh"
#include "gpu/gpu_system.hh"
#include "isa/kernel_builder.hh"
#include "mem/backing_store.hh"
#include "workloads/workload.hh"

namespace getm {
namespace {

constexpr Addr addrA = 0x1000;
constexpr Addr addrB = 0x1004;

/** Begin a one-lane attempt on (gwid, lane 0) with thread id = gwid. */
void
begin(Checker &c, GlobalWarpId gwid)
{
    c.attemptBegin(gwid, 1u, gwid);
}

/** Commit the (gwid, lane 0) attempt with one logged write. */
void
commitWrite(Checker &c, GlobalWarpId gwid, Addr addr, std::uint32_t value)
{
    std::vector<LogEntry> writes{{addr, value, 1}};
    c.attemptCommitted(gwid, 0, writes);
}

void
commitReadOnly(Checker &c, GlobalWarpId gwid)
{
    c.attemptCommitted(gwid, 0, {});
}

std::uint64_t
countOf(const CheckReport &report, ViolationKind kind)
{
    return report.byKind[static_cast<unsigned>(kind)];
}

TEST(CheckerSchedules, SerializableHistoryIsClean)
{
    Checker c(CheckLevel::Serial);
    BackingStore store;

    // T1: read A (initial 0), write A=1.  T2: read A=1, write A=2.
    // Serial order T1 < T2; every edge points forward.
    begin(c, 0);
    c.readObserved(0, 0, addrA, 0);
    commitWrite(c, 0, addrA, 1);
    c.writeApplied(0, 0, addrA, 1);

    begin(c, 1);
    c.readObserved(1, 0, addrA, 1);
    commitWrite(c, 1, addrA, 2);
    c.writeApplied(1, 0, addrA, 2);

    store.write(addrA, 2);
    c.finish(store);
    EXPECT_EQ(c.report().totalViolations, 0u) << c.report().summary();
    EXPECT_EQ(c.report().txCommits, 2u);
    EXPECT_EQ(c.report().readsChecked, 2u);
}

TEST(CheckerSchedules, AbortedAttemptLeavesNoTrace)
{
    Checker c(CheckLevel::Serial);
    BackingStore store;

    begin(c, 0);
    c.readObserved(0, 0, addrA, 0);
    c.attemptAborted(0, 1u);

    // The lane retries and commits; the aborted read must not create
    // edges or pending intent.
    begin(c, 0);
    c.readObserved(0, 0, addrA, 0);
    commitWrite(c, 0, addrA, 7);
    c.writeApplied(0, 0, addrA, 7);

    store.write(addrA, 7);
    c.finish(store);
    EXPECT_EQ(c.report().totalViolations, 0u) << c.report().summary();
    EXPECT_EQ(c.report().txAborts, 1u);
    EXPECT_EQ(c.report().txCommits, 1u);
}

TEST(CheckerSchedules, LostUpdateClosesCycle)
{
    Checker c(CheckLevel::Serial);

    // Classic lost update: both transactions read A=0, both commit a
    // write of A. The second committer must serialize after the first
    // (WW), but it read the pre-first-write value (RW to the first
    // writer): a two-node cycle.
    begin(c, 0);
    c.readObserved(0, 0, addrA, 0);
    begin(c, 1);
    c.readObserved(1, 0, addrA, 0);

    commitWrite(c, 0, addrA, 1);
    c.writeApplied(0, 0, addrA, 1);
    commitWrite(c, 1, addrA, 2);
    c.writeApplied(1, 0, addrA, 2);

    EXPECT_EQ(countOf(c.report(), ViolationKind::SerializabilityCycle), 1u)
        << c.report().summary();
    EXPECT_EQ(c.report().totalViolations, 1u);
}

TEST(CheckerSchedules, WriteSkewClosesCycle)
{
    Checker c(CheckLevel::Serial);

    // Write skew: T1 reads A and writes B, T2 reads B and writes A.
    // Each anti-dependency points at the other transaction.
    begin(c, 0);
    c.readObserved(0, 0, addrA, 0);
    begin(c, 1);
    c.readObserved(1, 0, addrB, 0);

    commitWrite(c, 0, addrB, 1);
    c.writeApplied(0, 0, addrB, 1);
    commitWrite(c, 1, addrA, 1);
    c.writeApplied(1, 0, addrA, 1);

    EXPECT_EQ(countOf(c.report(), ViolationKind::SerializabilityCycle), 1u)
        << c.report().summary();
}

TEST(CheckerSchedules, InconsistentReadIsOpacityViolation)
{
    Checker c(CheckLevel::Serial);

    begin(c, 0);
    c.readObserved(0, 0, addrA, 0);
    commitWrite(c, 0, addrA, 5);
    c.writeApplied(0, 0, addrA, 5);

    // A later read observes 999, a value no committed writer produced:
    // the lane saw inconsistent (non-opaque) state. Even if this
    // attempt later aborts, the violation stands.
    begin(c, 1);
    c.readObserved(1, 0, addrA, 999);
    c.attemptAborted(1, 1u);

    EXPECT_EQ(countOf(c.report(), ViolationKind::InconsistentRead), 1u)
        << c.report().summary();
    EXPECT_EQ(c.report().totalViolations, 1u);
}

TEST(CheckerSchedules, CorruptApplyOnValueMismatch)
{
    Checker c(CheckLevel::Serial);

    begin(c, 0);
    commitWrite(c, 0, addrA, 5);
    c.writeApplied(0, 0, addrA, 6); // applied 6, logged 5

    EXPECT_EQ(countOf(c.report(), ViolationKind::CorruptApply), 1u)
        << c.report().summary();
}

TEST(CheckerSchedules, LostWriteReportedAtFinish)
{
    Checker c(CheckLevel::Serial);
    BackingStore store;

    begin(c, 0);
    commitWrite(c, 0, addrA, 5);
    // The apply never arrives.
    c.finish(store);

    EXPECT_EQ(countOf(c.report(), ViolationKind::LostWrite), 1u)
        << c.report().summary();
}

TEST(CheckerSchedules, FinalStateMismatchWhenStoreDiverges)
{
    Checker c(CheckLevel::Serial);
    BackingStore store;

    c.externalWrite(addrA, 3);
    store.write(addrA, 4); // memory mutated behind the checker's back
    c.finish(store);

    EXPECT_EQ(countOf(c.report(), ViolationKind::FinalStateMismatch), 1u)
        << c.report().summary();
}

TEST(CheckerSchedules, ReadLevelSkipsGraphButChecksValues)
{
    Checker c(CheckLevel::Read);

    // The lost-update history again: no graph at Read level, so no
    // cycle is reported, but the inconsistent-value machinery runs.
    begin(c, 0);
    c.readObserved(0, 0, addrA, 0);
    begin(c, 1);
    c.readObserved(1, 0, addrA, 0);
    commitWrite(c, 0, addrA, 1);
    c.writeApplied(0, 0, addrA, 1);
    commitWrite(c, 1, addrA, 2);
    c.writeApplied(1, 0, addrA, 2);

    EXPECT_EQ(c.report().totalViolations, 0u) << c.report().summary();
    EXPECT_EQ(c.report().graphEdges, 0u);

    begin(c, 2);
    c.readObserved(2, 0, addrA, 999);
    EXPECT_EQ(countOf(c.report(), ViolationKind::InconsistentRead), 1u);
}

TEST(CheckerSchedules, GcPreservesCycleDetection)
{
    Checker c(CheckLevel::Serial);
    c.setGcPeriod(1); // GC after every commit

    // A long prefix of serializable traffic the GC can retire...
    for (GlobalWarpId w = 0; w < 64; ++w) {
        begin(c, w);
        c.readObserved(w, 0, addrB, w == 0 ? 0 : w);
        commitWrite(c, w, addrB, w + 1);
        c.writeApplied(w, 0, addrB, w + 1);
    }
    EXPECT_EQ(c.report().totalViolations, 0u) << c.report().summary();
    EXPECT_GT(c.report().gcRuns, 0u);
    EXPECT_GT(c.report().nodesReclaimed, 0u);

    // ...then a fresh lost update, which must still close a cycle.
    begin(c, 100);
    c.readObserved(100, 0, addrA, 0);
    begin(c, 101);
    c.readObserved(101, 0, addrA, 0);
    commitWrite(c, 100, addrA, 1);
    c.writeApplied(100, 0, addrA, 1);
    commitWrite(c, 101, addrA, 2);
    c.writeApplied(101, 0, addrA, 2);

    EXPECT_EQ(countOf(c.report(), ViolationKind::SerializabilityCycle), 1u)
        << c.report().summary();
}

TEST(CheckerSchedules, ReadOnlyCommitIsClean)
{
    Checker c(CheckLevel::Serial);
    BackingStore store;

    begin(c, 0);
    c.readObserved(0, 0, addrA, 0);
    commitReadOnly(c, 0);
    c.finish(store);
    EXPECT_EQ(c.report().totalViolations, 0u) << c.report().summary();
}

TEST(CheckLevelParsing, AcceptsNamesAndNumbers)
{
    CheckLevel level;
    EXPECT_TRUE(parseCheckLevel("off", level));
    EXPECT_EQ(level, CheckLevel::Off);
    EXPECT_TRUE(parseCheckLevel("read", level));
    EXPECT_EQ(level, CheckLevel::Read);
    EXPECT_TRUE(parseCheckLevel("on", level));
    EXPECT_EQ(level, CheckLevel::Serial);
    EXPECT_TRUE(parseCheckLevel("serial", level));
    EXPECT_EQ(level, CheckLevel::Serial);
    EXPECT_TRUE(parseCheckLevel("2", level));
    EXPECT_EQ(level, CheckLevel::Serial);
    EXPECT_FALSE(parseCheckLevel("ref", level));
    EXPECT_FALSE(parseCheckLevel("3", level));
    EXPECT_FALSE(parseCheckLevel("bogus", level));

    FaultKind kind;
    EXPECT_TRUE(parseFaultKind("force-store-grant", kind));
    EXPECT_EQ(kind, FaultKind::ForceStoreGrant);
    EXPECT_FALSE(parseFaultKind("bogus", kind));
}

/** End-to-end: a full contended workload under each protocol. */
class CheckerEndToEnd : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(CheckerEndToEnd, ContendedWorkloadIsClean)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = GetParam();
    cfg.checkLevel = static_cast<unsigned>(CheckLevel::Serial);
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(BenchId::HtH, 0.02, 11);
    workload->setup(gpu, false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 200'000'000);

    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why)) << why;
    EXPECT_EQ(result.check.totalViolations, 0u)
        << result.check.summary();
    EXPECT_GT(result.check.txCommits, 0u);
    EXPECT_GT(result.check.writesApplied, 0u);
    EXPECT_EQ(result.check.txCommits, result.commits);
}

INSTANTIATE_TEST_SUITE_P(Protocols, CheckerEndToEnd,
                         ::testing::Values(ProtocolKind::Getm,
                                           ProtocolKind::WarpTmLL,
                                           ProtocolKind::WarpTmEL,
                                           ProtocolKind::Eapg),
                         [](const auto &info) {
                             switch (info.param) {
                               case ProtocolKind::Getm: return "Getm";
                               case ProtocolKind::WarpTmLL: return "LL";
                               case ProtocolKind::WarpTmEL: return "EL";
                               case ProtocolKind::Eapg: return "Eapg";
                               default: return "Other";
                             }
                         });

/** Injected faults must be caught with the right taxonomy entry. */
struct FaultCase
{
    ProtocolKind protocol;
    FaultKind fault;
    ViolationKind expect;
    const char *name;
};

class FaultInjection : public ::testing::TestWithParam<FaultCase>
{
};

TEST_P(FaultInjection, DetectedWithExpectedKind)
{
    const FaultCase &fc = GetParam();
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = fc.protocol;
    cfg.checkLevel = static_cast<unsigned>(CheckLevel::Serial);
    cfg.injectFault = static_cast<unsigned>(fc.fault);
    cfg.injectProb = 1.0;
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(BenchId::HtH, 0.02, 11);
    workload->setup(gpu, false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 200'000'000);

    EXPECT_GT(countOf(result.check, fc.expect), 0u)
        << result.check.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FaultInjection,
    ::testing::Values(
        FaultCase{ProtocolKind::Getm, FaultKind::SkipRtsBump,
                  ViolationKind::SerializabilityCycle, "GetmSkipRts"},
        FaultCase{ProtocolKind::Getm, FaultKind::ForceStoreGrant,
                  ViolationKind::SerializabilityCycle, "GetmForceGrant"},
        FaultCase{ProtocolKind::Getm, FaultKind::CorruptCommit,
                  ViolationKind::CorruptApply, "GetmCorrupt"},
        FaultCase{ProtocolKind::Getm, FaultKind::DropCommitWrite,
                  ViolationKind::LostWrite, "GetmDrop"},
        FaultCase{ProtocolKind::WarpTmLL, FaultKind::CommitStaleRead,
                  ViolationKind::SerializabilityCycle, "LLStaleRead"},
        FaultCase{ProtocolKind::WarpTmLL, FaultKind::DropCommitWrite,
                  ViolationKind::LostWrite, "LLDrop"},
        FaultCase{ProtocolKind::WarpTmEL, FaultKind::SkipValidation,
                  ViolationKind::SerializabilityCycle, "ELSkipVal"},
        FaultCase{ProtocolKind::WarpTmEL, FaultKind::CorruptCommit,
                  ViolationKind::CorruptApply, "ELCorrupt"},
        FaultCase{ProtocolKind::Eapg, FaultKind::CommitStaleRead,
                  ViolationKind::SerializabilityCycle, "EapgStaleRead"}),
    [](const auto &info) { return info.param.name; });

/** An order-insensitive racy kernel runs clean at the serial level and
 *  ends in exactly the memory image of the sequential referenceRun. */
TEST(CheckerRefLevel, CommutativeKernelMatchesReference)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    cfg.checkLevel = static_cast<unsigned>(CheckLevel::Serial);
    GpuSystem gpu(cfg);
    BackingStore ref;

    const unsigned n = 128, buckets = 8;
    const Addr table = gpu.memory().allocate(4 * buckets);
    ASSERT_EQ(table, ref.allocate(4 * buckets));

    // Every thread transactionally increments tid % buckets: sums are
    // order-insensitive, so sequential replay must agree exactly.
    KernelBuilder kb("commutative_increment");
    const Reg tid(1), addr(2), val(3);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.remui(addr, tid, buckets);
    kb.shli(addr, addr, 2);
    kb.addi(addr, addr, static_cast<std::int64_t>(table));
    kb.txBegin();
    kb.load(val, addr);
    kb.addi(val, val, 1);
    kb.store(addr, val);
    kb.txCommit();
    kb.exit();
    const Kernel kernel = kb.build();

    const RunResult result = gpu.run(kernel, n, 200'000'000);
    check::referenceRun(kernel, n, ref);

    EXPECT_EQ(result.check.totalViolations, 0u) << result.check.summary();
    EXPECT_EQ(result.commits, n);
    for (unsigned b = 0; b < buckets; ++b) {
        EXPECT_EQ(gpu.memory().read(table + 4 * b), ref.read(table + 4 * b));
        EXPECT_EQ(gpu.memory().read(table + 4 * b), n / buckets);
    }
}

} // namespace
} // namespace getm
