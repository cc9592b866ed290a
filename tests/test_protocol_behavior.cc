/**
 * @file
 * End-to-end behavioural checks of protocol-specific mechanisms that
 * the plain workload runs do not assert on: TCD silent commits,
 * validation-failure retries, EAPG early aborts and pauses, GETM
 * queueing vs aborting, read-own-write forwarding, GETM slot clocks
 * across relaunches and rollovers, intra-warp claims released after
 * validation aborts, and configuration
 * sensitivity sweeps (granularity, table size, stall-buffer size) that
 * must never affect correctness.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_system.hh"
#include "isa/kernel_builder.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace getm {
namespace {

/** Read-only transactional kernel: every thread sums a few cells. */
Kernel
readOnlyKernel(Addr cells, unsigned n_cells, Addr out)
{
    KernelBuilder kb("ro");
    const Reg tid(1), i(2), addr(3), v(4), sum(5), cond(6), oaddr(7);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.txBegin();
    kb.li(sum, 0);
    kb.li(i, 0);
    auto head = kb.newLabel(), done = kb.newLabel();
    kb.bind(head);
    kb.add(addr, tid, i);
    kb.remui(addr, addr, n_cells);
    kb.shli(addr, addr, 2);
    kb.addi(addr, addr, static_cast<std::int64_t>(cells));
    kb.load(v, addr);
    kb.add(sum, sum, v);
    kb.addi(i, i, 1);
    kb.sltsi(cond, i, 3);
    kb.bnez(cond, head, done);
    kb.bind(done);
    kb.txCommit();
    kb.shli(oaddr, tid, 2);
    kb.addi(oaddr, oaddr, static_cast<std::int64_t>(out));
    kb.store(oaddr, sum);
    kb.exit();
    return kb.build();
}

TEST(WtmBehavior, ReadOnlyTransactionsCommitSilently)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::WarpTmLL;
    GpuSystem gpu(cfg);
    const unsigned n_cells = 128, n_threads = 128;
    const Addr cells = gpu.memory().allocate(4 * n_cells);
    const Addr out = gpu.memory().allocate(4 * n_threads);
    for (unsigned c = 0; c < n_cells; ++c)
        gpu.memory().write(cells + 4 * c, 10);

    const RunResult result =
        gpu.run(readOnlyKernel(cells, n_cells, out), n_threads);
    EXPECT_EQ(result.commits, n_threads);
    // Nothing writes the cells during the run: TCD lets every read-only
    // transaction bypass validation entirely.
    EXPECT_EQ(result.stats.counter("wtm_silent_commits"), n_threads);
    EXPECT_EQ(result.stats.counter("wtm_validations"), 0u);
    for (unsigned t = 0; t < n_threads; ++t)
        EXPECT_EQ(gpu.memory().read(out + 4 * t), 30u);
}

TEST(GetmBehavior, ReadOnlyTransactionsNeedNoCommitTraffic)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    GpuSystem gpu(cfg);
    const unsigned n_cells = 128, n_threads = 128;
    const Addr cells = gpu.memory().allocate(4 * n_cells);
    const Addr out = gpu.memory().allocate(4 * n_threads);
    const RunResult result =
        gpu.run(readOnlyKernel(cells, n_cells, out), n_threads);
    EXPECT_EQ(result.commits, n_threads);
    EXPECT_EQ(result.stats.counter("getm_commit_msgs"), 0u);
    EXPECT_EQ(result.stats.counter("getm_cleanup_msgs"), 0u);
}

/** Contended increment kernel shared by several tests below. */
Kernel
hotIncrementKernel(Addr counter)
{
    KernelBuilder kb("hot");
    const Reg a(1), v(2);
    kb.li(a, static_cast<std::int64_t>(counter));
    kb.txBegin();
    kb.load(v, a);
    kb.addi(v, v, 1);
    kb.store(a, v);
    kb.txCommit();
    kb.exit();
    return kb.build();
}

TEST(WtmBehavior, ContentionCausesValidationFailuresAndRetries)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::WarpTmLL;
    GpuSystem gpu(cfg);
    const Addr counter = gpu.memory().allocate(4);
    const unsigned n = 256;
    const RunResult result = gpu.run(hotIncrementKernel(counter), n);
    EXPECT_EQ(gpu.memory().read(counter), n);
    EXPECT_GT(result.aborts, 0u);
    EXPECT_GT(result.stats.counter("wtm_validation_fails") +
                  result.stats.counter("wtm_intra_warp_aborts"),
              0u);
}

TEST(GetmBehavior, ContentionUsesStallBufferOrAborts)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    GpuSystem gpu(cfg);
    const Addr counter = gpu.memory().allocate(4);
    const unsigned n = 256;
    const RunResult result = gpu.run(hotIncrementKernel(counter), n);
    EXPECT_EQ(gpu.memory().read(counter), n);
    EXPECT_GT(result.aborts + result.stats.counter("enqueues"), 0u);
}

TEST(EapgBehavior, BroadcastsFlowAndMechanismsFire)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Eapg;
    GpuSystem gpu(cfg);
    const Addr counter = gpu.memory().allocate(4);
    const unsigned n = 256;
    const RunResult result = gpu.run(hotIncrementKernel(counter), n);
    EXPECT_EQ(gpu.memory().read(counter), n);
    EXPECT_GT(result.stats.counter("eapg_signature_broadcasts"), 0u);
    EXPECT_GT(result.stats.counter("eapg_done_broadcasts"), 0u);
    // Under a single scorching counter, at least one of the EAPG
    // mechanisms (early abort / pause) must have engaged.
    EXPECT_GT(result.stats.counter("eapg_early_aborts") +
                  result.stats.counter("eapg_pauses"),
              0u);
}

/**
 * Each thread increments three words one cache line apart, so every
 * transaction writes into several partitions and one commit's write set
 * reaches the cores as several signature slices.
 */
Kernel
spreadIncrementKernel(Addr cells, unsigned n_cells)
{
    KernelBuilder kb("spread");
    const Reg tid(1), i(2), off(3), addr(4), v(5), cond(6);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.txBegin();
    kb.li(i, 0);
    kb.add(off, tid, i);
    auto head = kb.newLabel(), done = kb.newLabel();
    kb.bind(head);
    kb.remui(addr, off, n_cells);
    kb.shli(addr, addr, 7); // one word per 128-byte line
    kb.addi(addr, addr, static_cast<std::int64_t>(cells));
    kb.load(v, addr);
    kb.addi(v, v, 1);
    kb.store(addr, v);
    kb.addi(off, off, 5);
    kb.addi(i, i, 1);
    kb.sltsi(cond, i, 3);
    kb.bnez(cond, head, done);
    kb.bind(done);
    kb.txCommit();
    kb.exit();
    return kb.build();
}

TEST(EapgBehavior, MultiSliceWriteSetsPinned)
{
    // Early aborts and pauses here depend on the write set accumulated
    // over all slices of a commit, not on the latest slice alone. The
    // pinned figures lock in that semantics.
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Eapg;
    cfg.numCores = 4;
    cfg.numPartitions = 4;
    GpuSystem gpu(cfg);
    const unsigned n_cells = 24, n_threads = 512;
    const Addr cells = gpu.memory().allocate(128 * n_cells);
    const RunResult result =
        gpu.run(spreadIncrementKernel(cells, n_cells), n_threads);
    EXPECT_EQ(result.commits, n_threads);
    std::uint64_t total = 0;
    for (unsigned c = 0; c < n_cells; ++c)
        total += gpu.memory().read(cells + 128 * c);
    EXPECT_EQ(total, 3u * n_threads);
    EXPECT_EQ(result.cycles, 31694u);
    EXPECT_EQ(result.stats.counter("eapg_early_aborts"), 8045u);
    EXPECT_EQ(result.stats.counter("eapg_pauses"), 531u);
}

/**
 * Each thread increments @p per_thread words spread over @p n_cells
 * words, so one warp's commit writes a few hundred distinct words.
 */
Kernel
wideIncrementKernel(Addr cells, unsigned n_cells, unsigned per_thread)
{
    KernelBuilder kb("wide");
    const Reg tid(1), i(2), off(3), addr(4), v(5), cond(6);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.txBegin();
    kb.li(i, 0);
    kb.muli(off, tid, 37);
    auto head = kb.newLabel(), done = kb.newLabel();
    kb.bind(head);
    kb.remui(addr, off, n_cells);
    kb.shli(addr, addr, 2);
    kb.addi(addr, addr, static_cast<std::int64_t>(cells));
    kb.load(v, addr);
    kb.addi(v, v, 1);
    kb.store(addr, v);
    kb.addi(off, off, 101);
    kb.addi(i, i, 1);
    kb.sltsi(cond, i, per_thread);
    kb.bnez(cond, head, done);
    kb.bind(done);
    kb.txCommit();
    kb.exit();
    return kb.build();
}

TEST(EapgBehavior, SaturatedFiltersManySlotsPinned)
{
    // A warp's write set here is 384 words, so the 256-bit filters that
    // screen the conflict checks are nearly all ones, and 80 warp slots
    // per core take more than one word of any per-slot bitset. The
    // pinned figures must not move when the checks are screened.
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Eapg;
    cfg.core.maxWarps = 80;
    GpuSystem gpu(cfg);
    const unsigned n_cells = 8192, per_thread = 12;
    const unsigned n_threads = 2 * 80 * warpSize;
    const Addr cells = gpu.memory().allocate(4 * n_cells);
    const RunResult result = gpu.run(
        wideIncrementKernel(cells, n_cells, per_thread), n_threads);
    EXPECT_EQ(result.commits, n_threads);
    std::uint64_t total = 0;
    for (unsigned c = 0; c < n_cells; ++c)
        total += gpu.memory().read(cells + 4 * c);
    EXPECT_EQ(total, std::uint64_t{per_thread} * n_threads);
    EXPECT_EQ(result.cycles, 398581u);
    EXPECT_EQ(result.stats.counter("eapg_early_aborts"), 10583u);
    EXPECT_EQ(result.stats.counter("eapg_pauses"), 462u);
}

TEST(GetmBehavior, CleanupGrantOrderPinned)
{
    // The commit-time walk over each lane's granted granules follows
    // the hash table's iteration order, and that order sets the busy
    // offsets of the waiters each cleanup releases. Walking the grants
    // sorted instead moves this run to 1,524,205 cycles.
    WorkloadSpec spec;
    std::string error;
    ASSERT_TRUE(parseWorkloadSpec("YCSB:theta=0.99", spec, error)) << error;
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.protocol = ProtocolKind::Getm;
    cfg.seed = 7;
    cfg.core.txWarpLimit = optimalConcurrency(spec, ProtocolKind::Getm);
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(spec, 0.1, 7);
    workload->setup(gpu, false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads());
    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why)) << why;
    EXPECT_EQ(result.cycles, 1126004u);
}

/**
 * One transaction per thread, incrementing a word of its own: a warp's
 * words fill granules no other warp touches, so no access conflicts.
 */
Kernel
privateIncrementKernel(Addr cells)
{
    KernelBuilder kb("private");
    const Reg tid(1), a(2), v(3);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.shli(a, tid, 2);
    kb.addi(a, a, static_cast<std::int64_t>(cells));
    kb.txBegin();
    kb.load(v, a);
    kb.addi(v, v, 1);
    kb.store(a, v);
    kb.txCommit();
    kb.exit();
    return kb.build();
}

TEST(GetmBehavior, SlotTimestampSurvivesRelaunchAndRollover)
{
    // 64 warps share the test rig's 8 warp slots, so each slot hosts
    // about eight of them in turn. Each warp runs one conflict-free
    // transaction, which starts one clock after its slot's previous
    // one: the highest clock the partitions see counts the busiest
    // slot's transactions, where a clock that restarted at each launch
    // would stay at 0. With a threshold of 4 the clocks twice reach it,
    // and each completed rollover restarts every slot at zero, so the
    // run ends at clock 1.
    const unsigned n_threads = 64 * warpSize;
    for (const LogicalTs threshold : {~LogicalTs{0}, LogicalTs{4}}) {
        GpuConfig cfg = GpuConfig::testRig();
        cfg.protocol = ProtocolKind::Getm;
        cfg.rolloverThreshold = threshold;
        cfg.rolloverPenalty = 10;
        GpuSystem gpu(cfg);
        const Addr cells = gpu.memory().allocate(4 * n_threads);
        // Runs take about 2,000 cycles; clocks that a rollover did not
        // restart would roll over again and again and never finish.
        const RunResult result =
            gpu.run(privateIncrementKernel(cells), n_threads, 100'000);
        EXPECT_EQ(result.commits, n_threads);
        for (unsigned t = 0; t < n_threads; ++t)
            ASSERT_EQ(gpu.memory().read(cells + 4 * t), 1u);
        if (threshold == 4) {
            EXPECT_EQ(result.rollovers, 2u);
            EXPECT_EQ(result.maxLogicalTs, 1u);
        } else {
            EXPECT_EQ(result.rollovers, 0u);
            EXPECT_EQ(result.aborts, 0u);
            EXPECT_EQ(result.maxLogicalTs, 8u);
        }
    }
}

TEST(GetmBehavior, ValidationAbortReleasesIntraWarpClaims)
{
    // YCSB theta=0.9 aborts lanes at the validation units about three
    // times as often as within a warp. A lane that a validation-unit
    // response aborts must release its intra-warp claims, or its
    // siblings' later accesses to those words abort against a lane that
    // has left the attempt: keeping the claims moves this run to
    // 274,792 cycles and 770 intra-warp aborts.
    WorkloadSpec spec;
    std::string error;
    ASSERT_TRUE(parseWorkloadSpec("YCSB:theta=0.9", spec, error)) << error;
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.protocol = ProtocolKind::Getm;
    cfg.seed = 7;
    cfg.core.txWarpLimit = optimalConcurrency(spec, ProtocolKind::Getm);
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(spec, 0.05, 7);
    workload->setup(gpu, false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads());
    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why)) << why;
    EXPECT_EQ(result.stats.counter("getm_vu_aborts"), 1818u);
    EXPECT_EQ(result.stats.counter("getm_intra_warp_aborts"), 628u);
    EXPECT_EQ(result.cycles, 300991u);
}

TEST(GetmBehavior, ReadOwnWriteForwardsFromRedoLog)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    GpuSystem gpu(cfg);
    const Addr cell = gpu.memory().allocate(4);
    const Addr out = gpu.memory().allocate(4);
    gpu.memory().write(cell, 5);

    KernelBuilder kb("rowr");
    const Reg a(1), o(2), v(3), w(4);
    kb.li(a, static_cast<std::int64_t>(cell));
    kb.li(o, static_cast<std::int64_t>(out));
    kb.txBegin();
    kb.load(v, a);
    kb.addi(v, v, 100);
    kb.store(a, v);   // uncommitted write...
    kb.load(w, a);    // ...must be visible to this transaction
    kb.store(o, w);
    kb.txCommit();
    kb.exit();
    gpu.run(kb.build(), 1);
    EXPECT_EQ(gpu.memory().read(out), 105u);
    EXPECT_EQ(gpu.memory().read(cell), 105u);
}

// --- configuration sweeps: timing knobs must never break correctness --

struct KnobParam
{
    const char *name;
    unsigned granule = 32;
    unsigned preciseEntries = 512;
    unsigned stallLines = 4;
    unsigned stallEntries = 4;
};

class GetmKnobTest : public ::testing::TestWithParam<KnobParam>
{
};

TEST_P(GetmKnobTest, AtmStillVerifies)
{
    const KnobParam &param = GetParam();
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    cfg.getmGranule = param.granule;
    cfg.getmPreciseEntriesTotal = param.preciseEntries;
    cfg.getmStall.lines = param.stallLines;
    cfg.getmStall.entriesPerLine = param.stallEntries;
    GpuSystem gpu(cfg);

    auto workload = makeWorkload(BenchId::Atm, 0.01, 31);
    workload->setup(gpu, false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 400'000'000);
    EXPECT_EQ(result.commits, workload->numThreads());
    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why)) << why;
}

const KnobParam knobs[] = {
    {"granule16", 16, 512, 4, 4},
    {"granule64", 64, 512, 4, 4},
    {"granule128", 128, 512, 4, 4},
    {"tinyTable", 32, 64, 4, 4},
    {"hugeTable", 32, 8192, 4, 4},
    {"noStallRoom", 32, 512, 1, 1},
    {"bigStall", 32, 512, 16, 16},
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, GetmKnobTest, ::testing::ValuesIn(knobs),
    [](const ::testing::TestParamInfo<KnobParam> &info) {
        return info.param.name;
    });

} // namespace
} // namespace getm
