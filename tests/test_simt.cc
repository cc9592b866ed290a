/**
 * @file
 * Behavioural tests of the SIMT core: reconvergence, nested divergence,
 * loops with divergent exits, special registers, fences, the
 * transactional concurrency throttle, and warp refill.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_system.hh"
#include "isa/kernel_builder.hh"

namespace getm {
namespace {

GpuSystem
makeGpu(ProtocolKind protocol = ProtocolKind::FgLock)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = protocol;
    return GpuSystem(cfg);
}

TEST(Simt, SpecialRegisters)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::FgLock;
    GpuSystem gpu(cfg);
    const unsigned n = 96;
    const Addr out = gpu.memory().allocate(16 * n);

    KernelBuilder kb("specials");
    const Reg tid(1), lane(2), wid(3), nthreads(4), addr(5);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.readSpecial(lane, SpecialReg::LaneId);
    kb.readSpecial(wid, SpecialReg::WarpId);
    kb.readSpecial(nthreads, SpecialReg::NumThreads);
    kb.shli(addr, tid, 4);
    kb.addi(addr, addr, static_cast<std::int64_t>(out));
    kb.store(addr, tid, 0);
    kb.store(addr, lane, 4);
    kb.store(addr, wid, 8);
    kb.store(addr, nthreads, 12);
    kb.exit();
    gpu.run(kb.build(), n);

    for (unsigned t = 0; t < n; ++t) {
        EXPECT_EQ(gpu.memory().read(out + 16 * t), t);
        EXPECT_EQ(gpu.memory().read(out + 16 * t + 4), t % warpSize);
        EXPECT_EQ(gpu.memory().read(out + 16 * t + 12), n);
    }
    // Lanes of the same warp agree on the warp id; different warps
    // differ.
    const std::uint32_t w0 = gpu.memory().read(out + 8);
    const std::uint32_t w0b = gpu.memory().read(out + 16 * 31 + 8);
    const std::uint32_t w1 = gpu.memory().read(out + 16 * 32 + 8);
    EXPECT_EQ(w0, w0b);
    EXPECT_NE(w0, w1);
}

TEST(Simt, NestedDivergenceReconverges)
{
    GpuSystem gpu = makeGpu();
    const unsigned n = 32;
    const Addr out = gpu.memory().allocate(4 * n);

    // out[tid] = (tid&1 ? (tid&2 ? 4 : 3) : (tid&2 ? 2 : 1)) + 100
    KernelBuilder kb("nested");
    const Reg tid(1), addr(2), b0(3), b1(4), val(5);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.shli(addr, tid, 2);
    kb.addi(addr, addr, static_cast<std::int64_t>(out));
    kb.andi(b0, tid, 1);
    kb.andi(b1, tid, 2);
    auto odd = kb.newLabel(), join = kb.newLabel();
    kb.bnez(b0, odd, join);
    {
        auto two = kb.newLabel(), ijoin = kb.newLabel();
        kb.bnez(b1, two, ijoin);
        kb.li(val, 1);
        kb.jump(ijoin);
        kb.bind(two);
        kb.li(val, 2);
        kb.bind(ijoin);
        kb.jump(join);
    }
    kb.bind(odd);
    {
        auto four = kb.newLabel(), ijoin = kb.newLabel();
        kb.bnez(b1, four, ijoin);
        kb.li(val, 3);
        kb.jump(ijoin);
        kb.bind(four);
        kb.li(val, 4);
        kb.bind(ijoin);
    }
    kb.bind(join);
    kb.addi(val, val, 100); // post-reconvergence: all lanes execute once
    kb.store(addr, val);
    kb.exit();
    gpu.run(kb.build(), n);

    for (unsigned t = 0; t < n; ++t) {
        const unsigned expect =
            ((t & 1) ? ((t & 2) ? 4 : 3) : ((t & 2) ? 2 : 1)) + 100;
        EXPECT_EQ(gpu.memory().read(out + 4 * t), expect) << t;
    }
}

TEST(Simt, DivergentLoopTripCounts)
{
    GpuSystem gpu = makeGpu();
    const unsigned n = 32;
    const Addr out = gpu.memory().allocate(4 * n);

    // Each lane loops tid%5+1 times, accumulating its iteration count.
    KernelBuilder kb("divloop");
    const Reg tid(1), addr(2), i(3), limit(4), cond(5);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.shli(addr, tid, 2);
    kb.addi(addr, addr, static_cast<std::int64_t>(out));
    kb.remui(limit, tid, 5);
    kb.addi(limit, limit, 1);
    kb.li(i, 0);
    auto head = kb.newLabel(), done = kb.newLabel();
    kb.bind(head);
    kb.addi(i, i, 1);
    kb.slts(cond, i, limit);
    kb.bnez(cond, head, done);
    kb.bind(done);
    kb.store(addr, i);
    kb.exit();
    gpu.run(kb.build(), n);

    for (unsigned t = 0; t < n; ++t)
        EXPECT_EQ(gpu.memory().read(out + 4 * t), t % 5 + 1) << t;
}

TEST(Simt, FenceOrdersVolatileStores)
{
    GpuSystem gpu = makeGpu();
    const Addr data = gpu.memory().allocate(4);
    const Addr flag = gpu.memory().allocate(4);

    // One thread: volatile store data=7; fence; volatile store flag=1.
    KernelBuilder kb("fence");
    const Reg a(1), b(2), v(3);
    kb.li(a, static_cast<std::int64_t>(data));
    kb.li(b, static_cast<std::int64_t>(flag));
    kb.li(v, 7);
    kb.store(a, v, 0, MemBypassL1);
    kb.fence();
    kb.li(v, 1);
    kb.store(b, v, 0, MemBypassL1);
    kb.exit();
    gpu.run(kb.build(), 1);
    EXPECT_EQ(gpu.memory().read(data), 7u);
    EXPECT_EQ(gpu.memory().read(flag), 1u);
}

TEST(Simt, ThrottleLimitsConcurrentTxWarps)
{
    // With a throttle of 1 tx warp per core, a transactional kernel
    // still completes correctly; throttle stalls are recorded.
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    cfg.core.txWarpLimit = 1;
    GpuSystem gpu(cfg);
    const unsigned n = 128;
    const Addr counter = gpu.memory().allocate(64); // one hot granule

    KernelBuilder kb("throttled");
    const Reg a(1), v(2);
    kb.li(a, static_cast<std::int64_t>(counter));
    kb.txBegin();
    kb.load(v, a);
    kb.addi(v, v, 1);
    kb.store(a, v);
    kb.txCommit();
    kb.exit();
    const RunResult result = gpu.run(kb.build(), n);

    EXPECT_EQ(result.commits, n);
    EXPECT_GT(result.stats.counter("throttle_stalls"), 0u);
    // Lockstep lanes of a warp conflict intra-warp; the final count is
    // the number of threads (each increments once, serialized).
    EXPECT_EQ(gpu.memory().read(counter), n);
}

TEST(Simt, ManyMoreWarpsThanSlotsRefill)
{
    // testRig has 2 cores x 4 slots = 8 warp contexts; launch 64 warps
    // to exercise slot refill.
    GpuSystem gpu = makeGpu();
    const unsigned n = 64 * warpSize;
    const Addr out = gpu.memory().allocate(4 * n);

    KernelBuilder kb("refill");
    const Reg tid(1), addr(2);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.shli(addr, tid, 2);
    kb.addi(addr, addr, static_cast<std::int64_t>(out));
    kb.store(addr, tid);
    kb.exit();
    gpu.run(kb.build(), n);

    for (unsigned t = 0; t < n; ++t)
        ASSERT_EQ(gpu.memory().read(out + 4 * t), t);
}

TEST(Simt, PartialLastWarp)
{
    // A launch that is not a multiple of the warp size masks off the
    // tail lanes.
    GpuSystem gpu = makeGpu();
    const unsigned n = 45;
    const Addr out = gpu.memory().allocate(4 * 64);

    KernelBuilder kb("tail");
    const Reg tid(1), addr(2), one(3);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.shli(addr, tid, 2);
    kb.addi(addr, addr, static_cast<std::int64_t>(out));
    kb.li(one, 1);
    kb.store(addr, one);
    kb.exit();
    gpu.run(kb.build(), n);

    for (unsigned t = 0; t < 64; ++t)
        EXPECT_EQ(gpu.memory().read(out + 4 * t), t < n ? 1u : 0u) << t;
}

TEST(Simt, CyclesAdvanceMonotonically)
{
    GpuSystem gpu = makeGpu();
    const Addr out = gpu.memory().allocate(4);
    KernelBuilder kb("trivial");
    const Reg a(1), v(2);
    kb.li(a, static_cast<std::int64_t>(out));
    kb.li(v, 1);
    kb.store(a, v);
    kb.exit();
    const RunResult small = gpu.run(kb.build(), 32);
    EXPECT_GT(small.cycles, 0u);
    EXPECT_LT(small.cycles, 100000u);
}

/**
 * One core with 80 warp slots runs 96 warps of a contended transactional
 * kernel (hash latency, throttle, backoff), so the scheduler's slot
 * bitsets span two words and slots 64-79 are live in every state.
 */
RunResult
runWideCore(bool legacy)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    cfg.numCores = 1;
    cfg.core.maxWarps = 80;
    cfg.core.txWarpLimit = 72;
    cfg.legacyLoop = legacy;
    GpuSystem gpu(cfg);
    const unsigned n = 96 * warpSize;
    const unsigned hot = 8;
    const Addr counters = gpu.memory().allocate(32 * hot);

    KernelBuilder kb("wide_core");
    const Reg tid(1), h(2), a(3), v(4);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.hashi(h, tid, 17);
    kb.remui(h, h, hot);
    kb.shli(a, h, 5);
    kb.addi(a, a, static_cast<std::int64_t>(counters));
    kb.txBegin();
    kb.load(v, a);
    kb.addi(v, v, 1);
    kb.store(a, v);
    kb.txCommit();
    kb.exit();
    const RunResult result = gpu.run(kb.build(), n);

    EXPECT_EQ(result.commits, n);
    std::uint64_t total = 0;
    for (unsigned c = 0; c < hot; ++c)
        total += gpu.memory().read(counters + 32 * c);
    EXPECT_EQ(total, n);
    return result;
}

TEST(Simt, MoreThan64WarpSlotsPinned)
{
    const RunResult event = runWideCore(false);
    // Recorded with the slot-scanning scheduler the bitsets replaced.
    EXPECT_EQ(event.cycles, 94846u);
    EXPECT_EQ(event.stats.counter("instructions"), 19908u);
    EXPECT_EQ(event.stats.counter("warps_launched"), 96u);
    EXPECT_GT(event.stats.counter("throttle_stalls"), 0u);
    EXPECT_GT(event.stats.counter("tx_retries"), 0u);

    const RunResult legacy = runWideCore(true);
    EXPECT_EQ(event.cycles, legacy.cycles);
    EXPECT_EQ(event.stats.dump(), legacy.stats.dump());
}

} // namespace
} // namespace getm
