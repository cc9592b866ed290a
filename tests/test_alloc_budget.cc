/**
 * @file
 * Allocation budget of a simulation run: global operator new calls made
 * inside GpuSystem::run, per crossbar message, on HT-H and CC under
 * FGLock, GETM, WarpTM-LL and EAPG at scale 0.05.
 *
 * Messages move between cores and partitions without touching the heap
 * once the op-buffer free lists, crossbar rings and outbound wheels have
 * grown to their working size. What remains is per-run setup and the
 * warps' transaction bookkeeping: redo-log growth everywhere, plus one
 * hash node per granted granule under GETM. Each bound is about twice
 * the worst ratio its protocol measured once it stopped allocating per
 * message: FGLock 0.14 on HT-H, GETM 0.58 on CC, WarpTM-LL 0.52 and
 * EAPG 0.19 on CC. A path that heap-allocates each message's op list
 * made 1.6-3.4 calls per message and fails them, and so does WarpTM's
 * partition bookkeeping in ordered maps (a map node per validation,
 * skip and decision message: WarpTM-LL 1.37 on HT-H and 2.15 on CC,
 * EAPG 0.69 on CC).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gpu/gpu_system.hh"
#include "workloads/workload.hh"

namespace {

bool counting = false;
std::uint64_t allocations = 0;

} // namespace

// The replacement pair allocates with malloc, so free() is the right
// release; GCC cannot see that through inlined allocator calls.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    if (counting)
        ++allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace getm {
namespace {

/** Allowed operator new calls per crossbar message inside run(). */
double
allocsPerMessageBound(ProtocolKind protocol)
{
    switch (protocol) {
      case ProtocolKind::FgLock: return 0.3;
      case ProtocolKind::WarpTmLL: return 1.0;
      case ProtocolKind::Eapg: return 0.4;
      default: return 1.2;
    }
}

struct Budget
{
    std::uint64_t allocations;
    std::uint64_t messages;
};

Budget
measure(BenchId bench, ProtocolKind protocol)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.protocol = protocol;
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(bench, 0.05, 7);
    workload->setup(gpu, protocol == ProtocolKind::FgLock);

    allocations = 0;
    counting = true;
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads());
    counting = false;

    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why)) << why;
    return {allocations, result.stats.counter("messages")};
}

void
expectWithinBudget(BenchId bench, ProtocolKind protocol)
{
    const Budget b = measure(bench, protocol);
    ASSERT_GT(b.messages, 1000u);
    const double ratio = static_cast<double>(b.allocations) /
                         static_cast<double>(b.messages);
    std::printf("%s/%s: %llu allocations, %llu messages, %.4f per "
                "message\n",
                benchName(bench), protocolName(protocol),
                static_cast<unsigned long long>(b.allocations),
                static_cast<unsigned long long>(b.messages), ratio);
    EXPECT_LE(ratio, allocsPerMessageBound(protocol));
}

TEST(AllocBudget, HashtableHighFgLock)
{
    expectWithinBudget(BenchId::HtH, ProtocolKind::FgLock);
}

TEST(AllocBudget, HashtableHighGetm)
{
    expectWithinBudget(BenchId::HtH, ProtocolKind::Getm);
}

TEST(AllocBudget, CudaCutsFgLock)
{
    expectWithinBudget(BenchId::Cc, ProtocolKind::FgLock);
}

TEST(AllocBudget, CudaCutsGetm)
{
    expectWithinBudget(BenchId::Cc, ProtocolKind::Getm);
}

TEST(AllocBudget, HashtableHighWarpTm)
{
    expectWithinBudget(BenchId::HtH, ProtocolKind::WarpTmLL);
}

TEST(AllocBudget, HashtableHighEapg)
{
    expectWithinBudget(BenchId::HtH, ProtocolKind::Eapg);
}

TEST(AllocBudget, CudaCutsWarpTm)
{
    expectWithinBudget(BenchId::Cc, ProtocolKind::WarpTmLL);
}

TEST(AllocBudget, CudaCutsEapg)
{
    expectWithinBudget(BenchId::Cc, ProtocolKind::Eapg);
}

TEST(AllocBudget, OpBuffersComeBackThroughBoundedLists)
{
    // Freed buffers park on this thread's list for their size class, up
    // to the class's cap; the rest go back to the heap.
    EXPECT_EQ(OpBufferPool::capacity(24), OpBufferPool::maxPerClass);
    EXPECT_EQ(OpBufferPool::capacity(200), 8u);
    for (std::size_t n : {24, 200}) {
        {
            std::vector<OpList> lists(OpBufferPool::capacity(n) + 8);
            for (OpList &ops : lists)
                ops.reserve(n);
        }
        EXPECT_EQ(OpBufferPool::parked(n), OpBufferPool::capacity(n));
    }

    // A list sized from a parked buffer reuses it without a heap call.
    allocations = 0;
    counting = true;
    {
        OpList ops;
        ops.reserve(17); // same class as 24: (16, 32]
        ops.push_back({3, 0x40, 1, 0});
    }
    counting = false;
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(OpBufferPool::parked(24), OpBufferPool::capacity(24));
}

} // namespace
} // namespace getm
