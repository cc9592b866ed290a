/**
 * @file
 * google-benchmark microbenchmarks of the GETM hardware structures:
 * metadata-table lookups/inserts under varying lock pressure, recency
 * Bloom filter operations, stall-buffer operations, H3 hashing, the
 * intra-warp conflict-detection table (per access and at commit), and
 * the message path: crossbar send+pop and the partition's outbound
 * queue, with op lists drawn from the op-buffer pool; and the WarpTM
 * family's bookkeeping: the partition's commit-id window and EAPG's
 * broadcast conflict check at the cores. These
 * measure the *simulator's* throughput (host nanoseconds), complementing
 * the modelled-cycle numbers of fig13_cuckoo_latency.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>

#include "common/h3.hh"
#include "common/rng.hh"
#include "core/metadata_table.hh"
#include "core/stall_buffer.hh"
#include "eapg/eapg.hh"
#include "gpu/mem_partition.hh"
#include "noc/crossbar.hh"
#include "tm/intra_warp_cd.hh"
#include "warptm/wtm_partition.hh"

namespace {

using namespace getm;

void
BM_H3Hash(benchmark::State &state)
{
    H3Hash hash(42);
    std::uint64_t key = 0x12345678;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hash.hash(key));
        key += 64;
    }
}
BENCHMARK(BM_H3Hash);

void
BM_MetadataLookupHit(benchmark::State &state)
{
    MetadataTable::Config cfg;
    cfg.preciseEntries = 1024;
    MetadataTable table("bm", cfg);
    for (unsigned i = 0; i < 256; ++i)
        table.access(i * 32);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.access((key % 256) * 32));
        ++key;
    }
}
BENCHMARK(BM_MetadataLookupHit);

void
BM_MetadataInsertChurn(benchmark::State &state)
{
    // Miss-heavy access pattern with the given fraction (in %) of the
    // table locked, exercising the cuckoo displacement walk.
    MetadataTable::Config cfg;
    cfg.preciseEntries = 1024;
    MetadataTable table("bm", cfg);
    Rng rng(7);
    const auto locked_pct = static_cast<unsigned>(state.range(0));
    for (unsigned i = 0; i < cfg.preciseEntries; ++i) {
        MetaAccess access = table.access(i * 32);
        if (rng.below(100) < locked_pct) {
            access.entry->numWrites = 1;
            access.entry->owner = 1;
        }
    }
    std::uint64_t key = 1 << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.access(key));
        key += 32;
    }
}
BENCHMARK(BM_MetadataInsertChurn)->Arg(0)->Arg(50)->Arg(90);

void
BM_RecencyBloom(benchmark::State &state)
{
    RecencyBloom bloom(64, 99);
    std::uint64_t key = 0;
    for (auto _ : state) {
        bloom.insert(key * 32, key, key);
        benchmark::DoNotOptimize(bloom.lookup(key * 16));
        ++key;
    }
}
BENCHMARK(BM_RecencyBloom);

void
BM_StallBuffer(benchmark::State &state)
{
    StallBuffer::Config cfg;
    StallBuffer buffer("bm", cfg);
    std::uint64_t n = 0;
    for (auto _ : state) {
        MemMsg msg;
        msg.ts = n;
        const Addr key = (n % 4) * 32;
        if (buffer.enqueue(key, std::move(msg)) && buffer.hasWaiters(key))
            benchmark::DoNotOptimize(buffer.popOldest(key));
        ++n;
    }
}
BENCHMARK(BM_StallBuffer);

void
BM_IntraWarpCd(benchmark::State &state)
{
    IntraWarpCd iwcd;
    std::uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            iwcd.checkAndRecord(n % 32, (n % 128) * 4, (n & 1) != 0));
        if (++n % 4096 == 0)
            iwcd.clear();
    }
}
BENCHMARK(BM_IntraWarpCd);

void
BM_IntraWarpCdResolveAtCommit(benchmark::State &state)
{
    // One full warp at the commit point, each lane holding
    // state.range(0) reads and half as many writes drawn from a shared
    // pool, so some lanes lose.
    const auto per_lane = static_cast<unsigned>(state.range(0));
    std::array<ThreadTxLog, warpSize> logs;
    Rng rng(11);
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        for (unsigned i = 0; i < per_lane; ++i)
            logs[lane].addRead(4 * rng.below(1024), 0);
        for (unsigned i = 0; i < per_lane / 2; ++i)
            logs[lane].addWrite(4 * rng.below(1024), 1);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(IntraWarpCd::resolveAtCommit(
            logs.data(), warpSize, fullMask));
}
BENCHMARK(BM_IntraWarpCdResolveAtCommit)->Arg(2)->Arg(8)->Arg(32);

/** A request of @p lanes ops, built the way the cores build them. */
MemMsg
laneMessage(std::uint64_t n, unsigned lanes)
{
    MemMsg msg;
    msg.ts = n;
    msg.ops.reserve(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane)
        msg.ops.push_back({static_cast<std::uint8_t>(lane),
                           4 * (n + lane), 0, 0});
    msg.bytes = 8 + 12 * lanes;
    return msg;
}

void
BM_CrossbarSendPop(benchmark::State &state)
{
    // GTX 480 shape (15 cores, 6 partitions): one send per iteration.
    // A round of 15 sends spans enough cycles for the ports to carry
    // its flits, and every arrived message is popped (its op list
    // recycled) after each round, so the inboxes stay bounded.
    const auto lanes = static_cast<unsigned>(state.range(0));
    const CrossbarTiming::Config cfg;
    const unsigned bytes = 8 + 12 * lanes;
    const Cycle round = 3 * ((bytes + cfg.flitBytes - 1) / cfg.flitBytes);
    Crossbar<MemMsg> xbar("bm", 15, 6, cfg);
    std::uint64_t n = 0;
    Cycle now = 0;
    for (auto _ : state) {
        xbar.send(n % 15, n % 6, bytes, now, laneMessage(n, lanes));
        if (++n % 15 == 0) {
            now += round;
            for (unsigned dst = 0; dst < 6; ++dst)
                while (xbar.hasReady(dst, now))
                    benchmark::DoNotOptimize(xbar.popReady(dst));
        }
    }
}
BENCHMARK(BM_CrossbarSendPop)->Arg(1)->Arg(8)->Arg(32);

void
BM_PartitionOutbound(benchmark::State &state)
{
    // Steady state of state.range(0) queued responses with ready cycles
    // state.range(1) to 200 more cycles out, non-monotonic as LLC hits
    // and DRAM misses interleave: one push and one pop per iteration.
    // The 512-deep case is a partition behind the 330-cycle LLC.
    const auto depth = static_cast<std::uint64_t>(state.range(0));
    const auto delay = static_cast<Cycle>(state.range(1));
    OutboundQueue queue;
    Rng rng(5);
    std::uint64_t n = 0;
    for (; n < depth; ++n)
        queue.push(laneMessage(n, 8), delay + rng.below(200));
    for (auto _ : state) {
        const Cycle now = queue.nextWhen();
        benchmark::DoNotOptimize(queue.pop());
        queue.push(laneMessage(n++, 8), now + delay + rng.below(200));
    }
}
BENCHMARK(BM_PartitionOutbound)
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({512, 331});

/** A partition context that drops what the unit sends. */
class DropContext : public PartitionContext
{
  public:
    PartitionId partitionId() const override { return 0; }
    unsigned numCores() const override { return 15; }
    void scheduleToCore(MemMsg &&msg, Cycle) override
    {
        benchmark::DoNotOptimize(msg);
    }
    Cycle accessLlc(Addr, bool, Cycle) override { return 0; }
    Cycle llcLatency() const override { return 330; }
    BackingStore &memory() override { return store; }
    StatSet &stats() override { return statSet; }

  private:
    BackingStore store;
    StatSet statSet{"bm"};
};

void
BM_WtmPartitionWindow(benchmark::State &state)
{
    // One commit id per iteration: a skip every fourth id, otherwise a
    // slice of two reads and two writes, and the decision of the id
    // state.range(0) ids back. Beyond the pipeline depth (8) the
    // validated slices wait in the window for their decisions.
    const auto lag = static_cast<std::uint64_t>(state.range(0));
    DropContext ctx;
    WtmPartitionUnit unit(ctx, {}, "bm");
    std::uint64_t id = 1;
    Cycle now = 0;
    for (auto _ : state) {
        MemMsg msg;
        msg.txId = id;
        if (id % 4 == 0) {
            msg.kind = MsgKind::WtmSkip;
        } else {
            msg.kind = MsgKind::WtmValidate;
            msg.ops.reserve(4);
            for (std::uint32_t k = 0; k < 4; ++k)
                msg.ops.push_back({static_cast<std::uint8_t>(k),
                                   4 * (4 * id + k), 0, k / 2});
        }
        unit.handleRequest(std::move(msg), now);
        const std::uint64_t old = id - lag;
        if (id > lag && old % 4 != 0) {
            MemMsg decision;
            decision.kind = MsgKind::WtmDecision;
            decision.txId = old;
            decision.ts = 0xf;
            decision.flag = true;
            unit.handleRequest(std::move(decision), now);
        }
        ++id;
        now += 4;
    }
}
BENCHMARK(BM_WtmPartitionWindow)->Arg(4)->Arg(64);

void
BM_EapgBroadcastCheck(benchmark::State &state)
{
    // One signature broadcast per iteration against a core of 48 warp
    // slots, 24 of them running, each lane holding 8 reads: a remote
    // write set of state.range(0) words arrives as four slices, each
    // merged in and then checked against the read logs of the running
    // lanes whose filters meet the set's.
    const auto words = static_cast<unsigned>(state.range(0));
    constexpr unsigned slots = 48;
    Rng rng(11);
    std::vector<std::array<std::vector<LogEntry>, warpSize>> logs(slots);
    std::vector<LaneFilters> filters(slots);
    for (unsigned slot = 0; slot < slots; ++slot) {
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            for (unsigned i = 0; i < 8; ++i) {
                const Addr addr = 4 * rng.below(1u << 20);
                logs[slot][lane].push_back({addr, 0, 1});
                filters[slot].add(static_cast<LaneId>(lane), addr);
            }
        }
    }
    // Slices arrive sorted by address, as the partitions send them.
    std::vector<OpList> slices(4);
    for (unsigned i = 0; i < words; ++i)
        slices[i % 4].push_back({0, 4 * rng.below(1u << 20), 0, 0});
    for (OpList &ops : slices)
        std::sort(ops.begin(), ops.end(),
                  [](const LaneOp &a, const LaneOp &b) {
                      return a.addr < b.addr;
                  });
    EapgWriteSet set;
    for (auto _ : state) {
        set.addrs.clear();
        set.filter = {};
        for (const OpList &ops : slices) {
            set.add(ops);
            unsigned hits = 0;
            for (unsigned slot = 0; slot < slots; slot += 2)
                for (LaneMask lanes = filters[slot].meeting(set.filter);
                     lanes; lanes &= lanes - 1)
                    hits += set.firstHit(logs[slot][std::countr_zero(
                                lanes)]) != nullptr;
            benchmark::DoNotOptimize(hits);
        }
    }
}
BENCHMARK(BM_EapgBroadcastCheck)->Arg(8)->Arg(64)->Arg(512);

} // namespace

BENCHMARK_MAIN();
