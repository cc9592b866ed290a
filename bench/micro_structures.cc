/**
 * @file
 * google-benchmark microbenchmarks of the GETM hardware structures:
 * metadata-table lookups/inserts under varying lock pressure, recency
 * Bloom filter operations, stall-buffer operations, H3 hashing, and the
 * intra-warp conflict-detection table (per access and at commit). These
 * measure the *simulator's* throughput (host nanoseconds), complementing
 * the modelled-cycle numbers of fig13_cuckoo_latency.
 */

#include <benchmark/benchmark.h>

#include <array>

#include "common/h3.hh"
#include "common/rng.hh"
#include "core/metadata_table.hh"
#include "core/stall_buffer.hh"
#include "tm/intra_warp_cd.hh"

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

} // namespace

BENCHMARK_MAIN();
