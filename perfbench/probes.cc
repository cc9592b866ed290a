#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/rng.hh"
#include "common/zipf.hh"
#include "core/metadata_table.hh"
#include "core/stall_buffer.hh"
#include "gpu/gpu_config.hh"
#include "mem/backing_store.hh"
#include "mem/cache_model.hh"
#include "noc/crossbar.hh"
#include "tm/intra_warp_cd.hh"
#include "tm/messages.hh"

namespace getm::perfbench {

namespace {

using Keys = std::vector<std::uint64_t>;

/** Distinct keys in each stream; larger than every modelled structure
 *  probed, so the uniform stream misses and the zipfian one hits. */
constexpr std::uint64_t keySpace = 1 << 16;
constexpr std::size_t streamLength = 1 << 17;
constexpr unsigned repetitions = 5;
constexpr double zipfTheta = 0.99;

/** Results fold into this so no timed call can be optimized away. */
volatile std::uint64_t probeSink = 0;

Keys
uniformStream(std::uint64_t seed)
{
    Rng rng(seed);
    Keys keys(streamLength);
    for (auto &key : keys)
        key = rng.below(keySpace);
    return keys;
}

Keys
zipfStream(std::uint64_t seed)
{
    const ScrambledZipfian zipf(keySpace, zipfTheta, seed);
    Rng rng(seed ^ 0x5a5a5a5aull);
    Keys keys(streamLength);
    for (auto &key : keys)
        key = zipf.next(rng);
    return keys;
}

/**
 * Median ns per public call over the repetitions. @p make builds a
 * fresh structure outside the timed region; @p drive feeds it @p keys,
 * folds results into @p check and returns the number of calls made.
 */
template <class Make, class Drive>
double
nsPerCall(const Keys &keys, Make make, Drive drive)
{
    std::vector<double> samples;
    for (unsigned rep = 0; rep < repetitions; ++rep) {
        auto subject = make();
        std::uint64_t check = 0;
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t calls = drive(*subject, keys, check);
        const auto t1 = std::chrono::steady_clock::now();
        probeSink = probeSink + check;
        samples.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            static_cast<double>(calls));
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

template <class Make, class Drive>
ProbeResult
probe(const char *metric, const char *calls, const Keys &uniform,
      const Keys &zipf, Make make, Drive drive)
{
    ProbeResult result;
    result.metric = metric;
    result.calls = calls;
    result.uniformNs = nsPerCall(uniform, make, drive);
    result.zipfNs = nsPerCall(zipf, make, drive);
    return result;
}

} // namespace

std::vector<ProbeResult>
runLayerProbes(std::uint64_t seed)
{
    const GpuConfig gpu = GpuConfig::gtx480();
    const Keys uniform = uniformStream(seed);
    const Keys zipf = zipfStream(seed);
    std::vector<ProbeResult> results;

    // One partition's GETM metadata table, sized as GpuSystem sizes it.
    results.push_back(probe(
        "core.meta_access_ns", "MetadataTable::access", uniform, zipf,
        [&] {
            MetadataTable::Config cfg;
            cfg.preciseEntries = std::max(
                16u, gpu.getmPreciseEntriesTotal / gpu.numPartitions);
            cfg.bloomEntries = std::max(
                16u, gpu.getmBloomEntriesTotal / gpu.numPartitions);
            return std::make_unique<MetadataTable>("probe.meta", cfg);
        },
        [&](MetadataTable &table, const Keys &keys, std::uint64_t &check) {
            for (std::uint64_t key : keys)
                check += table.access(key * gpu.getmGranule).cycles;
            return static_cast<std::uint64_t>(keys.size());
        }));

    results.push_back(probe(
        "core.bloom_ns", "RecencyBloom::insert+lookup", uniform, zipf,
        [&] {
            return std::make_unique<RecencyBloom>(
                gpu.getmBloomEntriesTotal / gpu.numPartitions / 4, seed);
        },
        [&](RecencyBloom &bloom, const Keys &keys, std::uint64_t &check) {
            for (std::size_t i = 0; i < keys.size(); ++i) {
                bloom.insert(keys[i] * gpu.getmGranule, i, i);
                check += bloom.lookup(keys[keys.size() - 1 - i] *
                                      gpu.getmGranule)
                             .first;
            }
            return static_cast<std::uint64_t>(2 * keys.size());
        }));

    // Keys fold onto the buffer's lines; a line is drained once two
    // requests wait on it, so enqueue never meets a full buffer.
    results.push_back(probe(
        "core.stall_buffer_ns", "StallBuffer::enqueue+popOldest", uniform,
        zipf,
        [&] {
            return std::make_unique<StallBuffer>("probe.stall",
                                                 gpu.getmStall);
        },
        [&](StallBuffer &buffer, const Keys &keys, std::uint64_t &check) {
            std::uint64_t calls = 0;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const Addr addr =
                    (keys[i] % gpu.getmStall.lines) * gpu.getmGranule;
                MemMsg msg;
                msg.ts = i;
                check += buffer.enqueue(addr, std::move(msg), i);
                ++calls;
                if (buffer.waitersOn(addr) >= 2) {
                    check += buffer.popOldest(addr).ts;
                    ++calls;
                }
            }
            return calls;
        }));

    // Every core sends once per round; a round spans enough cycles for
    // the partition ports to carry its flits, so queues stay bounded,
    // and every arrived message is popped before the next round.
    results.push_back(probe(
        "noc.send_pop_ns", "Crossbar::send+popReady", uniform, zipf,
        [&] {
            return std::make_unique<Crossbar<MemMsg>>(
                "probe.xbar", gpu.numCores, gpu.numPartitions, gpu.xbar);
        },
        [&](Crossbar<MemMsg> &xbar, const Keys &keys,
            std::uint64_t &check) {
            constexpr Cycle roundCycles = 8;
            std::uint64_t calls = 0;
            Cycle now = 0;
            auto drain = [&] {
                for (unsigned dst = 0; dst < gpu.numPartitions; ++dst)
                    while (xbar.hasReady(dst, now)) {
                        check += xbar.popReady(dst).ts;
                        ++calls;
                    }
            };
            for (std::size_t i = 0; i < keys.size(); ++i) {
                MemMsg msg;
                msg.ts = keys[i];
                const unsigned bytes = (keys[i] & 1) ? 136 : 8;
                check += xbar.send(i % gpu.numCores,
                                   keys[i] % gpu.numPartitions, bytes, now,
                                   std::move(msg));
                ++calls;
                if ((i + 1) % gpu.numCores == 0) {
                    now += roundCycles;
                    drain();
                }
            }
            now = ~static_cast<Cycle>(0) - 1;
            drain();
            return calls;
        }));

    // One partition's LLC slice (Table II geometry).
    results.push_back(probe(
        "mem.cache_access_ns", "CacheModel::access", uniform, zipf,
        [&] {
            return std::make_unique<CacheModel>(
                "probe.llc", gpu.llcBytesPerPartition, gpu.llcAssoc,
                gpu.lineBytes);
        },
        [&](CacheModel &cache, const Keys &keys, std::uint64_t &check) {
            for (std::uint64_t key : keys)
                check += cache.access(key * gpu.lineBytes, key & 1).hit;
            return static_cast<std::uint64_t>(keys.size());
        }));

    // Every word is touched once before timing, so the probe measures
    // steady-state reads and writes rather than page allocation.
    struct StoreProbe
    {
        BackingStore store;
        Addr base = 0;
    };
    results.push_back(probe(
        "mem.store_rw_ns", "BackingStore::write+read", uniform, zipf,
        [&] {
            auto probe_store = std::make_unique<StoreProbe>();
            probe_store->base = probe_store->store.allocate(keySpace * 4);
            for (std::uint64_t word = 0; word < keySpace; ++word)
                probe_store->store.write(probe_store->base + word * 4, 0);
            return probe_store;
        },
        [&](StoreProbe &ps, const Keys &keys, std::uint64_t &check) {
            for (std::size_t i = 0; i < keys.size(); ++i) {
                ps.store.write(ps.base + keys[i] * 4,
                               static_cast<std::uint32_t>(i));
                check +=
                    ps.store.read(ps.base + keys[keys.size() - 1 - i] * 4);
            }
            return static_cast<std::uint64_t>(2 * keys.size());
        }));

    // A warp's 32 lanes each make 8 accesses per transaction; the
    // table is cleared at every transaction boundary.
    results.push_back(probe(
        "tm.iwcd_ns", "IntraWarpCd::checkAndRecord", uniform, zipf,
        [] { return std::make_unique<IntraWarpCd>(); },
        [&](IntraWarpCd &iwcd, const Keys &keys, std::uint64_t &check) {
            for (std::size_t i = 0; i < keys.size(); ++i) {
                check += iwcd.checkAndRecord(
                    static_cast<LaneId>(i % 32), (keys[i] % 4096) * 4,
                    (keys[i] & 1) != 0);
                if ((i + 1) % 256 == 0)
                    iwcd.clear();
            }
            return static_cast<std::uint64_t>(keys.size());
        }));

    return results;
}

} // namespace getm::perfbench
