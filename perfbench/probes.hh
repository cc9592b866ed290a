/**
 * @file
 * Layer probes: host nanoseconds per public call of the structures a
 * simulated memory access passes through (GETM metadata table, recency
 * Bloom filter, stall buffer, crossbar, cache model, backing store,
 * intra-warp conflict detection), each driven by a uniform and a
 * zipfian key stream built from the run's seed.
 */

#ifndef GETM_PERFBENCH_PROBES_HH
#define GETM_PERFBENCH_PROBES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace getm::perfbench {

struct ProbeResult
{
    std::string metric;    ///< Per-layer metric name ("core.bloom_ns").
    std::string calls;     ///< The public calls timed.
    double uniformNs = 0;  ///< ns per call on the uniform stream.
    double zipfNs = 0;     ///< ns per call on the zipfian stream.

    /** The reported figure: both streams weighted equally. */
    double ns() const { return 0.5 * (uniformNs + zipfNs); }
};

std::vector<ProbeResult> runLayerProbes(std::uint64_t seed);

} // namespace getm::perfbench

#endif // GETM_PERFBENCH_PROBES_HH
