/**
 * @file
 * Fig. 15: maximum number of requests queued in GETM's stall buffers at
 * any instant, totalled over the whole GPU.
 *
 * Paper claim: peak occupancy never exceeds ~12 requests GPU-wide, so a
 * tiny per-partition stall buffer (4 addresses x 4 requests) suffices.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace getm;
using namespace getm::bench;

int
main()
{
    const double scale = benchScale();
    const std::uint64_t seed = benchSeed();

    std::printf("Fig. 15 reproduction: peak GPU-wide stall-buffer "
                "occupancy (scale %.3g)\n",
                scale);
    std::printf("%-8s %16s\n", "bench", "peak queued");

    unsigned worst = 0;
    for (BenchId bench : allBenchIds()) {
        BenchSpec spec;
        spec.bench = bench;
        spec.protocol = ProtocolKind::Getm;
        spec.scale = scale;
        spec.seed = seed;
        // Generously sized buffers so the measurement is not clipped by
        // the default 4x4 configuration (the paper sizes the buffer from
        // this experiment).
        spec.gpu.getmStall.lines = 64;
        spec.gpu.getmStall.entriesPerLine = 64;
        const BenchOutcome outcome = runBench(spec);
        // The observability layer counts the GPU-wide peak from the
        // stall insertions/releases every partition reports.
        const unsigned peak = outcome.run.obs.stallPeakOccupancy;
        std::printf("%-8s %16u %12llu stalls\n", benchName(bench), peak,
                    static_cast<unsigned long long>(
                        outcome.run.obs.totalStalls()));
        worst = std::max(worst, peak);
    }
    std::printf("%-8s %16u\n", "MAX", worst);
    return 0;
}
