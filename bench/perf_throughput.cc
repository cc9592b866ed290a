/**
 * @file
 * Wall-clock throughput harness: how fast does the simulator itself
 * run?
 *
 * Unlike the fig/tab benches (which reproduce the paper's results),
 * this one measures the *simulator*: simulated cycles per wall-clock
 * second and executed instructions per second, per protocol, on a
 * fixed workload set, plus peak RSS. It writes BENCH_perf.json so
 * every PR has a measured throughput trajectory and CI can catch
 * regressions.
 *
 * Wall-clock on shared/small hosts is noisy (single-shot timings on a
 * 1-CPU container vary by +-40%), so each point is run several times
 * in-process and the *best* time is reported: the minimum is the run
 * least disturbed by the machine, and simulated work per run is
 * deterministic, so best-of-N converges on the simulator's true cost.
 *
 * Usage:
 *   perf_throughput [--smoke] [--reps N] [--scale F] [--out FILE]
 *
 * --smoke shrinks the workload set and scale for CI; the default
 * ("full") setting covers all five protocols at a larger scale.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/bench_common.hh"
#include "common/json.hh"
#include "common/log.hh"

using namespace getm;
using namespace getm::bench;

namespace {

/** Peak resident set size in KiB (0 where getrusage is unavailable). */
std::uint64_t
peakRssKib()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0)
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
#endif
    return 0;
}

struct PointResult
{
    BenchId bench;
    ProtocolKind protocol;
    std::uint64_t simCycles = 0;
    std::uint64_t instructions = 0;
    double wallBestSec = 0.0;
    double cyclesPerSec = 0.0;
    double instrPerSec = 0.0;
};

/**
 * Time one (bench, protocol) point: construct a fresh system per rep,
 * time only GpuSystem::run (setup and verification are excluded), and
 * keep the best wall time.
 */
PointResult
measurePoint(BenchId bench, ProtocolKind protocol, double scale,
             std::uint64_t seed, unsigned reps)
{
    PointResult point;
    point.bench = bench;
    point.protocol = protocol;

    for (unsigned rep = 0; rep < reps; ++rep) {
        GpuConfig cfg = GpuConfig::gtx480();
        cfg.protocol = protocol;
        cfg.seed = seed;
        cfg.core.txWarpLimit = optimalConcurrency(bench, protocol);

        auto workload = makeWorkload(bench, scale, seed);
        GpuSystem gpu(cfg);
        workload->setup(gpu, protocol == ProtocolKind::FgLock);

        const auto t0 = std::chrono::steady_clock::now();
        RunResult run = gpu.run(workload->kernel(), workload->numThreads(),
                                8'000'000'000ull);
        const auto t1 = std::chrono::steady_clock::now();

        std::string why;
        if (!workload->verify(gpu, why))
            fatal("%s/%s failed verification: %s", benchName(bench),
                  protocolName(protocol), why.c_str());

        const double sec =
            std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || sec < point.wallBestSec)
            point.wallBestSec = sec;
        // Deterministic simulator: work per rep is identical.
        point.simCycles = run.cycles;
        point.instructions = run.stats.counter("instructions");
    }

    if (point.wallBestSec > 0.0) {
        point.cyclesPerSec =
            static_cast<double>(point.simCycles) / point.wallBestSec;
        point.instrPerSec =
            static_cast<double>(point.instructions) / point.wallBestSec;
    }
    return point;
}

void
writeReport(const std::string &path, const char *mode, double scale,
            unsigned reps, const std::vector<PointResult> &points)
{
    std::vector<double> rates;
    for (const PointResult &p : points)
        rates.push_back(p.cyclesPerSec);
    const double geo = gmean(rates);

    JsonWriter w;
    w.beginObject();
    w.member("schema", "getm-perf-v1");
    w.member("mode", mode);
    w.member("scale", scale);
    w.member("reps", reps);
    w.key("results").beginArray();
    for (const PointResult &p : points) {
        w.beginObject();
        w.member("bench", benchName(p.bench));
        w.member("protocol", protocolName(p.protocol));
        w.member("sim_cycles", p.simCycles);
        w.member("instructions", p.instructions);
        w.member("wall_best_s", p.wallBestSec);
        w.member("cycles_per_sec", p.cyclesPerSec);
        w.member("instr_per_sec", p.instrPerSec);
        w.endObject();
    }
    w.endArray();
    w.member("geomean_cycles_per_sec", geo);
    // Integer mirror so cmake scripts can threshold with math(EXPR).
    w.member("geomean_cycles_per_sec_int",
             static_cast<std::uint64_t>(geo));

    w.member("max_rss_kib", peakRssKib());
    w.endObject();

    std::string error;
    if (!jsonValidate(w.str(), error))
        fatal("perf report failed self-validation: %s", error.c_str());

    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write %s", path.c_str());
    out << w.str() << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    unsigned reps = 0;
    double scale = 0.0;
    std::string out = "BENCH_perf.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--scale" && i + 1 < argc) {
            scale = std::atof(argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--reps N] [--scale F] "
                         "[--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    // Smoke: the three headline protocols on two contrasting workloads
    // at a small scale -- a few seconds, suitable for CI. Full: every
    // protocol, three workloads, larger scale.
    std::vector<ProtocolKind> protocols = {
        ProtocolKind::Getm, ProtocolKind::WarpTmLL, ProtocolKind::FgLock};
    std::vector<BenchId> benches = {BenchId::HtH, BenchId::Atm};
    if (!smoke) {
        protocols.push_back(ProtocolKind::WarpTmEL);
        protocols.push_back(ProtocolKind::Eapg);
        benches.push_back(BenchId::Cl);
    }
    if (reps == 0)
        reps = smoke ? 3 : 5;
    if (scale == 0.0)
        scale = smoke ? 0.25 : 1.0;
    const std::uint64_t seed = benchSeed();

    std::printf("Simulator throughput (%s, scale %.3g, best of %u)\n",
                smoke ? "smoke" : "full", scale, reps);
    std::printf("%-8s %-10s %12s %14s %14s %14s\n", "bench", "protocol",
                "cycles", "wall_best_s", "Mcycles/s", "Minstr/s");

    std::vector<PointResult> points;
    for (BenchId bench : benches) {
        for (ProtocolKind protocol : protocols) {
            PointResult p =
                measurePoint(bench, protocol, scale, seed, reps);
            std::printf("%-8s %-10s %12llu %14.4f %14.2f %14.2f\n",
                        benchName(bench), protocolName(protocol),
                        static_cast<unsigned long long>(p.simCycles),
                        p.wallBestSec, p.cyclesPerSec / 1e6,
                        p.instrPerSec / 1e6);
            points.push_back(p);
        }
    }

    std::vector<double> rates;
    for (const PointResult &p : points)
        rates.push_back(p.cyclesPerSec);
    std::printf("geomean %.2f Mcycles/s, peak RSS %llu KiB\n",
                gmean(rates) / 1e6,
                static_cast<unsigned long long>(peakRssKib()));

    writeReport(out, smoke ? "smoke" : "full", scale, reps, points);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
