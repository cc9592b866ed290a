#include "bench/bench_common.hh"

#include <cmath>
#include <cstdlib>

#include "common/log.hh"

namespace getm {
namespace bench {

double
benchScale()
{
    if (const char *env = std::getenv("GETM_BENCH_SCALE"))
        return std::atof(env);
    return 1.0;
}

std::uint64_t
benchSeed()
{
    if (const char *env = std::getenv("GETM_BENCH_SEED"))
        return std::strtoull(env, nullptr, 10);
    return 7;
}

BenchOutcome
runBench(const BenchSpec &spec)
{
    GpuConfig cfg = spec.gpu;
    cfg.protocol = spec.protocol;
    cfg.seed = spec.seed;

    auto workload = makeWorkload(spec.bench, spec.scale, spec.seed);
    cfg.core.txWarpLimit =
        spec.concurrency ? spec.concurrency
                         : optimalConcurrency(spec.bench, spec.protocol);

    GpuSystem gpu(cfg);
    workload->setup(gpu, spec.protocol == ProtocolKind::FgLock);

    BenchOutcome outcome;
    outcome.threads = workload->numThreads();
    outcome.run =
        gpu.run(workload->kernel(), workload->numThreads(), 8'000'000'000ull);

    std::string why;
    if (!workload->verify(gpu, why))
        fatal("%s/%s failed verification: %s", benchName(spec.bench),
              protocolName(spec.protocol), why.c_str());
    return outcome;
}

double
gmean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double value : values)
        log_sum += std::log(value);
    return values.empty() ? 0.0
                          : std::exp(log_sum /
                                     static_cast<double>(values.size()));
}

} // namespace bench
} // namespace getm
