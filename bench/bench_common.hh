/**
 * @file
 * Shared driver for the C++ benches: the GETM ablation study and the
 * throughput harness. The paper's figures and tables come from the
 * sweep manifests in configs/sweeps/, rendered into EXPERIMENTS.md by
 * tools/render_experiments.py.
 *
 * Runs are sized by a scale factor (GETM_BENCH_SCALE, default 1.0 =
 * the paper's workload sizes; smaller values trade fidelity for
 * wall-clock time).
 */

#ifndef GETM_BENCH_BENCH_COMMON_HH
#define GETM_BENCH_BENCH_COMMON_HH

#include <vector>

#include "gpu/gpu_system.hh"
#include "workloads/workload.hh"

namespace getm {
namespace bench {

/** Scale factor from GETM_BENCH_SCALE (default 1.0). */
double benchScale();

/** Workload seed from GETM_BENCH_SEED (default 7). */
std::uint64_t benchSeed();

/** One configured benchmark execution. */
struct BenchSpec
{
    BenchId bench;
    ProtocolKind protocol = ProtocolKind::Getm;
    double scale = 0.25;
    /** Tx-warps-per-core limit; 0 means Table IV's optimum. */
    unsigned concurrency = 0;
    /** Base GPU configuration (protocol field is overridden). */
    GpuConfig gpu = GpuConfig::gtx480();
    std::uint64_t seed = 7;
};

/** Result of one execution, with verification enforced. */
struct BenchOutcome
{
    RunResult run;
    std::uint64_t threads = 0;
};

/** Run one benchmark; aborts the bench if verification fails. */
BenchOutcome runBench(const BenchSpec &spec);

/** Geometric mean of positive values. */
double gmean(const std::vector<double> &values);

} // namespace bench
} // namespace getm

#endif // GETM_BENCH_BENCH_COMMON_HH
