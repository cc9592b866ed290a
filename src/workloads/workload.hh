/**
 * @file
 * The TM benchmark suite of paper Table III.
 *
 * Each workload lays out its data in the GPU's functional memory, builds
 * a micro-ISA kernel -- a transactional variant and a hand-optimized
 * fine-grained-lock variant (used when the GPU runs ProtocolKind::FgLock)
 * -- and verifies its invariants after the run. The verification is what
 * makes the whole suite double as an end-to-end correctness test for
 * every protocol engine.
 *
 * Sizes are scaled by a single factor so benches can trade fidelity for
 * simulation time; scale 1.0 approximates the paper's configurations.
 */

#ifndef GETM_WORKLOADS_WORKLOAD_HH
#define GETM_WORKLOADS_WORKLOAD_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu_system.hh"
#include "isa/kernel.hh"

namespace getm {

/** The nine benchmarks of Table III, plus the OLTP suite (src/oltp/). */
enum class BenchId
{
    HtH, ///< Populate a small (high-contention) chained hash table.
    HtM, ///< Medium hash table.
    HtL, ///< Large (low-contention) hash table.
    Atm, ///< Parallel bank-account transfers (Fig. 1).
    Cl,  ///< Cloth physics: edge constraint relaxation.
    ClTo,///< Transaction-optimized cloth (split transactions).
    Bh,  ///< Barnes-Hut tree build: claim nodes along root paths.
    Cc,  ///< CudaCuts: push-relabel flow on a pixel grid.
    Ap,  ///< Apriori data mining: few highly contended counters.
    Ycsb,///< YCSB-style zipfian KV read/RMW/write mix (beyond the paper).
    Bank,///< TPC-C-lite multi-account transfers with hot-account skew.
};

/**
 * The benchmarks of Table III, in paper order. Deliberately excludes
 * the OLTP family: `bench = all` in sweeps and the figure suites mean
 * "the paper's suite". The registry (workloads/registry.hh) is the
 * complete list.
 */
std::vector<BenchId> allBenchIds();

/** Short paper name ("HT-H", "ATM", ...). */
const char *benchName(BenchId id);

/** A configured benchmark instance. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual BenchId id() const = 0;
    /**
     * Display/metrics identity. Parameterized workloads override this
     * with their canonical spec token (e.g. "YCSB:theta=0.95").
     */
    virtual std::string name() const { return benchName(id()); }

    /**
     * Lay out memory and build the kernel.
     * @param lock_variant Build the fine-grained-lock kernel instead of
     *                     the transactional one.
     */
    virtual void setup(GpuSystem &gpu, bool lock_variant) = 0;

    /** The kernel built by setup(). */
    const Kernel &kernel() const { return builtKernel; }

    /** Number of threads to launch. */
    virtual std::uint64_t numThreads() const = 0;

    /**
     * Check post-run invariants.
     * @param why Filled with a diagnostic on failure.
     */
    virtual bool verify(GpuSystem &gpu, std::string &why) const = 0;

    /**
     * Describe the @p granule_bytes-byte metadata granule at @p granule
     * for the conflict profiler's hot-address report ("account 17
     * (zipf rank 0)", ...). A granule can hold several records; a
     * zipfian workload names the most popular one. @return false when
     * the workload has nothing to say about the granule (the default).
     */
    virtual bool
    addrInfo(Addr granule, unsigned granule_bytes, std::string &label) const
    {
        (void)granule;
        (void)granule_bytes;
        (void)label;
        return false;
    }

  protected:
    Kernel builtKernel;
};

/**
 * The records of a @p count-record array at @p base, @p stride bytes
 * each, that overlap the @p bytes-byte granule at @p granule: indices
 * [@p first, @p last]. @return false when none do.
 */
inline bool
recordsInGranule(Addr granule, unsigned bytes, Addr base,
                 std::uint64_t count, unsigned stride, std::uint64_t &first,
                 std::uint64_t &last)
{
    const Addr lo = std::max(granule, base);
    const Addr hi = std::min(granule + bytes, base + count * stride);
    if (lo >= hi)
        return false;
    first = (lo - base) / stride;
    last = (hi - 1 - base) / stride;
    return true;
}

/**
 * Scale a base element count, clamping to @p min so fractional scales
 * can never produce a degenerate (or zero-sized) structure. Emits a
 * warn() naming @p what when the clamp engages.
 */
std::uint64_t scaledCount(const char *what, double base, double scale,
                          std::uint64_t min);

/**
 * Scale a base thread count to a whole number of warps, never below
 * one warp. All workloads derive their launch size this way.
 */
std::uint64_t scaledThreads(double base, double scale);

/**
 * Create a benchmark at the given scale.
 *
 * @param scale 1.0 approximates the paper's sizes (tens of thousands of
 *              threads); benches default to smaller factors.
 * @param seed  Workload-generation seed.
 */
std::unique_ptr<Workload> makeWorkload(BenchId id, double scale,
                                       std::uint64_t seed = 7);

/**
 * Optimal transactional concurrency (warps per core allowed in
 * transactions) per benchmark and protocol, from paper Table IV.
 */
unsigned optimalConcurrency(BenchId id, ProtocolKind protocol);

} // namespace getm

#endif // GETM_WORKLOADS_WORKLOAD_HH
