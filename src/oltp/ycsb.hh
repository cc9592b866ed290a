/**
 * @file
 * YCSB-style zipfian key-value workload (beyond the paper).
 *
 * Each thread runs one transaction of `ops` operations over a
 * scrambled-zipfian key space (common/zipf.hh), with a configurable
 * read / read-modify-write / blind-write mix — the canonical OLTP
 * contention shape of DBx1000's YCSB generator and He & Yu's GPU OLTP
 * study, at skews the paper's Table III kernels never reach.
 *
 * Every record is 8 bytes: a *value* cell and a *tag* cell.
 *
 *   read   loads the value cell (read-set entry, no mutation);
 *   RMW    adds a per-op amount to the value cell;
 *   write  blind-stores the writer's thread id + 1 to the tag cell.
 *
 * The mix is chosen so verify() is exact without replaying any order:
 * RMW amounts are commutative, so each value cell must equal its
 * initial value plus the sum of all amounts targeting it; a tag cell
 * must hold either 0 or one of the ids that blind-wrote that key. The
 * per-thread operation list is precomputed host-side (keys within a
 * transaction are distinct, so a transaction never self-conflicts),
 * which keeps the kernel a straight-line unrolled loop of skip-style
 * branches — and keeps generation deterministic in (seed, scale,
 * params) alone.
 */

#ifndef GETM_OLTP_YCSB_HH
#define GETM_OLTP_YCSB_HH

#include <vector>

#include "common/zipf.hh"
#include "workloads/workload.hh"

namespace getm {

/** Resolved YCSB parameters (registry defaults in workloads/registry.cc). */
struct YcsbParams
{
    double theta = 0.9;       ///< Zipfian skew; 0 = uniform.
    double keys = 4000000;    ///< Key-space size at scale 1.0.
    unsigned opsPerTx = 4;    ///< Operations per transaction (1..8).
    double readPct = 50;      ///< Percent of ops that read.
    double rmwPct = 40;       ///< Percent that RMW (rest blind-write).
};

/** Zipfian KV benchmark with per-key checksum invariants. */
class YcsbWorkload : public Workload
{
  public:
    YcsbWorkload(const YcsbParams &params, double scale,
                 std::uint64_t seed, std::string token = "");

    BenchId id() const override { return BenchId::Ycsb; }
    std::string name() const override { return specToken; }
    void setup(GpuSystem &gpu, bool lock_variant) override;
    std::uint64_t numThreads() const override { return threads; }
    bool verify(GpuSystem &gpu, std::string &why) const override;
    bool addrInfo(Addr granule, unsigned granule_bytes,
                  std::string &label) const override;

  private:
    enum OpKind : std::uint32_t { OpRead = 0, OpRmw = 1, OpWrite = 2 };

    struct Op
    {
        std::uint32_t key;
        std::uint32_t kind;
        std::uint32_t amount; ///< RMW delta, or tag value for writes.
    };

    YcsbParams params;
    std::string specToken;
    std::uint64_t threads;
    std::uint64_t keys;
    std::uint64_t seed;
    ScrambledZipfian zipf;

    std::vector<Op> ops; ///< threads * opsPerTx records, host-generated.
    /** Indices into ops of every RMW and write, sorted by key: the
     *  table verify() merges with its ordered pass over the keys. */
    std::vector<std::uint32_t> byKey;

    Addr recordsBase = 0;
    Addr locksBase = 0;
    Addr opsBase = 0;

    static constexpr std::uint32_t initialValue = 1000;
};

} // namespace getm

#endif // GETM_OLTP_YCSB_HH
