/**
 * @file
 * TPC-C-lite "bank" workload (beyond the paper).
 *
 * Each thread runs one Payment-shaped transaction: move a random
 * amount between two zipfian-skewed accounts, then update the audit
 * trail — the handling teller's transaction counter and its branch's
 * volume total — four records across three tables, the multi-record
 * business-transaction shape of TPC-C at the contention of a hot
 * branch/teller hierarchy (branch rows are touched by 1/branches of
 * ALL transactions, far hotter than any zipfian account head).
 *
 * Invariants are exact and order-free: every per-account, per-teller,
 * and per-branch final value is the initial value plus a host-computed
 * commutative sum, and the audit identity Σ accounts == initial total
 * (conservation of money) is checked independently. The fine-grained
 * lock variant acquires the four per-record locks in a single global
 * order — branch < teller < low account < high account, the lock
 * words being laid out in that address order — via
 * emitMultiLockCritical().
 */

#ifndef GETM_OLTP_BANK_HH
#define GETM_OLTP_BANK_HH

#include <vector>

#include "common/zipf.hh"
#include "workloads/workload.hh"

namespace getm {

/** Resolved BANK parameters (registry defaults in workloads/registry.cc). */
struct BankParams
{
    double theta = 0.6;            ///< Zipfian account skew.
    double accounts = 1000000;     ///< Account count at scale 1.0.
    std::uint64_t branches = 16;   ///< Absolute, not scaled.
    std::uint64_t tellers = 160;   ///< Absolute, not scaled.
    std::uint32_t maxAmount = 500; ///< Transfer amounts in [1, maxAmount].
};

/** Multi-account transfer benchmark with audit-balance invariants. */
class BankWorkload : public Workload
{
  public:
    BankWorkload(const BankParams &params, double scale,
                 std::uint64_t seed, std::string token = "");

    BenchId id() const override { return BenchId::Bank; }
    std::string name() const override { return specToken; }
    void setup(GpuSystem &gpu, bool lock_variant) override;
    std::uint64_t numThreads() const override { return threads; }
    bool verify(GpuSystem &gpu, std::string &why) const override;
    bool addrInfo(Addr granule, unsigned granule_bytes,
                  std::string &label) const override;

  private:
    struct Transfer
    {
        std::uint32_t src;
        std::uint32_t dst;
        std::uint32_t teller;
        std::uint32_t branch;
        std::uint32_t amount;
    };

    BankParams params;
    std::string specToken;
    std::uint64_t threads;
    std::uint64_t accounts;
    std::uint64_t seed;
    ScrambledZipfian zipf;

    std::vector<Transfer> transfers; ///< One per thread.
    std::vector<std::uint32_t> expectedAccounts; ///< Final values.
    std::vector<std::uint32_t> expectedTellers;
    std::vector<std::uint32_t> expectedBranches;

    Addr branchesBase = 0;
    Addr tellersBase = 0;
    Addr accountsBase = 0;
    Addr locksBase = 0; ///< B + T + A words, in that (address) order.
    Addr opsBase = 0;
    std::uint64_t initialTotal = 0;

    static constexpr std::uint32_t initialBalance = 1000;
};

} // namespace getm

#endif // GETM_OLTP_BANK_HH
