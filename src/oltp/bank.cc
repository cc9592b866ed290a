#include "oltp/bank.hh"

#include "common/rng.hh"
#include "workloads/lock_utils.hh"

namespace getm {

BankWorkload::BankWorkload(const BankParams &params_, double scale,
                           std::uint64_t seed_, std::string token)
    : params(params_),
      specToken(token.empty() ? benchName(BenchId::Bank)
                              : std::move(token)),
      threads(scaledThreads(23040.0, scale)),
      accounts(scaledCount("BANK accounts", params_.accounts, scale, 64)),
      seed(seed_), zipf(accounts, params_.theta, seed_)
{
    Rng rng(seed);
    transfers.reserve(threads);
    expectedAccounts.assign(accounts, initialBalance);
    expectedTellers.assign(params.tellers, 0);
    expectedBranches.assign(params.branches, 0);
    for (std::uint64_t t = 0; t < threads; ++t) {
        Transfer tr;
        tr.src = static_cast<std::uint32_t>(zipf.next(rng));
        std::uint64_t dst = zipf.next(rng);
        if (dst == tr.src)
            dst = (dst + 1) % accounts;
        tr.dst = static_cast<std::uint32_t>(dst);
        tr.teller =
            static_cast<std::uint32_t>(rng.below(params.tellers));
        tr.branch = tr.teller % static_cast<std::uint32_t>(
                                    params.branches);
        tr.amount =
            static_cast<std::uint32_t>(rng.range(1, params.maxAmount));
        transfers.push_back(tr);

        // Commutative sums in the kernel's own uint32 wrap arithmetic.
        expectedAccounts[tr.src] -= tr.amount;
        expectedAccounts[tr.dst] += tr.amount;
        expectedTellers[tr.teller] += 1;
        expectedBranches[tr.branch] += tr.amount;
    }
}

void
BankWorkload::setup(GpuSystem &gpu, bool lock_variant)
{
    const std::uint64_t B = params.branches, T = params.tellers;
    branchesBase = gpu.memory().allocate(4 * B);
    tellersBase = gpu.memory().allocate(4 * T);
    accountsBase = gpu.memory().allocate(4 * accounts);
    // One lock array spanning all three tables keeps the lock words in
    // a single known address order: branch < teller < account.
    locksBase =
        lock_variant ? gpu.memory().allocate(4 * (B + T + accounts)) : 0;
    const std::uint64_t op_bytes = 20;
    opsBase = gpu.memory().allocate(op_bytes * threads);

    initialTotal = 0;
    for (std::uint64_t a = 0; a < accounts; ++a) {
        gpu.memory().write(accountsBase + 4 * a, initialBalance);
        initialTotal += initialBalance;
    }
    // Teller and branch audit rows start at the backing store's 0.
    for (std::uint64_t t = 0; t < threads; ++t) {
        const Transfer &tr = transfers[t];
        const Addr at = opsBase + op_bytes * t;
        gpu.memory().write(at, tr.src);
        gpu.memory().write(at + 4, tr.dst);
        gpu.memory().write(at + 8, tr.teller);
        gpu.memory().write(at + 12, tr.branch);
        gpu.memory().write(at + 16, tr.amount);
    }

    KernelBuilder kb(specToken + (lock_variant ? ".lock" : ".tm"));
    const Reg tid(1), base(2), amt(3), v(4), tmp(5);
    const Reg sa(6), da(7), ta(8), ba(9); // record addresses
    const Reg ls(10), ld(11), lt(12), lb(13); // lock addresses
    const Reg t0(14), t1(15), t2(16);

    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.muli(base, tid, static_cast<std::int64_t>(op_bytes));
    kb.addi(base, base, static_cast<std::int64_t>(opsBase));
    kb.load(sa, base, 0);
    kb.load(da, base, 4);
    kb.load(ta, base, 8);
    kb.load(ba, base, 12);
    kb.load(amt, base, 16);

    if (lock_variant) {
        // Lock indices: branch b, B + teller, B + T + account.
        kb.shli(lb, ba, 2);
        kb.addi(lb, lb, static_cast<std::int64_t>(locksBase));
        kb.shli(lt, ta, 2);
        kb.addi(lt, lt, static_cast<std::int64_t>(locksBase + 4 * B));
        kb.shli(ls, sa, 2);
        kb.addi(ls, ls,
                static_cast<std::int64_t>(locksBase + 4 * (B + T)));
        kb.shli(ld, da, 2);
        kb.addi(ld, ld,
                static_cast<std::int64_t>(locksBase + 4 * (B + T)));
        // Order the two account locks; branch < teller < account holds
        // by construction, completing one global acquisition order.
        kb.maxs(tmp, ls, ld);
        kb.mins(ls, ls, ld);
        kb.mov(ld, tmp);
    }

    // Record addresses (indices are consumed above for the locks).
    kb.shli(sa, sa, 2);
    kb.addi(sa, sa, static_cast<std::int64_t>(accountsBase));
    kb.shli(da, da, 2);
    kb.addi(da, da, static_cast<std::int64_t>(accountsBase));
    kb.shli(ta, ta, 2);
    kb.addi(ta, ta, static_cast<std::int64_t>(tellersBase));
    kb.shli(ba, ba, 2);
    kb.addi(ba, ba, static_cast<std::int64_t>(branchesBase));

    const auto body = [&](std::uint8_t flags) {
        kb.load(v, sa, 0, flags);
        kb.sub(v, v, amt);
        kb.store(sa, v, 0, flags);
        kb.load(v, da, 0, flags);
        kb.add(v, v, amt);
        kb.store(da, v, 0, flags);
        kb.load(v, ta, 0, flags);
        kb.addi(v, v, 1);
        kb.store(ta, v, 0, flags);
        kb.load(v, ba, 0, flags);
        kb.add(v, v, amt);
        kb.store(ba, v, 0, flags);
    };

    if (lock_variant) {
        emitMultiLockCritical(kb, {lb, lt, ls, ld}, t0, t1, t2,
                              [&] { body(MemBypassL1); });
    } else {
        kb.txBegin();
        body(MemNone);
        kb.txCommit();
    }
    kb.exit();
    builtKernel = kb.build();
}

bool
BankWorkload::verify(GpuSystem &gpu, std::string &why) const
{
    std::int64_t total = 0;
    for (std::uint64_t a = 0; a < accounts; ++a) {
        const std::uint32_t balance =
            gpu.memory().read(accountsBase + 4 * a);
        total += static_cast<std::int32_t>(balance);
        if (balance != expectedAccounts[a]) {
            why = "account " + std::to_string(a) + " balance " +
                  std::to_string(balance) + " != expected " +
                  std::to_string(expectedAccounts[a]);
            return false;
        }
    }
    if (total != static_cast<std::int64_t>(initialTotal)) {
        why = "balance not conserved: " + std::to_string(total) +
              " != " + std::to_string(initialTotal);
        return false;
    }
    for (std::uint64_t t = 0; t < params.tellers; ++t) {
        const std::uint32_t count =
            gpu.memory().read(tellersBase + 4 * t);
        if (count != expectedTellers[t]) {
            why = "teller " + std::to_string(t) + " count " +
                  std::to_string(count) + " != expected " +
                  std::to_string(expectedTellers[t]);
            return false;
        }
    }
    for (std::uint64_t b = 0; b < params.branches; ++b) {
        const std::uint32_t volume =
            gpu.memory().read(branchesBase + 4 * b);
        if (volume != expectedBranches[b]) {
            why = "branch " + std::to_string(b) + " volume " +
                  std::to_string(volume) + " != expected " +
                  std::to_string(expectedBranches[b]);
            return false;
        }
    }
    return true;
}

bool
BankWorkload::addrInfo(Addr granule, unsigned granule_bytes,
                       std::string &label) const
{
    std::uint64_t first, last;
    if (recordsInGranule(granule, granule_bytes, branchesBase,
                         params.branches, 4, first, last)) {
        label = "branch " + std::to_string(first);
        return true;
    }
    if (recordsInGranule(granule, granule_bytes, tellersBase,
                         params.tellers, 4, first, last)) {
        label = "teller " + std::to_string(first);
        return true;
    }
    if (recordsInGranule(granule, granule_bytes, accountsBase, accounts, 4,
                         first, last)) {
        const std::uint64_t account = zipf.hottestIn(first, last);
        label = "account " + std::to_string(account) + " (zipf rank " +
                std::to_string(zipf.rankOf(account)) + ")";
        return true;
    }
    return false;
}

} // namespace getm
