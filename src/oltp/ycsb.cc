#include "oltp/ycsb.hh"

#include <algorithm>

#include "common/rng.hh"
#include "workloads/lock_utils.hh"

namespace getm {

YcsbWorkload::YcsbWorkload(const YcsbParams &params_, double scale,
                           std::uint64_t seed_, std::string token)
    : params(params_),
      specToken(token.empty() ? benchName(BenchId::Ycsb)
                              : std::move(token)),
      threads(scaledThreads(23040.0, scale)),
      keys(scaledCount("YCSB keys", params_.keys, scale, 64)),
      seed(seed_), zipf(keys, params_.theta, seed_)
{
    // Generate the whole operation stream up front: verification needs
    // the exact multiset of ops, and doing it here keeps setup() free
    // of stochastic work.
    Rng rng(seed);
    ops.reserve(threads * params.opsPerTx);
    std::vector<std::uint32_t> tx_keys(params.opsPerTx);
    for (std::uint64_t t = 0; t < threads; ++t) {
        for (unsigned i = 0; i < params.opsPerTx; ++i) {
            // Keys within one transaction are distinct so a transaction
            // never conflicts with itself. Bounded redraws, then a
            // deterministic linear probe for pathological skews.
            std::uint64_t key = zipf.next(rng);
            const auto taken = [&](std::uint64_t k) {
                for (unsigned j = 0; j < i; ++j)
                    if (tx_keys[j] == k)
                        return true;
                return false;
            };
            for (unsigned redraw = 0; redraw < 16 && taken(key);
                 ++redraw)
                key = zipf.next(rng);
            while (taken(key))
                key = (key + 1) % keys;
            tx_keys[i] = static_cast<std::uint32_t>(key);

            Op op;
            op.key = tx_keys[i];
            const double u = rng.uniform() * 100.0;
            if (u < params.readPct) {
                op.kind = OpRead;
                op.amount = 0;
            } else if (u < params.readPct + params.rmwPct) {
                op.kind = OpRmw;
                op.amount =
                    static_cast<std::uint32_t>(rng.range(1, 100));
            } else {
                op.kind = OpWrite;
                op.amount = static_cast<std::uint32_t>(t + 1);
            }
            if (op.kind != OpRead)
                byKey.push_back(static_cast<std::uint32_t>(ops.size()));
            ops.push_back(op);
        }
    }
    std::stable_sort(byKey.begin(), byKey.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return ops[a].key < ops[b].key;
                     });
}

void
YcsbWorkload::setup(GpuSystem &gpu, bool lock_variant)
{
    recordsBase = gpu.memory().allocate(8 * keys);
    locksBase = lock_variant ? gpu.memory().allocate(4 * keys) : 0;
    const std::uint64_t op_bytes = 12;
    opsBase = gpu.memory().allocate(op_bytes * ops.size());

    for (std::uint64_t k = 0; k < keys; ++k)
        gpu.memory().write(recordsBase + 8 * k, initialValue);
    // Tag cells start at the backing store's 0.
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Addr at = opsBase + op_bytes * i;
        gpu.memory().write(at, ops[i].key);
        gpu.memory().write(at + 4, ops[i].kind);
        gpu.memory().write(at + 8, ops[i].amount);
    }

    KernelBuilder kb(specToken + (lock_variant ? ".lock" : ".tm"));
    const unsigned n = params.opsPerTx;
    const Reg tid(1), base(2), v(3), t(4), la(5);
    const Reg t0(6), t1(7), t2(8);
    const auto addrReg = [](unsigned i) { return Reg(10 + i); };
    const auto kindReg = [](unsigned i) { return Reg(20 + i); };
    const auto amtReg = [](unsigned i) { return Reg(30 + i); };
    const auto keyReg = [](unsigned i) { return Reg(40 + i); };

    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.muli(base, tid, static_cast<std::int64_t>(op_bytes * n));
    kb.addi(base, base, static_cast<std::int64_t>(opsBase));
    // Load the transaction's private op list before touching shared
    // state, so the transactional footprint is the records alone.
    for (unsigned i = 0; i < n; ++i) {
        kb.load(keyReg(i), base, static_cast<std::int64_t>(op_bytes * i));
        kb.load(kindReg(i), base,
                static_cast<std::int64_t>(op_bytes * i + 4));
        kb.load(amtReg(i), base,
                static_cast<std::int64_t>(op_bytes * i + 8));
        kb.shli(addrReg(i), keyReg(i), 3);
        kb.addi(addrReg(i), addrReg(i),
                static_cast<std::int64_t>(recordsBase));
    }

    // One skip-style branch per (op, kind): target == reconvergence
    // point, the same single-level divergence idiom as BH/HT.
    const auto emitOps = [&](bool locked) {
        for (unsigned i = 0; i < n; ++i) {
            {
                kb.seqi(t, kindReg(i), OpRmw);
                auto skip = kb.newLabel();
                kb.beqz(t, skip, skip);
                if (locked) {
                    kb.shli(la, keyReg(i), 2);
                    kb.addi(la, la, static_cast<std::int64_t>(locksBase));
                    emitOneLockCritical(kb, la, t0, t1, t2, [&] {
                        kb.load(v, addrReg(i), 0, MemBypassL1);
                        kb.add(v, v, amtReg(i));
                        kb.store(addrReg(i), v, 0, MemBypassL1);
                    });
                } else {
                    kb.load(v, addrReg(i));
                    kb.add(v, v, amtReg(i));
                    kb.store(addrReg(i), v);
                }
                kb.bind(skip);
            }
            {
                kb.seqi(t, kindReg(i), OpRead);
                auto skip = kb.newLabel();
                kb.beqz(t, skip, skip);
                kb.load(v, addrReg(i), 0,
                        locked ? MemBypassL1 : MemNone);
                kb.bind(skip);
            }
            {
                kb.seqi(t, kindReg(i), OpWrite);
                auto skip = kb.newLabel();
                kb.beqz(t, skip, skip);
                // Blind write: a 4-byte store is atomic, so the lock
                // variant needs no lock for it.
                kb.store(addrReg(i), amtReg(i), 4,
                         locked ? MemBypassL1 : MemNone);
                kb.bind(skip);
            }
        }
    };

    if (lock_variant) {
        emitOps(true);
    } else {
        kb.txBegin();
        emitOps(false);
        kb.txCommit();
    }
    kb.exit();
    builtKernel = kb.build();
}

bool
YcsbWorkload::verify(GpuSystem &gpu, std::string &why) const
{
    // One ordered pass over the keys, merged with the key-sorted table
    // of RMWs and writes: each key's ops are the next run of byKey.
    auto next = byKey.begin();
    for (std::uint64_t k = 0; k < keys; ++k) {
        const std::uint32_t value =
            gpu.memory().read(recordsBase + 8 * k);
        const std::uint32_t tag =
            gpu.memory().read(recordsBase + 8 * k + 4);

        std::uint32_t expect = initialValue;
        bool written = false, by_writer = false;
        for (; next != byKey.end() && ops[*next].key == k; ++next) {
            const Op &op = ops[*next];
            if (op.kind == OpRmw) {
                expect += op.amount; // uint32 wrap matches the kernel's.
            } else {
                written = true;
                by_writer |= op.amount == tag;
            }
        }
        if (value != expect) {
            why = "key " + std::to_string(k) + " value " +
                  std::to_string(value) + " != expected " +
                  std::to_string(expect) + " (lost or stray update)";
            return false;
        }

        if (!written) {
            if (tag != 0) {
                why = "key " + std::to_string(k) +
                      " tag written by nobody: " + std::to_string(tag);
                return false;
            }
        } else if (!by_writer) {
            why = "key " + std::to_string(k) + " tag " +
                  std::to_string(tag) +
                  " is not one of its blind writers";
            return false;
        }
    }
    return true;
}

bool
YcsbWorkload::addrInfo(Addr granule, unsigned granule_bytes,
                       std::string &label) const
{
    std::uint64_t first, last;
    if (!recordsInGranule(granule, granule_bytes, recordsBase, keys, 8,
                          first, last))
        return false;
    const std::uint64_t key = zipf.hottestIn(first, last);
    label = "key " + std::to_string(key) + " (zipf rank " +
            std::to_string(zipf.rankOf(key)) + ")";
    return true;
}

} // namespace getm
