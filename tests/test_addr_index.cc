/**
 * @file
 * AddrIndex (src/common/addr_index.hh) against std::unordered_map:
 * random find/insert/erase/clear sequences over a dense entry vector,
 * erases and clears whose probe runs wrap past the last cell (a clear
 * both filling every cell and seeking each entry's cell), growth
 * while entries are held, and reuse after a clear.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/addr_index.hh"
#include "common/rng.hh"

namespace getm {
namespace {

/** A caller's dense vector of entries with the index beside it, kept
 *  in step the way WtmPartitionUnit keeps its pending writes. */
struct Table
{
    struct Entry
    {
        Addr addr;
        std::uint32_t value;
    };

    std::vector<Entry> entries;
    AddrIndex index;

    /** The value of @p addr, storing @p value first if absent. */
    std::uint32_t
    insert(Addr addr, std::uint32_t value)
    {
        const std::uint32_t slot = index.insert(addr, entries);
        if (slot == entries.size())
            entries.push_back({addr, value});
        return entries[slot].value;
    }

    /** Swap-remove @p addr; returns whether it was present. */
    bool
    erase(Addr addr)
    {
        const std::uint32_t slot = index.find(addr, entries);
        if (slot == AddrIndex::none)
            return false;
        index.erase(slot, entries);
        entries[slot] = entries.back();
        entries.pop_back();
        return true;
    }

    void
    clear()
    {
        index.clear(entries);
        entries.clear();
    }
};

using Reference = std::unordered_map<Addr, std::uint32_t>;

/** Every reference entry is found with its value, and sizes agree. */
void
expectSame(const Table &table, const Reference &reference)
{
    ASSERT_EQ(table.index.size(), reference.size());
    ASSERT_EQ(table.entries.size(), reference.size());
    ASSERT_EQ(table.index.empty(), reference.empty());
    for (const auto &[addr, value] : reference) {
        const std::uint32_t slot = table.index.find(addr, table.entries);
        ASSERT_NE(slot, AddrIndex::none) << "addr " << addr;
        ASSERT_EQ(table.entries[slot].addr, addr);
        ASSERT_EQ(table.entries[slot].value, value) << "addr " << addr;
    }
}

/** One random operation on both maps, checked against each other. */
void
randomOp(Table &table, Reference &reference, Rng &rng,
         const std::vector<Addr> &pool)
{
    const Addr addr = pool[rng.below(pool.size())];
    const auto ref = reference.find(addr);
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2: {
        const std::uint32_t slot = table.index.find(addr, table.entries);
        ASSERT_EQ(slot != AddrIndex::none, ref != reference.end());
        if (slot != AddrIndex::none) {
            ASSERT_EQ(table.entries[slot].value, ref->second);
        }
        break;
      }
      case 3:
      case 4:
      case 5: {
        const auto value = static_cast<std::uint32_t>(rng.below(1u << 20));
        ASSERT_EQ(table.insert(addr, value),
                  reference.try_emplace(addr, value).first->second);
        break;
      }
      case 6:
        ASSERT_EQ(table.erase(addr), reference.erase(addr) == 1);
        break;
      default:
        if (rng.below(64) == 0) {
            table.clear();
            reference.clear();
        } else {
            ASSERT_EQ(table.erase(addr), reference.erase(addr) == 1);
        }
        break;
    }
    ASSERT_EQ(table.index.size(), reference.size());
}

TEST(AddrIndex, RandomOpsMatchUnorderedMap)
{
    // Dense, strided and scattered addresses, over pools that keep the
    // table at its minimum size and pools that make it grow.
    for (unsigned pool_size : {4u, 12u, 40u, 700u, 6000u}) {
        for (unsigned layout = 0; layout < 3; ++layout) {
            Rng rng(101 + pool_size * 3 + layout);
            std::vector<Addr> pool;
            for (unsigned k = 0; k < pool_size; ++k) {
                pool.push_back(layout == 0   ? Addr{k}
                               : layout == 1 ? 0x4000 + Addr{k} * 128
                                             : rng.next());
            }
            Table table;
            Reference reference;
            for (unsigned op = 0; op < 30000; ++op)
                randomOp(table, reference, rng, pool);
            expectSame(table, reference);
        }
    }
}

/** The home cell of @p addr in a table of 2^bits cells (the index's
 *  Fibonacci hash). */
std::size_t
homeOf(Addr addr, unsigned bits)
{
    return static_cast<std::size_t>((addr * 0x9e3779b97f4a7c15ull) >>
                                    (64 - bits));
}

/**
 * Seven word addresses whose probe run wraps in a table of 2^bits
 * cells: three homed at the last cell, then two homed at cell 0 and
 * two at cell 1, which land behind them.
 */
std::vector<Addr>
wrapKeys(unsigned bits)
{
    const std::size_t last = (std::size_t{1} << bits) - 1;
    std::vector<Addr> at_last, at_zero, at_one;
    for (Addr addr = 0; at_last.size() < 3 || at_zero.size() < 2 ||
                        at_one.size() < 2;
         addr += 4) {
        const std::size_t home = homeOf(addr, bits);
        if (home == last && at_last.size() < 3)
            at_last.push_back(addr);
        else if (home == 0 && at_zero.size() < 2)
            at_zero.push_back(addr);
        else if (home == 1 && at_one.size() < 2)
            at_one.push_back(addr);
    }
    std::vector<Addr> keys = at_last;
    keys.insert(keys.end(), at_zero.begin(), at_zero.end());
    keys.insert(keys.end(), at_one.begin(), at_one.end());
    return keys;
}

TEST(AddrIndex, EraseAndClearWrapPastTheLastCell)
{
    // A fresh index holds up to 15 entries in its 32 cells. Fill the
    // last cell's run so it wraps into cells 0 and 1. Erasing along the
    // run must shift the survivors back across the wrap. At under 16
    // cells per entry, a clear fills every cell.
    const std::vector<Addr> keys = wrapKeys(5);

    // Each erase order starts from a fresh fill: every key is erased
    // once in every position of the sequence.
    for (std::size_t first = 0; first < keys.size(); ++first) {
        Table table;
        Reference reference;
        for (std::size_t k = 0; k < keys.size(); ++k) {
            table.insert(keys[k], static_cast<std::uint32_t>(k));
            reference.emplace(keys[k], static_cast<std::uint32_t>(k));
        }
        for (std::size_t n = 0; n < keys.size(); ++n) {
            const Addr victim = keys[(first + n) % keys.size()];
            ASSERT_TRUE(table.erase(victim));
            ASSERT_FALSE(table.erase(victim));
            reference.erase(victim);
            ASSERT_EQ(table.index.find(victim, table.entries),
                      AddrIndex::none);
            expectSame(table, reference);
        }
    }

    // Clear the wrapped run filled in each rotation of the key order,
    // then refill it in reverse: a cell the clear missed would still
    // hold a slot.
    for (std::size_t first = 0; first < keys.size(); ++first) {
        Table table;
        for (std::size_t n = 0; n < keys.size(); ++n)
            table.insert(keys[(first + n) % keys.size()], 0);
        table.clear();
        ASSERT_TRUE(table.index.empty());
        Reference reference;
        for (std::size_t k = keys.size(); k-- > 0;) {
            table.insert(keys[k], static_cast<std::uint32_t>(k));
            reference.emplace(keys[k], static_cast<std::uint32_t>(k));
            expectSame(table, reference);
        }
    }
}

TEST(AddrIndex, ClearSeeksAWrappedRunInAGrownTable)
{
    // 100 entries grow the index to 256 cells and are erased again, so
    // the seven wrapping keys sit at more than 16 cells per entry.
    // There clear() seeks each entry's cell instead of filling every
    // cell, and must follow the run across the wrap. The fillers are
    // not word-aligned, so none is a wrapping key.
    const std::vector<Addr> keys = wrapKeys(8);
    for (std::size_t first = 0; first < keys.size(); ++first) {
        Table table;
        for (Addr k = 0; k < 100; ++k)
            table.insert(4 * k + 2, 0);
        for (Addr k = 0; k < 100; ++k)
            ASSERT_TRUE(table.erase(4 * k + 2));
        for (std::size_t n = 0; n < keys.size(); ++n)
            table.insert(keys[(first + n) % keys.size()], 0);
        table.clear();
        ASSERT_TRUE(table.index.empty());
        Reference reference;
        for (std::size_t k = keys.size(); k-- > 0;) {
            table.insert(keys[k], static_cast<std::uint32_t>(k));
            reference.emplace(keys[k], static_cast<std::uint32_t>(k));
            expectSame(table, reference);
        }
    }
}

TEST(AddrIndex, GrowthKeepsHeldEntries)
{
    Table table;
    Reference reference;
    Rng rng(7);
    for (std::uint32_t k = 0; k < 5000; ++k) {
        const Addr addr = 0x10000 + 4 * rng.below(1u << 24);
        ASSERT_EQ(table.insert(addr, k),
                  reference.try_emplace(addr, k).first->second);
        // Erase now and then, so growth also rehashes a table whose
        // runs were shifted back.
        if (k % 7 == 0) {
            const Addr gone = 0x10000 + 4 * rng.below(1u << 24);
            ASSERT_EQ(table.erase(gone), reference.erase(gone) == 1);
        }
        if ((k & (k - 1)) == 0)
            expectSame(table, reference);
    }
    expectSame(table, reference);
}

TEST(AddrIndex, ClearThenReuseAfterGrowth)
{
    Table table;
    for (std::uint32_t round = 0; round < 4; ++round) {
        // Large rounds grow the table; small ones reuse it after clear.
        const std::uint32_t n = (round % 2 == 0) ? 3000 : 10;
        Reference reference;
        for (std::uint32_t k = 0; k < n; ++k) {
            const Addr addr = Addr{round} << 32 | Addr{k} * 4;
            table.insert(addr, k);
            reference.emplace(addr, k);
        }
        expectSame(table, reference);
        table.clear();
        EXPECT_TRUE(table.index.empty());
        for (const auto &entry : reference)
            ASSERT_EQ(table.index.find(entry.first, table.entries),
                      AddrIndex::none);
        EXPECT_FALSE(table.erase(reference.begin()->first));
    }
}

TEST(AddrIndex, AssignIndexesEachEntryBySlot)
{
    Table table;
    for (std::uint32_t k = 0; k < 50; ++k)
        table.insert(0x9000 + 4 * Addr{k}, k);
    // A wholesale replacement of the vector, as a checkpoint load does.
    table.entries.clear();
    Reference reference;
    for (std::uint32_t k = 0; k < 300; ++k) {
        table.entries.push_back({0x40000 + 12 * Addr{k}, k});
        reference.emplace(0x40000 + 12 * Addr{k}, k);
    }
    table.index.assign(table.entries);
    expectSame(table, reference);
    EXPECT_EQ(table.index.find(0x9000, table.entries), AddrIndex::none);
}

} // namespace
} // namespace getm
