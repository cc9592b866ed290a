/**
 * @file
 * The open-addressed word-address index of the TM bookkeeping tables.
 *
 * ThreadTxLog's read and write logs, IntraWarpCd's ownership table, the
 * Checker's shadow memory and WarpTM's pending-write counts each keep
 * their records in a dense vector, and find a word address through an
 * AddrIndex beside it: power-of-two cells, linear probing at most half
 * full, Fibonacci hashing and backward-shift erase, so lookups need no
 * tombstones. A cell holds only a slot of the caller's vector, whose
 * entries carry their word in an `addr` member: a cell costs four
 * bytes, and the vector stays the only copy of each key. Every call
 * that probes takes that vector, and the caller keeps the two in step.
 *
 * clear() costs O(entries) and keeps the capacity, so a table reused
 * at every transaction allocates only while it grows. No caller
 * iterates or serializes an index: its layout never reaches simulated
 * state or a checkpoint.
 */

#ifndef GETM_COMMON_ADDR_INDEX_HH
#define GETM_COMMON_ADDR_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace getm {

/** Addr -> slot of a caller's dense vector of entries with an addr. */
class AddrIndex
{
  public:
    /** No slot: what find() returns for an absent word. */
    static constexpr std::uint32_t none = ~static_cast<std::uint32_t>(0);

    std::size_t size() const { return used; }
    bool empty() const { return used == 0; }

    /** The slot of @p addr in @p entries, or none. */
    template <class Entry>
    std::uint32_t
    find(Addr addr, const std::vector<Entry> &entries) const
    {
        return used == 0 ? none : cells[probe(addr, entries)];
    }

    /**
     * The slot of @p addr in @p entries. If it is absent, it is indexed
     * at slot entries.size(), and the caller appends its entry next.
     */
    template <class Entry>
    std::uint32_t
    insert(Addr addr, const std::vector<Entry> &entries)
    {
        if (2 * (used + 1) > cells.size())
            rehash(cells.empty() ? minCells : 2 * cells.size(), entries);
        std::uint32_t &cell = cells[probe(addr, entries)];
        if (cell == none) {
            cell = static_cast<std::uint32_t>(entries.size());
            ++used;
        }
        return cell;
    }

    /**
     * Unindex the indexed @p slot of @p entries, and index the last
     * entry as @p slot: the caller then moves the last entry there and
     * drops the back (swap-remove).
     */
    template <class Entry>
    void
    erase(std::uint32_t slot, const std::vector<Entry> &entries)
    {
        std::size_t hole = seek(entries[slot].addr, slot);
        // Backward shift: pull each later member of the probe run whose
        // home lies cyclically at or before the hole into it.
        const std::size_t mask = cells.size() - 1;
        for (std::size_t j = (hole + 1) & mask; cells[j] != none;
             j = (j + 1) & mask) {
            const std::size_t h = home(entries[cells[j]].addr);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                cells[hole] = cells[j];
                hole = j;
            }
        }
        cells[hole] = none;
        --used;
        const auto last = static_cast<std::uint32_t>(entries.size() - 1);
        if (slot != last)
            cells[seek(entries[last].addr, last)] = slot;
    }

    /** Hold exactly @p entries, each entry's addr mapped to its slot
     *  (their words must be distinct). */
    template <class Entry>
    void
    assign(const std::vector<Entry> &entries)
    {
        std::size_t capacity = std::max(cells.size(), minCells);
        while (2 * (entries.size() + 1) > capacity)
            capacity *= 2;
        reset(capacity);
        for (std::size_t s = 0; s < entries.size(); ++s)
            cells[seek(entries[s].addr, none)] = static_cast<std::uint32_t>(s);
        used = static_cast<std::uint32_t>(entries.size());
    }

    /**
     * Remove every entry, given @p entries, all the index holds. Costs
     * O(entries), not O(cells), and keeps the capacity.
     */
    template <class Entry>
    void
    clear(const std::vector<Entry> &entries)
    {
        if (used == 0)
            return;
        if (cells.size() <= fillCellsPerEntry * entries.size()) {
            // Filling this few cells is cheaper than a seek per entry.
            std::fill(cells.begin(), cells.end(), none);
        } else {
            // Each slot's cell lies on its word's probe run. Cells
            // already emptied may split that run, so seek the slot,
            // not the word.
            for (std::size_t s = 0; s < entries.size(); ++s)
                cells[seek(entries[s].addr,
                           static_cast<std::uint32_t>(s))] = none;
        }
        used = 0;
    }

  private:
    static constexpr std::size_t minCells = 32;
    /**
     * clear() fills the cells when there are at most this many per
     * entry, and seeks each entry's cell otherwise. Timed on a 4-vCPU
     * x86-64 VM at 64, 512 and 4,096 cells, filling 16 cells took less
     * than one seek, and filling 64 about as long.
     */
    static constexpr std::size_t fillCellsPerEntry = 16;

    std::size_t
    home(Addr addr) const
    {
        // Fibonacci hashing: the top bits of the product spread the
        // word-aligned, often strided addresses evenly.
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(addr) * 0x9e3779b97f4a7c15ull) >>
            shift);
    }

    /** The cell holding @p addr, else the empty cell ending its run. */
    template <class Entry>
    std::size_t
    probe(Addr addr, const std::vector<Entry> &entries) const
    {
        const std::size_t mask = cells.size() - 1;
        for (std::size_t i = home(addr);; i = (i + 1) & mask)
            if (cells[i] == none || entries[cells[i]].addr == addr)
                return i;
    }

    /**
     * The first cell from @p addr's home that holds @p value: an
     * indexed slot of that word, or none for where to place one.
     */
    std::size_t
    seek(Addr addr, std::uint32_t value) const
    {
        const std::size_t mask = cells.size() - 1;
        std::size_t i = home(addr);
        while (cells[i] != value)
            i = (i + 1) & mask;
        return i;
    }

    /** @p capacity empty cells (a power of two). */
    void
    reset(std::size_t capacity)
    {
        cells.assign(capacity, none);
        shift = 64 - static_cast<std::uint32_t>(std::countr_zero(capacity));
    }

    /** Move the indexed slots into @p capacity fresh cells (kept out of
     *  the inlined lookups). */
    template <class Entry>
    [[gnu::noinline]] void
    rehash(std::size_t capacity, const std::vector<Entry> &entries)
    {
        const std::vector<std::uint32_t> old = std::move(cells);
        reset(capacity);
        for (const std::uint32_t slot : old)
            if (slot != none)
                cells[seek(entries[slot].addr, none)] = slot;
    }

    std::vector<std::uint32_t> cells;
    std::uint32_t used = 0;
    std::uint32_t shift = 64;
};

} // namespace getm

#endif // GETM_COMMON_ADDR_INDEX_HH
