/**
 * @file
 * Intra-warp conflict detection.
 *
 * Transactions are thread-granular but coalesced per warp, so conflicts
 * between lanes of the same warp must be found inside the core (paper
 * Sec. II-B / V-A; the "two-phase parallel" ownership-table technique of
 * WarpTM). Two entry points are provided:
 *
 *  - eager per-access checking (GETM: "each transactional access is first
 *    checked against the local per-warp read and write logs"), and
 *  - commit-time resolution (WarpTM: pick a conflict-free survivor set;
 *    losers retry in a later attempt).
 *
 * Host representation: the owner masks live in a dense entry vector in
 * first-touch order, with an open-addressed addr→entry index beside it
 * (power-of-two capacity, linear probing, ≤ 50% load — the idiom of
 * ThreadTxLog's index). clear() resets only the index cells in use, so a
 * table that once grew large stays cheap to reuse.
 */

#ifndef GETM_TM_INTRA_WARP_CD_HH
#define GETM_TM_INTRA_WARP_CD_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "tm/tx_log.hh"

namespace getm {

/** Per-warp address ownership table (the 4 KB structure of Table II). */
class IntraWarpCd
{
  public:
    /**
     * Eagerly check lane @p lane accessing word @p addr.
     *
     * @param is_write True for stores.
     * @return true if the access conflicts with another lane's prior
     *         access (R-W, W-R or W-W on the same word), in which case
     *         the accessing lane must abort.
     */
    bool
    checkAndRecord(LaneId lane, Addr addr, bool is_write)
    {
        Owners &owners = claim(addr);
        const LaneMask self = 1u << lane;
        const bool conflict =
            is_write ? ((owners.readers | owners.writers) & ~self) != 0
                     : (owners.writers & ~self) != 0;
        if (conflict)
            return true;
        if (is_write)
            owners.writers |= self;
        else
            owners.readers |= self;
        return false;
    }

    /**
     * Commit-time resolution over per-lane logs: greedily accept lanes in
     * index order, rejecting any lane whose read/write set conflicts with
     * an already accepted lane.
     *
     * @param logs      warpSize thread logs.
     * @param candidates Lanes that reached the commit point.
     * @return the mask of surviving (conflict-free) lanes.
     */
    static LaneMask resolveAtCommit(const ThreadTxLog *logs,
                                    unsigned warp_size,
                                    LaneMask candidates);

    void
    clear()
    {
        for (const Entry &entry : entries)
            cells[entry.cell] = emptySlot;
        entries.clear();
    }

    /** Remove a single lane's claims (used when a lane aborts). */
    void
    dropLane(LaneId lane)
    {
        const LaneMask self = 1u << lane;
        for (Entry &entry : entries) {
            entry.owners.readers &= ~self;
            entry.owners.writers &= ~self;
        }
    }

    /**
     * Checkpoint hook: the dense entries only. The index is a pure
     * lookup accelerator, so it is rebuilt on load.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(entries);
        if constexpr (!Ar::saving) {
            std::size_t capacity = minCells;
            while (capacity < 2 * (entries.size() + 1))
                capacity *= 2;
            reindex(capacity);
        }
    }

  private:
    struct Owners
    {
        LaneMask readers = 0;
        LaneMask writers = 0;

        template <class Ar> void ckpt(Ar &ar) { ar(readers, writers); }
    };

    struct Entry
    {
        Addr addr = 0;
        Owners owners;
        std::uint32_t cell = 0; ///< Index cell pointing here.

        template <class Ar> void ckpt(Ar &ar) { ar(addr, owners); }
    };

    static constexpr std::uint32_t emptySlot = ~static_cast<std::uint32_t>(0);
    static constexpr std::size_t minCells = 64;

    std::size_t
    home(Addr addr) const
    {
        // Fibonacci hashing: the top bits of the product spread the
        // word-aligned, often strided addresses evenly.
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(addr) * 0x9e3779b97f4a7c15ull) >>
            shift);
    }

    /** The owners of @p addr, or nullptr if the word is untouched. */
    const Owners *
    find(Addr addr) const
    {
        if (cells.empty())
            return nullptr;
        const std::size_t mask = cells.size() - 1;
        for (std::size_t i = home(addr);; i = (i + 1) & mask) {
            if (cells[i] == emptySlot)
                return nullptr;
            if (entries[cells[i]].addr == addr)
                return &entries[cells[i]].owners;
        }
    }

    /** The owners of @p addr, inserting an empty record if needed. */
    Owners &
    claim(Addr addr)
    {
        if (2 * (entries.size() + 1) > cells.size())
            reindex(cells.empty() ? minCells : 2 * cells.size());
        const std::size_t mask = cells.size() - 1;
        for (std::size_t i = home(addr);; i = (i + 1) & mask) {
            if (cells[i] == emptySlot) {
                cells[i] = static_cast<std::uint32_t>(entries.size());
                entries.push_back({addr, {}, static_cast<std::uint32_t>(i)});
                return entries.back().owners;
            }
            if (entries[cells[i]].addr == addr)
                return entries[cells[i]].owners;
        }
    }

    /** Size the index to @p capacity cells and re-insert every entry. */
    void reindex(std::size_t capacity);

    std::vector<Entry> entries;
    /** Open-addressed index: entry slot per cell, or emptySlot. */
    std::vector<std::uint32_t> cells;
    unsigned shift = 64;
};

} // namespace getm

#endif // GETM_TM_INTRA_WARP_CD_HH
