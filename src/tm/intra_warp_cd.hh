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
 * first-touch order, with an AddrIndex (common/addr_index.hh) from
 * address to entry beside it. clear() costs O(entries) however large
 * the table once grew, as it runs at every TxBegin and retry.
 */

#ifndef GETM_TM_INTRA_WARP_CD_HH
#define GETM_TM_INTRA_WARP_CD_HH

#include <cstdint>
#include <vector>

#include "common/addr_index.hh"
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
        index.clear(entries);
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
        if constexpr (!Ar::saving)
            index.assign(entries);
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

        template <class Ar> void ckpt(Ar &ar) { ar(addr, owners); }
    };

    /** The owners of @p addr, or nullptr if the word is untouched. */
    const Owners *
    find(Addr addr) const
    {
        const std::uint32_t slot = index.find(addr, entries);
        return slot == AddrIndex::none ? nullptr : &entries[slot].owners;
    }

    /** The owners of @p addr, inserting an empty record if needed. */
    Owners &
    claim(Addr addr)
    {
        const std::uint32_t slot = index.insert(addr, entries);
        if (slot == entries.size())
            entries.push_back({addr, {}});
        return entries[slot].owners;
    }

    std::vector<Entry> entries;
    AddrIndex index;
};

} // namespace getm

#endif // GETM_TM_INTRA_WARP_CD_HH
