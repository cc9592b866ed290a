/**
 * @file
 * Per-warp transaction redo logs.
 *
 * As in KiloTM/WarpTM (paper Sec. V-A), each warp keeps per-thread read
 * and write logs in the SIMT core's local memory. GETM strictly needs
 * only the write log, but the read log is kept as well to support
 * intra-warp conflict detection. Log storage timing is assumed L1
 * resident (a one-cycle append), which both the paper's proposals share,
 * so it cancels out of all comparisons.
 *
 * Lookups are O(1): each log carries a small open-addressed addr→slot
 * index that engages once the log outgrows a handful of entries (below
 * that, a linear scan is faster than hashing). The entry vectors stay
 * the single source of truth and keep strict append order -- commit
 * replays and validation both depend on it -- the index is purely an
 * accelerator.
 */

#ifndef GETM_TM_TX_LOG_HH
#define GETM_TM_TX_LOG_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace getm {

/** One logged access. */
struct LogEntry
{
    Addr addr = 0;           ///< Word address.
    std::uint32_t value = 0; ///< Observed value (reads) / data (writes).
    std::uint32_t count = 1; ///< Number of coalesced writes (writes only).

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(addr, value, count);
    }
};

/** The redo log of a single thread's transaction attempt. */
class ThreadTxLog
{
  public:
    /** Record a read of @p addr observing @p value (first read only). */
    void
    addRead(Addr addr, std::uint32_t value)
    {
        if (lookup(reads, readIndex, addr) != npos)
            return;
        reads.push_back({addr, value, 1});
        noteAppend(reads, readIndex);
    }

    /** Record a write; repeated writes coalesce and bump the count. */
    void
    addWrite(Addr addr, std::uint32_t value)
    {
        const std::size_t slot = lookup(writes, writeIndex, addr);
        if (slot != npos) {
            writes[slot].value = value;
            ++writes[slot].count;
            return;
        }
        writes.push_back({addr, value, 1});
        noteAppend(writes, writeIndex);
    }

    /** Read-own-write lookup. */
    std::optional<std::uint32_t>
    findWrite(Addr addr) const
    {
        const std::size_t slot = lookup(writes, writeIndex, addr);
        if (slot == npos)
            return std::nullopt;
        return writes[slot].value;
    }

    void
    clear()
    {
        reads.clear();
        writes.clear();
        readIndex.clear();
        writeIndex.clear();
    }

    const std::vector<LogEntry> &readLog() const { return reads; }
    const std::vector<LogEntry> &writeLog() const { return writes; }
    bool readOnly() const { return writes.empty(); }

    /**
     * Checkpoint hook: the entry vectors only. The addr→slot indexes
     * are pure lookup accelerators — find() returns the same slot for
     * any layout — so they are rebuilt, not serialized.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(reads, writes);
        if constexpr (!Ar::saving) {
            readIndex.clear();
            writeIndex.clear();
            if (reads.size() > linearCutoff)
                readIndex.rebuild(reads);
            if (writes.size() > linearCutoff)
                writeIndex.rebuild(writes);
        }
    }

  private:
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);
    /** Below this many entries a linear scan beats hashing. */
    static constexpr std::size_t linearCutoff = 8;

    struct Cell
    {
        Addr addr = 0;
        std::size_t slot = npos; ///< npos marks an empty cell.
    };

    /** Open-addressed addr → entry-slot map (power-of-two capacity,
     *  linear probing, ≤ 50% load). Empty until first engaged. */
    struct AddrIndex
    {
        std::vector<Cell> cells;
        std::size_t used = 0;

        static std::size_t
        hash(Addr addr)
        {
            const std::uint64_t x =
                static_cast<std::uint64_t>(addr) * 0x9e3779b97f4a7c15ull;
            return static_cast<std::size_t>((x >> 32) ^ x);
        }

        std::size_t
        find(Addr addr) const
        {
            const std::size_t mask = cells.size() - 1;
            for (std::size_t i = hash(addr) & mask;; i = (i + 1) & mask) {
                if (cells[i].slot == npos)
                    return npos;
                if (cells[i].addr == addr)
                    return cells[i].slot;
            }
        }

        void
        insert(Addr addr, std::size_t slot)
        {
            const std::size_t mask = cells.size() - 1;
            std::size_t i = hash(addr) & mask;
            while (cells[i].slot != npos)
                i = (i + 1) & mask;
            cells[i] = {addr, slot};
            ++used;
        }

        void
        rebuild(const std::vector<LogEntry> &entries)
        {
            std::size_t capacity = 4 * linearCutoff;
            while (capacity < 2 * (entries.size() + 1))
                capacity *= 2;
            cells.assign(capacity, Cell{});
            used = 0;
            for (std::size_t s = 0; s < entries.size(); ++s)
                insert(entries[s].addr, s);
        }

        void
        clear()
        {
            cells.clear();
            used = 0;
        }
    };

    static std::size_t
    lookup(const std::vector<LogEntry> &entries, const AddrIndex &index,
           Addr addr)
    {
        if (!index.cells.empty())
            return index.find(addr);
        for (std::size_t i = 0; i < entries.size(); ++i)
            if (entries[i].addr == addr)
                return i;
        return npos;
    }

    /** Index maintenance for an entry just appended to @p entries. */
    static void
    noteAppend(const std::vector<LogEntry> &entries, AddrIndex &index)
    {
        if (index.cells.empty()) {
            if (entries.size() > linearCutoff)
                index.rebuild(entries);
            return;
        }
        if (2 * (index.used + 1) > index.cells.size()) {
            index.rebuild(entries);
            return;
        }
        index.insert(entries.back().addr, entries.size() - 1);
    }

    std::vector<LogEntry> reads;
    std::vector<LogEntry> writes;
    AddrIndex readIndex;
    AddrIndex writeIndex;
};

} // namespace getm

#endif // GETM_TM_TX_LOG_HH
