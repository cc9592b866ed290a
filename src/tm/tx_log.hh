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
 * Lookups are O(1): each log carries an AddrIndex (common/addr_index.hh)
 * from address to slot that engages once the log outgrows a handful of
 * entries (below that, a linear scan is faster than hashing); clear()
 * keeps its capacity for the next attempt. The entry vectors stay
 * the single source of truth and keep strict append order -- commit
 * replays and validation both depend on it -- the index is purely an
 * accelerator.
 */

#ifndef GETM_TM_TX_LOG_HH
#define GETM_TM_TX_LOG_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/addr_index.hh"
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
        if (claim(reads, readIndex, addr) == reads.size())
            reads.push_back({addr, value, 1});
    }

    /** Record a write; repeated writes coalesce and bump the count. */
    void
    addWrite(Addr addr, std::uint32_t value)
    {
        const std::size_t slot = claim(writes, writeIndex, addr);
        if (slot == writes.size()) {
            writes.push_back({addr, value, 1});
            return;
        }
        writes[slot].value = value;
        ++writes[slot].count;
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
        readIndex.clear(reads);
        writeIndex.clear(writes);
        reads.clear();
        writes.clear();
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
        if constexpr (!Ar::saving)
            clear();
        ar(reads, writes);
        if constexpr (!Ar::saving) {
            if (reads.size() > linearCutoff)
                readIndex.assign(reads);
            if (writes.size() > linearCutoff)
                writeIndex.assign(writes);
        }
    }

  private:
    static constexpr std::size_t npos = AddrIndex::none;
    /** Below this many entries a linear scan beats hashing. */
    static constexpr std::size_t linearCutoff = 8;

    static std::size_t
    lookup(const std::vector<LogEntry> &entries, const AddrIndex &index,
           Addr addr)
    {
        if (!index.empty())
            return index.find(addr, entries);
        for (std::size_t i = 0; i < entries.size(); ++i)
            if (entries[i].addr == addr)
                return i;
        return npos;
    }

    /**
     * The slot of @p addr in @p entries, else entries.size(), where the
     * caller appends it next; indexes the log once the append takes it
     * past the linear scan.
     */
    static std::size_t
    claim(const std::vector<LogEntry> &entries, AddrIndex &index,
          Addr addr)
    {
        if (index.empty()) {
            const std::size_t slot = lookup(entries, index, addr);
            if (slot != npos)
                return slot;
            if (entries.size() < linearCutoff)
                return entries.size();
            index.assign(entries);
        }
        return index.insert(addr, entries);
    }

    std::vector<LogEntry> reads;
    std::vector<LogEntry> writes;
    AddrIndex readIndex;
    AddrIndex writeIndex;
};

} // namespace getm

#endif // GETM_TM_TX_LOG_HH
