/**
 * @file
 * GETM transaction-metadata storage (paper Fig. 8, Sec. V-B1).
 *
 * Two structures are looked up in parallel:
 *
 *  - a *precise* table for addresses touched by in-flight transactions:
 *    a 4-way cuckoo hash table (one H3 hash per way) with a small
 *    fully-associative stash and an unbounded overflow area (modelled as
 *    a list in main memory, like Unbounded TM's spill space);
 *  - an *approximate* table for everything else: a 4-way recency Bloom
 *    filter that stores the maximum wts/rts of all evicted addresses
 *    mapping to each bucket and answers with the minimum across ways --
 *    always an overestimate, which may cause extra aborts but never
 *    violates correctness.
 *
 * Only entries not reserved by any transaction (#writes == 0) may be
 * evicted from the precise table into the Bloom filter; this is what
 * lets cuckoo insertion chains terminate quickly (Fig. 13).
 */

#ifndef GETM_CORE_METADATA_TABLE_HH
#define GETM_CORE_METADATA_TABLE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/h3.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace getm {

/** Per-granule GETM metadata (paper Table I). */
struct TxMetadata
{
    Addr key = invalidAddr;  ///< Granule base address.
    LogicalTs wts = 0;       ///< 1 + logical time of the last write.
    LogicalTs rts = 0;       ///< Logical time of the last read.
    std::uint32_t numWrites = 0; ///< Outstanding write reservations.
    GlobalWarpId owner = invalidWarp; ///< Reservation owner.
    /**
     * The timestamps were seeded from the approximate (Bloom) table and
     * no precise access has refreshed them yet: a conflict against them
     * may be a Bloom false positive (attribution only; no protocol
     * behaviour depends on this).
     */
    bool approxSeeded = false;

    bool valid() const { return key != invalidAddr; }
    bool locked() const { return numWrites != 0; }

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(key, wts, rts, numWrites, owner, approxSeeded);
    }
};

/** The recency Bloom filter for evicted (inactive) metadata. */
class RecencyBloom
{
  public:
    /**
     * @param entries_per_way Buckets in each of the four ways.
     * @param seed            H3 seed.
     */
    RecencyBloom(unsigned entries_per_way, std::uint64_t seed);

    /** Fold an evicted entry's timestamps into the filter. */
    void insert(Addr key, LogicalTs wts, LogicalTs rts);

    /** Overestimated (wts, rts) for @p key. */
    std::pair<LogicalTs, LogicalTs> lookup(Addr key) const;

    /** Reset (timestamp rollover). */
    void flush();

    static constexpr unsigned numWays = 4;

    /** Checkpoint hook: bucket contents (hashes come from the seed). */
    template <class Ar> void ckpt(Ar &ar) { ar(buckets); }

  private:
    struct Bucket
    {
        LogicalTs wts = 0;
        LogicalTs rts = 0;

        template <class Ar> void ckpt(Ar &ar) { ar(wts, rts); }
    };

    unsigned wayEntries;
    H3Family hashes;
    std::vector<Bucket> buckets; ///< numWays * wayEntries, way-major.
};

/** Result of a metadata lookup-or-insert. */
struct MetaAccess
{
    TxMetadata *entry = nullptr;
    /** Modelled structure-access cycles (>= 1; Fig. 13 metric). */
    Cycle cycles = 1;
    /** The access had to use the in-memory overflow area. */
    bool overflowed = false;
    /** The entry's timestamps are Bloom-seeded overestimates. */
    bool fromApprox = false;
};

/**
 * The precise metadata table: 4-way cuckoo + stash + overflow, with
 * evictions into a RecencyBloom.
 */
class MetadataTable
{
  public:
    struct Config
    {
        /** Total precise entries in this partition's table. */
        unsigned preciseEntries = 1024;
        /** Stash entries (paper: 4). */
        unsigned stashEntries = 4;
        /** Total Bloom buckets in this partition (across 4 ways). */
        unsigned bloomEntries = 256;
        /** Max cuckoo displacement chain before falling to the stash. */
        unsigned maxKicks = 8;
        /** Modelled extra cycles for an overflow-area access. */
        Cycle overflowPenalty = 20;
        /**
         * Ablation (paper Sec. V-B1): track evicted timestamps in a
         * single pair of max registers instead of the recency Bloom
         * filter. The paper found this makes "version numbers increase
         * very quickly", causing many extra aborts -- which is why the
         * Bloom filter exists.
         */
        bool useMaxRegisters = false;
        std::uint64_t seed = 0x6e74;
    };

    MetadataTable(std::string name, const Config &config);

    /**
     * Look up the metadata for @p key, materializing a precise entry if
     * absent (seeded from the Bloom filter's overestimates). The
     * returned pointer stays valid until the next access() or flush().
     */
    MetaAccess access(Addr key);

    /** Probe without materializing (returns nullptr when not precise). */
    TxMetadata *findPrecise(Addr key);

    /** Drop everything (timestamp rollover). Locked entries forbidden. */
    void flush();

    /** Number of valid precise entries (incl. stash and overflow). */
    unsigned occupancy() const;

    /** Number of entries currently holding write reservations. */
    unsigned lockedCount() const;

    /** Highest timestamp ever stored (rollover detection). */
    LogicalTs maxTimestamp() const { return maxTs; }

    /** Record a timestamp write (keeps maxTimestamp fresh). */
    void
    noteTimestamp(LogicalTs ts)
    {
        if (ts > maxTs)
            maxTs = ts;
    }

    StatSet &stats() { return statSet; }

    /** Checkpoint hook: every storage structure plus the kick RNG
     *  (H3 hash matrices are reconstructed from the config seed). */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(table, stash, overflow, bloom, maxRegWts, maxRegRts, maxTs,
           kickRng, statSet);
    }

    static constexpr unsigned numWays = 4;

  private:
    unsigned wayIndex(unsigned way, Addr key) const;
    TxMetadata *slot(unsigned way, unsigned index);

    /**
     * Insert @p incoming into the cuckoo structure; returns modelled
     * cycles spent and sets @p overflowed if the overflow area was used.
     * On return, the entry is reachable via findPrecise().
     */
    Cycle insert(TxMetadata incoming, bool &overflowed);

    /** Record an eviction in the approximate structure. */
    void approxInsert(Addr key, LogicalTs wts, LogicalTs rts);
    /** Overestimated (wts, rts) for a key absent from the precise table. */
    std::pair<LogicalTs, LogicalTs> approxLookup(Addr key) const;

    Config cfg;
    unsigned wayEntries;
    H3Family hashes;
    std::vector<TxMetadata> table; ///< numWays * wayEntries, way-major.
    std::vector<TxMetadata> stash;
    /**
     * Spill space in main memory. Keyed by granule so a spilled entry
     * is found in O(1) instead of a linear scan; the modelled
     * overflowPenalty cycles are unchanged (timing is a model input,
     * not a property of the host container). Values are node-stable:
     * pointers returned by findPrecise() survive other insertions.
     */
    std::unordered_map<Addr, TxMetadata> overflow;
    RecencyBloom bloom;
    LogicalTs maxRegWts = 0; ///< Max-registers ablation state.
    LogicalTs maxRegRts = 0;
    LogicalTs maxTs = 0;
    Rng kickRng;
    StatSet statSet;

    // Hot-path stat handles: access() fires these per metadata lookup.
    StatSet::Counter &stLookups;
    StatSet::Counter &stMisses;
    StatSet::Counter &stEvictionsToBloom;
    StatSet::Counter &stCuckooKicks;
    StatSet::Counter &stStashInserts;
    StatSet::Counter &stOverflowInserts;
    StatSet::Average &stAccessCycles;
    HistogramData &stAccessCyclesHist;
};

} // namespace getm

#endif // GETM_CORE_METADATA_TABLE_HH
