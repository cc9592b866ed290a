/**
 * @file
 * Set-associative tag-array timing model (data lives in BackingStore).
 *
 * Used for both per-core L1 data caches and LLC slices. The model tracks
 * tags, LRU state and dirtiness; lookups report hit/miss plus the victim
 * that a fill would evict so callers can account for writebacks.
 */

#ifndef GETM_MEM_CACHE_MODEL_HH
#define GETM_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace getm {

/** Outcome of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty line was evicted by the fill (writeback traffic). */
    bool writeback = false;
    /** Address of the written-back line (if writeback). */
    Addr victimAddr = invalidAddr;
};

/** LRU set-associative cache tag model. */
class CacheModel
{
  public:
    /**
     * @param name_      Stat-set name.
     * @param size_bytes Total capacity.
     * @param assoc      Ways per set.
     * @param line_bytes Line size (power of two).
     */
    CacheModel(std::string name_, std::uint64_t size_bytes, unsigned assoc,
               unsigned line_bytes);

    /**
     * Access @p addr; on miss, fill it (allocate-on-miss for both reads
     * and writes). @p is_write marks the line dirty on hit or fill.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /** Invalidate a line if present (returns true if it was dirty). */
    bool invalidate(Addr addr);

    /** Drop all lines. */
    void flush();

    unsigned lineBytes() const { return lineSize; }

    StatSet &stats() { return statSet; }
    const StatSet &stats() const { return statSet; }

    /** Checkpoint hook: tags, LRU clock, stats (geometry is config). */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(useClock, lines, statSet);
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(valid, dirty, tag, lastUse);
        }
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr lineAddr(Addr tag, std::uint64_t set) const;

    unsigned lineSize;
    unsigned ways;
    std::uint64_t sets;
    std::uint64_t useClock = 0;
    std::vector<Line> lines;
    StatSet statSet;

    // Hot-path stat handles: one add per access, no map lookup.
    StatSet::Counter &stReadHits;
    StatSet::Counter &stWriteHits;
    StatSet::Counter &stReadMisses;
    StatSet::Counter &stWriteMisses;
    StatSet::Counter &stWritebacks;
};

} // namespace getm

#endif // GETM_MEM_CACHE_MODEL_HH
