/**
 * @file
 * A multiset of word addresses (word -> count), for the WarpTM
 * partition's hazard check, which probes it for every word of every
 * slice it admits.
 */

#ifndef GETM_TM_WORD_COUNTS_HH
#define GETM_TM_WORD_COUNTS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace getm {

/**
 * Word -> count, open-addressed with linear probing at most half full.
 * A zero count marks an empty bucket, and erasure shifts the probe
 * chain back, so lookups need no tombstones.
 */
class WordCounts
{
  public:
    bool contains(Addr addr) const;
    /** Add one count of @p addr. */
    void add(Addr addr);
    /** Drop one count of @p addr (a no-op if absent). */
    void remove(Addr addr);
    void clear();

  private:
    struct Bucket
    {
        Addr addr = 0;
        std::uint32_t count = 0;
    };

    std::size_t
    home(Addr addr) const
    {
        return static_cast<std::size_t>(
                   (addr * 0x9e3779b97f4a7c15ull) >> 32) &
               (buckets.size() - 1);
    }

    void grow();

    std::vector<Bucket> buckets = std::vector<Bucket>(64);
    std::size_t used = 0;
};

} // namespace getm

#endif // GETM_TM_WORD_COUNTS_HH
