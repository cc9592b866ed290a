#include "tm/word_counts.hh"

#include <algorithm>

namespace getm {

bool
WordCounts::contains(Addr addr) const
{
    const std::size_t mask = buckets.size() - 1;
    for (std::size_t i = home(addr);; i = (i + 1) & mask) {
        if (buckets[i].count == 0)
            return false;
        if (buckets[i].addr == addr)
            return true;
    }
}

void
WordCounts::add(Addr addr)
{
    if (2 * (used + 1) > buckets.size())
        grow();
    const std::size_t mask = buckets.size() - 1;
    std::size_t i = home(addr);
    for (; buckets[i].count != 0; i = (i + 1) & mask) {
        if (buckets[i].addr == addr) {
            ++buckets[i].count;
            return;
        }
    }
    buckets[i] = {addr, 1};
    ++used;
}

void
WordCounts::remove(Addr addr)
{
    const std::size_t mask = buckets.size() - 1;
    std::size_t i = home(addr);
    for (; buckets[i].addr != addr; i = (i + 1) & mask)
        if (buckets[i].count == 0)
            return;
    if (buckets[i].count == 0 || --buckets[i].count != 0)
        return;
    // Backward-shift deletion: pull later chain members whose home lies
    // at or before the hole into it, so lookups need no tombstones.
    for (std::size_t j = (i + 1) & mask; buckets[j].count != 0;
         j = (j + 1) & mask) {
        const std::size_t h = home(buckets[j].addr);
        if (((j - h) & mask) >= ((j - i) & mask)) {
            buckets[i] = buckets[j];
            i = j;
        }
    }
    buckets[i].count = 0;
    --used;
}

void
WordCounts::clear()
{
    std::fill(buckets.begin(), buckets.end(), Bucket{});
    used = 0;
}

void
WordCounts::grow()
{
    std::vector<Bucket> old(buckets.size() * 2);
    old.swap(buckets);
    const std::size_t mask = buckets.size() - 1;
    for (const Bucket &b : old) {
        if (b.count == 0)
            continue;
        std::size_t i = home(b.addr);
        while (buckets[i].count != 0)
            i = (i + 1) & mask;
        buckets[i] = b;
    }
}

} // namespace getm
