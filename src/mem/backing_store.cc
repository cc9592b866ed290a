#include "mem/backing_store.hh"

#include "common/log.hh"

namespace getm {

namespace {

/** Split a page number into (root, leaf) directory indices. */
inline void
splitPage(std::uint64_t page_no, std::uint64_t &hi, std::uint64_t &lo,
          unsigned dir_bits, std::uint64_t fanout)
{
    hi = page_no >> dir_bits;
    lo = page_no & (fanout - 1);
    if (hi >= fanout)
        panic("address %#llx beyond the backing-store range",
              static_cast<unsigned long long>(page_no));
}

} // namespace

std::uint32_t *
BackingStore::pageFor(Addr addr)
{
    const std::uint64_t page_no = addr / pageBytes;
    std::uint64_t hi, lo;
    splitPage(page_no, hi, lo, dirBits, dirFanout);

    std::unique_ptr<Leaf> &leaf = root[hi];
    if (!leaf)
        leaf = std::make_unique<Leaf>();
    std::unique_ptr<std::uint32_t[]> &page = (*leaf)[lo];
    if (!page)
        page = std::make_unique<std::uint32_t[]>(wordsPerPage); // zeroed
    return page.get();
}

const std::uint32_t *
BackingStore::pageForConst(Addr addr) const
{
    const std::uint64_t page_no = addr / pageBytes;
    std::uint64_t hi, lo;
    splitPage(page_no, hi, lo, dirBits, dirFanout);
    const Leaf *leaf = root[hi].get();
    return leaf ? (*leaf)[lo].get() : nullptr;
}

std::uint32_t
BackingStore::read(Addr addr) const
{
    if (addr % wordBytes != 0)
        panic("unaligned read at %#lx", static_cast<unsigned long>(addr));
    const std::uint32_t *page = pageForConst(addr);
    if (!page)
        return 0;
    return page[(addr % pageBytes) / wordBytes];
}

void
BackingStore::write(Addr addr, std::uint32_t value)
{
    if (addr % wordBytes != 0)
        panic("unaligned write at %#lx", static_cast<unsigned long>(addr));
    wordAt(addr) = value;
}

std::uint32_t
BackingStore::atomicCas(Addr addr, std::uint32_t compare, std::uint32_t swap)
{
    if (addr % wordBytes != 0)
        panic("unaligned cas at %#lx", static_cast<unsigned long>(addr));
    std::uint32_t &word = wordAt(addr);
    const std::uint32_t old = word;
    if (old == compare)
        word = swap;
    return old;
}

std::uint32_t
BackingStore::atomicExch(Addr addr, std::uint32_t value)
{
    if (addr % wordBytes != 0)
        panic("unaligned exch at %#lx", static_cast<unsigned long>(addr));
    std::uint32_t &word = wordAt(addr);
    const std::uint32_t old = word;
    word = value;
    return old;
}

std::uint32_t
BackingStore::atomicAdd(Addr addr, std::uint32_t value)
{
    if (addr % wordBytes != 0)
        panic("unaligned add at %#lx", static_cast<unsigned long>(addr));
    std::uint32_t &word = wordAt(addr);
    const std::uint32_t old = word;
    word = old + value;
    return old;
}

Addr
BackingStore::allocate(std::uint64_t bytes, std::uint64_t align)
{
    if (align == 0 || (align & (align - 1)) != 0)
        panic("allocation alignment must be a power of two");
    allocTop = (allocTop + align - 1) & ~(align - 1);
    const Addr base = allocTop;
    allocTop += bytes;
    return base;
}

} // namespace getm
