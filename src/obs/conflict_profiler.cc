#include "obs/conflict_profiler.hh"

#include <algorithm>

namespace getm {

HotAddrRow &
ConflictProfiler::rowFor(Addr addr, PartitionId partition)
{
    if (addr != lastAddr || !lastRow) {
        lastRow = &table[addr];
        lastAddr = addr;
    }
    lastRow->addr = addr;
    lastRow->partition = partition;
    return *lastRow;
}

void
ConflictProfiler::record(AbortReason reason, Addr addr,
                         PartitionId partition, std::uint64_t count)
{
    if (addr == invalidAddr || reason == AbortReason::None || !count)
        return;
    HotAddrRow &row = rowFor(addr, partition);
    row.total += count;
    row.byReason[static_cast<unsigned>(reason)] += count;
    events += count;
}

void
ConflictProfiler::recordStallDepth(Addr addr, PartitionId partition,
                                   unsigned depth)
{
    if (addr == invalidAddr)
        return;
    HotAddrRow &row = rowFor(addr, partition);
    row.stallDepthSum += depth;
    row.stallDepthCount += 1;
}

std::vector<HotAddrRow>
ConflictProfiler::topN(std::size_t n) const
{
    std::vector<HotAddrRow> rows;
    rows.reserve(table.size());
    for (const auto &[addr, row] : table)
        rows.push_back(row);
    // Deterministic order: by total desc, then address asc.
    std::sort(rows.begin(), rows.end(),
              [](const HotAddrRow &a, const HotAddrRow &b) {
                  return a.total != b.total ? a.total > b.total
                                            : a.addr < b.addr;
              });
    if (rows.size() > n)
        rows.resize(n);
    return rows;
}

} // namespace getm
