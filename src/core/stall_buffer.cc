#include "core/stall_buffer.hh"

#include "common/log.hh"

namespace getm {

StallBuffer::StallBuffer(std::string name, const Config &config)
    : cfg(config), lines(config.lines), statSet(std::move(name)),
      stFullRejections(statSet.addCounter("full_rejections")),
      stEnqueues(statSet.addCounter("enqueues")),
      stOccupancy(statSet.addMaximum("occupancy")),
      stWaitersPerAddr(statSet.addAverage("waiters_per_addr")),
      stWaitersPerAddrHist(statSet.addHistogram("waiters_per_addr_hist"))
{
    for (Line &line : lines)
        line.entries.reserve(cfg.entriesPerLine);
}

StallBuffer::Line *
StallBuffer::findLine(Addr key)
{
    for (Line &line : lines)
        if (line.key == key && !line.entries.empty())
            return &line;
    return nullptr;
}

const StallBuffer::Line *
StallBuffer::findLine(Addr key) const
{
    for (const Line &line : lines)
        if (line.key == key && !line.entries.empty())
            return &line;
    return nullptr;
}

bool
StallBuffer::enqueue(Addr key, MemMsg &&msg, Cycle now)
{
    Line *line = findLine(key);
    if (!line) {
        for (Line &candidate : lines) {
            if (candidate.entries.empty()) {
                line = &candidate;
                line->key = key;
                break;
            }
        }
    }
    if (!line || line->entries.size() >= cfg.entriesPerLine) {
        stFullRejections.add();
        return false;
    }
    line->entries.push_back(Waiter{std::move(msg), now});
    stEnqueues.add();
    stOccupancy.track(occupancy());
    stWaitersPerAddr.addSample(
        static_cast<double>(line->entries.size()));
    stWaitersPerAddrHist.record(line->entries.size());
    return true;
}

bool
StallBuffer::hasWaiters(Addr key) const
{
    return findLine(key) != nullptr;
}

MemMsg
StallBuffer::popOldest(Addr key, Cycle *enqueued_at)
{
    Line *line = findLine(key);
    if (!line)
        panic("popOldest on empty stall-buffer line");
    std::size_t best = 0;
    for (std::size_t i = 1; i < line->entries.size(); ++i)
        if (line->entries[i].msg.ts < line->entries[best].msg.ts)
            best = i;
    MemMsg msg = std::move(line->entries[best].msg);
    if (enqueued_at)
        *enqueued_at = line->entries[best].enqueuedAt;
    line->entries.erase(line->entries.begin() +
                        static_cast<std::ptrdiff_t>(best));
    return msg;
}

const MemMsg *
StallBuffer::peekOldest(Addr key) const
{
    const Line *line = findLine(key);
    if (!line)
        return nullptr;
    std::size_t best = 0;
    for (std::size_t i = 1; i < line->entries.size(); ++i)
        if (line->entries[i].msg.ts < line->entries[best].msg.ts)
            best = i;
    return &line->entries[best].msg;
}

void
StallBuffer::forEachWaiter(
    const std::function<void(const MemMsg &, Cycle)> &visit) const
{
    for (const Line &line : lines)
        for (const Waiter &waiter : line.entries)
            visit(waiter.msg, waiter.enqueuedAt);
}

unsigned
StallBuffer::occupancy() const
{
    unsigned total = 0;
    for (const Line &line : lines)
        total += static_cast<unsigned>(line.entries.size());
    return total;
}

unsigned
StallBuffer::waitersOn(Addr key) const
{
    const Line *line = findLine(key);
    return line ? static_cast<unsigned>(line->entries.size()) : 0;
}

void
StallBuffer::flush()
{
    for (Line &line : lines)
        line.entries.clear();
}

} // namespace getm
