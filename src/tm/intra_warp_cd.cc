#include "tm/intra_warp_cd.hh"

#include <bit>

namespace getm {

void
IntraWarpCd::reindex(std::size_t capacity)
{
    cells.assign(capacity, emptySlot);
    shift = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    const std::size_t mask = capacity - 1;
    for (std::size_t s = 0; s < entries.size(); ++s) {
        std::size_t i = home(entries[s].addr);
        while (cells[i] != emptySlot)
            i = (i + 1) & mask;
        cells[i] = static_cast<std::uint32_t>(s);
        entries[s].cell = static_cast<std::uint32_t>(i);
    }
}

LaneMask
IntraWarpCd::resolveAtCommit(const ThreadTxLog *logs, unsigned warp_size,
                             LaneMask candidates)
{
    // Two-phase parallel resolution modelled functionally: accept lanes in
    // index order; a lane survives if none of its accesses conflict with
    // a previously accepted lane's accesses. The table is a per-thread
    // scratch reused across commits (getm-sweep --jobs runs several
    // simulations at once, one per host thread).
    thread_local IntraWarpCd accepted;
    accepted.clear();
    LaneMask survivors = 0;

    for (LaneId lane = 0; lane < warp_size; ++lane) {
        if (!(candidates & (1u << lane)))
            continue;
        const ThreadTxLog &log = logs[lane];
        bool conflict = false;
        for (const LogEntry &entry : log.readLog()) {
            const Owners *owners = accepted.find(entry.addr);
            if (owners && owners->writers) {
                conflict = true;
                break;
            }
        }
        if (!conflict) {
            for (const LogEntry &entry : log.writeLog()) {
                const Owners *owners = accepted.find(entry.addr);
                if (owners && (owners->readers || owners->writers)) {
                    conflict = true;
                    break;
                }
            }
        }
        if (conflict)
            continue;
        survivors |= 1u << lane;
        for (const LogEntry &entry : log.readLog())
            accepted.claim(entry.addr).readers |= 1u << lane;
        for (const LogEntry &entry : log.writeLog())
            accepted.claim(entry.addr).writers |= 1u << lane;
    }
    return survivors;
}

} // namespace getm
