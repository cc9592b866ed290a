#include "tm/intra_warp_cd.hh"

namespace getm {

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
