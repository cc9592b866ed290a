#include "eapg/eapg.hh"

#include <algorithm>
#include <bit>

#include "ckpt/serial.hh"
#include "obs/tx_events.hh"

// Checking/fault-injection coverage: EAPG adds only the broadcast
// machinery below on top of WarpTM-LL; loads, validation, and commit
// applies all run through the inherited WtmPartitionUnit /
// WtmCoreTm paths, whose TxEvents calls and FaultInjector sites
// (commit-stale-read, corrupt-commit, drop-commit-write) therefore
// cover EAPG with no additional instrumentation here.

namespace getm {

void
EapgPartitionUnit::onValidationStart(const MemMsg &slice, Cycle now)
{
    // Broadcast the writer's conflict set to every core. The message is
    // charged as an idealized 64-bit flit (paper Sec. VI-A); the core's
    // conflict check against it is precise and instantaneous.
    MemMsg proto;
    proto.kind = MsgKind::EapgSignature;
    proto.warpSlot = noWarpSlot;
    proto.partition = ctx.partitionId();
    proto.txId = slice.txId;
    // Carry the committing writer's id so early-aborted readers can
    // name their aborter (genealogy only; msg.bytes stays the idealized
    // 64-bit flit, so the NoC model is untouched).
    proto.wid = slice.wid;
    const auto writes = std::count_if(
        slice.ops.begin(), slice.ops.end(),
        [](const LaneOp &op) { return op.aux != 0; });
    if (writes == 0)
        return;
    proto.ops.reserve(static_cast<std::size_t>(writes));
    for (const LaneOp &op : slice.ops)
        if (op.aux)
            proto.ops.push_back({0, op.addr, 0, 0});
    proto.bytes = 8; // idealized 64-bit message
    // Every core gets its own copy of the list; the last takes proto's.
    const CoreId last = ctx.numCores() - 1;
    for (CoreId core = 0; core < last; ++core) {
        MemMsg bcast = proto;
        bcast.core = core;
        ctx.scheduleToCore(std::move(bcast), now + 1);
    }
    proto.core = last;
    ctx.scheduleToCore(std::move(proto), now + 1);
    stSignatureBroadcasts.add(ctx.numCores());
}

void
EapgPartitionUnit::onDecisionApplied(std::uint64_t tx_id, Cycle now)
{
    for (CoreId core = 0; core < ctx.numCores(); ++core) {
        MemMsg bcast;
        bcast.kind = MsgKind::EapgCommitDone;
        bcast.warpSlot = noWarpSlot;
        bcast.core = core;
        bcast.partition = ctx.partitionId();
        bcast.txId = tx_id;
        bcast.bytes = 8;
        ctx.scheduleToCore(std::move(bcast), now + 1);
    }
    stDoneBroadcasts.add(ctx.numCores());
}

void
EapgCoreTm::onBroadcast(const MemMsg &msg)
{
    if (msg.kind == MsgKind::EapgCommitDone) {
        for (std::size_t i = 0; i < liveRemote; ++i) {
            if (remote[i].txId == msg.txId) {
                // Retire the set; its storage moves past the live range
                // for reuse.
                std::swap(remote[i], remote[--liveRemote]);
                break;
            }
        }
        // Retry paused commits whose conflicts may have cleared.
        retry.clear();
        retry.swap(paused);
        for (std::uint32_t slot : retry) {
            Warp &warp = core.allWarps()[slot];
            if (!warp.inTx || warp.commitIssued)
                continue;
            if (maybePause(warp))
                continue; // still conflicting; re-queued
            startValidation(warp);
        }
        return;
    }

    // Conflict-set broadcast: early-abort running (not yet committing)
    // transactions that read a location the writer is committing.
    RemoteWrites &write_set = remoteFor(msg.txId);
    write_set.add(msg.ops);
    for (Warp &warp : core.allWarps()) {
        if (!warp.inTx || warp.commitPointFired)
            continue;
        const int txi = warp.transactionIndex();
        if (txi < 0)
            continue;
        LaneMask hit = 0;
        Addr conflict = invalidAddr;
        for (LaneId lane = 0; lane < warpSize; ++lane) {
            if (!(warp.stack[txi].mask & (1u << lane)))
                continue;
            for (const LogEntry &entry : warp.logs[lane].readLog()) {
                if (write_set.contains(entry.addr)) {
                    hit |= 1u << lane;
                    if (conflict == invalidAddr)
                        conflict = core.granuleOf(entry.addr);
                    core.events().conflict(
                        warp.gwid, msg.wid, AbortReason::EarlyAbort,
                        core.granuleOf(entry.addr),
                        core.addressMap().partitionOf(entry.addr),
                        core.now());
                    break;
                }
            }
        }
        if (hit) {
            stEarlyAborts.add(
                static_cast<std::uint64_t>(std::popcount(hit)));
            core.abortTxLanes(warp, hit, AbortReason::EarlyAbort,
                              conflict);
        }
    }
}

bool
EapgCoreTm::maybePause(Warp &warp)
{
    const auto touches_remote = [this](const std::vector<LogEntry> &log) {
        for (std::size_t i = 0; i < liveRemote; ++i)
            for (const LogEntry &entry : log)
                if (remote[i].contains(entry.addr))
                    return true;
        return false;
    };
    bool conflict = false;
    for (LaneId lane = 0; lane < warpSize && !conflict; ++lane)
        if ((warp.wtmValidating | warp.wtmSilent) & (1u << lane))
            conflict = touches_remote(warp.logs[lane].readLog()) ||
                       touches_remote(warp.logs[lane].writeLog());
    if (!conflict)
        return false;
    if (std::find(paused.begin(), paused.end(), warp.slot) == paused.end())
        paused.push_back(warp.slot);
    stPauses.add();
    core.changeState(warp, WarpState::CommitWait);
    return true;
}

void
EapgCoreTm::RemoteWrites::add(const OpList &ops)
{
    for (const LaneOp &op : ops) {
        addrs.push_back(op.addr);
        noteInFilter(op.addr);
    }
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
}

EapgCoreTm::RemoteWrites &
EapgCoreTm::remoteFor(std::uint64_t tx_id)
{
    for (std::size_t i = 0; i < liveRemote; ++i)
        if (remote[i].txId == tx_id)
            return remote[i];
    if (liveRemote == remote.size())
        remote.emplace_back();
    RemoteWrites &fresh = remote[liveRemote++];
    fresh.txId = tx_id;
    fresh.addrs.clear();
    fresh.filter = {};
    return fresh;
}

void
EapgCoreTm::ckptSave(ckpt::Writer &ar)
{
    WtmCoreTm::ckptSave(ar);
    std::vector<RemoteWrites> live(remote.begin(),
                                   remote.begin() + liveRemote);
    ar(live, paused);
}

void
EapgCoreTm::ckptLoad(ckpt::Reader &ar)
{
    WtmCoreTm::ckptLoad(ar);
    ar(remote, paused);
    liveRemote = remote.size();
}

} // namespace getm
