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
    // Sorted once here, so every core merges the slice into its copy
    // of the write set without sorting it.
    std::sort(proto.ops.begin(), proto.ops.end(),
              [](const LaneOp &a, const LaneOp &b) {
                  return a.addr < b.addr;
              });
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

EapgCoreTm::EapgCoreTm(SimtCore &core_, WtmGpuTm &gpu_)
    : WtmCoreTm(core_, gpu_, WtmMode::LazyLazy),
      running((core_.config().maxWarps + 63) / 64),
      filterOf(core_.config().maxWarps, noFilters),
      stEarlyAborts(core_.stats().addCounter("eapg_early_aborts")),
      stPauses(core_.stats().addCounter("eapg_pauses"))
{
}

void
EapgCoreTm::beginAttempt(Warp &warp)
{
    WtmCoreTm::beginAttempt(warp);
    setRunning(warp.slot, true);
    std::uint32_t &index = filterOf[warp.slot];
    if (index == noFilters) {
        if (freeFilters.empty()) {
            index = static_cast<std::uint32_t>(filterPool.size());
            filterPool.emplace_back();
        } else {
            index = freeFilters.back();
            freeFilters.pop_back();
        }
    }
    filterPool[index] = {};
}

void
EapgCoreTm::endTransaction(Warp &warp)
{
    freeFilters.push_back(filterOf[warp.slot]);
    filterOf[warp.slot] = noFilters;
}

void
EapgCoreTm::noteRead(Warp &warp, LaneId lane, Addr addr)
{
    filtersOf(warp).add(lane, addr);
}

void
EapgCoreTm::txCommitPoint(Warp &warp)
{
    setRunning(warp.slot, false);
    WtmCoreTm::txCommitPoint(warp);
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
            if (!warp.inTx || slotState[slot].commitIssued)
                continue;
            if (maybePause(warp))
                continue; // still conflicting; re-queued
            startValidation(warp);
        }
        return;
    }

    // Conflict-set broadcast: early-abort running (not yet committing)
    // transactions that read a location the writer is committing, in
    // slot order. Aborting a warp changes the running bits of that
    // warp's slot only, so each bitset word is read once.
    EapgWriteSet &write_set = remoteFor(msg.txId);
    write_set.add(msg.ops);
    for (std::size_t word = 0; word < running.size(); ++word) {
        for (std::uint64_t bits = running[word]; bits; bits &= bits - 1) {
            const auto slot = static_cast<std::uint32_t>(
                word * 64 + static_cast<unsigned>(std::countr_zero(bits)));
            checkRunning(core.allWarps()[slot], write_set, msg.wid);
        }
    }
}

void
EapgCoreTm::checkRunning(Warp &warp, const EapgWriteSet &set,
                         GlobalWarpId writer)
{
    // Only lanes whose read filter meets the set's can hold a hit.
    LaneMask lanes = filtersOf(warp).meeting(set.filter);
    if (!lanes)
        return;
    const int txi = warp.transactionIndex();
    if (txi < 0)
        return;
    lanes &= warp.stack[txi].mask;
    LaneMask hit = 0;
    Addr conflict = invalidAddr;
    for (; lanes; lanes &= lanes - 1) {
        const auto lane = static_cast<LaneId>(std::countr_zero(lanes));
        const LogEntry *entry = set.firstHit(warp.logs[lane].readLog());
        if (!entry)
            continue;
        hit |= 1u << lane;
        const Addr granule = core.granuleOf(entry->addr);
        if (conflict == invalidAddr)
            conflict = granule;
        core.events().conflict(warp.gwid, writer, AbortReason::EarlyAbort,
                               granule,
                               core.addressMap().partitionOf(entry->addr),
                               core.now());
    }
    if (hit) {
        stEarlyAborts.add(static_cast<std::uint64_t>(std::popcount(hit)));
        core.abortTxLanes(warp, hit, AbortReason::EarlyAbort, conflict);
    }
}

bool
EapgCoreTm::maybePause(Warp &warp)
{
    // The union of the live sets' filters screens the logs before each
    // lookup.
    AddrFilter live;
    for (std::size_t i = 0; i < liveRemote; ++i)
        live |= remote[i].filter;
    const auto touches_remote = [&](const std::vector<LogEntry> &log) {
        for (const LogEntry &entry : log) {
            if (!live.mayHold(entry.addr))
                continue;
            for (std::size_t i = 0; i < liveRemote; ++i)
                if (remote[i].contains(entry.addr))
                    return true;
        }
        return false;
    };
    const SlotState &st = slotState[warp.slot];
    const LaneMask lanes = liveRemote ? st.validating | st.silent : 0;
    const LaneMask reads = lanes & filtersOf(warp).meeting(live);
    bool conflict = false;
    for (LaneMask rest = lanes; rest && !conflict; rest &= rest - 1) {
        const auto lane = static_cast<LaneId>(std::countr_zero(rest));
        conflict = ((reads >> lane & 1) &&
                    touches_remote(warp.logs[lane].readLog())) ||
                   touches_remote(warp.logs[lane].writeLog());
    }
    if (!conflict)
        return false;
    if (std::find(paused.begin(), paused.end(), warp.slot) == paused.end())
        paused.push_back(warp.slot);
    stPauses.add();
    core.changeState(warp, WarpState::CommitWait);
    return true;
}

void
EapgWriteSet::add(const OpList &ops)
{
    // The slice arrives sorted; merge it in from the back, so the merge
    // needs no buffer of its own. Words already in the set, or repeated
    // in the slice, are dropped, and [mine, out) is the gap they leave.
    const std::size_t old = addrs.size();
    addrs.resize(old + ops.size());
    auto out = addrs.end();
    auto mine = addrs.begin() + static_cast<std::ptrdiff_t>(old);
    for (auto theirs = ops.end(); theirs != ops.begin();) {
        const Addr addr = (theirs - 1)->addr;
        if (mine != addrs.begin() && *(mine - 1) > addr) {
            *--out = *--mine;
            continue;
        }
        --theirs;
        if ((mine != addrs.begin() && *(mine - 1) == addr) ||
            (out != addrs.end() && *out == addr))
            continue;
        filter.add(addr);
        *--out = addr;
    }
    addrs.erase(mine, out);
}

EapgWriteSet &
EapgCoreTm::remoteFor(std::uint64_t tx_id)
{
    for (std::size_t i = 0; i < liveRemote; ++i)
        if (remote[i].txId == tx_id)
            return remote[i];
    if (liveRemote == remote.size())
        remote.emplace_back();
    EapgWriteSet &fresh = remote[liveRemote++];
    fresh.txId = tx_id;
    fresh.addrs.clear();
    fresh.filter = {};
    return fresh;
}

void
EapgCoreTm::ckptSave(ckpt::Writer &ar)
{
    WtmCoreTm::ckptSave(ar);
    std::vector<EapgWriteSet> live(remote.begin(),
                                   remote.begin() + liveRemote);
    ar(live, paused);
}

void
EapgCoreTm::ckptLoad(ckpt::Reader &ar)
{
    WtmCoreTm::ckptLoad(ar);
    ar(remote, paused);
    liveRemote = remote.size();
    // The running bits and read filters follow from the restored warps.
    std::fill(running.begin(), running.end(), 0);
    std::fill(filterOf.begin(), filterOf.end(), noFilters);
    filterPool.clear();
    freeFilters.clear();
    for (Warp &warp : core.allWarps()) {
        if (!warp.inTx)
            continue;
        setRunning(warp.slot, !warp.commitPointFired);
        filterOf[warp.slot] = static_cast<std::uint32_t>(filterPool.size());
        LaneFilters &filters = filterPool.emplace_back();
        for (LaneId lane = 0; lane < warpSize; ++lane)
            for (const LogEntry &entry : warp.logs[lane].readLog())
                filters.add(lane, entry.addr);
    }
}

} // namespace getm
