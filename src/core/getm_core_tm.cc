#include "core/getm_core_tm.hh"

#include <algorithm>
#include <bit>

#include "common/debug.hh"
#include "common/log.hh"
#include "common/sim_error.hh"
#include "gpu/run_result.hh"
#include "obs/tx_events.hh"

namespace getm {

void
GetmCoreTm::onTxBegin(Warp &warp)
{
    SlotState &st = slots[warp.slot];
    st.granted.clearAll();
    st.iwcd.clear();
    // Re-stamp the persisted slot timestamp with this warp's id: fresh
    // slots start at clock 0, and a relaunched slot may now host a
    // different warp (uniqueness is per *active* warp id).
    st.warpts = composeTs(tsClock(st.warpts), warp.gwid);
    st.maxObservedTs = st.warpts;
}

void
GetmCoreTm::abortLanes(Warp &warp, LaneMask lanes, AbortReason reason,
                       Addr addr)
{
    lanes &= ~warp.abortedMask;
    core.abortTxLanes(warp, lanes, reason, addr);
    // If the abort fired the commit point, the table is already empty.
    IntraWarpCd &iwcd = slots[warp.slot].iwcd;
    for (; lanes; lanes &= lanes - 1)
        iwcd.dropLane(static_cast<LaneId>(std::countr_zero(lanes)));
}

void
GetmCoreTm::txAccess(Warp &warp, bool is_store, const LaneAddrs &addrs,
                     const LaneVals &vals, LaneMask lanes, std::uint8_t rd)
{
    (void)rd;
    SlotState &st = slots[warp.slot];
    LaneMask intra_aborts = 0;
    LaneMask remote = 0;
    Addr intra_addr = invalidAddr;

    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(lanes & (1u << lane)))
            continue;
        const Addr addr = addrs[lane];
        // Eager intra-warp conflict detection against sibling lanes.
        // The aborting lane's own claims are released immediately so a
        // surviving lane always exists (otherwise two lanes with
        // symmetric access patterns would abort each other forever).
        if (st.iwcd.checkAndRecord(lane, addr, is_store)) {
            intra_aborts |= 1u << lane;
            if (intra_addr == invalidAddr)
                intra_addr = core.granuleOf(addr);
            core.events().conflict(warp.gwid, warp.gwid,
                                   AbortReason::IntraWarp,
                                   core.granuleOf(addr),
                                   core.addressMap().partitionOf(addr),
                                   core.now());
            st.iwcd.dropLane(lane);
            stIntraWarpAborts.add();
            continue;
        }
        if (is_store) {
            warp.logs[lane].addWrite(addr, vals[lane]);
            remote |= 1u << lane;
        } else {
            if (auto own = warp.logs[lane].findWrite(addr)) {
                // Read-own-write: satisfied from the local redo log; the
                // granule is already reserved by this warp.
                core.writebackLane(warp, lane, *own);
                warp.logs[lane].addRead(addr, *own);
            } else {
                warp.logs[lane].addRead(addr, 0);
                remote |= 1u << lane;
            }
        }
    }

    if (intra_aborts)
        abortLanes(warp, intra_aborts, AbortReason::IntraWarp, intra_addr);

    // Group remote accesses by metadata granule; one VU request each.
    const auto granule_of = [this](Addr addr) { return core.granuleOf(addr); };
    forEachLaneGroup(remote, addrs, granule_of,
                     [&](Addr granule, LaneMask group) {
        MemMsg msg;
        msg.kind = is_store ? MsgKind::GetmTxStore : MsgKind::GetmTxLoad;
        msg.addr = granule;
        msg.wid = warp.gwid;
        msg.warpSlot = warp.slot;
        msg.ts = st.warpts;
        msg.ops.reserve(std::popcount(group));
        for (LaneMask rest = group; rest; rest &= rest - 1) {
            const auto lane =
                static_cast<std::uint8_t>(std::countr_zero(rest));
            if (is_store)
                msg.ops.push_back({lane, granule, 0, 1});
            else
                msg.ops.push_back({lane, addrs[lane], 0, 0});
        }
        msg.bytes = 12; // address + warpts + warp id
        core.events().accessIssue(warp.gwid, granule, is_store,
                                  core.now());
        core.sendToPartition(std::move(msg));
        if (is_store) {
            ++warp.outstandingTxStores;
            stStoreReqs.add();
        } else {
            ++warp.outstanding;
            stLoadReqs.add();
        }
    });
}

void
GetmCoreTm::onResponse(Warp &warp, const MemMsg &msg)
{
    SlotState &st = slots[warp.slot];
    if (msg.ts > st.maxObservedTs)
        st.maxObservedTs = msg.ts;

    LaneMask lanes = 0;
    for (const LaneOp &op : msg.ops)
        lanes |= 1u << op.lane;

    core.events().accessResponse(warp.gwid, msg.addr, core.now());

    switch (msg.kind) {
      case MsgKind::GetmLoadResp:
        if (msg.outcome == GetmOutcome::Success) {
            for (const LaneOp &op : msg.ops)
                if (!(warp.abortedMask & (1u << op.lane)))
                    core.writebackLane(warp, op.lane, op.value);
        } else {
            // The validation unit decided the reason; it rides back in
            // the response.
            abortLanes(warp, lanes, static_cast<AbortReason>(msg.reason),
                       msg.addr);
        }
        core.completeBlockingResponse(warp);
        break;
      case MsgKind::GetmStoreResp:
        if (msg.outcome == GetmOutcome::Success) {
            for (const LaneOp &op : msg.ops)
                st.granted[op.lane][msg.addr] += op.aux;
        } else {
            abortLanes(warp, lanes, static_cast<AbortReason>(msg.reason),
                       msg.addr);
        }
        core.completeTxStoreAck(warp);
        break;
      default:
        panic("GETM core engine received unexpected message kind %u",
              static_cast<unsigned>(msg.kind));
    }
}

void
GetmCoreTm::txCommitPoint(Warp &warp)
{
    const int txi = warp.transactionIndex();
    if (txi < 0)
        panic("GETM commit point without a transaction");
    const LaneMask committers = warp.stack[txi].mask;
    SlotState &st = slots[warp.slot];

    DTRACE(Core,
           "[core] commitpoint wid=%u ts=%llu committers=%08x "
           "aborted=%08x",
           warp.gwid, static_cast<unsigned long long>(st.warpts),
           committers, warp.abortedMask);

    // Serialize the write log (committing lanes) and the cleanup log
    // (aborted lanes' granted reservations) into one chunk per
    // partition: every commit chunk in partition order, then every
    // cleanup chunk.
    const AddressMap &addr_map = core.addressMap();
    const unsigned parts = addr_map.numPartitions();
    for (const bool commit : {true, false}) {
        chunks.build(parts, [&](auto &&emit) {
            for (LaneId lane = 0; lane < warpSize; ++lane) {
                const LaneMask bit = 1u << lane;
                const auto op_lane = static_cast<std::uint8_t>(lane);
                if (commit) {
                    if (!(committers & bit))
                        continue;
                    for (const LogEntry &entry : warp.logs[lane].writeLog())
                        emit(addr_map.partitionOf(entry.addr),
                             LaneOp{op_lane, entry.addr, entry.value,
                                    entry.count});
                } else if (!(committers & bit) &&
                           (warp.abortedMask & bit)) {
                    // The walk follows the lane map's iteration order,
                    // which is simulated behaviour: cleanup op order
                    // sets the busy offsets releaseWaiters gives the
                    // stalled requests (GetmBehavior pins it).
                    for (const auto &[granule, count] :
                         st.granted.forLane(lane))
                        emit(addr_map.partitionOf(granule),
                             LaneOp{op_lane, granule, 0, count});
                }
            }
        });
        for (PartitionId part = 0; part < parts; ++part) {
            if (!chunks.has(part))
                continue;
            MemMsg &msg = chunks[part];
            msg.kind = MsgKind::GetmCommit;
            msg.wid = warp.gwid;
            msg.warpSlot = warp.slot;
            msg.flag = commit;
            // Commit entries carry <addr, data, count>; abort entries
            // carry <addr, count> only (paper Sec. IV-A).
            msg.bytes = 8 + static_cast<unsigned>(msg.ops.size()) *
                                (commit ? 12 : 8);
            // Routed by its first entry's address.
            msg.addr = msg.ops.front().addr;
            core.sendToPartition(std::move(msg));
            (commit ? stCommitMsgs : stCleanupMsgs).add();
        }
    }

    // Eager conflict detection guarantees success: the commit is off the
    // critical path and the warp retires (or retries aborted lanes) now.
    core.retireTxAttempt(warp, committers);
    st.granted.clearAll();
    st.iwcd.clear();
    // The retry, or the slot's next transaction, runs logically after
    // every timestamp this attempt observed.
    st.warpts = composeTs(tsClock(st.maxObservedTs) + 1, warp.gwid);
    st.maxObservedTs = st.warpts;
}

bool
GetmGpuTm::endCycle(Cycle now, WakeRefresh &refresh)
{
    if (threshold == ~static_cast<LogicalTs>(0))
        return false;
    // The event loop skips not-due cores, whose clocks would otherwise
    // lag the rollover's forced aborts.
    for (GetmCoreTm *engine : engines)
        engine->core.syncClock(now);
    // Both transitions change cores (freeze/thaw, forced aborts) and
    // partitions (flush, pipeline stall) outside their tick().
    if (pending ? completeRollover(now) : beginRollover(now))
        refresh.all = true;
    return pending;
}

bool
GetmGpuTm::beginRollover(Cycle now)
{
    LogicalTs max_ts = 0;
    for (GetmPartitionUnit *unit : units)
        max_ts = std::max(max_ts, unit->maxTimestamp());
    // Timestamps embed the warp id below tsWarpIdBits; the threshold is
    // expressed in logical-clock epochs.
    if (tsClock(max_ts) < threshold)
        return false;
    // Freeze transactional progress and force all in-flight attempts to
    // abort and release their reservations.
    pending = true;
    for (GetmCoreTm *engine : engines) {
        engine->core.setTxFrozen(true);
        for (Warp &warp : engine->core.allWarps()) {
            if (!warp.inTx)
                continue;
            const int txi = warp.transactionIndex();
            if (txi >= 0 && warp.stack[txi].mask)
                engine->abortLanes(warp, warp.stack[txi].mask,
                                   AbortReason::Rollover, invalidAddr);
        }
    }
    inform("GETM timestamp rollover initiated at cycle %llu",
           static_cast<unsigned long long>(now));
    return true;
}

bool
GetmGpuTm::completeRollover(Cycle now)
{
    for (GetmCoreTm *engine : engines)
        if (!engine->core.quiescent())
            return false;
    for (GetmPartitionUnit *unit : units)
        if (unit->metadata().lockedCount() ||
            unit->stallBuffer().occupancy())
            return false;

    for (GetmPartitionUnit *unit : units)
        unit->flushForRollover(now, penalty);
    // Each slot restarts at clock 0 stamped with its warp's id: a retry
    // pending at the rollover never passes onTxBegin to be re-stamped,
    // and equal timestamps would break GETM's total order. A slot that
    // never hosted a warp keeps a raw 0 for onTxBegin to stamp.
    for (GetmCoreTm *engine : engines) {
        for (const Warp &warp : engine->core.allWarps()) {
            GetmCoreTm::SlotState &st = engine->slots[warp.slot];
            st.warpts = st.maxObservedTs =
                warp.gwid == invalidWarp ? 0 : composeTs(0, warp.gwid);
        }
        engine->core.setTxFrozen(false);
    }
    pending = false;
    ++rollovers;
    inform("GETM timestamp rollover completed at cycle %llu",
           static_cast<unsigned long long>(now));
    return true;
}

void
GetmGpuTm::diagnose(SimDiagnostic &diag)
{
    for (std::size_t p = 0; p < units.size(); ++p) {
        SimDiagnostic::PartitionRow row;
        row.partition = static_cast<unsigned>(p);
        row.metaOccupancy = units[p]->metadata().occupancy();
        row.metaLocked = units[p]->metadata().lockedCount();
        row.stallOccupancy = units[p]->stallBuffer().occupancy();
        diag.partitions.push_back(row);
    }
}

void
GetmGpuTm::finishRun(RunResult &result)
{
    result.rollovers = rollovers;
    // Report the logical-clock component: raw timestamps embed the warp
    // id in their low tsWarpIdBits for uniqueness.
    for (GetmPartitionUnit *unit : units) {
        result.maxLogicalTs =
            std::max(result.maxLogicalTs, tsClock(unit->maxTimestamp()));
        result.stats.merge(unit->metadata().stats());
        result.stats.merge(unit->stallBuffer().stats());
    }
}

} // namespace getm
