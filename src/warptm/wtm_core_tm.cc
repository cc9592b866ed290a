#include "warptm/wtm_core_tm.hh"

#include <bit>

#include "check/fault.hh"
#include "ckpt/serial.hh"
#include "common/log.hh"
#include "obs/tx_events.hh"
#include "tm/intra_warp_cd.hh"

namespace getm {

void
WtmGpuTm::commitPhase(Cycle now, WakeRefresh &refresh)
{
    for (WtmCoreTm *engine : elEngines)
        engine->runCommitPhase(now, refresh);
}

WtmCoreTm::WtmCoreTm(SimtCore &core_, WtmGpuTm &gpu_, WtmMode mode_)
    : core(core_), gpu(gpu_), mode(mode_),
      slotState(core_.config().maxWarps),
      stElEagerAborts(core_.stats().addCounter("wtm_el_eager_aborts")),
      stLoadReqs(core_.stats().addCounter("wtm_load_reqs")),
      stValidationAborts(core_.stats().addCounter("wtm_validation_aborts")),
      stIntraWarpAborts(core_.stats().addCounter("wtm_intra_warp_aborts")),
      stSilentCommits(core_.stats().addCounter("wtm_silent_commits")),
      stValidations(core_.stats().addCounter("wtm_validations"))
{
    if (mode == WtmMode::EagerLazy)
        gpu.addCommitPhase(*this);
}

void
WtmCoreTm::onTxBegin(Warp &warp)
{
    beginAttempt(warp);
}

void
WtmCoreTm::beginAttempt(Warp &warp)
{
    SlotState &st = slotState[warp.slot];
    st.startCycle = core.now();
    st.tcdStale = 0;
    st.validationFailed = 0;
    st.pendingValidations = 0;
    st.pendingAcks = 0;
    st.commitIssued = false;
}

void
WtmCoreTm::retire(Warp &warp, LaneMask committed)
{
    core.retireTxAttempt(warp, committed);
    if (warp.inTx)
        beginAttempt(warp);
    else
        endTransaction(warp);
}

LaneMask
WtmCoreTm::instantValidate(const Warp &warp, LaneMask lanes,
                           Addr *conflict_addr) const
{
    LaneMask failed = 0;
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(lanes & (1u << lane)))
            continue;
        for (const LogEntry &entry : warp.logs[lane].readLog()) {
            if (core.memory().read(entry.addr) != entry.value) {
                FaultInjector *fi = core.faults();
                if (fi && fi->fire(FaultKind::SkipValidation))
                    continue; // injected: ignore the failed entry
                failed |= 1u << lane;
                if (conflict_addr && *conflict_addr == invalidAddr)
                    *conflict_addr = core.granuleOf(entry.addr);
                // The committed writer is long gone by the time value
                // validation sees the mismatch, so no aborter is known.
                core.events().conflict(
                    warp.gwid, invalidWarp, AbortReason::EagerValidation,
                    core.granuleOf(entry.addr),
                    core.addressMap().partitionOf(entry.addr), core.now());
                break;
            }
        }
    }
    return failed;
}

void
WtmCoreTm::txAccess(Warp &warp, bool is_store, const LaneAddrs &addrs,
                    const LaneVals &vals, LaneMask lanes, std::uint8_t rd)
{
    (void)rd;
    if (mode == WtmMode::EagerLazy) {
        // Idealized per-access validation (Sec. III): zero latency and
        // traffic; conflicting lanes abort immediately.
        Addr conflict = invalidAddr;
        const LaneMask failed = instantValidate(warp, lanes, &conflict);
        if (failed) {
            stElEagerAborts.add(
                static_cast<std::uint64_t>(std::popcount(failed)));
            core.abortTxLanes(warp, failed, AbortReason::EagerValidation,
                              conflict);
            lanes &= ~failed;
            if (!lanes)
                return;
        }
    }

    LaneMask remote = 0;
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(lanes & (1u << lane)))
            continue;
        const Addr addr = addrs[lane];
        if (is_store) {
            warp.logs[lane].addWrite(addr, vals[lane]);
        } else if (auto own = warp.logs[lane].findWrite(addr)) {
            // Forwarded from the write log; not validated against memory.
            core.writebackLane(warp, lane, *own);
        } else {
            remote |= 1u << lane;
        }
    }

    // Transactional loads fetch from the LLC and probe the TCD table.
    const auto granule_of = [this](Addr addr) { return core.granuleOf(addr); };
    forEachLaneGroup(remote, addrs, granule_of,
                     [&](Addr granule, LaneMask group) {
        MemMsg msg;
        msg.kind = MsgKind::WtmTxLoad;
        msg.addr = granule;
        msg.wid = warp.gwid;
        msg.warpSlot = warp.slot;
        msg.ops.reserve(std::popcount(group));
        for (LaneMask rest = group; rest; rest &= rest - 1) {
            const auto lane =
                static_cast<std::uint8_t>(std::countr_zero(rest));
            msg.ops.push_back({lane, addrs[lane], 0, 0});
        }
        msg.bytes = 8 + 4 * static_cast<unsigned>(msg.ops.size());
        core.events().accessIssue(warp.gwid, granule, /*store=*/false,
                                  core.now());
        core.sendToPartition(std::move(msg));
        ++warp.outstanding;
        stLoadReqs.add();
    });
}

void
WtmCoreTm::onResponse(Warp &warp, const MemMsg &msg)
{
    switch (msg.kind) {
      case MsgKind::WtmLoadResp: {
        core.events().accessResponse(warp.gwid, msg.addr, core.now());
        SlotState &st = slotState[warp.slot];
        for (const LaneOp &op : msg.ops) {
            if (warp.abortedMask & (1u << op.lane))
                continue;
            core.writebackLane(warp, op.lane, op.value);
            warp.logs[op.lane].addRead(op.addr, op.value);
            noteRead(warp, op.lane, op.addr);
            // TCD: a lane stays silently committable only while every
            // location it read was last written before the tx started.
            if (static_cast<Cycle>(op.aux) >= st.startCycle)
                st.tcdStale |= 1u << op.lane;
        }
        core.completeBlockingResponse(warp);
        break;
      }

      case MsgKind::WtmValidateResp: {
        SlotState &st = slotState[warp.slot];
        for (const LaneOp &op : msg.ops)
            st.validationFailed |= 1u << op.lane;
        if (st.pendingValidations == 0)
            panic("unexpected validation response");
        if (--st.pendingValidations == 0) {
            // Second round trip: send the commit/abort decision.
            const LaneMask pass = st.validating & ~st.validationFailed;
            for (PartitionId part : st.sliceParts) {
                MemMsg decision;
                decision.kind = MsgKind::WtmDecision;
                decision.wid = warp.gwid;
                decision.warpSlot = warp.slot;
                decision.txId = st.commitId;
                decision.ts = pass;
                decision.flag = pass != 0;
                decision.partition = part;
                decision.bytes = 8;
                decision.addr = 0;
                decision.core = core.id();
                core.sendToPartitionDirect(std::move(decision));
                ++st.pendingAcks;
            }
            if (st.pendingAcks == 0)
                panic("validation with no slice partitions");
        }
        break;
      }

      case MsgKind::WtmCommitAck: {
        SlotState &st = slotState[warp.slot];
        if (st.pendingAcks == 0)
            panic("unexpected commit ack");
        if (--st.pendingAcks == 0) {
            const LaneMask committed =
                st.silent | (st.validating & ~st.validationFailed);
            if (st.validationFailed) {
                stValidationAborts.add(static_cast<std::uint64_t>(
                    std::popcount(st.validationFailed)));
                // The conflicting addresses were reported partition-side
                // during validation; only the reason is known here.
                core.abortTxLanes(warp, st.validationFailed,
                                  AbortReason::Validation, invalidAddr);
            }
            st.sliceParts.clear();
            retire(warp, committed);
        }
        break;
      }

      default:
        panic("WarpTM core engine received unexpected message kind %u",
              static_cast<unsigned>(msg.kind));
    }
}

void
WtmCoreTm::txCommitPoint(Warp &warp)
{
    if (mode == WtmMode::EagerLazy) {
        // Park for the commit micro-phase: the final instant
        // validation reads shared memory and the commit applies the
        // write log to it, both after every core ticked this cycle
        // (WtmGpuTm::commitPhase). CommitWait parks the warp
        // so the scheduler cannot re-issue it this cycle.
        deferredCommits.push_back(warp.slot);
        core.changeState(warp, WarpState::CommitWait);
        return;
    }
    finishCommitPoint(warp);
}

void
WtmCoreTm::runCommitPhase(Cycle now, WakeRefresh &refresh)
{
    // The event loop lets idle cores' clocks lag; commits use global time.
    core.syncClock(now);
    if (deferredCommits.empty())
        return;
    // finishCommitPoint can abort lanes, which may re-enter the commit
    // path; swap the queue so such re-entries land in the next batch.
    std::vector<std::uint32_t> batch;
    batch.swap(deferredCommits);
    for (const std::uint32_t slot : batch)
        finishCommitPoint(core.allWarps()[slot]);
    refresh.cores.push_back(core.id());
}

void
WtmCoreTm::finishCommitPoint(Warp &warp)
{
    const int txi = warp.transactionIndex();
    if (txi < 0)
        panic("WarpTM commit point without a transaction");

    if (mode == WtmMode::EagerLazy) {
        // Final instant validation keeps the emulation correct: a
        // conflicting commit may have landed since the last access.
        Addr conflict = invalidAddr;
        const LaneMask failed =
            instantValidate(warp, warp.stack[txi].mask, &conflict);
        if (failed) {
            stElEagerAborts.add(
                static_cast<std::uint64_t>(std::popcount(failed)));
            core.abortTxLanes(warp, failed, AbortReason::EagerValidation,
                              conflict);
        }
    }

    LaneMask committers = warp.stack[txi].mask;

    // Intra-warp conflict resolution (two-phase parallel, Sec. V-A).
    const LaneMask survivors = IntraWarpCd::resolveAtCommit(
        warp.logs.data(), warpSize, committers);
    const LaneMask losers = committers & ~survivors;
    if (losers) {
        stIntraWarpAborts.add(
            static_cast<std::uint64_t>(std::popcount(losers)));
        core.abortTxLanes(warp, losers, AbortReason::IntraWarp,
                          invalidAddr);
    }

    // Read-only lanes that pass the temporal conflict check commit
    // silently, skipping value-based validation entirely.
    SlotState &st = slotState[warp.slot];
    LaneMask silent = 0;
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        const LaneMask bit = 1u << lane;
        if (!(survivors & bit))
            continue;
        if (warp.logs[lane].readOnly() &&
            (!(st.tcdStale & bit) || mode == WtmMode::EagerLazy))
            silent |= bit;
    }
    st.silent = silent;
    st.validating = survivors & ~silent;
    st.validationFailed = 0;
    st.pendingValidations = 0;
    st.pendingAcks = 0;

    if (!st.validating) {
        stSilentCommits.add(
            static_cast<std::uint64_t>(std::popcount(silent)));
        retire(warp, survivors);
        return;
    }

    if (maybePause(warp))
        return; // EAPG: resumed via startValidation() later.

    startValidation(warp);
}

void
WtmCoreTm::startValidation(Warp &warp)
{
    SlotState &st = slotState[warp.slot];
    st.commitIssued = true;

    // Build per-partition slices of the surviving lanes' logs.
    const AddressMap &addr_map = core.addressMap();
    const unsigned parts = addr_map.numPartitions();
    slices.build(parts, [&](auto &&emit) {
        for (LaneId lane = 0; lane < warpSize; ++lane) {
            if (!(st.validating & (1u << lane)))
                continue;
            const auto op_lane = static_cast<std::uint8_t>(lane);
            if (mode == WtmMode::LazyLazy) {
                for (const LogEntry &entry : warp.logs[lane].readLog())
                    emit(addr_map.partitionOf(entry.addr),
                         LaneOp{op_lane, entry.addr, entry.value, 0});
            }
            for (const LogEntry &entry : warp.logs[lane].writeLog())
                emit(addr_map.partitionOf(entry.addr),
                     LaneOp{op_lane, entry.addr, entry.value, 1});
        }
    });

    st.sliceParts.clear();

    if (mode == WtmMode::EagerLazy) {
        // Idealized emulation: the write set becomes visible atomically
        // with the (instant) final validation, so the functional apply
        // happens here; the write-log messages and acks model the
        // single-round-trip commit timing only.
        for (PartitionId part = 0; part < parts; ++part) {
            if (!slices.has(part))
                continue;
            for (const LaneOp &op : slices[part].ops) {
                FaultInjector *fi = core.faults();
                if (fi && fi->fire(FaultKind::DropCommitWrite))
                    continue; // injected lost write
                std::uint32_t value = op.value;
                if (fi && fi->fire(FaultKind::CorruptCommit))
                    value ^= 1u;
                core.memory().write(op.addr, value);
                core.events().writeApplied(warp.gwid, op.lane, op.addr,
                                           value);
            }
        }
        for (PartitionId part = 0; part < parts; ++part) {
            if (!slices.has(part))
                continue;
            MemMsg &msg = slices[part];
            msg.kind = MsgKind::WtmValidate;
            msg.flag = true; // eager-lazy: apply immediately
            msg.wid = warp.gwid;
            msg.warpSlot = warp.slot;
            msg.txId = 0;
            msg.partition = part;
            msg.core = core.id();
            msg.addr = 0;
            msg.bytes = 8 + 12 * static_cast<unsigned>(msg.ops.size());
            core.sendToPartitionDirect(std::move(msg));
            ++st.pendingAcks;
        }
        if (st.pendingAcks == 0) {
            // Writes all forwarded? (Cannot happen: validating lanes have
            // writes by construction.) Retire defensively.
            retire(warp, st.silent | st.validating);
            return;
        }
        core.changeState(warp, WarpState::CommitWait);
        return;
    }

    // Lazy-lazy: two round trips in global commit order. Every partition
    // receives either its slice or a skip so ids stay contiguous.
    st.commitId = gpu.allocCommitId();
    for (PartitionId part = 0; part < parts; ++part) {
        MemMsg msg;
        if (slices.has(part)) {
            msg = std::move(slices[part]);
            msg.kind = MsgKind::WtmValidate;
            msg.flag = false;
            msg.bytes = 8 + 12 * static_cast<unsigned>(msg.ops.size());
            st.sliceParts.push_back(part);
            ++st.pendingValidations;
        } else {
            msg.kind = MsgKind::WtmSkip;
            msg.bytes = 8;
        }
        msg.wid = warp.gwid;
        msg.warpSlot = warp.slot;
        msg.txId = st.commitId;
        msg.partition = part;
        msg.core = core.id();
        msg.addr = 0;
        core.sendToPartitionDirect(std::move(msg));
    }
    stValidations.add();
    core.changeState(warp, WarpState::CommitWait);
}

void
WtmCoreTm::ckptSave(ckpt::Writer &ar)
{
    ar(slotState, deferredCommits);
}

void
WtmCoreTm::ckptLoad(ckpt::Reader &ar)
{
    ar(slotState, deferredCommits);
}

} // namespace getm
