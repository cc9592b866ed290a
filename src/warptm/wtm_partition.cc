#include "warptm/wtm_partition.hh"

#include <algorithm>
#include <bit>

#include "check/fault.hh"
#include "ckpt/serial.hh"
#include "common/log.hh"
#include "obs/tx_events.hh"

namespace getm {

WtmPartitionUnit::WtmPartitionUnit(PartitionContext &context,
                                   const WtmPartitionConfig &config,
                                   std::string name)
    : ctx(context), cfg(config), unitName(std::move(name)),
      tcd(std::max(1u, config.tcdEntries / RecencyBloom::numWays),
          config.seed),
      stElCommits(context.stats().addCounter("wtm_el_commits")),
      stValidations(context.stats().addCounter("wtm_validations")),
      stValidationFails(context.stats().addCounter("wtm_validation_fails")),
      stDecisions(context.stats().addCounter("wtm_decisions"))
{
}

void
WtmPartitionUnit::noteDataWrite(Addr addr, Cycle now)
{
    tcd.insert(addr, now, 0);
}

Cycle
WtmPartitionUnit::handleRequest(MemMsg &&msg, Cycle now)
{
    switch (msg.kind) {
      case MsgKind::WtmTxLoad: {
        MemMsg resp;
        resp.kind = MsgKind::WtmLoadResp;
        resp.core = msg.core;
        resp.partition = ctx.partitionId();
        resp.wid = msg.wid;
        resp.warpSlot = msg.warpSlot;
        resp.addr = msg.addr;
        Cycle extra = 0;
        // The response echoes the request's lanes: take over its buffer.
        resp.ops = std::move(msg.ops);
        for (LaneOp &op : resp.ops) {
            const Cycle last = tcd.lookup(op.addr).first;
            op.value = ctx.memory().read(op.addr);
            ctx.events().readObserved(msg.wid, op.lane, op.addr, op.value);
            op.aux = static_cast<std::uint32_t>(
                std::min<Cycle>(last, 0xffffffffu));
            extra = std::max(extra, ctx.accessLlc(op.addr, false, now));
        }
        resp.bytes = 8 + 8 * static_cast<unsigned>(resp.ops.size());
        const Cycle ready = now + 1 + ctx.llcLatency() + extra;
        ctx.events().accessDecision(msg.wid, msg.addr, ctx.partitionId(),
                                    /*ok=*/true, now, ready);
        ctx.scheduleToCore(std::move(resp), ready);
        return 1;
      }

      case MsgKind::WtmValidate:
        if (msg.flag)
            return applyElSlice(msg, now); // EagerLazy: apply + ack now
        reorder.emplace(msg.txId, std::move(msg));
        tryAdvance(now);
        return 1;

      case MsgKind::WtmSkip:
        reorder.emplace(msg.txId, std::move(msg));
        tryAdvance(now);
        return 1;

      case MsgKind::WtmDecision:
        decisions.emplace(msg.txId, std::move(msg));
        tryAdvance(now);
        return 1;

      default:
        panic("WarpTM partition received unexpected message kind %u",
              static_cast<unsigned>(msg.kind));
    }
}

Cycle
WtmPartitionUnit::applyElSlice(const MemMsg &slice, Cycle now)
{
    const Cycle start = std::max(now, vuFree);
    const Cycle busy = std::max<Cycle>(
        1, (slice.bytes + cfg.commitBytesPerCycle - 1) /
               cfg.commitBytesPerCycle);
    vuFree = start + busy;
    for (const LaneOp &op : slice.ops) {
        // Data was applied atomically with the core's instant validation
        // (see WtmCoreTm::startValidation); only timing and the TCD
        // last-write table are updated here.
        tcd.insert(op.addr, start, 0);
        ctx.accessLlc(op.addr, true, now);
    }
    MemMsg ack;
    ack.kind = MsgKind::WtmCommitAck;
    ack.core = slice.core;
    ack.partition = ctx.partitionId();
    ack.wid = slice.wid;
    ack.warpSlot = slice.warpSlot;
    ack.bytes = 8;
    ctx.scheduleToCore(std::move(ack), start + busy);
    stElCommits.add();
    return busy;
}

bool
WtmPartitionUnit::hazardsWithPending(const MemMsg &slice) const
{
    for (const LaneOp &op : slice.ops)
        if (pendingWrites.count(op.addr))
            return true;
    return false;
}

void
WtmPartitionUnit::tryAdvance(Cycle now)
{
    bool progress = true;
    while (progress) {
        progress = false;

        // 1. Apply any arrived decisions for validated slices. Hazard
        //    checking guarantees undecided slices never overlap, so the
        //    apply order between them is immaterial.
        for (auto it = decisions.begin(); it != decisions.end();) {
            auto slice_it = awaiting.find(it->first);
            if (slice_it == awaiting.end()) {
                ++it;
                continue;
            }
            applyDecision(it->second, now);
            awaiting.erase(slice_it);
            it = decisions.erase(it);
            progress = true;
        }

        // 2. Admit the next commit id in order, when it has arrived, the
        //    pipeline has room, and it does not hazard with undecided
        //    writes.
        auto it = reorder.find(nextId);
        if (it == reorder.end())
            continue;
        if (it->second.kind == MsgKind::WtmSkip) {
            reorder.erase(it);
            ++nextId;
            progress = true;
            continue;
        }
        if (awaiting.size() >= cfg.pipelineDepth ||
            hazardsWithPending(it->second))
            continue;
        MemMsg slice = std::move(it->second);
        reorder.erase(it);
        ++nextId;
        validateSlice(std::move(slice), now);
        progress = true;
    }
}

void
WtmPartitionUnit::validateSlice(MemMsg &&slice, Cycle now)
{
    const Cycle start = std::max(now, vuFree);
    // Value-based validation streams one log entry per cycle through the
    // LLC port.
    const Cycle busy = std::max<Cycle>(1, slice.ops.size());
    vuFree = start + busy;

    bool has_writes = false;
    Cycle extra = 0;
    MemMsg resp;
    resp.kind = MsgKind::WtmValidateResp;
    resp.core = slice.core;
    resp.partition = ctx.partitionId();
    resp.wid = slice.wid;
    resp.warpSlot = slice.warpSlot;
    resp.txId = slice.txId;

    LaneMask failed = 0;
    for (const LaneOp &op : slice.ops) {
        if (op.aux) { // write entry: nothing to validate
            has_writes = true;
            continue;
        }
        extra = std::max(extra, ctx.accessLlc(op.addr, false, now));
        if (ctx.memory().read(op.addr) != op.value) {
            FaultInjector *fi = ctx.faults();
            if (fi && fi->fire(FaultKind::CommitStaleRead))
                continue; // injected: pretend the stale read validated
            failed |= 1u << op.lane;
            // Lazy validation compares values, so the writer that made
            // the read stale already committed anonymously.
            ctx.events().conflict(slice.wid, invalidWarp,
                                  AbortReason::Validation, op.addr,
                                  ctx.partitionId(), now);
        }
    }
    resp.ops.reserve(std::popcount(failed));
    for (LaneMask rest = failed; rest; rest &= rest - 1)
        resp.ops.push_back(
            {static_cast<std::uint8_t>(std::countr_zero(rest)), 0, 0, 0});
    resp.bytes = 8;
    ctx.scheduleToCore(std::move(resp), start + busy + ctx.llcLatency() +
                                            extra);
    stValidations.add();
    if (failed)
        stValidationFails.add();
    ctx.events().validation(slice.wid, ctx.partitionId(), failed == 0,
                            start, start + busy);

    if (has_writes)
        onValidationStart(slice, start);
    for (const LaneOp &op : slice.ops)
        if (op.aux)
            ++pendingWrites[op.addr];
    const std::uint64_t id = slice.txId;
    awaiting.emplace(id, std::move(slice));
}

void
WtmPartitionUnit::applyDecision(const MemMsg &decision, Cycle now)
{
    const MemMsg &slice = awaiting.at(decision.txId);
    const LaneMask pass = static_cast<LaneMask>(decision.ts);
    const Cycle start = std::max(now, vuFree);
    Cycle bytes = 0;

    for (const LaneOp &op : slice.ops) {
        if (!op.aux)
            continue;
        auto it = pendingWrites.find(op.addr);
        if (it != pendingWrites.end() && --it->second == 0)
            pendingWrites.erase(it);
        if (!(pass & (1u << op.lane)))
            continue;
        FaultInjector *fi = ctx.faults();
        if (fi && fi->fire(FaultKind::DropCommitWrite)) {
            // Injected lost write; timing still charged below.
        } else {
            std::uint32_t value = op.value;
            if (fi && fi->fire(FaultKind::CorruptCommit))
                value ^= 1u;
            ctx.memory().write(op.addr, value);
            ctx.events().writeApplied(slice.wid, op.lane, op.addr, value);
        }
        tcd.insert(op.addr, start, 0);
        ctx.accessLlc(op.addr, true, now);
        bytes += 12;
    }
    const Cycle busy = std::max<Cycle>(
        1, (bytes + cfg.commitBytesPerCycle - 1) / cfg.commitBytesPerCycle);
    vuFree = start + busy;

    MemMsg ack;
    ack.kind = MsgKind::WtmCommitAck;
    ack.core = slice.core;
    ack.partition = ctx.partitionId();
    ack.wid = slice.wid;
    ack.warpSlot = slice.warpSlot;
    ack.bytes = 8;
    ctx.scheduleToCore(std::move(ack), start + busy);
    stDecisions.add();
    onDecisionApplied(decision.txId, start + busy);
}

void
WtmPartitionUnit::ckptSave(ckpt::Writer &ar)
{
    ar(tcd, reorder, decisions, awaiting, pendingWrites, nextId, vuFree);
}

void
WtmPartitionUnit::ckptLoad(ckpt::Reader &ar)
{
    ar(tcd, reorder, decisions, awaiting, pendingWrites, nextId, vuFree);
}

} // namespace getm
