#include "warptm/wtm_partition.hh"

#include <algorithm>
#include <bit>
#include <map>

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
        [[fallthrough]];
      case MsgKind::WtmSkip: {
        WindowEntry &entry = entryFor(msg.txId);
        if (msg.txId < nextId || (entry.bits & Queued))
            panic("WarpTM partition got commit id %llu twice",
                  static_cast<unsigned long long>(msg.txId));
        entry.msg = park(std::move(msg));
        entry.bits |= Queued;
        tryAdvance(now);
        return 1;
      }

      case MsgKind::WtmDecision: {
        WindowEntry &entry = entryFor(msg.txId);
        if (entry.bits & Decided)
            panic("WarpTM partition got two decisions for commit id %llu",
                  static_cast<unsigned long long>(msg.txId));
        const std::uint64_t id = msg.txId;
        entry.decision = park(std::move(msg));
        entry.bits |= Decided;
        if (entry.bits & Awaiting)
            noteReady(id);
        tryAdvance(now);
        return 1;
      }

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
        if (pendingIndex.find(op.addr, pendingWrites) != AddrIndex::none)
            return true;
    return false;
}

void
WtmPartitionUnit::addPendingWrite(Addr addr)
{
    const std::uint32_t slot = pendingIndex.insert(addr, pendingWrites);
    if (slot == pendingWrites.size())
        pendingWrites.push_back({addr, 0});
    ++pendingWrites[slot].count;
}

void
WtmPartitionUnit::dropPendingWrite(Addr addr)
{
    const std::uint32_t slot = pendingIndex.find(addr, pendingWrites);
    if (slot == AddrIndex::none || --pendingWrites[slot].count != 0)
        return;
    pendingIndex.erase(slot, pendingWrites);
    pendingWrites[slot] = pendingWrites.back();
    pendingWrites.pop_back();
}

WtmPartitionUnit::WindowEntry &
WtmPartitionUnit::entryFor(std::uint64_t id)
{
    if (id < base)
        panic("WarpTM partition got a message for retired commit id %llu",
              static_cast<unsigned long long>(id));
    if (id - base >= ring.size()) {
        std::size_t size = ring.size();
        while (id - base >= size)
            size *= 2;
        std::vector<WindowEntry> grown(size);
        for (std::uint64_t i = base; i < base + ring.size(); ++i)
            grown[i & (size - 1)] = std::move(at(i));
        ring.swap(grown);
    }
    return at(id);
}

std::uint32_t
WtmPartitionUnit::park(MemMsg &&msg)
{
    if (freeParked.empty()) {
        parked.push_back(std::move(msg));
        return static_cast<std::uint32_t>(parked.size() - 1);
    }
    const std::uint32_t slot = freeParked.back();
    freeParked.pop_back();
    parked[slot] = std::move(msg);
    return slot;
}

void
WtmPartitionUnit::unpark(std::uint32_t slot)
{
    parked[slot] = MemMsg{};
    freeParked.push_back(slot);
}

void
WtmPartitionUnit::noteReady(std::uint64_t id)
{
    firstReady = ready ? std::min(firstReady, id) : id;
    ++ready;
}

void
WtmPartitionUnit::retireDone()
{
    while (base < nextId && at(base).bits == 0)
        ++base;
}

void
WtmPartitionUnit::tryAdvance(Cycle now)
{
    bool progress = true;
    while (progress) {
        progress = false;

        // 1. Apply the arrived decisions of validated slices, in
        //    ascending id order. Hazard checking guarantees undecided
        //    slices never overlap, so the apply order between them is
        //    immaterial to memory.
        for (std::uint64_t id = firstReady; ready && id < nextId; ++id) {
            WindowEntry &entry = at(id);
            if ((entry.bits & (Awaiting | Decided)) !=
                (Awaiting | Decided))
                continue;
            applyDecision(entry, now);
            progress = true;
        }
        retireDone();

        // 2. Admit the next commit id in order, when it has arrived, the
        //    pipeline has room, and it does not hazard with undecided
        //    writes.
        if (nextId - base >= ring.size())
            continue;
        WindowEntry &entry = at(nextId);
        if (!(entry.bits & Queued))
            continue;
        if (parked[entry.msg].kind == MsgKind::WtmSkip) {
            entry.bits &= ~Queued;
            unpark(entry.msg);
            ++nextId;
            retireDone();
            progress = true;
            continue;
        }
        if (awaiting >= cfg.pipelineDepth ||
            hazardsWithPending(parked[entry.msg]))
            continue;
        ++nextId;
        validateSlice(entry, now);
        progress = true;
    }
}

void
WtmPartitionUnit::validateSlice(WindowEntry &entry, Cycle now)
{
    const MemMsg &slice = parked[entry.msg];
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
            addPendingWrite(op.addr);
    entry.bits = static_cast<std::uint8_t>((entry.bits & ~Queued) | Awaiting);
    ++awaiting;
    if (entry.bits & Decided)
        noteReady(slice.txId);
}

void
WtmPartitionUnit::applyDecision(WindowEntry &entry, Cycle now)
{
    const MemMsg &slice = parked[entry.msg];
    const std::uint64_t tx_id = parked[entry.decision].txId;
    const LaneMask pass = static_cast<LaneMask>(parked[entry.decision].ts);
    const Cycle start = std::max(now, vuFree);
    Cycle bytes = 0;

    for (const LaneOp &op : slice.ops) {
        if (!op.aux)
            continue;
        dropPendingWrite(op.addr);
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
    entry.bits = 0;
    unpark(entry.msg);
    unpark(entry.decision);
    --awaiting;
    --ready;
    ctx.scheduleToCore(std::move(ack), start + busy);
    stDecisions.add();
    onDecisionApplied(tx_id, start + busy);
}

void
WtmPartitionUnit::ckptSave(ckpt::Writer &ar)
{
    // The three queues are written as the std::map<id, MemMsg> archives
    // of the former reorder, decisions and awaiting maps: a count, then
    // (id, message) pairs in ascending id order.
    ar(tcd);
    const auto queue = [&](std::uint8_t bit,
                           std::uint32_t WindowEntry::*field) {
        std::uint64_t n = 0;
        for (std::uint64_t id = base; id < base + ring.size(); ++id)
            n += (at(id).bits & bit) != 0;
        ar(n);
        for (std::uint64_t id = base; id < base + ring.size(); ++id) {
            if (!(at(id).bits & bit))
                continue;
            std::uint64_t key = id;
            ar(key, parked[at(id).*field]);
        }
    };
    queue(Queued, &WindowEntry::msg);
    queue(Decided, &WindowEntry::decision);
    queue(Awaiting, &WindowEntry::msg);
    ar(nextId, vuFree);
}

void
WtmPartitionUnit::ckptLoad(ckpt::Reader &ar)
{
    std::map<std::uint64_t, MemMsg> queued, decided, validated;
    ar(tcd, queued, decided, validated, nextId, vuFree);

    base = nextId;
    for (const auto *queue : {&queued, &decided, &validated})
        if (!queue->empty())
            base = std::min(base, queue->begin()->first);
    std::fill(ring.begin(), ring.end(), WindowEntry{});
    parked.clear();
    freeParked.clear();
    ready = awaiting = 0;
    pendingIndex.clear(pendingWrites);
    pendingWrites.clear();
    for (auto &[id, msg] : queued) {
        entryFor(id).msg = park(std::move(msg));
        at(id).bits |= Queued;
    }
    for (auto &[id, msg] : validated) {
        for (const LaneOp &op : msg.ops)
            if (op.aux)
                addPendingWrite(op.addr);
        entryFor(id).msg = park(std::move(msg));
        at(id).bits |= Awaiting;
        ++awaiting;
    }
    for (auto &[id, msg] : decided) {
        entryFor(id).decision = park(std::move(msg));
        at(id).bits |= Decided;
        if (at(id).bits & Awaiting)
            noteReady(id);
    }
}

} // namespace getm
