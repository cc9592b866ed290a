#include "simt/simt_core.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "obs/tx_events.hh"

namespace getm {

namespace {

unsigned
popcount(LaneMask mask)
{
    return static_cast<unsigned>(std::popcount(mask));
}

/** Scheduler state -> tracer phase (obs/tx_tracer.hh TxPhase). */
TxPhase
phaseOf(WarpState state)
{
    switch (state) {
      case WarpState::MemWait:
        return TxPhase::Mem;
      case WarpState::CommitWait:
        return TxPhase::Validate;
      case WarpState::BackoffWait:
      case WarpState::ThrottleWait:
        return TxPhase::Backoff;
      default:
        return TxPhase::Exec;
    }
}

} // namespace

SimtCore::SimtCore(CoreId id, const CoreConfig &config, const AddressMap &map,
                   BackingStore &store_, Crossbar<MemMsg> &up,
                   const TxEvents &events)
    : coreId(id), cfg(config), addrMap(map), store(store_), xbarUp(up),
      l1("core" + std::to_string(id) + ".l1", config.l1Bytes, config.l1Assoc,
         config.lineBytes),
      hub(events), randomGen(config.seed + id * 0x1009 + 7),
      statSet("core" + std::to_string(id)),
      stInstructions(statSet.addCounter("instructions")),
      stDivergences(statSet.addCounter("divergences")),
      stL1LoadHits(statSet.addCounter("l1_load_hits")),
      stL1Fills(statSet.addCounter("l1_fills")),
      stMshrMerges(statSet.addCounter("mshr_merges")),
      stWarpsLaunched(statSet.addCounter("warps_launched")),
      stWarpsFinished(statSet.addCounter("warps_finished")),
      stThrottleStalls(statSet.addCounter("throttle_stalls")),
      stTxBegins(statSet.addCounter("tx_begins")),
      stTxRetries(statSet.addCounter("tx_retries")),
      stTxAborts(statSet.addCounter("tx_aborts")),
      stTxCommitLanes(statSet.addCounter("tx_commit_lanes")),
      stTxStarvation(statSet.addCounter("tx_starvation_events"))
{
    for (unsigned r = 0; r < numAbortReasons; ++r)
        stAbortsByReason[r] = &statSet.addCounter(
            std::string("tx_aborts_") +
            abortReasonName(static_cast<AbortReason>(r)));
    warps.resize(cfg.maxWarps);
    stateOf.assign(cfg.maxWarps, WarpState::Idle);
    wakeOf.assign(cfg.maxWarps, 0);
    for (unsigned slot = 0; slot < cfg.maxWarps; ++slot) {
        warps[slot].slot = slot;
        warps[slot].state = WarpState::Idle;
    }
    rebuildSlotBits();
}

void
SimtCore::rebuildSlotBits()
{
    slotBits.assign((stateOf.size() + 63) / 64, {});
    for (unsigned slot = 0; slot < stateOf.size(); ++slot)
        slotBits[slot / 64][static_cast<unsigned>(stateOf[slot])] |=
            std::uint64_t{1} << (slot % 64);
}

void
SimtCore::setProtocol(std::unique_ptr<TmCoreProtocol> engine)
{
    protocol = std::move(engine);
}

void
SimtCore::startKernel(const Kernel *kernel_, std::uint64_t total_threads,
                      WorkFn work, Cycle now)
{
    kernel = kernel_;
    totalThreads = total_threads;
    workSource = std::move(work);
    workExhausted = false;
    currentCycle = now;
    maybeLaunchWarps(now);
}

void
SimtCore::maybeLaunchWarps(Cycle now)
{
    if (workExhausted)
        return;
    for (unsigned w = 0; w < slotBits.size(); ++w) {
        for (std::uint64_t free = slotsIn(WarpState::Idle, w) |
                                  slotsIn(WarpState::Finished, w);
             free; free &= free - 1) {
            const unsigned slot = w * 64 + std::countr_zero(free);
            WarpAssignment assign{};
            if (!workSource(assign)) {
                workExhausted = true;
                return;
            }
            Warp &warp = warps[slot];
            warp.launch(coreId * cfg.maxWarps + slot, slot,
                        assign.firstTid, assign.validLanes, now);
            setSlotState(slot, warp.state);
            wakeOf[slot] = warp.wakeCycle;
            ++liveWarps;
            stWarpsLaunched.add();
        }
    }
}

bool
SimtCore::done() const
{
    return workExhausted && liveWarps == 0;
}

void
SimtCore::changeState(Warp &warp, WarpState state)
{
    const Cycle elapsed = currentCycle - warp.stateSince;
    if (elapsed) {
        if (warp.state == WarpState::ThrottleWait) {
            warp.txWaitCycles += elapsed;
        } else if (warp.inTx) {
            switch (warp.state) {
              case WarpState::Ready:
              case WarpState::MemWait:
              case WarpState::PipelineWait:
                warp.txExecCycles += elapsed;
                break;
              case WarpState::BackoffWait:
              case WarpState::CommitWait:
                warp.txWaitCycles += elapsed;
                break;
              default:
                break;
            }
        }
    }
    warp.state = state;
    setSlotState(warp.slot, state);
    warp.stateSince = currentCycle;
    if (warp.inTx)
        hub.phase(warp.gwid, phaseOf(state), currentCycle);
}

// The bitset walks below copy each word before visiting its bits:
// changeState() only moves the visited slot, so the copy stays exact and
// slots are visited in ascending order, as a full slot scan would.

void
SimtCore::wakeThrottled()
{
    for (unsigned w = 0; w < slotBits.size(); ++w)
        for (std::uint64_t waiting = slotsIn(WarpState::ThrottleWait, w);
             waiting; waiting &= waiting - 1)
            changeState(warps[w * 64 + std::countr_zero(waiting)],
                        WarpState::Ready);
}

Cycle
SimtCore::nextEventCycle(Cycle now) const
{
    for (unsigned w = 0; w < slotBits.size(); ++w) {
        if (slotsIn(WarpState::Ready, w))
            return now;
        if (!workExhausted && (slotsIn(WarpState::Idle, w) |
                               slotsIn(WarpState::Finished, w)))
            return now;
    }
    Cycle best = ~static_cast<Cycle>(0);
    for (unsigned w = 0; w < slotBits.size(); ++w)
        for (std::uint64_t timed = slotsIn(WarpState::BackoffWait, w) |
                                   slotsIn(WarpState::PipelineWait, w);
             timed; timed &= timed - 1)
            best = std::min(best, wakeOf[w * 64 + std::countr_zero(timed)]);
    return best;
}

Warp *
SimtCore::pickWarp(Cycle now)
{
    // Wake pipeline stalls, and expired backoffs (unless frozen for
    // timestamp rollover).
    for (unsigned w = 0; w < slotBits.size(); ++w) {
        std::uint64_t timed = slotsIn(WarpState::PipelineWait, w);
        if (!txFrozen)
            timed |= slotsIn(WarpState::BackoffWait, w);
        for (; timed; timed &= timed - 1) {
            const unsigned slot = w * 64 + std::countr_zero(timed);
            if (wakeOf[slot] <= now)
                changeState(warps[slot], WarpState::Ready);
        }
    }

    // Greedy-then-oldest: stay on the last issued warp while it is ready,
    // otherwise pick the lowest (oldest) ready slot.
    const unsigned last = lastIssued % warps.size();
    if (stateOf[last] == WarpState::Ready)
        return &warps[last];
    for (unsigned w = 0; w < slotBits.size(); ++w) {
        if (const std::uint64_t ready = slotsIn(WarpState::Ready, w)) {
            lastIssued = w * 64 + std::countr_zero(ready);
            return &warps[lastIssued];
        }
    }
    return nullptr;
}

void
SimtCore::tick(Cycle now)
{
    currentCycle = now;
    maybeLaunchWarps(now);
    for (unsigned slot = 0; slot < cfg.issueWidth; ++slot) {
        Warp *warp = pickWarp(now);
        if (!warp)
            break;
        execute(*warp, now);
    }
}

void
SimtCore::execute(Warp &warp, Cycle now)
{
    warp.reconverge();
    if (warp.stack.empty())
        panic("executing warp with empty SIMT stack");
    const SimtEntry top = warp.top();
    if (top.mask == 0) {
        if (top.kind == EntryKind::Transaction) {
            // Every lane of the attempt aborted mid-flight; park until
            // the in-flight accesses drain, then clean up and retry.
            if (warp.outstanding || warp.outstandingTxStores) {
                changeState(warp, WarpState::MemWait);
                return;
            }
            checkAllAbortedCommitPoint(warp);
            return;
        }
        panic("executing warp with empty active mask (pc %u)", top.pc);
    }
    if (top.pc >= kernel->size())
        panic("pc %u past end of kernel %s", top.pc, kernel->name().c_str());

    const Instruction inst = kernel->at(top.pc);
    const LaneMask active = top.mask;
    stInstructions.add();
    if (!warp.inTx && inst.op != Opcode::TxBegin)
        ++nonTxRetired; // a TxBegin counts once it begins (execTxBegin)
    (void)now;

    switch (inst.op) {
      case Opcode::BranchEqz:
      case Opcode::BranchNez:
      case Opcode::Jump:
        execBranch(warp, inst, active);
        break;
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::AtomCas:
      case Opcode::AtomExch:
      case Opcode::AtomAdd:
        execMemory(warp, inst, active);
        break;
      case Opcode::TxBegin:
        execTxBegin(warp, active);
        break;
      case Opcode::TxCommit:
        execTxCommit(warp);
        break;
      case Opcode::Exit:
        execExit(warp, active);
        break;
      case Opcode::Fence:
        if (warp.outstanding || warp.outstandingTxStores) {
            changeState(warp, WarpState::MemWait); // re-executes on drain
            break;
        }
        warp.top().pc++;
        break;
      case Opcode::Nop:
        warp.top().pc++;
        break;
      default:
        execAlu(warp, inst, active);
        break;
    }
}

std::int64_t
SimtCore::aluOp(Opcode op, std::int64_t a, std::int64_t b) const
{
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);
    // Add, Sub and Mul wrap modulo 2^64, as the hardware's do; signed
    // overflow would be undefined.
    switch (op) {
      case Opcode::Add: return static_cast<std::int64_t>(ua + ub);
      case Opcode::Sub: return static_cast<std::int64_t>(ua - ub);
      case Opcode::Mul: return static_cast<std::int64_t>(ua * ub);
      case Opcode::DivU: return ub ? static_cast<std::int64_t>(ua / ub) : 0;
      case Opcode::RemU: return ub ? static_cast<std::int64_t>(ua % ub) : 0;
      case Opcode::MinS: return a < b ? a : b;
      case Opcode::MaxS: return a > b ? a : b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return static_cast<std::int64_t>(ua << (ub & 63));
      case Opcode::ShrL: return static_cast<std::int64_t>(ua >> (ub & 63));
      case Opcode::ShrA: return a >> (ub & 63);
      case Opcode::SetLtS: return a < b ? 1 : 0;
      case Opcode::SetLtU: return ua < ub ? 1 : 0;
      case Opcode::SetEq: return a == b ? 1 : 0;
      case Opcode::SetNe: return a != b ? 1 : 0;
      case Opcode::SetLeS: return a <= b ? 1 : 0;
      default:
        panic("aluOp on non-ALU opcode %u", static_cast<unsigned>(op));
    }
}

void
SimtCore::execAlu(Warp &warp, const Instruction &inst, LaneMask active)
{
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(active & (1u << lane)))
            continue;
        std::int64_t result = 0;
        switch (inst.op) {
          case Opcode::LoadImm:
            result = inst.imm;
            break;
          case Opcode::ReadSpecial:
            switch (static_cast<SpecialReg>(inst.imm)) {
              case SpecialReg::ThreadId:
                result = warp.firstTid + lane;
                break;
              case SpecialReg::LaneId:
                result = lane;
                break;
              case SpecialReg::WarpId:
                result = warp.gwid;
                break;
              case SpecialReg::NumThreads:
                result = static_cast<std::int64_t>(totalThreads);
                break;
            }
            break;
          case Opcode::Hash: {
            const std::int64_t a = warp.reg(lane, inst.ra);
            const std::int64_t b =
                inst.bImm ? inst.imm : warp.reg(lane, inst.rb);
            result = static_cast<std::int64_t>(
                hashMix(static_cast<std::uint64_t>(a),
                        static_cast<std::uint64_t>(b)));
            break;
          }
          default: {
            const std::int64_t a = warp.reg(lane, inst.ra);
            const std::int64_t b =
                inst.bImm ? inst.imm : warp.reg(lane, inst.rb);
            result = aluOp(inst.op, a, b);
            break;
          }
        }
        warp.setReg(lane, inst.rd, result);
    }
    warp.top().pc++;

    // Long-latency units (divide, modulo, hashing) stall the issuing
    // warp; the scheduler covers the gap with other warps.
    if (cfg.longOpLatency > 1 &&
        (inst.op == Opcode::DivU || inst.op == Opcode::RemU ||
         inst.op == Opcode::Hash)) {
        changeState(warp, WarpState::PipelineWait);
        setWake(warp, currentCycle + cfg.longOpLatency);
    }
}

void
SimtCore::execBranch(Warp &warp, const Instruction &inst, LaneMask active)
{
    if (inst.op == Opcode::Jump) {
        warp.top().pc = inst.target;
        return;
    }
    LaneMask taken = 0;
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(active & (1u << lane)))
            continue;
        const bool zero = warp.reg(lane, inst.ra) == 0;
        const bool t = (inst.op == Opcode::BranchEqz) ? zero : !zero;
        if (t)
            taken |= 1u << lane;
    }
    const LaneMask fall = active & ~taken;
    const Pc fall_pc = warp.top().pc + 1;
    if (!taken) {
        warp.top().pc = fall_pc;
    } else if (!fall) {
        warp.top().pc = inst.target;
    } else {
        warp.top().pc = inst.rpc;
        warp.stack.push_back({EntryKind::Normal, fall_pc, inst.rpc, fall});
        warp.stack.push_back(
            {EntryKind::Normal, inst.target, inst.rpc, taken});
        stDivergences.add();
    }
}

void
SimtCore::execMemory(Warp &warp, const Instruction &inst, LaneMask active)
{
    // Advance the PC first: memory instructions execute exactly once, and
    // protocol callbacks below may rearrange the SIMT stack.
    warp.top().pc++;

    LaneAddrs addrs{};
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(active & (1u << lane)))
            continue;
        Addr addr = static_cast<Addr>(warp.reg(lane, inst.ra) + inst.imm);
        if (inst.isAtomic())
            addr = static_cast<Addr>(warp.reg(lane, inst.ra));
        if (addr % BackingStore::wordBytes != 0)
            panic("unaligned access %#llx at pc %u",
                  static_cast<unsigned long long>(addr), warp.top().pc - 1);
        addrs[lane] = addr;
    }

    const bool is_store = inst.op == Opcode::Store;
    const bool is_load = inst.op == Opcode::Load;

    if (warp.inTx && (is_load || is_store)) {
        if (is_load)
            warp.pendingReg = inst.rd;
        LaneVals vals{};
        if (is_store)
            for (LaneId lane = 0; lane < warpSize; ++lane)
                if (active & (1u << lane))
                    vals[lane] = static_cast<std::uint32_t>(
                        warp.reg(lane, inst.rb));
        protocol->txAccess(warp, is_store, addrs, vals, active, inst.rd);
        if (is_load && warp.outstanding > 0)
            changeState(warp, WarpState::MemWait);
        return;
    }
    if (warp.inTx && inst.isAtomic())
        panic("atomics inside transactions are not supported");

    if (is_load) {
        warp.pendingReg = inst.rd;
        const bool bypass = inst.memFlags & MemBypassL1;
        // Coalesce into lines.
        LaneMask pending = active;
        while (pending) {
            const LaneId lead =
                static_cast<LaneId>(std::countr_zero(pending));
            const Addr line = addrMap.lineOf(addrs[lead]);
            LaneMask group = 0;
            for (LaneId lane = lead; lane < warpSize; ++lane)
                if ((pending & (1u << lane)) &&
                    addrMap.lineOf(addrs[lane]) == line)
                    group |= 1u << lane;
            pending &= ~group;

            // The line becomes visible only when its fill returns (the
            // MSHR tracks the window in between), so concurrent misses
            // merge instead of all hitting a just-allocated tag.
            const bool hit = !bypass && l1.contains(line) &&
                             l1.access(line, false).hit;
            if (hit) {
                for (LaneId lane = 0; lane < warpSize; ++lane)
                    if (group & (1u << lane))
                        writebackLane(warp, lane, store.read(addrs[lane]));
                stL1LoadHits.add();
                continue;
            }
            ++warp.outstanding;
            if (!bypass && (mshrs.pending(line) || mshrs.hasRoom())) {
                // Merge with (or allocate) an outstanding fill.
                MshrTarget target;
                target.warpSlot = warp.slot;
                target.reg = inst.rd;
                target.lanes = group;
                for (LaneId lane = 0; lane < warpSize; ++lane)
                    if (group & (1u << lane))
                        target.addrs[lane] = addrs[lane];
                const bool primary = mshrs.add(line, std::move(target));
                (primary ? stL1Fills : stMshrMerges).add();
                if (!primary)
                    continue; // the outstanding fill will service us
            }
            MemMsg msg;
            msg.kind = MsgKind::NtxRead;
            msg.addr = line;
            msg.wid = warp.gwid;
            msg.warpSlot = warp.slot;
            msg.flag = bypass; // volatile: values bound at the partition
            // Tag MSHR-tracked fills so the response is routed to the
            // merged requesters (an unmerged fallback, sent when the
            // MSHR file is full, writes back via its own ops instead).
            msg.txId = (!bypass && mshrs.pending(line)) ? 1 : 0;
            msg.ops.reserve(std::popcount(group));
            for (LaneId lane = 0; lane < warpSize; ++lane)
                if (group & (1u << lane))
                    msg.ops.push_back(
                        {static_cast<std::uint8_t>(lane), addrs[lane],
                         0, 0});
            msg.bytes = 8;
            sendToPartition(std::move(msg));
        }
        if (warp.outstanding)
            changeState(warp, WarpState::MemWait);
        return;
    }

    if (is_store) {
        const bool bypass = inst.memFlags & MemBypassL1;
        LaneMask pending = active;
        while (pending) {
            const LaneId lead =
                static_cast<LaneId>(std::countr_zero(pending));
            const Addr line = addrMap.lineOf(addrs[lead]);
            LaneMask group = 0;
            for (LaneId lane = lead; lane < warpSize; ++lane)
                if ((pending & (1u << lane)) &&
                    addrMap.lineOf(addrs[lane]) == line)
                    group |= 1u << lane;
            pending &= ~group;

            MemMsg msg;
            msg.kind = MsgKind::NtxWrite;
            msg.addr = line;
            msg.wid = warp.gwid;
            msg.warpSlot = warp.slot;
            msg.flag = bypass; // needs global ordering + ack
            msg.ops.reserve(std::popcount(group));
            unsigned data_bytes = 0;
            for (LaneId lane = 0; lane < warpSize; ++lane) {
                if (!(group & (1u << lane)))
                    continue;
                const auto value = static_cast<std::uint32_t>(
                    warp.reg(lane, inst.rb));
                if (!bypass) {
                    // Private data: serialize at the core (see DESIGN.md).
                    store.write(addrs[lane], value);
                    hub.externalWrite(addrs[lane], value);
                }
                msg.ops.push_back({static_cast<std::uint8_t>(lane),
                                   addrs[lane], value, 0});
                data_bytes += 12;
            }
            msg.bytes = 8 + data_bytes;
            if (!bypass && l1.contains(line))
                l1.access(line, false); // write-through refreshes LRU
            sendToPartition(std::move(msg));
            // Volatile stores are acked (so a later Fence can order them)
            // but do not block the warp: real GPU stores retire into the
            // memory system and ordering is the fence's job.
            if (bypass)
                ++warp.outstanding;
        }
        return;
    }

    // Atomics: execute at the partition, return old values.
    warp.pendingReg = inst.rd;
    LaneMask pending = active;
    while (pending) {
        const LaneId lead = static_cast<LaneId>(std::countr_zero(pending));
        const Addr line = addrMap.lineOf(addrs[lead]);
        LaneMask group = 0;
        for (LaneId lane = lead; lane < warpSize; ++lane)
            if ((pending & (1u << lane)) &&
                addrMap.lineOf(addrs[lane]) == line)
                group |= 1u << lane;
        pending &= ~group;

        MemMsg msg;
        msg.kind = MsgKind::Atomic;
        msg.addr = line;
        msg.wid = warp.gwid;
        msg.warpSlot = warp.slot;
        switch (inst.op) {
          case Opcode::AtomCas: msg.aop = static_cast<std::uint8_t>(
              AtomicOp::Cas); break;
          case Opcode::AtomExch: msg.aop = static_cast<std::uint8_t>(
              AtomicOp::Exch); break;
          default: msg.aop = static_cast<std::uint8_t>(AtomicOp::Add); break;
        }
        msg.ops.reserve(std::popcount(group));
        unsigned data_bytes = 0;
        for (LaneId lane = 0; lane < warpSize; ++lane) {
            if (!(group & (1u << lane)))
                continue;
            const auto operand =
                static_cast<std::uint32_t>(warp.reg(lane, inst.rb));
            const auto swap =
                static_cast<std::uint32_t>(warp.reg(lane, inst.rc));
            msg.ops.push_back({static_cast<std::uint8_t>(lane), addrs[lane],
                               operand, swap});
            data_bytes += 16;
        }
        msg.bytes = 8 + data_bytes;
        sendToPartition(std::move(msg));
        ++warp.outstanding;
    }
    changeState(warp, WarpState::MemWait);
}

void
SimtCore::execTxBegin(Warp &warp, LaneMask active)
{
    if (warp.inTx)
        panic("nested transactions are not supported");
    if (txActive >= cfg.txWarpLimit || txFrozen) {
        changeState(warp, WarpState::ThrottleWait);
        stThrottleStalls.add();
        return;
    }
    ++nonTxRetired;
    ++txActive;
    warp.top().pc++;
    const Pc body = warp.top().pc;
    warp.stack.push_back({EntryKind::Retry, body, noRpc, 0});
    warp.stack.push_back({EntryKind::Transaction, body, noRpc, active});
    warp.inTx = true;
    warp.abortedMask = 0;
    for (auto &log : warp.logs)
        log.clear();
    warp.retriesThisTx = 0;
    warp.commitPointFired = false;
    stTxBegins.add();
    hub.attemptBegin(warp.gwid, coreId, warp.slot, 0, active, warp.firstTid,
                     currentCycle, currentCycle);
    if (protocol)
        protocol->onTxBegin(warp);
}

void
SimtCore::execTxCommit(Warp &warp)
{
    if (warp.top().kind != EntryKind::Transaction)
        panic("txcommit outside a transaction");
    if (warp.outstanding || warp.outstandingTxStores) {
        // Wait for in-flight accesses (e.g., reservation acks) to drain.
        changeState(warp, WarpState::MemWait);
        return;
    }
    warp.commitPointFired = true;
    hub.commitHandoff(warp.gwid, currentCycle);
    protocol->txCommitPoint(warp);
}

void
SimtCore::execExit(Warp &warp, LaneMask active)
{
    if (warp.inTx)
        panic("exit inside a transaction");
    if (warp.outstanding || warp.outstandingTxStores) {
        // Drain in-flight acks before the slot can be reassigned, or a
        // successor warp would receive this warp's stale responses.
        changeState(warp, WarpState::MemWait);
        return;
    }
    for (auto &entry : warp.stack)
        entry.mask &= ~active;
    while (warp.stack.size() > 1 && warp.top().mask == 0)
        warp.stack.pop_back();
    if (warp.stack.size() == 1 && warp.stack[0].mask == 0)
        finishWarp(warp);
}

void
SimtCore::finishWarp(Warp &warp)
{
    changeState(warp, WarpState::Finished);
    if (liveWarps == 0)
        panic("live-warp count underflow");
    --liveWarps;
    stWarpsFinished.add();
    maybeLaunchWarps(currentCycle);
}

void
SimtCore::abortTxLanes(Warp &warp, LaneMask lanes, AbortReason reason,
                       Addr addr)
{
    lanes &= ~warp.abortedMask;
    if (!lanes)
        return;
    const unsigned aborted = popcount(lanes);
    warp.aborts += aborted;
    stTxAborts.add(aborted);
    stAbortsByReason[static_cast<unsigned>(reason)]->add(aborted);
    hub.abort(warp.gwid, coreId, warp.slot, reason, addr,
              addr == invalidAddr ? 0 : addrMap.partitionOf(addr), lanes,
              currentCycle);
    warp.abortLanesOnStack(lanes);
    checkAllAbortedCommitPoint(warp);
}

unsigned
SimtCore::activeWarps() const
{
    return liveWarps;
}

unsigned
SimtCore::mshrOccupancy() const
{
    return static_cast<unsigned>(mshrs.occupancy());
}

void
SimtCore::checkAllAbortedCommitPoint(Warp &warp)
{
    if (!warp.inTx || warp.commitPointFired)
        return;
    if (!warp.txAllAborted())
        return;
    if (warp.outstanding || warp.outstandingTxStores)
        return;
    warp.commitPointFired = true;
    hub.commitHandoff(warp.gwid, currentCycle);
    protocol->txCommitPoint(warp);
}

void
SimtCore::retireTxAttempt(Warp &warp, LaneMask committed_lanes)
{
    const int txi = warp.transactionIndex();
    if (txi < 0)
        panic("retireTxAttempt without a Transaction entry");
    const int ri = warp.retryIndex();
    if (static_cast<unsigned>(txi) != warp.stack.size() - 1)
        panic("retiring with entries above the Transaction entry");

    const Pc commit_pc = warp.stack[txi].pc;
    const LaneMask retry_mask = warp.stack[ri].mask;
    // The redo logs (the commit intent) are still intact here.
    hub.retire(warp.gwid, coreId, warp.slot, committed_lanes, warp.logs,
               retry_mask != 0, currentCycle);
    warp.commits += popcount(committed_lanes);
    stTxCommitLanes.add(popcount(committed_lanes));

    warp.stack.pop_back(); // Transaction

    for (auto &log : warp.logs)
        log.clear();

    if (retry_mask) {
        SimtEntry &retry = warp.stack[ri];
        warp.stack.push_back(
            {EntryKind::Transaction, retry.pc, noRpc, retry_mask});
        retry.mask = 0;
        warp.abortedMask = 0;
        warp.retriesThisTx++;
        warp.commitPointFired = false;
        const Cycle delay = warp.backoff.nextDelay(randomGen);
        // Retries re-enter the transaction body without re-executing
        // TxBegin, so the new attempt is announced here. It begins at
        // the retire cycle, so the tracer's per-attempt slices
        // telescope exactly over the tx lifetime; its timeline span
        // opens after the backoff delay.
        hub.attemptBegin(warp.gwid, coreId, warp.slot, warp.retriesThisTx,
                         retry_mask, warp.firstTid, currentCycle,
                         currentCycle + delay);
        // Starvation guard (counted once per streak, at the crossing):
        // a warp this deep into backoff is no longer making progress
        // through ordinary contention. Livelock diagnostics name these
        // warps; the counter surfaces them in the stats/metrics export.
        if (warp.backoff.consecutiveAborts() ==
            cfg.starvationAbortCeiling)
            stTxStarvation.add();
        changeState(warp, WarpState::BackoffWait);
        setWake(warp, currentCycle + delay);
        stTxRetries.add();
    } else {
        warp.stack.pop_back(); // Retry
        warp.top().pc = commit_pc + 1;
        changeState(warp, WarpState::Ready); // flush tx accounting
        warp.inTx = false;
        warp.backoff.reset();
        if (txActive == 0)
            panic("tx throttle underflow");
        --txActive;
        wakeThrottled();
    }
}

void
SimtCore::completeBlockingResponse(Warp &warp)
{
    if (warp.outstanding == 0)
        panic("blocking response underflow (warp %u)", warp.gwid);
    --warp.outstanding;
    if (warp.outstanding == 0 && warp.state == WarpState::MemWait)
        changeState(warp, WarpState::Ready);
    checkAllAbortedCommitPoint(warp);
}

void
SimtCore::completeTxStoreAck(Warp &warp)
{
    if (warp.outstandingTxStores == 0)
        panic("tx store ack underflow (warp %u)", warp.gwid);
    --warp.outstandingTxStores;
    if (warp.outstandingTxStores == 0 && warp.outstanding == 0 &&
        warp.state == WarpState::MemWait)
        changeState(warp, WarpState::Ready);
    checkAllAbortedCommitPoint(warp);
}

void
SimtCore::sendToPartition(MemMsg &&msg)
{
    msg.partition = addrMap.partitionOf(msg.addr);
    sendToPartitionDirect(std::move(msg));
}

void
SimtCore::sendToPartitionDirect(MemMsg &&msg)
{
    msg.core = coreId;
    xbarUp.send(coreId, msg.partition, msg.bytes, currentCycle,
                std::move(msg));
}

void
SimtCore::deliver(MemMsg &&msg, Cycle now)
{
    currentCycle = now;
    if (msg.warpSlot == noWarpSlot) {
        protocol->onBroadcast(msg);
        return;
    }
    Warp &warp = warps[msg.warpSlot];
    switch (msg.kind) {
      case MsgKind::NtxReadResp:
        if (msg.txId == 1) {
            // A line fill: install the line, then service every
            // requester merged in the MSHR.
            l1.access(msg.addr, false);
            for (MshrTarget &target : mshrs.take(msg.addr)) {
                Warp &waiter = warps[target.warpSlot];
                for (LaneId lane = 0; lane < warpSize; ++lane)
                    if (target.lanes & (1u << lane))
                        waiter.setReg(
                            lane, target.reg,
                            static_cast<std::int64_t>(
                                static_cast<std::int32_t>(
                                    store.read(target.addrs[lane]))));
                completeBlockingResponse(waiter);
            }
            break;
        }
        [[fallthrough]];
      case MsgKind::AtomicResp:
        for (const LaneOp &op : msg.ops)
            writebackLane(warp, op.lane, op.value);
        completeBlockingResponse(warp);
        break;
      case MsgKind::NtxWriteAck:
        completeBlockingResponse(warp);
        break;
      default:
        protocol->onResponse(warp, msg);
        break;
    }
}

bool
SimtCore::quiescent() const
{
    for (const auto &warp : warps)
        if (warp.outstanding || warp.outstandingTxStores)
            return false;
    return true;
}

void
SimtCore::foldWarpStats()
{
    for (const auto &warp : warps) {
        statSet.inc("tx_exec_cycles", warp.txExecCycles);
        statSet.inc("tx_wait_cycles", warp.txWaitCycles);
        statSet.inc("commits", warp.commits);
        statSet.inc("aborts", warp.aborts);
    }
    statSet.merge(l1.stats());
}

} // namespace getm
