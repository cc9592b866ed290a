#include "gpu/mem_partition.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.hh"
#include "gpu/gpu_config.hh"
#include "obs/tx_events.hh"

namespace getm {

void
OutboundQueue::insert(MemMsg &&msg, Cycle when, std::uint64_t entry_seq)
{
    if (count == 0) {
        if (buckets.empty())
            grow(64);
        headWhen = maxWhen = when;
    } else {
        // Keep every queued cycle inside one turn of the wheel, so a
        // bucket never mixes two cycles.
        const Cycle lo = std::min(headWhen, when);
        const Cycle hi = std::max(maxWhen, when);
        if (hi - lo >= buckets.size())
            grow(hi - lo + 1);
        headWhen = lo;
        maxWhen = hi;
    }

    std::uint32_t slot = freeHead;
    if (slot == none) {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    } else {
        freeHead = slots[slot].next;
    }
    Slot &entry = slots[slot];
    entry.msg = std::move(msg);
    entry.when = when;
    entry.seq = entry_seq;
    entry.next = none;

    const std::size_t index = when & mask();
    Bucket &bucket = buckets[index];
    if (bucket.tail == none) {
        bucket.head = slot;
        occupied[index >> 6] |= std::uint64_t{1} << (index & 63);
    } else {
        slots[bucket.tail].next = slot;
    }
    bucket.tail = slot;
    ++count;
}

MemMsg
OutboundQueue::pop()
{
    const std::size_t index = headWhen & mask();
    Bucket &bucket = buckets[index];
    const std::uint32_t slot = bucket.head;
    bucket.head = slots[slot].next;
    slots[slot].next = freeHead;
    freeHead = slot;
    --count;

    if (bucket.head == none) {
        bucket.tail = none;
        occupied[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
        if (count != 0) {
            // Every queued cycle lies within one turn past the head, so
            // the next occupied bucket round the wheel names the next
            // cycle. The last word is revisited for bits before start.
            const std::size_t start = (index + 1) & mask();
            const std::size_t words = occupied.size();
            std::size_t word = start >> 6;
            std::uint64_t bits =
                occupied[word] & (~std::uint64_t{0} << (start & 63));
            for (std::size_t i = 0; bits == 0 && i < words; ++i) {
                word = word + 1 == words ? 0 : word + 1;
                bits = occupied[word];
            }
            const std::size_t next =
                (word << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            headWhen += (next - index) & mask();
        }
    }
    return std::move(slots[slot].msg);
}

void
OutboundQueue::grow(Cycle span)
{
    std::size_t size = buckets.empty() ? 1 : 2 * buckets.size();
    while (size < span)
        size *= 2;
    std::vector<Bucket> wider(size);
    std::vector<std::uint64_t> bits((size + 63) / 64, 0);
    // Each old bucket holds one cycle, so its chain moves whole.
    for (const Bucket &bucket : buckets) {
        if (bucket.head == none)
            continue;
        const std::size_t index = slots[bucket.head].when & (size - 1);
        wider[index] = bucket;
        bits[index >> 6] |= std::uint64_t{1} << (index & 63);
    }
    buckets.swap(wider);
    occupied.swap(bits);
}

MemPartition::MemPartition(PartitionId id_, const GpuConfig &config,
                           const AddressMap &map, BackingStore &store_,
                           Crossbar<MemMsg> &up, Crossbar<MemMsg> &down,
                           unsigned num_cores, const TxEvents &events)
    : id(id_), cores(num_cores), llcLat(config.llcLatency), addrMap(map),
      store(store_), xbarUp(up), xbarDown(down),
      llcCache("part" + std::to_string(id_) + ".llc",
               config.llcBytesPerPartition, config.llcAssoc,
               config.lineBytes),
      dram("part" + std::to_string(id_) + ".dram", config.dram),
      hub(events), statSet("part" + std::to_string(id_)),
      stDramWritebacks(statSet.addCounter("dram_writebacks")),
      stNtxReads(statSet.addCounter("ntx_reads")),
      stNtxWrites(statSet.addCounter("ntx_writes")),
      stAtomics(statSet.addCounter("atomics"))
{
}

void
MemPartition::setProtocol(std::unique_ptr<TmPartitionProtocol> unit)
{
    proto = std::move(unit);
}

void
MemPartition::scheduleToCore(MemMsg &&msg, Cycle when)
{
    outQueue.push(std::move(msg), when);
}

Cycle
MemPartition::accessLlc(Addr line_addr, bool is_write, Cycle now)
{
    const Addr line = addrMap.lineOf(line_addr);
    const CacheAccessResult result = llcCache.access(line, is_write);
    if (result.hit)
        return 0;
    if (result.writeback)
        stDramWritebacks.add();
    const Cycle ready = dram.enqueue(now, line);
    return ready - now;
}

void
MemPartition::tick(Cycle now)
{
    // 1. Inject due responses into the down crossbar at their exact
    //    ready cycles.
    while (!outQueue.empty() && outQueue.nextWhen() <= now) {
        const Cycle when = outQueue.nextWhen();
        MemMsg msg = outQueue.pop();
        const unsigned bytes = msg.bytes;
        const CoreId core = msg.core;
        xbarDown.send(id, core, bytes, when, std::move(msg));
    }

    // 2. Pop and process at most one inbound message per cycle, gated by
    //    the unit's busy time.
    if (popFree > now || !xbarUp.hasReady(id, now))
        return;
    MemMsg msg = xbarUp.popReady(id);
    Cycle busy;
    switch (msg.kind) {
      case MsgKind::NtxRead:
      case MsgKind::NtxWrite:
      case MsgKind::Atomic:
        busy = handleLocal(std::move(msg), now);
        break;
      default:
        if (!proto)
            panic("protocol message at partition with no protocol unit");
        busy = proto->handleRequest(std::move(msg), now);
        break;
    }
    popFree = now + std::max<Cycle>(1, busy);
}

Cycle
MemPartition::handleLocal(MemMsg &&msg, Cycle now)
{
    switch (msg.kind) {
      case MsgKind::NtxRead: {
        const Cycle extra = accessLlc(msg.addr, false, now);
        MemMsg resp;
        resp.kind = MsgKind::NtxReadResp;
        resp.core = msg.core;
        resp.partition = id;
        resp.wid = msg.wid;
        resp.warpSlot = msg.warpSlot;
        resp.addr = msg.addr;
        resp.flag = msg.flag;
        resp.txId = msg.txId;
        // The response echoes the request's lanes: take over its buffer.
        resp.ops = std::move(msg.ops);
        for (LaneOp &op : resp.ops)
            op.value = store.read(op.addr);
        // MSHR-tracked fills return a whole L1 line; volatile reads and
        // unmerged fallbacks return just the requested words.
        resp.bytes = msg.txId == 1
                         ? 8 + addrMap.lineBytes()
                         : 8 + 4 * static_cast<unsigned>(resp.ops.size());
        scheduleToCore(std::move(resp), now + 1 + llcLat + extra);
        stNtxReads.add();
        return 1;
      }

      case MsgKind::NtxWrite: {
        const Cycle extra = accessLlc(msg.addr, true, now);
        if (msg.flag) {
            // L1-bypass (volatile) store: the partition is the
            // serialization point; apply, notify TCD, and ack.
            for (const LaneOp &op : msg.ops) {
                store.write(op.addr, op.value);
                hub.externalWrite(op.addr, op.value);
                if (proto)
                    proto->noteDataWrite(op.addr, now);
            }
            MemMsg ack;
            ack.kind = MsgKind::NtxWriteAck;
            ack.core = msg.core;
            ack.partition = id;
            ack.wid = msg.wid;
            ack.warpSlot = msg.warpSlot;
            ack.bytes = 8;
            scheduleToCore(std::move(ack), now + 1 + llcLat + extra);
        }
        stNtxWrites.add();
        return 1;
      }

      case MsgKind::Atomic: {
        const Cycle extra = accessLlc(msg.addr, true, now);
        MemMsg resp;
        resp.kind = MsgKind::AtomicResp;
        resp.core = msg.core;
        resp.partition = id;
        resp.wid = msg.wid;
        resp.warpSlot = msg.warpSlot;
        resp.addr = msg.addr;
        // Atomics to the same line serialize here, one per cycle. Each
        // op's slot then carries its old value back to the core.
        resp.ops = std::move(msg.ops);
        for (LaneOp &op : resp.ops) {
            std::uint32_t old;
            switch (static_cast<AtomicOp>(msg.aop)) {
              case AtomicOp::Cas:
                old = store.atomicCas(op.addr, op.value, op.aux);
                break;
              case AtomicOp::Exch:
                old = store.atomicExch(op.addr, op.value);
                break;
              default:
                old = store.atomicAdd(op.addr, op.value);
                break;
            }
            hub.externalWrite(op.addr, store.read(op.addr));
            if (proto)
                proto->noteDataWrite(op.addr, now);
            op.value = old;
            op.aux = 0;
        }
        const Cycle busy = std::max<Cycle>(1, resp.ops.size());
        resp.bytes = 8 + 4 * static_cast<unsigned>(resp.ops.size());
        scheduleToCore(std::move(resp), now + busy + llcLat + extra);
        stAtomics.add();
        return busy;
      }

      default:
        panic("handleLocal on non-local message");
    }
}

Cycle
MemPartition::nextEventCycle(Cycle now) const
{
    Cycle best = ~static_cast<Cycle>(0);
    if (!outQueue.empty())
        best = std::min(best, outQueue.nextWhen());
    if (xbarUp.hasReady(id, now))
        best = std::min(best, std::max(popFree, now + 1));
    if (proto)
        best = std::min(best, proto->nextEventCycle());
    return best;
}

bool
MemPartition::idle(Cycle now) const
{
    // popFree past `now` with nothing queued is not "busy": it only
    // gates future pops, of which there are none.
    return outQueue.empty() && !xbarUp.hasReady(id, now);
}

} // namespace getm
