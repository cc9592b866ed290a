/**
 * @file
 * A memory partition: LLC slice, DRAM channel, and the protocol's
 * validation/commit units (paper Fig. 5, right side).
 *
 * The partition pops at most one message per cycle from the up crossbar
 * (Table II: validation bandwidth 1 request/cycle per partition); the
 * handler's busy time gates subsequent pops. Outbound responses are
 * scheduled at their exact ready cycles and injected into the down
 * crossbar then.
 *
 * Ready cycles are not monotonic (a DRAM miss is scheduled later than a
 * hit that follows it), so outbound responses wait in an OutboundQueue:
 * a binary min-heap of 24-byte (when, seq, slot) keys over a slot vector
 * that holds the messages. A sift moves keys, never whole MemMsgs, and
 * both vectors keep their storage, so steady-state scheduling allocates
 * nothing.
 */

#ifndef GETM_GPU_MEM_PARTITION_HH
#define GETM_GPU_MEM_PARTITION_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/cache_model.hh"
#include "mem/dram_model.hh"
#include "noc/crossbar.hh"
#include "tm/partition_iface.hh"

namespace getm {

struct GpuConfig;

/**
 * Messages ordered by (ready cycle, insertion sequence): a min-heap of
 * keys naming slots in a message vector (file comment). Serializes as
 * the sequence counter, then a count and the entries (when, seq, msg) in
 * pop order -- the bytes a std::priority_queue of such entries wrote.
 */
class OutboundQueue
{
  public:
    /** Queue @p msg for cycle @p when. */
    void push(MemMsg &&msg, Cycle when);

    bool empty() const { return keys.empty(); }
    std::size_t size() const { return keys.size(); }

    /** Ready cycle of the next pop (must be !empty()). */
    Cycle nextWhen() const { return keys.front().when; }

    /** Remove and return the earliest message (must be !empty()). */
    MemMsg pop();

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(seq);
        if constexpr (Ar::saving) {
            std::vector<Key> order = keys;
            std::sort(order.begin(), order.end(),
                      [](const Key &a, const Key &b) { return Later{}(b, a); });
            std::uint64_t n = order.size();
            ar(n);
            for (Key &key : order)
                ar(key.when, key.seq, slots[key.slot]);
        } else {
            keys.clear();
            slots.clear();
            freeSlots.clear();
            std::uint64_t n = 0;
            ar(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                Key key{};
                MemMsg msg;
                ar(key.when, key.seq, msg);
                key.slot = static_cast<std::uint32_t>(slots.size());
                slots.push_back(std::move(msg));
                keys.push_back(key);
            }
            // Pop order is ascending, which is already a valid min-heap.
        }
    }

  private:
    struct Key
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(sizeof(Key) == 24);

    /** Heap order: true if @p a pops after @p b. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    std::uint64_t seq = 0;
    std::vector<Key> keys;          ///< Min-heap under Later.
    std::vector<MemMsg> slots;      ///< Queued messages, by Key::slot.
    std::vector<std::uint32_t> freeSlots;
};

/** One LLC partition with its protocol unit. */
class MemPartition : public PartitionContext
{
  public:
    MemPartition(PartitionId id, const GpuConfig &config,
                 const AddressMap &map, BackingStore &store,
                 Crossbar<MemMsg> &up, Crossbar<MemMsg> &down,
                 unsigned num_cores, const TxEvents &events);

    /** Install the protocol unit (may be null for the lock baseline). */
    void setProtocol(std::unique_ptr<TmPartitionProtocol> unit);

    /** Emit due responses and process at most one inbound message. */
    void tick(Cycle now);

    /** Earliest future cycle at which this partition has work. */
    Cycle nextEventCycle(Cycle now) const;

    /** No queued output and not mid-operation. */
    bool idle(Cycle now) const;

    TmPartitionProtocol *protocol() { return proto.get(); }
    CacheModel &llc() { return llcCache; }

    /** Install the fault injector (may be null). */
    void setFaults(FaultInjector *f) { faultInj = f; }

    // --- PartitionContext ----------------------------------------------
    void
    addPipelineStall(Cycle now, Cycle penalty) override
    {
        if (popFree < now + penalty)
            popFree = now + penalty;
    }

    PartitionId partitionId() const override { return id; }
    unsigned numCores() const override { return cores; }
    void scheduleToCore(MemMsg &&msg, Cycle when) override;
    Cycle accessLlc(Addr line_addr, bool is_write, Cycle now) override;
    Cycle llcLatency() const override { return llcLat; }
    BackingStore &memory() override { return store; }
    StatSet &stats() override { return statSet; }
    const TxEvents &events() const override { return hub; }
    FaultInjector *faults() override { return faultInj; }

    /** Checkpoint hook for everything but the protocol unit (which the
     *  owner serializes through its virtual ckptSave/ckptLoad). */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(llcCache, dram, popFree, outQueue, statSet);
    }

  private:
    /** Handle non-transactional reads/writes and atomics locally. */
    Cycle handleLocal(MemMsg &&msg, Cycle now);

    PartitionId id;
    unsigned cores;
    Cycle llcLat;
    const AddressMap &addrMap;
    BackingStore &store;
    Crossbar<MemMsg> &xbarUp;
    Crossbar<MemMsg> &xbarDown;
    CacheModel llcCache;
    DramModel dram;
    std::unique_ptr<TmPartitionProtocol> proto;
    const TxEvents &hub;
    FaultInjector *faultInj = nullptr;

    Cycle popFree = 0;
    OutboundQueue outQueue;
    StatSet statSet;

    // Hot-path stat handles: one add per handled request.
    StatSet::Counter &stDramWritebacks;
    StatSet::Counter &stNtxReads;
    StatSet::Counter &stNtxWrites;
    StatSet::Counter &stAtomics;
};

} // namespace getm

#endif // GETM_GPU_MEM_PARTITION_HH
