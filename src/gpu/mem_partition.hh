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
 * hit that follows it, and an EAPG broadcast at now + 1 queues behind
 * 330-cycle LLC responses), so outbound responses wait in an
 * OutboundQueue: a timing wheel of per-cycle FIFO buckets. Bucket
 * `when & mask` chains its messages through a `next` index in the slot
 * vector that holds them, a bitmap of occupied buckets finds the next
 * non-empty one, and the earliest ready cycle is cached. The wheel
 * always spans every queued ready cycle, so a bucket holds one cycle
 * and its FIFO order is sequence order; a push that would break that
 * doubles the wheel first. A push is constant time, a pop at most a
 * bitmap scan, and once the wheel and the slot vector reach their
 * working size, steady-state scheduling allocates nothing.
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
 * Messages ordered by (ready cycle, insertion sequence): a timing wheel
 * of per-cycle FIFO buckets over a slot vector (file comment).
 * Serializes as the sequence counter, then a count and the entries
 * (when, seq, msg) in pop order -- the bytes a std::priority_queue of
 * such entries wrote.
 */
class OutboundQueue
{
  public:
    /** Queue @p msg for cycle @p when. */
    void
    push(MemMsg &&msg, Cycle when)
    {
        insert(std::move(msg), when, seq++);
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Ready cycle of the next pop (must be !empty()). */
    Cycle nextWhen() const { return headWhen; }

    /** Remove and return the earliest message (must be !empty()). */
    MemMsg pop();

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(seq);
        if constexpr (Ar::saving) {
            std::uint64_t n = count;
            ar(n);
            // Round the wheel from the head's bucket is pop order.
            for (std::size_t i = 0; n != 0 && i < buckets.size(); ++i)
                for (std::uint32_t s =
                         buckets[(headWhen + i) & mask()].head;
                     s != none; s = slots[s].next)
                    ar(slots[s].when, slots[s].seq, slots[s].msg);
        } else {
            std::fill(buckets.begin(), buckets.end(), Bucket{});
            std::fill(occupied.begin(), occupied.end(), 0);
            slots.clear();
            freeHead = none;
            count = 0;
            std::uint64_t n = 0;
            ar(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                Cycle when = 0;
                std::uint64_t entry_seq = 0;
                MemMsg msg;
                ar(when, entry_seq, msg);
                // Pop order appends each bucket's entries in seq order.
                insert(std::move(msg), when, entry_seq);
            }
        }
    }

  private:
    static constexpr std::uint32_t none = ~0u;

    struct Slot
    {
        MemMsg msg;
        Cycle when = 0;
        std::uint64_t seq = 0;
        /** Next slot in its bucket or in the free list. */
        std::uint32_t next = none;
    };

    /** FIFO of one ready cycle's slots. */
    struct Bucket
    {
        std::uint32_t head = none;
        std::uint32_t tail = none;
    };

    void insert(MemMsg &&msg, Cycle when, std::uint64_t entry_seq);

    /** Re-bucket into a wheel of at least @p span buckets. */
    void grow(Cycle span);

    std::size_t mask() const { return buckets.size() - 1; }

    std::uint64_t seq = 0;
    std::size_t count = 0;
    Cycle headWhen = 0; ///< Earliest queued ready cycle.
    Cycle maxWhen = 0;  ///< Latest ready cycle pushed while non-empty.
    std::vector<Bucket> buckets;          ///< Power-of-two wheel.
    std::vector<std::uint64_t> occupied;  ///< One bit per bucket.
    std::vector<Slot> slots;
    std::uint32_t freeHead = none;        ///< Free slots, via Slot::next.
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
