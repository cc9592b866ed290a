/**
 * @file
 * Interface between a memory partition and its TM protocol unit.
 *
 * A memory partition (src/gpu) hosts an LLC slice, a DRAM channel, and a
 * protocol-specific validation/commit unit. The partition pops one
 * message per cycle from its arrival queue (Table II: validation
 * bandwidth 1 request/cycle per partition); the handler returns how many
 * cycles the unit is busy, which gates the next pop.
 */

#ifndef GETM_TM_PARTITION_IFACE_HH
#define GETM_TM_PARTITION_IFACE_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/backing_store.hh"
#include "tm/messages.hh"

namespace getm {

class FaultInjector;
class TxEvents;

/** The all-null hub (obs/tx_events.hh). */
extern const TxEvents noTxEvents;

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

/** Services a partition provides to its protocol unit. */
class PartitionContext
{
  public:
    virtual ~PartitionContext() = default;

    virtual PartitionId partitionId() const = 0;

    /** Number of SIMT cores (EAPG broadcasts to all of them). */
    virtual unsigned numCores() const = 0;

    /** Schedule @p msg to enter the down crossbar at cycle @p when. */
    virtual void scheduleToCore(MemMsg &&msg, Cycle when) = 0;

    /**
     * Access the LLC slice for timing; returns the extra latency beyond
     * the base LLC pipeline (0 on hit, DRAM delay on miss).
     */
    virtual Cycle accessLlc(Addr line_addr, bool is_write, Cycle now) = 0;

    /** Base LLC pipeline latency (Table II: 330 cycles). */
    virtual Cycle llcLatency() const = 0;

    /** Functional memory. */
    virtual BackingStore &memory() = 0;

    virtual StatSet &stats() = 0;

    /** Instrument hub (obs/tx_events.hh); reports into nothing unless
     *  the owner installs one. */
    virtual const TxEvents &events() const { return noTxEvents; }

    /** Fault injector; nullptr unless --inject is enabled. */
    virtual FaultInjector *faults() { return nullptr; }

    /** Pop no request before cycle @p now + @p penalty (rollover). */
    virtual void
    addPipelineStall(Cycle now, Cycle penalty)
    {
        (void)now;
        (void)penalty;
    }
};

/** Partition-side protocol unit (validation + commit units). */
class TmPartitionProtocol
{
  public:
    virtual ~TmPartitionProtocol() = default;

    /**
     * Process one arrived protocol message at cycle @p now.
     * @return the number of cycles the unit is busy (>= 1).
     */
    virtual Cycle handleRequest(MemMsg &&msg, Cycle now) = 0;

    /** Earliest future self-generated event (e.g., none: ~0). */
    virtual Cycle nextEventCycle() const { return ~static_cast<Cycle>(0); }

    /** Self-generated work (default: none). */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * The partition applied a data write outside the protocol unit
     * (non-transactional store or atomic); lets WarpTM's TCD last-write
     * table stay conservative.
     */
    virtual void noteDataWrite(Addr addr, Cycle now)
    {
        (void)addr;
        (void)now;
    }

    /** Serialize engine state into a checkpoint (default: stateless). */
    virtual void ckptSave(ckpt::Writer &ar) { (void)ar; }

    /** Restore engine state from a checkpoint (default: stateless). */
    virtual void ckptLoad(ckpt::Reader &ar) { (void)ar; }
};

} // namespace getm

#endif // GETM_TM_PARTITION_IFACE_HH
