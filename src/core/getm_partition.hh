/**
 * @file
 * GETM validation and commit units, colocated with each LLC partition
 * (paper Sec. IV-A, Fig. 6 and Sec. V-B).
 *
 * The validation unit performs eager conflict detection on every
 * transactional access: owner check, timestamp check, write-lock check,
 * and queueing in the stall buffer. The commit unit receives write/abort
 * logs, coalesces writes, stores data in the LLC, and releases write
 * reservations -- all off the critical path (no messages back to the
 * core).
 */

#ifndef GETM_CORE_GETM_PARTITION_HH
#define GETM_CORE_GETM_PARTITION_HH

#include <string>

#include "core/metadata_table.hh"
#include "core/stall_buffer.hh"
#include "obs/abort_reason.hh"
#include "tm/partition_iface.hh"

namespace getm {

/** Configuration of one partition's GETM units. */
struct GetmPartitionConfig
{
    MetadataTable::Config meta;
    StallBuffer::Config stall;
    /** Metadata granularity in bytes (paper: 32). */
    unsigned granule = 32;
    /** Commit-unit write bandwidth (Table II: 32 B/cycle). */
    unsigned commitBytesPerCycle = 32;
};

/** GETM protocol engine at one memory partition. */
class GetmPartitionUnit : public TmPartitionProtocol
{
  public:
    GetmPartitionUnit(PartitionContext &context,
                      const GetmPartitionConfig &config, std::string name);

    Cycle handleRequest(MemMsg &&msg, Cycle now) override;

    void ckptSave(ckpt::Writer &ar) override;
    void ckptLoad(ckpt::Reader &ar) override;

    /** Highest logical timestamp seen (rollover detection). */
    LogicalTs maxTimestamp() const { return meta.maxTimestamp(); }

    /**
     * Timestamp rollover at cycle @p now: reset all metadata and stall
     * the partition's validation pipeline for @p penalty cycles.
     */
    void flushForRollover(Cycle now = 0, Cycle penalty = 0);

    MetadataTable &metadata() { return meta; }
    StallBuffer &stallBuffer() { return stall; }

  private:
    Addr granuleOf(Addr addr) const { return addr - addr % cfg.granule; }

    /**
     * Run the Fig. 6 access flow for a load/store request.
     * @return busy cycles consumed.
     */
    Cycle processAccess(MemMsg &&msg, Cycle now);

    /** Process commit/abort log entries. */
    Cycle processCommit(const MemMsg &msg, Cycle now);

    /** Grant stalled requests after #writes reached zero. */
    Cycle releaseWaiters(Addr granule, Cycle now);

    // Each response echoes the request's lanes, so it takes over
    // msg.ops; the caller may still read msg's other fields.
    void respondLoad(MemMsg &msg, Cycle ready, Cycle now);
    void respondStoreAck(MemMsg &msg, Cycle ready);
    /**
     * Abort the requester. The validation unit decides *why* here
     * (@p reason) and ships it back in the response so the core can
     * attribute the abort; @p granule feeds the hot-address profiler.
     */
    void respondAbort(MemMsg &msg, LogicalTs observed, Cycle ready,
                      AbortReason reason, Cycle now);

    PartitionContext &ctx;
    GetmPartitionConfig cfg;
    MetadataTable meta;
    StallBuffer stall;

    /**
     * True cycle of the message being handled. Tracer charges use this
     * instead of the serialized now + busy offsets inside
     * processCommit/releaseWaiters, so the tracer's per-warp cursor
     * never runs ahead of simulated time.
     */
    Cycle traceNow = 0;

    // Hot-path stat handles: one add per validated/committed request.
    StatSet::Counter &stVuAborts;
    StatSet::Counter &stOwnerHits;
    StatSet::Counter &stStalledRequests;
    StatSet::Counter &stCommitMsgs;
    StatSet::Counter &stAbortMsgs;
    StatSet::Counter &stStallGrants;
};

} // namespace getm

#endif // GETM_CORE_GETM_PARTITION_HH
