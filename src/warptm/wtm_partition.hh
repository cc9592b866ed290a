/**
 * @file
 * WarpTM validation/commit units at one LLC partition.
 *
 * Transactional loads are served with data plus the TCD last-write
 * timestamp. Validation slices enter in global commit order (ids are
 * contiguous per partition thanks to skip messages). Hazard-free slices
 * pipeline KiloTM-style: up to maxAwaiting transactions may be validated
 * and awaiting their decisions concurrently, but a slice that reads or
 * writes a word written by an undecided earlier transaction must wait
 * for that decision -- which is exactly the serialization bottleneck the
 * paper identifies ("while one transaction goes through the
 * two-round-trip validation/commit sequence, other transactions must
 * wait").
 *
 * The hazard check probes the words written by undecided slices, kept
 * with their pending-write counts behind an AddrIndex
 * (common/addr_index.hh), for every word of every slice it admits.
 *
 * EagerLazy slices (flag set) bypass the ordering machinery: writes are
 * applied on arrival and acked in a single round trip.
 */

#ifndef GETM_WARPTM_WTM_PARTITION_HH
#define GETM_WARPTM_WTM_PARTITION_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/metadata_table.hh" // RecencyBloom, reused for the TCD
#include "common/addr_index.hh"
#include "tm/partition_iface.hh"

namespace getm {

/** Configuration of one partition's WarpTM units. */
struct WtmPartitionConfig
{
    /** Commit-unit write bandwidth (Table II: 32 B/cycle). */
    unsigned commitBytesPerCycle = 32;
    /**
     * Buckets in this partition's TCD last-write filter (the 16 KB
     * "last-write buffer" of Table V, stored approximately: collisions
     * overestimate the last-write time, which only costs silent
     * commits, never correctness). The 56-core configuration doubles
     * it, per the paper's Sec. VI-A.
     */
    unsigned tcdEntries = 2048;
    /**
     * Validated-but-undecided transactions allowed in flight per
     * partition. Depth 1 is the paper's literal serialization ("while
     * one transaction goes through the two-round-trip sequence, other
     * transactions must wait"); the KiloTM hardware overlaps
     * hazard-free commits, which depth 8 models.
     */
    unsigned pipelineDepth = 8;
    std::uint64_t seed = 0x7cd;
};

/** WarpTM protocol engine at one memory partition. */
class WtmPartitionUnit : public TmPartitionProtocol
{
  public:
    WtmPartitionUnit(PartitionContext &context,
                     const WtmPartitionConfig &config, std::string name);

    Cycle handleRequest(MemMsg &&msg, Cycle now) override;
    void noteDataWrite(Addr addr, Cycle now) override;
    void ckptSave(ckpt::Writer &ar) override;
    void ckptLoad(ckpt::Reader &ar) override;

    /** Oldest commit id not yet fully processed here. */
    std::uint64_t nextCommitId() const { return nextId; }

  protected:
    /** EAPG hook: validation of a slice with writes began. */
    virtual void onValidationStart(const MemMsg &slice, Cycle now)
    {
        (void)slice;
        (void)now;
    }

    /** EAPG hook: a decision was applied (commit finished). */
    virtual void onDecisionApplied(std::uint64_t tx_id, Cycle now)
    {
        (void)tx_id;
        (void)now;
    }

    PartitionContext &ctx;

  private:
    /**
     * Occupancy bits of one commit id in the window. Queued and
     * Awaiting exclude each other; Decided can join either.
     */
    enum : std::uint8_t
    {
        Queued = 1,   ///< Slice or skip arrived, not yet admitted.
        Awaiting = 2, ///< Slice validated, waiting for its decision.
        Decided = 4,  ///< Decision arrived.
    };

    /**
     * One commit id in the window: its occupancy bits and the slots of
     * its messages in the `parked` pool. Most ids in the window are
     * already processed, so the messages live out of line.
     */
    struct WindowEntry
    {
        std::uint8_t bits = 0;
        std::uint32_t msg = 0;      ///< The Queued or Awaiting slice/skip.
        std::uint32_t decision = 0; ///< Valid while Decided.
    };

    /** Advance the in-order validation pipeline as far as possible. */
    void tryAdvance(Cycle now);

    /** Validate @p entry's Queued slice in place; it becomes Awaiting. */
    void validateSlice(WindowEntry &entry, Cycle now);
    /** Apply the decision of the Awaiting and Decided @p entry. */
    void applyDecision(WindowEntry &entry, Cycle now);
    Cycle applyElSlice(const MemMsg &slice, Cycle now);

    /** Does @p slice touch any word written by an undecided slice? */
    bool hazardsWithPending(const MemMsg &slice) const;
    /** Count one more pending write of @p addr. */
    void addPendingWrite(Addr addr);
    /** Count one fewer, dropping the word at zero. */
    void dropPendingWrite(Addr addr);

    /** The window entry of @p id, growing the ring to reach it. */
    WindowEntry &entryFor(std::uint64_t id);
    WindowEntry &at(std::uint64_t id) { return ring[id & (ring.size() - 1)]; }
    /** Move base past the ids below nextId that are fully processed. */
    void retireDone();
    /** Entry @p id just became both Awaiting and Decided. */
    void noteReady(std::uint64_t id);
    /** Park @p msg in the message pool; returns its slot. */
    std::uint32_t park(MemMsg &&msg);
    /** Free pool slot @p slot, returning its op buffer. */
    void unpark(std::uint32_t slot);

    WtmPartitionConfig cfg;
    std::string unitName;

    /**
     * TCD last-write filter: a recency Bloom filter over word addresses
     * whose "wts" field holds the last write cycle (overestimated under
     * collisions -- safe: a too-recent answer merely forces value-based
     * validation).
     */
    RecencyBloom tcd;

    /**
     * The commit-id window: ids [base, base + ring.size()) map to
     * ring[id % ring.size()] (a power of two). Commit ids are dense, so
     * the window spans the oldest undecided id to the newest arrival;
     * ids below base are fully processed. Slices and skips wait here
     * for their turn, validated slices for their decisions, and
     * decisions that arrive early for their slices.
     */
    std::vector<WindowEntry> ring = std::vector<WindowEntry>(64);
    std::uint64_t base = 1;
    /**
     * The window's messages, and the free slots among them. A deque
     * grows in fixed blocks, so growth leaves no outgrown arrays behind.
     */
    std::deque<MemMsg> parked;
    std::vector<std::uint32_t> freeParked;
    /**
     * Entries that are both Awaiting and Decided, and a lower bound on
     * their ids: the window can span hundreds of ids, so the apply scan
     * starts there rather than at base.
     */
    unsigned ready = 0;
    std::uint64_t firstReady = 1;
    /** Entries that are Awaiting. */
    unsigned awaiting = 0;
    /** A word written by Awaiting slices, and how many such writes. */
    struct PendingWrite
    {
        Addr addr;
        std::uint32_t count;
    };
    /**
     * Write-set words of Awaiting slices (hazard detection), indexed by
     * word; rebuilt on restore.
     */
    std::vector<PendingWrite> pendingWrites;
    AddrIndex pendingIndex;
    std::uint64_t nextId = 1;
    Cycle vuFree = 0;

    // Hot-path stat handles: one add per validated/decided slice.
    StatSet::Counter &stElCommits;
    StatSet::Counter &stValidations;
    StatSet::Counter &stValidationFails;
    StatSet::Counter &stDecisions;
};

} // namespace getm

#endif // GETM_WARPTM_WTM_PARTITION_HH
