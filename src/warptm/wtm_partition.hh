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
 * EagerLazy slices (flag set) bypass the ordering machinery: writes are
 * applied on arrival and acked in a single round trip.
 */

#ifndef GETM_WARPTM_WTM_PARTITION_HH
#define GETM_WARPTM_WTM_PARTITION_HH

#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/metadata_table.hh" // RecencyBloom, reused for the TCD
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
    /** Advance the in-order validation pipeline as far as possible. */
    void tryAdvance(Cycle now);

    void validateSlice(MemMsg &&slice, Cycle now);
    void applyDecision(const MemMsg &decision, Cycle now);
    Cycle applyElSlice(const MemMsg &slice, Cycle now);

    /** Does @p slice touch any word written by an undecided slice? */
    bool hazardsWithPending(const MemMsg &slice) const;

    WtmPartitionConfig cfg;
    std::string unitName;

    /**
     * TCD last-write filter: a recency Bloom filter over word addresses
     * whose "wts" field holds the last write cycle (overestimated under
     * collisions -- safe: a too-recent answer merely forces value-based
     * validation).
     */
    RecencyBloom tcd;

    /** Slices/skips waiting their turn, keyed by commit id. */
    std::map<std::uint64_t, MemMsg> reorder;
    /** Decisions that arrived before their slice validated. */
    std::map<std::uint64_t, MemMsg> decisions;
    /** Validated slices awaiting their decisions, keyed by commit id. */
    std::map<std::uint64_t, MemMsg> awaiting;
    /** Write-set words of awaiting slices (hazard detection). */
    std::unordered_map<Addr, unsigned> pendingWrites;
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
