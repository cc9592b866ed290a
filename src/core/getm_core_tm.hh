/**
 * @file
 * Core-side GETM protocol engine, and GETM's GPU-scope engine
 * (timestamp rollover).
 *
 * Every transactional access is checked eagerly: first against the
 * warp's own logs (intra-warp conflict detection), then -- for accesses
 * that need it -- at the LLC validation unit. Loads block the warp;
 * store reservations are fire-and-forget (the commit point waits for
 * their acks). A transaction reaching its commit point is guaranteed to
 * succeed, so the commit itself is off the critical path: the core
 * transmits the write log and immediately continues (paper Sec. IV).
 *
 * The engine owns GETM's per-warp-slot hardware (paper Table V) -- the
 * warpts, grant and intra-warp conflict tables -- and resets it at the
 * events it handles, so Warp and SimtCore carry no GETM state.
 */

#ifndef GETM_CORE_GETM_CORE_TM_HH
#define GETM_CORE_GETM_CORE_TM_HH

#include <array>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/serial.hh"
#include "core/getm_partition.hh"
#include "simt/simt_core.hh"
#include "simt/tm_iface.hh"
#include "tm/intra_warp_cd.hh"

namespace getm {

/**
 * GETM granted-reservation table: per-lane maps of granule -> count.
 *
 * Lane maps are allocated lazily on first write, so slots whose
 * transactions never store pay for a pointer array instead of 32 empty
 * unordered_maps. Once allocated, a lane's map lives for the warp
 * slot's lifetime — clearAll() empties it in place — so insertion/rehash
 * history, and therefore iteration order, is identical to the
 * eagerly-allocated representation it replaced.
 *
 * That iteration order is simulated behaviour, not a host detail: the
 * GETM commit point walks each aborted lane's map to build its cleanup
 * ops, whose order sets the busy offsets of the waiters the partition
 * releases. A replacement table must preserve it
 * (GetmBehavior.CleanupGrantOrderPinned).
 */
class LaneGrantTable
{
  public:
    using GrantMap = std::unordered_map<Addr, std::uint32_t>;

    /** Lane map for writing; allocates on first use. */
    GrantMap &
    operator[](LaneId lane)
    {
        auto &slot = lanes[lane];
        if (!slot)
            slot = std::make_unique<GrantMap>();
        return *slot;
    }

    /** Lane map for reading; a shared empty map if never written. */
    const GrantMap &
    forLane(LaneId lane) const
    {
        static const GrantMap empty;
        return lanes[lane] ? *lanes[lane] : empty;
    }

    /** Empty every allocated lane map (keeps the allocations). */
    void
    clearAll()
    {
        for (auto &slot : lanes)
            if (slot)
                slot->clear();
    }

    /**
     * Checkpoint hook. Lane-map *allocation* is part of the layout
     * contract in the class comment, so presence is serialized per
     * lane and maps are materialized (or dropped) to match the
     * snapshot exactly.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        for (auto &slot : lanes) {
            bool present = slot != nullptr;
            ar(present);
            if (!present) {
                slot.reset();
                continue;
            }
            if (!slot)
                slot = std::make_unique<GrantMap>();
            ar(*slot);
        }
    }

  private:
    std::array<std::unique_ptr<GrantMap>, warpSize> lanes;
};

/** GETM TmCoreProtocol implementation. */
class GetmCoreTm : public TmCoreProtocol
{
  public:
    explicit GetmCoreTm(SimtCore &core_)
        : core(core_),
          slots(core_.config().maxWarps),
          stIntraWarpAborts(
              core.stats().addCounter("getm_intra_warp_aborts")),
          stStoreReqs(core.stats().addCounter("getm_store_reqs")),
          stLoadReqs(core.stats().addCounter("getm_load_reqs")),
          stCommitMsgs(core.stats().addCounter("getm_commit_msgs")),
          stCleanupMsgs(core.stats().addCounter("getm_cleanup_msgs"))
    {
    }

    void onTxBegin(Warp &warp) override;
    void txAccess(Warp &warp, bool is_store, const LaneAddrs &addrs,
                  const LaneVals &vals, LaneMask lanes,
                  std::uint8_t rd) override;
    void txCommitPoint(Warp &warp) override;
    void onResponse(Warp &warp, const MemMsg &msg) override;
    void ckptSave(ckpt::Writer &ar) override { ar(slots); }
    void ckptLoad(ckpt::Reader &ar) override { ar(slots); }

  private:
    /** Rollover aborts every slot's attempt and zeroes every clock. */
    friend class GetmGpuTm;

    /** One warp slot's GETM hardware. */
    struct SlotState
    {
        LogicalTs warpts = 0; ///< Persists across relaunches, as in hardware.
        LogicalTs maxObservedTs = 0; ///< Max rts/wts seen this attempt.
        LaneGrantTable granted;      ///< Granted reservations per lane.
        IntraWarpCd iwcd;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(warpts, maxObservedTs, granted, iwcd);
        }
    };

    /** Abort @p lanes through the core; drop their intra-warp claims. */
    void abortLanes(Warp &warp, LaneMask lanes, AbortReason reason,
                    Addr addr);

    SimtCore &core;
    /** Indexed by warp slot. */
    std::vector<SlotState> slots;

    /** txCommitPoint's per-partition commit/cleanup chunks. */
    LogChunks chunks;

    // Hot-path stat handles: one add per transactional access/commit.
    StatSet::Counter &stIntraWarpAborts;
    StatSet::Counter &stStoreReqs;
    StatSet::Counter &stLoadReqs;
    StatSet::Counter &stCommitMsgs;
    StatSet::Counter &stCleanupMsgs;
};

/**
 * GETM's GPU-scope engine: logical-timestamp rollover (paper Sec. V-B1)
 * and the GETM rows of diagnostics and run results.
 *
 * Logical timestamps only grow. Once the highest timestamp any
 * partition has seen passes the rollover threshold, transactional
 * progress freezes and every running attempt aborts. When the cores are
 * quiescent and no reservation or stalled request remains, every
 * partition flushes its metadata and stalls its validation pipeline,
 * every warp slot's warpts restarts at clock zero (stamped with its
 * warp's id), and the cores thaw.
 */
class GetmGpuTm : public TmGpuProtocol
{
  public:
    /**
     * @param threshold Logical-clock epoch that starts a rollover
     *                  (~0: never).
     * @param penalty   Validation-pipeline stall of one rollover.
     */
    GetmGpuTm(std::vector<GetmCoreTm *> engines_,
              std::vector<GetmPartitionUnit *> units_, LogicalTs threshold_,
              Cycle penalty_)
        : engines(std::move(engines_)), units(std::move(units_)),
          threshold(threshold_), penalty(penalty_)
    {
    }

    /** Advance the rollover state machine; true while one is pending. */
    bool endCycle(Cycle now, WakeRefresh &refresh) override;
    void ckptSave(ckpt::Writer &ar) override { ar(pending, rollovers); }
    void ckptLoad(ckpt::Reader &ar) override { ar(pending, rollovers); }
    void diagnose(SimDiagnostic &diag) override;
    void finishRun(RunResult &result) override;

  private:
    /** Freeze and abort everything if the clock passed the threshold;
     *  true if a rollover began. */
    bool beginRollover(Cycle now);

    /** Flush, reset and thaw once quiescent; true if it completed. */
    bool completeRollover(Cycle now);

    std::vector<GetmCoreTm *> engines; ///< In core order.
    std::vector<GetmPartitionUnit *> units;
    LogicalTs threshold;
    Cycle penalty;
    bool pending = false;
    std::uint64_t rollovers = 0;
};

} // namespace getm

#endif // GETM_CORE_GETM_CORE_TM_HH
