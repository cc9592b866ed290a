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
 */

#ifndef GETM_CORE_GETM_CORE_TM_HH
#define GETM_CORE_GETM_CORE_TM_HH

#include <memory>
#include <utility>
#include <vector>

#include "ckpt/serial.hh"
#include "core/getm_partition.hh"
#include "simt/simt_core.hh"
#include "simt/tm_iface.hh"

namespace getm {

/** GETM TmCoreProtocol implementation. */
class GetmCoreTm : public TmCoreProtocol
{
  public:
    explicit GetmCoreTm(SimtCore &core_)
        : core(core_),
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

  private:
    SimtCore &core;

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
 * every warp slot's warpts restarts at zero, and the cores thaw.
 */
class GetmGpuTm : public TmGpuProtocol
{
  public:
    /**
     * @param threshold Logical-clock epoch that starts a rollover
     *                  (~0: never).
     * @param penalty   Validation-pipeline stall of one rollover.
     */
    GetmGpuTm(const std::vector<std::unique_ptr<SimtCore>> &cores_,
              std::vector<GetmPartitionUnit *> units_, LogicalTs threshold_,
              Cycle penalty_)
        : cores(cores_), units(std::move(units_)),
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

    const std::vector<std::unique_ptr<SimtCore>> &cores;
    std::vector<GetmPartitionUnit *> units;
    LogicalTs threshold;
    Cycle penalty;
    bool pending = false;
    std::uint64_t rollovers = 0;
};

} // namespace getm

#endif // GETM_CORE_GETM_CORE_TM_HH
