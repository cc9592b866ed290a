/**
 * @file
 * Interfaces between the simulator and a TM protocol's engines.
 *
 * The core owns generic machinery (scheduling, SIMT stack, coalescing,
 * response plumbing, retirement); a TmCoreProtocol implements the
 * protocol-specific behaviour of transactional accesses and commits,
 * and owns the protocol's per-warp-slot state (indexed by Warp::slot),
 * resetting it at the events it handles; Warp holds none of it.
 * What spans every core and partition -- GETM's timestamp rollover,
 * WarpTM's global commit ids and EL commit micro-phase -- lives in one
 * TmGpuProtocol. The partition side is TmPartitionProtocol
 * (tm/partition_iface.hh). Concrete engines: GETM (src/core),
 * WarpTM-LL/-EL (src/warptm), and EAPG (src/eapg). The
 * fine-grained-lock baseline uses no engine at all.
 */

#ifndef GETM_SIMT_TM_IFACE_HH
#define GETM_SIMT_TM_IFACE_HH

#include <array>
#include <vector>

#include "simt/warp.hh"
#include "tm/messages.hh"

namespace getm {

class SimtCore;
struct RunResult;
struct SimDiagnostic;

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

/** Per-lane addresses of one memory instruction. */
using LaneAddrs = std::array<Addr, warpSize>;

/** Per-lane store data of one memory instruction. */
using LaneVals = std::array<std::uint32_t, warpSize>;

/** Core-side protocol engine. */
class TmCoreProtocol
{
  public:
    virtual ~TmCoreProtocol() = default;

    /** A new transaction attempt began (throttle already passed). */
    virtual void onTxBegin(Warp &warp) { (void)warp; }

    /**
     * Handle a transactional load or store.
     *
     * @param warp  Issuing warp (its pendingReg is already set for loads).
     * @param is_store True for stores.
     * @param addrs Per-lane word addresses (valid where @p lanes set).
     * @param vals  Per-lane store data (stores only).
     * @param lanes Active lanes.
     * @param rd    Destination register for loads.
     */
    virtual void txAccess(Warp &warp, bool is_store, const LaneAddrs &addrs,
                          const LaneVals &vals, LaneMask lanes,
                          std::uint8_t rd) = 0;

    /**
     * The warp reached its commit point (all lanes at TxCommit or
     * aborted) and all outstanding accesses have drained. The engine
     * must eventually call SimtCore::retireTxAttempt().
     */
    virtual void txCommitPoint(Warp &warp) = 0;

    /** A protocol-specific response arrived for @p warp. */
    virtual void onResponse(Warp &warp, const MemMsg &msg) = 0;

    /** A message with no warp attached (MemMsg::warpSlot ==
     *  noWarpSlot) arrived, e.g. an EAPG signature broadcast. */
    virtual void onBroadcast(const MemMsg &msg) { (void)msg; }

    /** Serialize engine state into a checkpoint (default: stateless). */
    virtual void ckptSave(ckpt::Writer &ar) { (void)ar; }

    /** Restore engine state from a checkpoint (default: stateless). */
    virtual void ckptLoad(ckpt::Reader &ar) { (void)ar; }
};

/**
 * Components a GPU-scope hook changed outside their own tick(). The
 * event loop recomputes exactly these cached wake cycles.
 */
struct WakeRefresh
{
    std::vector<CoreId> cores; ///< Cores whose wake cycle is stale.
    bool all = false;          ///< Every core and partition is stale.
};

/**
 * GPU-scope protocol engine. GpuSystem::wireProtocol() creates one
 * beside the per-core and per-partition engines; the cycle loop,
 * checkpoints, diagnostics and run results call its hooks.
 */
class TmGpuProtocol
{
  public:
    virtual ~TmGpuProtocol() = default;

    /**
     * Commit micro-phase, after every core ticked and before the cycle
     * is sampled: work the core engines parked during their ticks runs
     * here in core order. The golden fixtures pin this schedule.
     */
    virtual void commitPhase(Cycle /*now*/, WakeRefresh & /*refresh*/) {}

    /**
     * Last step of every visited cycle, after the sampler.
     * @return true while the engine needs cycles simulated although no
     *         component has a future event.
     */
    virtual bool
    endCycle(Cycle /*now*/, WakeRefresh & /*refresh*/)
    {
        return false;
    }

    /** Serialize / restore the engine's state in a checkpoint. */
    virtual void ckptSave(ckpt::Writer &ar) = 0;
    virtual void ckptLoad(ckpt::Reader &ar) = 0;

    /** Add the engine's rows to a SimError diagnostic. */
    virtual void diagnose(SimDiagnostic & /*diag*/) {}

    /** Fold the engine's results into @p result at the end of a run,
     *  after the component and crossbar stats are merged. */
    virtual void finishRun(RunResult & /*result*/) {}
};

} // namespace getm

#endif // GETM_SIMT_TM_IFACE_HH
