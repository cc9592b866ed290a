/**
 * @file
 * The SIMT core: warp contexts, GTO scheduler, instruction execution,
 * memory-access coalescing, transactional-concurrency throttling, and
 * the retirement machinery shared by all TM protocols.
 *
 * The core is driven by GpuSystem: deliver() hands it arrived messages,
 * tick() lets it issue one warp instruction per cycle (Table II models a
 * single 32-wide issue per cycle), and nextEventCycle() supports
 * idle-cycle skipping.
 */

#ifndef GETM_SIMT_SIMT_CORE_HH
#define GETM_SIMT_SIMT_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "isa/kernel.hh"
#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/cache_model.hh"
#include "mem/mshr.hh"
#include "noc/crossbar.hh"
#include "obs/abort_reason.hh"
#include "simt/tm_iface.hh"
#include "simt/warp.hh"
#include "tm/messages.hh"

namespace getm {

class FaultInjector;
class TxEvents;

/** Configuration of one SIMT core. */
struct CoreConfig
{
    unsigned maxWarps = 48;
    /**
     * Warp instructions issued per cycle. Table II's 2 x 16-wide SIMD
     * retires one 32-wide warp instruction per cycle (the default);
     * wider configurations model dual-issue cores.
     */
    unsigned issueWidth = 1;
    /** Extra latency of long ALU ops (div/rem/hash), hidden by other
     *  warps as on real hardware. */
    Cycle longOpLatency = 4;
    /** Max warps with active transactions (paper: 1,2,4,8,16,unlimited). */
    unsigned txWarpLimit = 0xffffffff;
    std::uint64_t l1Bytes = 48 * 1024;
    unsigned l1Assoc = 6;
    unsigned lineBytes = 128;
    /** Metadata granule for transactional coalescing (paper: 32 B). */
    unsigned txGranule = 32;
    Backoff::Config backoff;
    /**
     * Starvation guard: a warp whose consecutive-abort streak reaches
     * this ceiling is counted in the "tx_starvation_events" stat and
     * named in livelock diagnostics. Must be <= 63 (the Backoff
     * attempt cap); the default sits well past the backoff window
     * saturation point, so healthy contention never trips it.
     */
    unsigned starvationAbortCeiling = 48;
    std::uint64_t seed = 1;
};

/**
 * Work source: assigns the next warp of the current launch.
 * Returns false when no work remains.
 */
struct WarpAssignment
{
    GlobalWarpId gwid;
    std::uint32_t firstTid;
    LaneMask validLanes;
};

class SimtCore
{
  public:
    using WorkFn = std::function<bool(WarpAssignment &)>;

    /** @p events is the instrument hub (obs/tx_events.hh) the core and
     *  its protocol engine report into; it must outlive the core, as
     *  must @p up, the crossbar the core sends its requests on. */
    SimtCore(CoreId id, const CoreConfig &config, const AddressMap &map,
             BackingStore &store, Crossbar<MemMsg> &up,
             const TxEvents &events);

    /** Install the protocol engine (may be null for the lock baseline). */
    void setProtocol(std::unique_ptr<TmCoreProtocol> engine);

    /** Begin executing @p kernel; warps are pulled from @p work. */
    void startKernel(const Kernel *kernel, std::uint64_t total_threads,
                     WorkFn work, Cycle now);

    /** A message from the interconnect has arrived. */
    void deliver(MemMsg &&msg, Cycle now);

    /** Advance one cycle: maybe issue one warp instruction. */
    void tick(Cycle now);

    /** Earliest future cycle at which this core can make progress. */
    Cycle nextEventCycle(Cycle now) const;

    /** All warps finished and no work remains. */
    bool done() const;

    // --- services for protocol engines -----------------------------------
    CoreId id() const { return coreId; }
    Cycle now() const { return currentCycle; }

    /**
     * Pin the core's local clock without ticking. The event-driven loop
     * skips not-due cores, so their clock can lag; callers that mutate
     * core state from outside tick()/deliver() (GPU-scope protocol
     * hooks) sync first so backoff wakes and event timestamps use global time.
     */
    void syncClock(Cycle now) { currentCycle = now; }
    const CoreConfig &config() const { return cfg; }
    BackingStore &memory() { return store; }
    const AddressMap &addressMap() const { return addrMap; }
    Rng &rng() { return randomGen; }
    StatSet &stats() { return statSet; }

    /** Route a message to the partition owning msg.addr. */
    void sendToPartition(MemMsg &&msg);

    /** Send a message whose partition field is already set. */
    void sendToPartitionDirect(MemMsg &&msg);

    /** Metadata granule base of a word address. */
    Addr
    granuleOf(Addr addr) const
    {
        return addr - addr % cfg.txGranule;
    }

    /**
     * Abort @p lanes of @p warp's running transaction: SIMT stack
     * surgery and stats. Triggers the commit point if the whole attempt
     * is now aborted and drained.
     *
     * This is the single accounting point for transaction aborts, so
     * every caller states *why* (@p reason) and, when known, the
     * conflicting granule (@p addr). The per-reason attribution
     * therefore sums exactly to the run's total abort counter.
     */
    void abortTxLanes(Warp &warp, LaneMask lanes,
                      AbortReason reason = AbortReason::None,
                      Addr addr = invalidAddr);

    /**
     * Retire the current transaction attempt: pop the Transaction entry,
     * restart aborted lanes from the Retry entry (with backoff), and
     * release the throttle when fully done.
     */
    void retireTxAttempt(Warp &warp, LaneMask committed_lanes);

    /** Account one more blocking response as delivered. */
    void completeBlockingResponse(Warp &warp);

    /** Account one transactional-store ack as delivered. */
    void completeTxStoreAck(Warp &warp);

    /** Write a loaded value into the pending destination register. */
    void
    writebackLane(Warp &warp, LaneId lane, std::uint32_t value)
    {
        warp.setReg(lane, warp.pendingReg,
                    static_cast<std::int64_t>(static_cast<std::int32_t>(value)));
    }

    /** Move @p warp into @p state with tx-cycle accounting. */
    void changeState(Warp &warp, WarpState state);

    /** Broadcast hook: iterate warps with active transactions. */
    std::vector<Warp> &allWarps() { return warps; }

    /** Number of warps currently holding the tx throttle. */
    unsigned activeTxWarps() const { return txActive; }

    /** Aggregate per-warp stats into the core StatSet (call when done). */
    void foldWarpStats();

    /** Instrument hub for protocol engines (obs/tx_events.hh). */
    const TxEvents &events() const { return hub; }

    /** Install the fault injector (may be null). */
    void setFaults(FaultInjector *f) { faultInj = f; }

    /** Fault injector for protocol engines (may be null). */
    FaultInjector *faults() { return faultInj; }

    // --- telemetry gauges -------------------------------------------------
    /** Warps currently resident and not finished. */
    unsigned activeWarps() const;

    /** MSHR entries currently in flight. */
    unsigned mshrOccupancy() const;

    /**
     * Freeze transactional progress (a GPU-scope protocol hook, e.g. a
     * GETM timestamp rollover): new TxBegins stall and backed-off
     * retries do not wake until thawed.
     */
    void setTxFrozen(bool frozen) { txFrozen = frozen; }

    /** True when no warp holds outstanding memory responses. */
    bool quiescent() const;

    // --- forward-progress accounting (watchdog, diagnostics) --------------
    /** Warp instructions retired so far. */
    std::uint64_t instructionsRetired() const
    {
        return stInstructions.value;
    }

    /** Lane-level transaction commits so far. */
    std::uint64_t commitLaneCount() const
    {
        return stTxCommitLanes.value;
    }

    /**
     * Warp instructions retired outside a transaction, a TxBegin
     * counted only once it starts an attempt: the instruction half of
     * the livelock watchdog's progress measure. Aborted attempts and
     * throttled TxBegin re-issues leave it still.
     */
    std::uint64_t nonTxInstructions() const { return nonTxRetired; }

    /**
     * Checkpoint hook: all mutable core state, then the protocol
     * engine's own state through its virtual hooks (the kernel, work
     * source, and instrument hub are reconstructed by the owner).
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(totalThreads, workExhausted, warps, stateOf, wakeOf, l1,
           mshrs, txActive, lastIssued, liveWarps, txFrozen,
           currentCycle, randomGen, statSet, nonTxRetired);
        if constexpr (!Ar::saving)
            rebuildSlotBits();
        if (protocol) {
            if constexpr (Ar::saving)
                protocol->ckptSave(ar);
            else
                protocol->ckptLoad(ar);
        }
    }

  private:
    // --- execution --------------------------------------------------------
    void maybeLaunchWarps(Cycle now);
    Warp *pickWarp(Cycle now);
    void execute(Warp &warp, Cycle now);
    void execAlu(Warp &warp, const Instruction &inst, LaneMask active);
    void execBranch(Warp &warp, const Instruction &inst, LaneMask active);
    void execMemory(Warp &warp, const Instruction &inst, LaneMask active);
    void execTxBegin(Warp &warp, LaneMask active);
    void execTxCommit(Warp &warp);
    void execExit(Warp &warp, LaneMask active);
    void finishWarp(Warp &warp);

    /** Fire the commit point if the attempt is fully aborted + drained. */
    void checkAllAbortedCommitPoint(Warp &warp);
    void wakeThrottled();

    /** Set a warp's wake cycle, keeping the dense mirror in sync. */
    void
    setWake(Warp &warp, Cycle wake)
    {
        warp.wakeCycle = wake;
        wakeOf[warp.slot] = wake;
    }

    std::int64_t aluOp(Opcode op, std::int64_t a, std::int64_t b) const;

    CoreId coreId;
    CoreConfig cfg;
    const AddressMap &addrMap;
    BackingStore &store;
    Crossbar<MemMsg> &xbarUp;
    std::unique_ptr<TmCoreProtocol> protocol;

    const Kernel *kernel = nullptr;
    std::uint64_t totalThreads = 0;
    WorkFn workSource;
    bool workExhausted = true;

    std::vector<Warp> warps;
    /**
     * Dense mirrors of Warp::state / Warp::wakeCycle, indexed by slot,
     * kept in sync at the few mutation sites (changeState, setWake,
     * launch). stateOf is the checkpointed truth; slotBits indexes it.
     */
    std::vector<WarpState> stateOf;
    std::vector<Cycle> wakeOf;
    /**
     * Scheduler index derived from stateOf: one slot bitset per
     * WarpState, one word per 64 slots (word-major, so the eight state
     * words of a slot group share a cache line). The scheduler walks
     * set bits with countr_zero in ascending slot order instead of
     * scanning every slot. Not serialized; rebuilt on checkpoint load.
     */
    std::vector<std::array<std::uint64_t, numWarpStates>> slotBits;

    /** Slots of word @p w currently in @p state. */
    std::uint64_t
    slotsIn(WarpState state, unsigned w) const
    {
        return slotBits[w][static_cast<unsigned>(state)];
    }

    /** Move @p slot to @p state in stateOf and the slot bitsets. */
    void
    setSlotState(unsigned slot, WarpState state)
    {
        auto &word = slotBits[slot / 64];
        const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        word[static_cast<unsigned>(stateOf[slot])] &= ~bit;
        word[static_cast<unsigned>(state)] |= bit;
        stateOf[slot] = state;
    }

    void rebuildSlotBits();
    CacheModel l1;
    MshrFile mshrs;
    unsigned txActive = 0;
    unsigned lastIssued = 0;
    /** Warps resident and not finished (O(1) done()/activeWarps()). */
    unsigned liveWarps = 0;
    bool txFrozen = false;
    const TxEvents &hub;
    FaultInjector *faultInj = nullptr;
    Cycle currentCycle = 0;
    Rng randomGen;
    StatSet statSet;
    /** See nonTxInstructions(); a plain member so that no stats dump
     *  or metrics document carries it. */
    std::uint64_t nonTxRetired = 0;

    // Pre-registered hot-path stat handles (common/stats.hh): one add
    // per event, no per-event string or map lookup. Declared after
    // statSet so the references bind to live slots during construction.
    StatSet::Counter &stInstructions;
    StatSet::Counter &stDivergences;
    StatSet::Counter &stL1LoadHits;
    StatSet::Counter &stL1Fills;
    StatSet::Counter &stMshrMerges;
    StatSet::Counter &stWarpsLaunched;
    StatSet::Counter &stWarpsFinished;
    StatSet::Counter &stThrottleStalls;
    StatSet::Counter &stTxBegins;
    StatSet::Counter &stTxRetries;
    StatSet::Counter &stTxAborts;
    StatSet::Counter &stTxCommitLanes;
    /** Warps whose consecutive-abort streak hit the starvation
     *  ceiling (registered up front; invisible until it fires). */
    StatSet::Counter &stTxStarvation;
    /** Per-AbortReason counters, indexed by reason (no string concat). */
    std::array<StatSet::Counter *, numAbortReasons> stAbortsByReason{};

    friend class SimtCoreTestPeer;
};

} // namespace getm

#endif // GETM_SIMT_SIMT_CORE_HH
