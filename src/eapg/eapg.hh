/**
 * @file
 * Idealized EarlyAbort/Pause-n-Go baseline (paper Sec. VI-A; proposal of
 * Chen & Peng [26]).
 *
 * EAPG extends WarpTM with broadcast updates about currently committing
 * transactions: when a validation with writes begins at an LLC partition,
 * the writer's conflict set is broadcast to every SIMT core. Cores
 * early-abort running transactions whose read sets intersect it, and
 * pause transactions about to enter validation until the conflicting
 * commit finishes.
 *
 * Following the paper's idealization: broadcasts are charged as 64-bit
 * messages on the crossbar regardless of content, the conflict check at
 * the core is instantaneous and precise, and reference-count table
 * updates cost one cycle for the whole log. The broadcasts still
 * traverse the down crossbar, whose congestion is the mechanism's real
 * cost (Sec. VI-B).
 */

#ifndef GETM_EAPG_EAPG_HH
#define GETM_EAPG_EAPG_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "warptm/wtm_core_tm.hh"
#include "warptm/wtm_partition.hh"

namespace getm {

/** EAPG partition unit: WarpTM plus conflict-set/done broadcasts. */
class EapgPartitionUnit : public WtmPartitionUnit
{
  public:
    EapgPartitionUnit(PartitionContext &context,
                      const WtmPartitionConfig &config, std::string name)
        : WtmPartitionUnit(context, config, std::move(name)),
          stSignatureBroadcasts(
              ctx.stats().addCounter("eapg_signature_broadcasts")),
          stDoneBroadcasts(ctx.stats().addCounter("eapg_done_broadcasts"))
    {
    }

  protected:
    void onValidationStart(const MemMsg &slice, Cycle now) override;
    void onDecisionApplied(std::uint64_t tx_id, Cycle now) override;

  private:
    // Hot-path stat handles: one add per broadcast fan-out.
    StatSet::Counter &stSignatureBroadcasts;
    StatSet::Counter &stDoneBroadcasts;
};

/**
 * A 256-bit filter over word addresses: one bit per value of the top
 * eight bits of a multiplicative hash. Two sets whose filters do not
 * meet share no word.
 */
struct AddrFilter
{
    std::array<std::uint64_t, 4> bits{};

    /** The bit of @p addr, 0..255. */
    static unsigned
    index(Addr addr)
    {
        return static_cast<unsigned>(
            (static_cast<std::uint64_t>(addr) * 0x9e3779b97f4a7c15ull) >> 56);
    }

    void add(Addr addr) { bits[index(addr) / 64] |= bit(addr); }

    bool
    mayHold(Addr addr) const
    {
        return (bits[index(addr) / 64] & bit(addr)) != 0;
    }

    AddrFilter &
    operator|=(const AddrFilter &other)
    {
        for (unsigned w = 0; w < bits.size(); ++w)
            bits[w] |= other.bits[w];
        return *this;
    }

  private:
    static std::uint64_t
    bit(Addr addr)
    {
        return std::uint64_t{1} << (index(addr) % 64);
    }
};

/**
 * The read filters of one warp's lanes, stored by bit: for each of the
 * 256 AddrFilter bits, the lanes whose reads set it. The lanes whose
 * filter meets another filter are the union over that filter's bits,
 * so a sparse write set costs a few loads, whatever the read sets.
 */
struct LaneFilters
{
    std::array<LaneMask, 256> lanesOf{};

    void
    add(LaneId lane, Addr addr)
    {
        lanesOf[AddrFilter::index(addr)] |= 1u << lane;
    }

    /** The lanes whose filter shares a bit with @p filter. */
    LaneMask
    meeting(const AddrFilter &filter) const
    {
        LaneMask lanes = 0;
        for (unsigned w = 0; w < filter.bits.size(); ++w)
            for (std::uint64_t rest = filter.bits[w]; rest; rest &= rest - 1)
                lanes |= lanesOf[w * 64 + static_cast<unsigned>(
                                              std::countr_zero(rest))];
        return lanes;
    }
};

/**
 * The write set accumulated so far from one remote commit's signature
 * slices: sorted, de-duplicated words, plus a filter that rejects most
 * non-members before the binary search.
 */
struct EapgWriteSet
{
    std::uint64_t txId = 0;
    std::vector<Addr> addrs;
    AddrFilter filter;

    bool
    contains(Addr addr) const
    {
        return filter.mayHold(addr) &&
               std::binary_search(addrs.begin(), addrs.end(), addr);
    }

    /**
     * Merge one signature slice into the set. @p ops must be sorted by
     * address, as EapgPartitionUnit sends them.
     */
    void add(const OpList &ops);

    /** The first entry of @p log in the set, or nullptr. */
    const LogEntry *
    firstHit(const std::vector<LogEntry> &log) const
    {
        for (const LogEntry &entry : log)
            if (contains(entry.addr))
                return &entry;
        return nullptr;
    }

    /** Checkpoint hook: the filter is derived, so rebuilt on load. */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(txId, addrs);
        if constexpr (!Ar::saving) {
            filter = {};
            for (Addr addr : addrs)
                filter.add(addr);
        }
    }
};

/** EAPG core engine: WarpTM plus early abort and pause-n-go. */
class EapgCoreTm : public WtmCoreTm
{
  public:
    EapgCoreTm(SimtCore &core_, WtmGpuTm &gpu_);

    void txCommitPoint(Warp &warp) override;
    void onBroadcast(const MemMsg &msg) override;
    void ckptSave(ckpt::Writer &ar) override;
    void ckptLoad(ckpt::Reader &ar) override;

  protected:
    void beginAttempt(Warp &warp) override;
    void endTransaction(Warp &warp) override;
    void noteRead(Warp &warp, LaneId lane, Addr addr) override;
    bool maybePause(Warp &warp) override;

  private:
    /** Early-abort the lanes of running @p warp that read @p set. */
    void checkRunning(Warp &warp, const EapgWriteSet &set,
                      GlobalWarpId writer);

    void
    setRunning(std::uint32_t slot, bool on)
    {
        const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        running[slot / 64] = on ? running[slot / 64] | bit
                                : running[slot / 64] & ~bit;
    }

    /** The live write set of @p tx_id, created empty if absent. */
    EapgWriteSet &remoteFor(std::uint64_t tx_id);

    /**
     * Write sets of remote commits currently in progress: entries
     * [0, liveRemote) are live; the rest are retired sets kept only so
     * their storage is reused.
     */
    std::vector<EapgWriteSet> remote;
    std::size_t liveRemote = 0;

    /**
     * Warp slots with a running attempt (in a transaction, commit point
     * not yet reached): the only ones a signature can early-abort. One
     * bit per slot; derived, so rebuilt on restore.
     */
    std::vector<std::uint64_t> running;
    /** The lane filters of the slot's current attempt. */
    LaneFilters &
    filtersOf(const Warp &warp)
    {
        return filterPool[filterOf[warp.slot]];
    }

    /**
     * Per slot in a transaction, the lanes' filters over the words the
     * attempt's read logs hold: filterOf[slot] indexes filterPool,
     * whose entries are reused as transactions end, so the pool holds
     * as many as the transactional-concurrency limit lets run at once.
     * Derived, so rebuilt on restore.
     */
    std::vector<LaneFilters> filterPool;
    std::vector<std::uint32_t> freeFilters;
    std::vector<std::uint32_t> filterOf;
    static constexpr std::uint32_t noFilters = ~0u;

    /** Warp slots paused at their commit point. */
    std::vector<std::uint32_t> paused;
    /** Scratch for the paused slots retried on a commit-done broadcast. */
    std::vector<std::uint32_t> retry;

    // Hot-path stat handles: one add per early abort / pause.
    StatSet::Counter &stEarlyAborts;
    StatSet::Counter &stPauses;
};

} // namespace getm

#endif // GETM_EAPG_EAPG_HH
