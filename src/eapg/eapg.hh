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

/** EAPG core engine: WarpTM plus early abort and pause-n-go. */
class EapgCoreTm : public WtmCoreTm
{
  public:
    EapgCoreTm(SimtCore &core_, WtmGpuTm &gpu_)
        : WtmCoreTm(core_, gpu_, WtmMode::LazyLazy),
          stEarlyAborts(core_.stats().addCounter("eapg_early_aborts")),
          stPauses(core_.stats().addCounter("eapg_pauses"))
    {
    }

    void onBroadcast(const MemMsg &msg) override;
    void ckptSave(ckpt::Writer &ar) override;
    void ckptLoad(ckpt::Reader &ar) override;

  protected:
    bool maybePause(Warp &warp) override;

  private:
    /**
     * The write set accumulated so far from one remote commit's
     * signature slices: sorted, de-duplicated words, plus a 256-bit
     * filter that rejects most non-members before the binary search.
     */
    struct RemoteWrites
    {
        std::uint64_t txId = 0;
        std::vector<Addr> addrs;
        std::array<std::uint64_t, 4> filter{};

        /** The filter word and bit of @p addr (top 8 product bits). */
        static std::pair<unsigned, std::uint64_t>
        filterSlot(Addr addr)
        {
            const auto bit = static_cast<unsigned>(
                (static_cast<std::uint64_t>(addr) * 0x9e3779b97f4a7c15ull) >>
                56);
            return {bit / 64, std::uint64_t{1} << (bit % 64)};
        }

        void
        noteInFilter(Addr addr)
        {
            const auto [word, bit] = filterSlot(addr);
            filter[word] |= bit;
        }

        bool
        contains(Addr addr) const
        {
            const auto [word, bit] = filterSlot(addr);
            return (filter[word] & bit) &&
                   std::binary_search(addrs.begin(), addrs.end(), addr);
        }

        /** Merge one signature slice into the set. */
        void add(const OpList &ops);

        /** Checkpoint hook: the filter is derived, so rebuilt on load. */
        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(txId, addrs);
            if constexpr (!Ar::saving) {
                filter = {};
                for (Addr addr : addrs)
                    noteInFilter(addr);
            }
        }
    };

    /** The live write set of @p tx_id, created empty if absent. */
    RemoteWrites &remoteFor(std::uint64_t tx_id);

    /**
     * Write sets of remote commits currently in progress: entries
     * [0, liveRemote) are live; the rest are retired sets kept only so
     * their storage is reused.
     */
    std::vector<RemoteWrites> remote;
    std::size_t liveRemote = 0;

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
