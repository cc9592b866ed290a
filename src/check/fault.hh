/**
 * @file
 * Protocol fault injection: deliberately corrupt protocol decisions so
 * the checker can prove it detects real isolation failures.
 *
 * Each FaultKind names one decision point inside a protocol engine;
 * the engine asks the injector whether to mutate that decision. The
 * injector draws from its *own* RNG (never the simulator's), so a run
 * with injection enabled is bit-identical to a clean run everywhere
 * except the injected decisions themselves.
 *
 * Every simulated component (each SIMT core, each memory partition)
 * owns a *separate* injector whose counter-based stream is derived from
 * the run seed and the component's identity (GpuSystem seeds core c
 * with `seed ^ c`). A component's fire() sequence therefore depends
 * only on its own decision history, not on the order in which the
 * cycle loop visits components.
 *
 * Faults corrupt *isolation*, never the engines' internal bookkeeping:
 * e.g. ForceStoreGrant still records the write reservation so GETM's
 * commit unit does not panic -- the damage is confined to letting a
 * timestamp-order conflict slip through.
 */

#ifndef GETM_CHECK_FAULT_HH
#define GETM_CHECK_FAULT_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.hh"

namespace getm {

/** Injectable protocol faults (one decision point each). */
enum class FaultKind : std::uint8_t
{
    None = 0,
    /** GETM: grant a tx load without bumping the granule's rts, so a
     *  logically earlier writer can sneak in after the read. */
    SkipRtsBump,
    /** GETM: grant a conflicting store on an unlocked granule instead
     *  of aborting the requester (timestamp check suppressed). */
    ForceStoreGrant,
    /** WarpTM-LL / EAPG: suppress a lane's value-validation failure at
     *  the partition, committing despite a stale read. */
    CommitStaleRead,
    /** WarpTM-EL: ignore a lane's instant-validation failure. */
    SkipValidation,
    /** Any protocol: apply a committed write with a flipped low bit. */
    CorruptCommit,
    /** Any protocol: silently drop one committed write at apply. */
    DropCommitWrite,
    /**
     * GETM: skip releasing a granule's write reservation at commit, so
     * the granule stays locked by a retired warp forever. Unlike the
     * isolation faults above, this one corrupts *liveness*: waiters
     * park indefinitely and the run ends in a DEADLOCK/LIVELOCK
     * SimError. It exists to stress the forward-progress watchdog and
     * the sweep harness's failure isolation (docs/ROBUSTNESS.md).
     */
    LeakLock,
    Count
};

constexpr unsigned numFaultKinds = static_cast<unsigned>(FaultKind::Count);

/** Stable name ("skip-rts-bump", ...), accepted by parseFaultKind(). */
constexpr const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::SkipRtsBump: return "skip-rts-bump";
      case FaultKind::ForceStoreGrant: return "force-store-grant";
      case FaultKind::CommitStaleRead: return "commit-stale-read";
      case FaultKind::SkipValidation: return "skip-validation";
      case FaultKind::CorruptCommit: return "corrupt-commit";
      case FaultKind::DropCommitWrite: return "drop-commit-write";
      case FaultKind::LeakLock: return "leak-lock";
      case FaultKind::Count: break;
    }
    return "?";
}

/** Parse a fault name; false if unknown. */
bool parseFaultKind(const std::string &text, FaultKind &out);

/**
 * The injector engines consult at their decision points. fire() is a
 * Bernoulli draw at the configured probability, counted per kind so
 * tests can assert an enabled fault actually had opportunities.
 *
 * Draws come from a splitmix64 counter stream: the n-th probabilistic
 * decision of a given injector is a pure function of (seed, n), so the
 * sequence is reproducible from the component's seed alone. At
 * probability 1.0 the stream is never consulted at all, keeping the
 * long-standing deterministic fixtures (which all inject at 1.0)
 * byte-identical across this scheme and its predecessor.
 */
class FaultInjector
{
  public:
    FaultInjector(FaultKind kind, double probability, std::uint64_t seed)
        : kind_(kind), prob(probability), stream(seed ^ 0xfa017ca7a10full)
    {
    }

    FaultKind kind() const { return kind_; }

    /** Should the @p k decision point misbehave this time? */
    bool
    fire(FaultKind k)
    {
        if (k != kind_)
            return false;
        if (prob < 1.0 && !chance())
            return false;
        ++fires[static_cast<unsigned>(k)];
        return true;
    }

    /** Checkpoint hook: the counter stream position and fire counts
     *  (kind/probability are reconstructed from configuration). */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(stream, fires);
    }

    /** Times fire() returned true for @p k. */
    std::uint64_t
    count(FaultKind k) const
    {
        return fires[static_cast<unsigned>(k)];
    }

  private:
    /** One Bernoulli draw from the counter stream. */
    bool
    chance()
    {
        const std::uint64_t bits = Rng::splitmix64(stream);
        return (bits >> 11) * 0x1.0p-53 < prob;
    }

    FaultKind kind_;
    double prob;
    std::uint64_t stream;
    std::array<std::uint64_t, numFaultKinds> fires{};
};

} // namespace getm

#endif // GETM_CHECK_FAULT_HH
