/**
 * @file
 * Online serializability & opacity checker.
 *
 * The Checker consumes the transaction events the TxEvents hub
 * (obs/tx_events.hh) fans out to it and maintains, in
 * lockstep with functional memory, a *shadow* multi-version history of
 * every address the simulation touches. Because every BackingStore
 * mutation on a simulated path has an adjacent writeApplied() /
 * externalWrite() hook, the newest shadow version always equals the
 * store's content at the same simulation instant; a transactional read
 * that disagrees with it proves a write bypassed an instrumented path
 * or a value was corrupted in flight (opacity: even doomed attempts
 * must observe consistent committed state).
 *
 * Committed transactions additionally enter an incremental conflict
 * graph. Edges:
 *
 *   WR  version writer -> committed reader         (at reader commit)
 *   WW  previous version writer -> new writer      (at version install)
 *   RW  committed reader -> *immediate successor*  (at whichever of
 *       reader-commit / successor-install happens second)
 *
 * RW anti-dependencies to later overwriters follow transitively via
 * the WW chain, so immediate successors suffice. The graph is kept a
 * DAG with the Pearce-Kelly incremental topological-order algorithm;
 * an insertion that would close a cycle is reported as a
 * SerializabilityCycle and *not* inserted, so detection keeps working
 * afterwards. Epoch GC (every gcPeriod commits) prunes dead versions
 * and condenses retired graph nodes while preserving reachability
 * between the surviving ("pinned") nodes, so a pruned interior node
 * can never hide a future cycle.
 *
 * Commit intent (the redo log captured at attemptCommitted) is
 * cross-checked against the applies that actually hit memory:
 * mismatched value => CorruptApply, never applied => LostWrite.
 *
 * Storage is flat and dense, so no result depends on a hash order:
 *
 *  - the shadow is a vector of per-address states in first-touch
 *    order behind an AddrIndex (common/addr_index.hh);
 *  - lane slots live in a vector indexed by slotKey(gwid, lane);
 *  - graph nodes live in a reused pool reached through a vector
 *    indexed by tx id (txCounter issues ids densely); adjacency lists
 *    are small vectors of pool indices, out-lists sorted by tx id;
 *  - GC work is proportional to what changed: surviving versions hold
 *    per-tx reference counts, only addresses whose version list grew
 *    are revisited, and the remaining pins form a bitmap by tx id.
 *
 * The checker is a pure observer: it owns no stats counters, issues no
 * memory traffic, and never perturbs simulated timing.
 */

#ifndef GETM_CHECK_CHECKER_HH
#define GETM_CHECK_CHECKER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "check/violation.hh"
#include "common/addr_index.hh"
#include "common/types.hh"
#include "mem/backing_store.hh"
#include "tm/tx_log.hh"

namespace getm {

/**
 * Attribution: (gwid, lane) identifies a thread slot; the checker
 * tracks attempts per slot because partition messages do not carry
 * thread ids and global warp ids are reused across warp relaunches.
 */
class Checker
{
  public:
    explicit Checker(CheckLevel level);

    // Events from the TxEvents hub; obs/tx_events.hh states where
    // each one fires.
    void attemptBegin(GlobalWarpId gwid, LaneMask lanes,
                      std::uint32_t first_tid);
    void readObserved(GlobalWarpId gwid, LaneId lane, Addr addr,
                      std::uint32_t value);
    void attemptAborted(GlobalWarpId gwid, LaneMask lanes);
    void attemptCommitted(GlobalWarpId gwid, LaneId lane,
                          const std::vector<LogEntry> &writes);
    void writeApplied(GlobalWarpId gwid, LaneId lane, Addr addr,
                      std::uint32_t value);
    void externalWrite(Addr addr, std::uint32_t value);

    /**
     * End-of-run pass: report LostWrite for commit intent that never
     * reached memory (lane-slot order) and FinalStateMismatch where
     * @p store disagrees with the shadow (first-touch order).
     */
    void finish(const BackingStore &store);

    const CheckReport &report() const { return report_; }

    /** Commits between GC passes (test hook; default 4096). */
    void setGcPeriod(std::uint64_t period) { gcPeriod = period ? period : 1; }

    /**
     * Checkpoint hook: the shadow history, per-lane attempt
     * attribution, conflict graph, and the accumulating report. The
     * address index, grown-address list, reference counts and
     * tx-id -> node map are derived and rebuilt on load. The check
     * level itself is construction-time config and must already match
     * (the config hash guarantees it).
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(report_, eventSeq, txCounter, gcPeriod, commitsSinceGc,
           shadow, slots, nodes, ordCounter);
        if constexpr (!Ar::saving)
            rebuildDerived();
    }

  private:
    /** One committed write of one version of one address. */
    struct Version
    {
        std::uint64_t writer;    ///< Checker tx id; 0 = initial/external.
        std::uint64_t installSeq; ///< Global event order of the install.
        std::uint32_t value;
        /** AddrState::readers size at install: the version's committed
         *  readers all sit at or after this position. */
        std::uint32_t readersFrom;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(writer, installSeq, value, readersFrom);
        }
    };

    /** A committed transaction that read the version of installSeq. */
    struct ReaderRec
    {
        std::uint64_t tx;
        std::uint64_t installSeq;

        template <class Ar> void ckpt(Ar &ar) { ar(tx, installSeq); }
    };

    struct AddrState
    {
        Addr addr = 0;
        std::vector<Version> versions; ///< installSeq-ascending.
        /** Committed readers of the surviving versions, commit order. */
        std::vector<ReaderRec> readers;

        template <class Ar> void ckpt(Ar &ar) { ar(addr, versions, readers); }
    };

    /** A read bound at the partition, with the version it observed. */
    struct ReadRec
    {
        std::uint32_t addrIdx; ///< Index into shadow.
        std::uint64_t installSeq;
        std::uint64_t writer;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(addrIdx, installSeq, writer);
        }
    };

    /** One logged write of a committed attempt, awaiting its apply. */
    struct WriteIntent
    {
        std::uint64_t tx;
        Addr addr;
        std::uint32_t value;
        bool applied;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(tx, addr, value, applied);
        }
    };

    /** An in-flight transaction attempt of one lane slot. */
    struct Attempt
    {
        std::uint64_t id = 0;
        std::uint32_t tid = 0;
        std::vector<ReadRec> reads;
        /** Applies seen while still current (WarpTM-EL commits at the
         *  core before the attempt retires). */
        std::vector<std::pair<Addr, std::uint32_t>> earlyApplies;

        /** Start over, keeping the vectors' capacity. */
        void
        reset(std::uint64_t new_id, std::uint32_t new_tid)
        {
            id = new_id;
            tid = new_tid;
            reads.clear();
            earlyApplies.clear();
        }

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(id, tid, reads, earlyApplies);
        }
    };

    /**
     * Per-(warp, lane) attempt attribution. Partition messages carry
     * (gwid, lane) but no transaction id; the drain invariants of all
     * protocols guarantee reads bind while the issuing attempt is
     * still `cur`, while GETM / WarpTM-LL applies can land after the
     * lane retired. Those pending intents sit in commit order, each
     * committed attempt's writes contiguous; a prefix of fully applied
     * attempts is dropped after every apply.
     */
    struct LaneSlot
    {
        bool active = false;
        Attempt cur;
        std::vector<WriteIntent> pending;

        template <class Ar> void ckpt(Ar &ar) { ar(active, cur, pending); }
    };

    /** Conflict-graph node; lives in the `nodes` pool (id 0 = free). */
    struct TxNode
    {
        std::uint64_t id = 0;
        std::uint64_t ord = 0; ///< Pearce-Kelly topological index.
        std::vector<std::uint32_t> out; ///< Pool indices, tx-id order.
        std::vector<std::uint32_t> in;  ///< Pool indices.

        template <class Ar> void ckpt(Ar &ar) { ar(id, ord, out, in); }
    };

    static constexpr std::uint32_t noIndex = ~static_cast<std::uint32_t>(0);

    void addViolation(ViolationKind kind, Addr addr, std::uint64_t tx,
                      std::uint32_t expected, std::uint32_t actual,
                      std::string detail);

    LaneSlot &laneSlot(GlobalWarpId gwid, LaneId lane);

    /** Index of @p addr's shadow state, appending an empty one on
     *  first touch. */
    std::uint32_t touch(Addr addr);

    /** Append a version; wires WW + pending RW edges to the writer. */
    void installVersion(Addr addr, std::uint64_t writer,
                        std::uint32_t value);
    void pushVersion(std::uint32_t idx, std::uint64_t writer,
                     std::uint32_t value);

    /** Index of the version of @p st installed at @p install_seq, or
     *  noIndex once GC pruned it. */
    static std::uint32_t findVersion(const AddrState &st,
                                     std::uint64_t install_seq);

    void addRef(std::uint64_t tx);
    void dropRef(std::uint64_t tx);
    bool pinned(std::uint64_t tx) const;

    /** Pool index of @p tx's node, creating it (fresh ord) if absent. */
    std::uint32_t ensureNode(std::uint64_t tx);

    /** Where tx @p id sits (or would) in a tx-id-ordered out-list. */
    std::size_t outPos(const std::vector<std::uint32_t> &out,
                       std::uint64_t id) const;

    /**
     * Insert u -> v, maintaining the topological order (Pearce-Kelly).
     * If the edge would close a cycle it is reported and dropped.
     */
    void addEdge(std::uint64_t u, std::uint64_t v, const char *dep,
                 Addr addr);

    /** A fresh visit mark for the per-node scratch. */
    std::uint32_t nextMark();

    void maybeGc();
    void gc();
    /** @p keep_reads: (address index, installSeq) of in-flight reads. */
    void pruneVersions(
        std::vector<std::pair<std::uint32_t, std::uint64_t>> &keep_reads);
    void condenseGraph();

    void rebuildDerived();

    static std::uint64_t
    slotKey(GlobalWarpId gwid, LaneId lane)
    {
        return static_cast<std::uint64_t>(gwid) * warpSize + lane;
    }

    CheckLevel level_;
    CheckReport report_;

    std::uint64_t eventSeq = 0;
    std::uint64_t txCounter = 0;
    std::uint64_t gcPeriod = 4096;
    std::uint64_t commitsSinceGc = 0;

    // Shadow history: states in first-touch order, the Addr -> state
    // index, and the addresses holding more than one version.
    std::vector<AddrState> shadow;
    AddrIndex shadowIndex;
    std::vector<std::uint32_t> grown;

    std::vector<LaneSlot> slots; ///< By slotKey(gwid, lane).

    // Conflict graph: node pool, free pool entries, and pool index + 1
    // per tx id (0: no node).
    std::vector<TxNode> nodes;
    std::vector<std::uint32_t> freeNodes;
    std::vector<std::uint32_t> nodeOf;
    std::uint64_t ordCounter = 0;

    // GC state: references from surviving versions per tx id; the
    // pass's slot-derived pins as a bitmap by tx id; and the pool
    // entries a pass may retire: nodes created since the last pass,
    // nodes pruning left without references, and nodes the last pass
    // kept for a slot pin alone. Every other live node is still
    // referenced, so a pass never visits it.
    std::vector<std::uint32_t> refs;
    std::vector<std::uint64_t> pinBits;
    std::vector<std::uint32_t> candidates;

    // Reused scratch of the graph searches, indexed by pool entry: a
    // visit mark (compared against the current one, so a new search
    // never clears it) and the forward search's parent links.
    std::vector<std::uint32_t> mark;
    std::vector<std::uint32_t> parent;
    std::uint32_t markEpoch = 0;
    std::vector<std::uint32_t> stack, deltaF, deltaB;
    std::vector<std::uint64_t> ordPool;

    static constexpr std::size_t maxSamples = 16;
};

} // namespace getm

#endif // GETM_CHECK_CHECKER_HH
