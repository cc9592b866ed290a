/**
 * @file
 * Messages exchanged between SIMT cores and memory partitions.
 *
 * One tagged struct covers every protocol (plain loads/stores, atomics,
 * GETM eager requests, WarpTM validation/commit traffic, EAPG broadcasts).
 * The `bytes` field is what the crossbar charges for serialization, so
 * each sender is responsible for setting it to the modelled wire size --
 * this is how Fig. 12's traffic comparison is produced.
 *
 * A message's lane ops live in an OpList, a vector whose buffers come
 * from per-thread free lists (OpBufferPool), so the steady-state message
 * path between cores and partitions does not call malloc. Senders size
 * the list exactly; a response that echoes its request's lanes takes
 * over the request's buffer. See docs/INTERNALS.md, "Host
 * representation of messages".
 */

#ifndef GETM_TM_MESSAGES_HH
#define GETM_TM_MESSAGES_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/types.hh"

namespace getm {

/** Message kinds, both directions. */
enum class MsgKind : std::uint8_t
{
    // ---- core -> partition -------------------------------------------
    NtxRead,        ///< Non-transactional read of (parts of) a line.
    NtxWrite,       ///< Non-transactional write-through.
    Atomic,         ///< Atomic read-modify-writes (executed at the LLC).
    GetmTxLoad,     ///< GETM transactional load (eager check + data).
    GetmTxStore,    ///< GETM encounter-time write reservation.
    GetmCommit,     ///< GETM commit/abort log chunk (off critical path).
    WtmTxLoad,      ///< WarpTM transactional load (data + TCD probe).
    WtmValidate,    ///< WarpTM read+write log slice for validation.
    WtmSkip,        ///< WarpTM empty slice (keeps commit-id order).
    WtmDecision,    ///< WarpTM commit/abort decision.
    // ---- partition -> core -------------------------------------------
    NtxReadResp,
    NtxWriteAck,    ///< Only for L1-bypass (volatile) stores.
    AtomicResp,
    GetmLoadResp,   ///< Data or abort notification.
    GetmStoreResp,  ///< Reservation grant or abort notification.
    WtmLoadResp,    ///< Data plus TCD last-write timestamps.
    WtmValidateResp,
    WtmCommitAck,
    EapgSignature,  ///< EAPG write-signature broadcast (idealized 64-bit).
    EapgCommitDone, ///< EAPG end-of-commit broadcast.
};

/** Per-lane element of a request/response. */
struct LaneOp
{
    std::uint8_t lane = 0;
    Addr addr = 0;          ///< Word address.
    std::uint32_t value = 0;///< Store data / loaded data / old value.
    std::uint32_t aux = 0;  ///< CAS swap value / write count / flags.

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(lane, addr, value, aux);
    }
};

/**
 * Per-thread free lists of LaneOp buffers, one per power-of-two size
 * class (1 to 256 ops). A list holds at most maxPerClass buffers and at
 * most maxOpsPerClass ops' worth of them (so the 64-, 128- and 256-op
 * lists hold 32, 16 and 8), about 240 KiB per thread in all. A buffer
 * freed into a full list, or larger than the largest class, goes back
 * to the heap. Thread-local because sweep runs machines on pool
 * threads; a buffer freed on another thread than the one that took it
 * simply joins that thread's lists.
 */
class OpBufferPool
{
  public:
    static constexpr unsigned numClasses = 9;
    static constexpr unsigned maxPerClass = 64;
    static constexpr unsigned maxOpsPerClass = 2048;

    /** Most buffers the list for @p n-op requests (n >= 1) may hold. */
    static constexpr unsigned
    capacity(std::size_t n)
    {
        const unsigned cls = sizeClass(n);
        return cls < numClasses ? std::min(maxPerClass, maxOpsPerClass >> cls)
                                : 0;
    }

    /** Storage for @p n ops (n >= 1). */
    static LaneOp *
    take(std::size_t n)
    {
        const unsigned cls = sizeClass(n);
        if (cls >= numClasses)
            return static_cast<LaneOp *>(
                ::operator new(n * sizeof(LaneOp)));
        OpBufferPool &pool = local();
        if (FreeBuf *buf = pool.head[cls]) {
            pool.head[cls] = buf->next;
            --pool.count[cls];
            return static_cast<LaneOp *>(static_cast<void *>(buf));
        }
        return static_cast<LaneOp *>(
            ::operator new(sizeof(LaneOp) << cls));
    }

    /** Return storage take(@p n) handed out. */
    static void
    give(LaneOp *ops, std::size_t n)
    {
        const unsigned cls = sizeClass(n);
        if (cls < numClasses) {
            OpBufferPool &pool = local();
            if (pool.count[cls] < capacity(n)) {
                pool.head[cls] = ::new (static_cast<void *>(ops))
                    FreeBuf{pool.head[cls]};
                ++pool.count[cls];
                return;
            }
        }
        ::operator delete(ops);
    }

    /** Buffers parked on this thread's list for @p n-op requests. */
    static unsigned
    parked(std::size_t n)
    {
        return local().count[sizeClass(n)];
    }

    OpBufferPool() = default;
    OpBufferPool(const OpBufferPool &) = delete;
    OpBufferPool &operator=(const OpBufferPool &) = delete;

    ~OpBufferPool()
    {
        for (unsigned cls = 0; cls < numClasses; ++cls) {
            while (FreeBuf *buf = head[cls]) {
                head[cls] = buf->next;
                ::operator delete(buf);
            }
            count[cls] = 0;
        }
    }

  private:
    struct FreeBuf
    {
        FreeBuf *next;
    };
    static_assert(sizeof(FreeBuf) <= sizeof(LaneOp));

    /** Smallest c with n <= 2^c. */
    static constexpr unsigned
    sizeClass(std::size_t n)
    {
        return static_cast<unsigned>(std::bit_width(n - 1));
    }

    static OpBufferPool &local();

    FreeBuf *head[numClasses] = {};
    unsigned count[numClasses] = {};
};

inline OpBufferPool &
OpBufferPool::local()
{
    thread_local OpBufferPool pool;
    return pool;
}

/** Allocator that draws LaneOp storage from the thread's OpBufferPool. */
template <class T>
struct OpAllocator
{
    static_assert(sizeof(T) == sizeof(LaneOp) &&
                  alignof(T) == alignof(LaneOp));
    using value_type = T;

    OpAllocator() = default;
    template <class U> OpAllocator(const OpAllocator<U> &) {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(static_cast<void *>(OpBufferPool::take(n)));
    }

    void
    deallocate(T *ops, std::size_t n)
    {
        OpBufferPool::give(
            static_cast<LaneOp *>(static_cast<void *>(ops)), n);
    }

    friend bool operator==(const OpAllocator &, const OpAllocator &)
    {
        return true;
    }
};

/** A message's lane ops; serialized exactly like std::vector<LaneOp>. */
using OpList = std::vector<LaneOp, OpAllocator<LaneOp>>;

/** Atomic operation kinds executed at the LLC. */
enum class AtomicOp : std::uint8_t
{
    Cas,
    Exch,
    Add,
};

/** Outcome carried by GETM responses. */
enum class GetmOutcome : std::uint8_t
{
    Success,
    Abort,
};

/**
 * MemMsg::warpSlot of a message with no warp attached (e.g. EAPG
 * broadcasts); the core hands it to TmCoreProtocol::onBroadcast().
 */
constexpr std::uint32_t noWarpSlot = ~0u;

/** A core<->partition message. */
struct MemMsg
{
    MsgKind kind = MsgKind::NtxRead;
    CoreId core = 0;            ///< Originating (or target) core.
    PartitionId partition = 0;
    GlobalWarpId wid = invalidWarp;
    std::uint32_t warpSlot = 0; ///< Core-local warp slot.
    std::uint32_t seq = 0;      ///< Request/response matching tag.
    Addr addr = 0;              ///< Line or granule base address.
    LogicalTs ts = 0;           ///< warpts (req) or abort cause (resp).
    std::uint64_t txId = 0;     ///< WarpTM global commit id / signature.
    bool flag = false;          ///< Multipurpose (commit vs abort, ...).
    std::uint8_t aop = 0;       ///< Atomic opcode (AtomicOp) for Atomic.
    GetmOutcome outcome = GetmOutcome::Success;
    std::uint8_t reason = 0;    ///< AbortReason for Abort outcomes; the
                                ///< partition decides the reason, the
                                ///< core attributes the abort with it.
    OpList ops;                 ///< Lane ops or log entries.
    std::uint32_t bytes = 8;    ///< Modelled wire size for the crossbar.

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(kind, core, partition, wid, warpSlot, seq, addr, ts, txId,
           flag, aop, outcome, reason, ops, bytes);
    }
};

/**
 * Per-partition messages built from a transaction's logs at commit
 * time (GETM commit/cleanup chunks, WarpTM validation slices). build()
 * runs the log walk twice -- once to count each partition's ops, once
 * to fill op lists reserved to exactly that count -- and the storage is
 * kept across commits.
 */
class LogChunks
{
  public:
    /**
     * Rebuild the chunks of partitions [0, @p parts). @p walk is called
     * twice with an emit(PartitionId, const LaneOp &) callback and must
     * emit the same ops both times. Every chunk starts from a default
     * MemMsg.
     */
    template <class Walk>
    void
    build(unsigned parts, Walk &&walk)
    {
        sizes.assign(parts, 0);
        walk([this](PartitionId part, const LaneOp &) { ++sizes[part]; });
        if (msgs.size() < parts)
            msgs.resize(parts);
        for (PartitionId part = 0; part < parts; ++part) {
            if (!sizes[part])
                continue;
            msgs[part] = MemMsg{};
            msgs[part].ops.reserve(sizes[part]);
        }
        walk([this](PartitionId part, const LaneOp &op) {
            msgs[part].ops.push_back(op);
        });
    }

    /** True if partition @p part got at least one op. */
    bool has(PartitionId part) const { return sizes[part] != 0; }

    /** Partition @p part's chunk; move it out to send it. */
    MemMsg &operator[](PartitionId part) { return msgs[part]; }

  private:
    std::vector<unsigned> sizes;
    std::vector<MemMsg> msgs;
};

} // namespace getm

#endif // GETM_TM_MESSAGES_HH
