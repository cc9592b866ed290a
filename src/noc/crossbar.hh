/**
 * @file
 * Crossbar interconnect timing model.
 *
 * The simulated GPU (Table II) uses two crossbars: one "up" network from
 * SIMT cores to memory partitions and one "down" network back. Each
 * message occupies its injection and ejection ports for one cycle per
 * flit, plus a fixed pipeline latency, which captures the serialization
 * and contention effects that make WarpTM's two-round-trip commits
 * expensive without simulating individual flits.
 *
 * Timing is computed analytically at send time; delivery ordering per
 * destination is by computed arrival cycle (ties broken FIFO). Each
 * destination's inbox is a plain FIFO: route() leaves dstFree[dst] at the
 * delivery cycle it returns, and the next delivery to that destination
 * starts ejecting no earlier than dstFree[dst], so deliveries to one
 * destination never decrease in send order. Send order is therefore
 * already (when, seq) order, whatever the send cycles were.
 *
 * An inbox is a RingFifo: a ring over a std::vector that grows by
 * doubling and never shrinks, so once a run has reached its peak
 * in-flight count, sends and pops allocate nothing. send() takes the
 * message by rvalue reference and moves it into its slot; popReady()
 * moves it out again.
 *
 * The arrival cycle of each inbox's front entry, or ~0 for an empty
 * inbox, is mirrored in one contiguous headWhen array that send() and
 * popReady() keep current and a checkpoint load rebuilds. hasReady() is
 * then one compare, and nextArrival() a min over one small array,
 * without touching the inbox rings.
 */

#ifndef GETM_NOC_CROSSBAR_HH
#define GETM_NOC_CROSSBAR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace getm {

/** Port-occupancy bookkeeping shared by all crossbar instantiations. */
class CrossbarTiming
{
  public:
    struct Config
    {
        /** Pipeline traversal latency in cycles (Table II: 5). */
        Cycle latency = 5;
        /** Bytes per flit (one flit crosses a port per cycle). */
        unsigned flitBytes = 32;
    };

    CrossbarTiming(std::string name_, unsigned num_src, unsigned num_dst,
                   const Config &config);

    /**
     * Compute the delivery cycle for a message of @p bytes sent from
     * @p src to @p dst at time @p now, updating port occupancy and
     * traffic statistics.
     */
    Cycle route(unsigned src, unsigned dst, unsigned bytes, Cycle now);

    /** Total flits that have crossed this crossbar (Fig. 12 metric). */
    std::uint64_t totalFlits() const { return flits; }

    StatSet &stats() { return statSet; }
    const StatSet &stats() const { return statSet; }

    /** Checkpoint hook: port occupancy clocks + traffic stats. */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(srcFree, dstFree, flits, statSet);
    }

  private:
    Config cfg;
    std::vector<Cycle> srcFree;
    std::vector<Cycle> dstFree;
    std::uint64_t flits = 0;
    StatSet statSet;

    // Hot-path stat handles: one add/sample per routed message.
    StatSet::Counter &stMessages;
    StatSet::Counter &stFlits;
    StatSet::Counter &stBytes;
    StatSet::Average &stQueueing;
};

/**
 * FIFO of @p T in a ring over a std::vector whose storage it keeps.
 * The capacity is a power of two; a push into a full ring doubles it,
 * moving the entries to the front in FIFO order. Serializes exactly like
 * ckpt's std::deque: a count, then the entries oldest first.
 */
template <typename T>
class RingFifo
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return slots.size(); }

    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }
    const T &back() const { return slots[(head + count - 1) & mask()]; }

    void
    push_back(T &&value)
    {
        if (count == slots.size())
            grow();
        slots[(head + count) & mask()] = std::move(value);
        ++count;
    }

    /** Drop the front entry; its slot keeps whatever was moved out. */
    void
    pop_front()
    {
        head = (head + 1) & mask();
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        if constexpr (Ar::saving) {
            std::uint64_t n = count;
            ar(n);
            for (std::size_t i = 0; i < count; ++i)
                ar(slots[(head + i) & mask()]);
        } else {
            clear();
            std::uint64_t n = 0;
            ar(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                T value{};
                ar(value);
                push_back(std::move(value));
            }
        }
    }

  private:
    std::size_t mask() const { return slots.size() - 1; }

    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? 4 : 2 * slots.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move(slots[(head + i) & mask()]);
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

/**
 * A crossbar carrying messages of payload type @p MsgT.
 *
 * Messages are enqueued with send() and drained per destination with
 * popReady(); nextArrival() supports idle-cycle skipping in the top-level
 * simulation loop.
 */
template <typename MsgT>
class Crossbar
{
  public:
    Crossbar(std::string name_, unsigned num_src, unsigned num_dst,
             const CrossbarTiming::Config &config)
        : timing(std::move(name_), num_src, num_dst, config),
          headWhen(num_dst, never), inbox(num_dst)
    {
    }

    /**
     * Observer invoked for every send with the routed message and its
     * send/arrival cycles. Purely passive — it sees timing that is
     * already decided, so installing one cannot perturb the NoC model
     * (the transaction tracer's hop-latency accounting hangs here).
     */
    using SendHook =
        std::function<void(const MsgT &, Cycle sent, Cycle arrived)>;

    /** Send @p msg; returns its delivery cycle. */
    Cycle
    send(unsigned src, unsigned dst, unsigned bytes, Cycle now, MsgT &&msg)
    {
        const Cycle when = timing.route(src, dst, bytes, now);
        if (sendHook)
            sendHook(msg, now, when);
        auto &queue = inbox[dst];
        // The FIFO is exact only while route() keeps per-destination
        // deliveries monotonic (file comment); fail loudly otherwise.
        if (!queue.empty() && when < queue.back().when)
            panic("crossbar %u: delivery at cycle %llu precedes queued "
                  "delivery at %llu",
                  dst, static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(queue.back().when));
        if (queue.empty())
            headWhen[dst] = when;
        queue.push_back(Entry{when, seq++, std::move(msg)});
        ++pending;
        return when;
    }

    /** Install (or clear, with nullptr) the passive send observer. */
    void setSendHook(SendHook hook) { sendHook = std::move(hook); }

    /** True if a message for @p dst has arrived by @p now. */
    bool
    hasReady(unsigned dst, Cycle now) const
    {
        return headWhen[dst] <= now;
    }

    /** Pop the oldest arrived message for @p dst (must be hasReady()). */
    MsgT
    popReady(unsigned dst)
    {
        auto &queue = inbox[dst];
        MsgT msg = std::move(queue.front().msg);
        queue.pop_front();
        --pending;
        headWhen[dst] = queue.empty() ? never : queue.front().when;
        return msg;
    }

    /** Earliest pending arrival across all destinations (or ~0). */
    Cycle
    nextArrival() const
    {
        Cycle best = never;
        for (const Cycle when : headWhen)
            best = when < best ? when : best;
        return best;
    }

    /** True if no messages are in flight anywhere. */
    bool
    idle() const
    {
        return pending == 0;
    }

    /** Messages currently queued or in flight (telemetry gauge). */
    std::size_t
    inFlight() const
    {
        return pending;
    }

    std::uint64_t totalFlits() const { return timing.totalFlits(); }
    StatSet &stats() { return timing.stats(); }

    /**
     * Checkpoint hook: timing state, send sequence, and every in-flight
     * message (each inbox as a count, then its entries in arrival order,
     * which is (when, seq) pop order). The in-flight gauge and the
     * head array are rebuilt on load.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        timing.ckpt(ar);
        ar(seq, inbox);
        if constexpr (!Ar::saving) {
            pending = 0;
            headWhen.assign(inbox.size(), never);
            for (std::size_t dst = 0; dst < inbox.size(); ++dst) {
                pending += inbox[dst].size();
                if (!inbox[dst].empty())
                    headWhen[dst] = inbox[dst].front().when;
            }
        }
    }

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        MsgT msg;

        template <class Ar> void ckpt(Ar &ar) { ar(when, seq, msg); }
    };

    static constexpr Cycle never = ~static_cast<Cycle>(0);

    CrossbarTiming timing;
    SendHook sendHook;
    std::uint64_t seq = 0;
    /** In-flight gauge. */
    std::size_t pending = 0;
    /** Arrival cycle of each inbox's front, or never (file comment). */
    std::vector<Cycle> headWhen;
    /** Per-destination FIFO, in (when, seq) order (file comment). */
    std::vector<RingFifo<Entry>> inbox;
};

} // namespace getm

#endif // GETM_NOC_CROSSBAR_HH
