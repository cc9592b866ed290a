/**
 * @file
 * GETM stall buffer (paper Fig. 9, Sec. V-B2).
 *
 * Requests that pass the timestamp check but find their target granule
 * reserved by a logically older transaction are queued here instead of
 * aborting. The structure resembles an MSHR: a small number of address
 * lines, each holding a few requests from different warps contending for
 * the same location. When a committing (or aborting) transaction drops a
 * granule's #writes to zero, the queued request with the minimum warpts
 * re-enters the validation unit. A full buffer aborts the requester.
 */

#ifndef GETM_CORE_STALL_BUFFER_HH
#define GETM_CORE_STALL_BUFFER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "tm/messages.hh"

namespace getm {

/** Per-partition stall buffer. */
class StallBuffer
{
  public:
    struct Config
    {
        unsigned lines = 4;          ///< Distinct addresses tracked.
        unsigned entriesPerLine = 4; ///< Requests per address.
    };

    StallBuffer(std::string name, const Config &config);

    /**
     * Try to queue @p msg (a request whose granule is @p key) at cycle
     * @p now; the timestamp is kept so dequeues can report the dwell.
     * @return false if the buffer is full (the caller must abort the
     *         requester); @p msg is then left untouched.
     */
    bool enqueue(Addr key, MemMsg &&msg, Cycle now = 0);

    /** Any requests waiting on @p key? */
    bool hasWaiters(Addr key) const;

    /**
     * Remove and return the minimum-warpts request waiting on @p key.
     * Must only be called when hasWaiters(key). When @p enqueued_at is
     * non-null it receives the cycle the request entered the buffer.
     */
    MemMsg popOldest(Addr key, Cycle *enqueued_at = nullptr);

    /**
     * The request popOldest(key) would return, without removing it, or
     * nullptr when no request waits on @p key. Lets the release path
     * decide whether the head waiter should re-enter validation or
     * keep waiting on the granule's new owner.
     */
    const MemMsg *peekOldest(Addr key) const;

    /** Visit every queued request (tracer drain before flush()). */
    void forEachWaiter(
        const std::function<void(const MemMsg &, Cycle enqueued_at)>
            &visit) const;

    /** Total queued requests (Fig. 15 metric). */
    unsigned occupancy() const;

    /** Queued requests for @p key (Fig. 16 metric). */
    unsigned waitersOn(Addr key) const;

    /** Drop everything (timestamp rollover). */
    void flush();

    StatSet &stats() { return statSet; }

    /** Checkpoint hook: every parked request plus stats. */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(lines, statSet);
    }

  private:
    struct Waiter
    {
        MemMsg msg;
        Cycle enqueuedAt;

        template <class Ar> void ckpt(Ar &ar) { ar(msg, enqueuedAt); }
    };

    struct Line
    {
        Addr key = invalidAddr;
        std::vector<Waiter> entries;

        template <class Ar> void ckpt(Ar &ar) { ar(key, entries); }
    };

    Line *findLine(Addr key);
    const Line *findLine(Addr key) const;

    Config cfg;
    std::vector<Line> lines;
    StatSet statSet;

    // Hot-path stat handles: enqueue() fires these per stalled request.
    StatSet::Counter &stFullRejections;
    StatSet::Counter &stEnqueues;
    StatSet::Maximum &stOccupancy;
    StatSet::Average &stWaitersPerAddr;
    HistogramData &stWaitersPerAddrHist;
};

} // namespace getm

#endif // GETM_CORE_STALL_BUFFER_HH
