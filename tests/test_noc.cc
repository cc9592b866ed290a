/**
 * @file
 * Unit tests for src/noc: crossbar timing, ordering, checkpointing, and
 * accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ckpt/serial.hh"
#include "noc/crossbar.hh"

namespace getm {
namespace {

CrossbarTiming::Config
config(Cycle latency = 5, unsigned flit = 32)
{
    CrossbarTiming::Config cfg;
    cfg.latency = latency;
    cfg.flitBytes = flit;
    return cfg;
}

TEST(CrossbarTiming, SingleFlitLatency)
{
    CrossbarTiming xbar("x", 2, 2, config());
    // 1 flit: inject at 10, head arrives at 15, ejection 1 cycle.
    EXPECT_EQ(xbar.route(0, 0, 8, 10), 16u);
}

TEST(CrossbarTiming, MultiFlitSerialization)
{
    CrossbarTiming xbar("x", 2, 2, config());
    // 96 bytes = 3 flits.
    EXPECT_EQ(xbar.route(0, 0, 96, 10), 18u);
}

TEST(CrossbarTiming, InjectionPortContention)
{
    CrossbarTiming xbar("x", 2, 2, config());
    const Cycle first = xbar.route(0, 0, 96, 0);  // occupies src 0..3
    const Cycle second = xbar.route(0, 1, 32, 0); // must wait for port
    EXPECT_EQ(first, 8u);
    EXPECT_EQ(second, 9u); // inject at 3, arrive 8, eject 9
}

TEST(CrossbarTiming, EjectionPortContention)
{
    CrossbarTiming xbar("x", 2, 2, config());
    const Cycle a = xbar.route(0, 0, 32, 0);
    const Cycle b = xbar.route(1, 0, 32, 0); // different src, same dst
    EXPECT_EQ(a, 6u);
    EXPECT_EQ(b, 7u); // serialized at the ejection port
}

TEST(CrossbarTiming, FlitAccounting)
{
    CrossbarTiming xbar("x", 2, 2, config());
    xbar.route(0, 0, 32, 0);
    xbar.route(0, 1, 33, 0); // 2 flits
    EXPECT_EQ(xbar.totalFlits(), 3u);
    EXPECT_EQ(xbar.stats().counter("messages"), 2u);
    EXPECT_EQ(xbar.stats().counter("bytes"), 65u);
}

TEST(Crossbar, DeliversInArrivalOrder)
{
    Crossbar<int> xbar("x", 2, 1, config());
    xbar.send(0, 0, 8, 0, 1);
    xbar.send(1, 0, 8, 0, 2);
    xbar.send(0, 0, 8, 1, 3);
    std::vector<int> order;
    for (Cycle now = 0; now < 40; ++now)
        while (xbar.hasReady(0, now))
            order.push_back(xbar.popReady(0));
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
}

TEST(Crossbar, SameSrcDstIsFifo)
{
    // Messages between the same (src, dst) pair must never reorder --
    // GETM relies on this for commit-log vs next-transaction ordering.
    Crossbar<int> xbar("x", 1, 1, config());
    for (int i = 0; i < 50; ++i)
        xbar.send(0, 0, 8 + (i % 3) * 40, i / 2, int{i});
    int expected = 0;
    for (Cycle now = 0; now < 1000; ++now)
        while (xbar.hasReady(0, now))
            EXPECT_EQ(xbar.popReady(0), expected++);
    EXPECT_EQ(expected, 50);
}

TEST(Crossbar, NextArrivalTracksEarliest)
{
    Crossbar<int> xbar("x", 2, 2, config());
    EXPECT_EQ(xbar.nextArrival(), ~static_cast<Cycle>(0));
    xbar.send(0, 1, 8, 10, 42);
    EXPECT_EQ(xbar.nextArrival(), 16u);
    EXPECT_TRUE(xbar.hasReady(1, 16));
    xbar.popReady(1);
    EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, NotReadyBeforeArrival)
{
    Crossbar<int> xbar("x", 1, 1, config());
    xbar.send(0, 0, 8, 0, 7);
    EXPECT_FALSE(xbar.hasReady(0, 5));
    EXPECT_TRUE(xbar.hasReady(0, 6));
}

/** One message sent in the mixed-traffic tests below. */
struct Sent
{
    unsigned dst;
    Cycle when;
    int id; // also the crossbar's send sequence number
};

/**
 * Send @p count messages from 3 sources to 4 destinations, 1-5 flits
 * each, with send cycles around @p base that jump backwards as well as
 * forwards, as the partitions' scheduled responses and the parallel
 * loop's staged replay produce. Ids continue from @p sent.size().
 */
void
sendMixed(Crossbar<int> &xbar, std::vector<Sent> &sent, int count,
          Cycle base, std::uint64_t seed)
{
    std::uint64_t state = seed;
    auto next = [&state](unsigned bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>((state >> 33) % bound);
    };
    for (int i = 0; i < count; ++i) {
        const unsigned src = next(3);
        const unsigned dst = next(4);
        const unsigned bytes = 1 + next(5 * 32);
        const Cycle now = base + next(17) - 8;
        base += next(3);
        const int id = static_cast<int>(sent.size());
        sent.push_back({dst, xbar.send(src, dst, bytes, now, int{id}), id});
    }
}

/** Ids sent to @p dst, stably sorted by (when, seq). */
std::vector<int>
expectedOrder(std::vector<Sent> sent, unsigned dst)
{
    std::stable_sort(sent.begin(), sent.end(),
                     [](const Sent &a, const Sent &b) {
                         return a.when != b.when ? a.when < b.when
                                                 : a.id < b.id;
                     });
    std::vector<int> ids;
    for (const Sent &s : sent)
        if (s.dst == dst)
            ids.push_back(s.id);
    return ids;
}

/** Pop everything ready for @p dst at each cycle up to @p until. */
void
popUntil(Crossbar<int> &xbar, unsigned dst, Cycle until,
         std::vector<int> &ids)
{
    for (Cycle now = 0; now <= until; ++now)
        while (xbar.hasReady(dst, now))
            ids.push_back(xbar.popReady(dst));
}

TEST(Crossbar, MixedTrafficPopsInWhenSeqOrder)
{
    Crossbar<int> xbar("x", 3, 4, config());
    std::vector<Sent> sent;
    sendMixed(xbar, sent, 400, 100, 7);
    for (unsigned dst = 0; dst < 4; ++dst) {
        std::vector<int> popped;
        popUntil(xbar, dst, 10000, popped);
        EXPECT_GT(popped.size(), 50u);
        EXPECT_EQ(popped, expectedOrder(sent, dst)) << "dst " << dst;
    }
    EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, InterleavedSendsAndPopsStayOrdered)
{
    // Pops between send bursts: a message routed after one already
    // popped for the same destination never arrives before it.
    Crossbar<int> xbar("x", 3, 4, config());
    std::vector<Sent> sent;
    std::vector<std::vector<int>> popped(4);
    for (int burst = 0; burst < 20; ++burst) {
        const Cycle base = 100 + 15 * burst;
        sendMixed(xbar, sent, 25, base, 100 + burst);
        for (unsigned dst = 0; dst < 4; ++dst)
            popUntil(xbar, dst, base, popped[dst]);
    }
    for (unsigned dst = 0; dst < 4; ++dst) {
        popUntil(xbar, dst, 10000, popped[dst]);
        EXPECT_EQ(popped[dst], expectedOrder(sent, dst)) << "dst " << dst;
    }
    EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, CheckpointKeepsInFlightOrderAndFormat)
{
    Crossbar<int> xbar("x", 3, 4, config());
    std::vector<Sent> sent;
    sendMixed(xbar, sent, 120, 100, 11);

    ckpt::Writer w;
    xbar.ckpt(w);
    const std::string bytes = w.take();

    // The inbox section is the send sequence, the destination count, then
    // per destination a count and its entries (when, seq, msg) in arrival
    // order, which is also pop order. ckpt::formatVersion pins this layout.
    ckpt::Writer inbox;
    std::uint64_t seq = sent.size();
    std::uint64_t dsts = 4;
    inbox(seq, dsts);
    for (unsigned dst = 0; dst < 4; ++dst) {
        const std::vector<int> order = expectedOrder(sent, dst);
        std::uint64_t n = order.size();
        inbox(n);
        for (int id : order) {
            Cycle when = sent[id].when;
            std::uint64_t entry_seq = static_cast<std::uint64_t>(id);
            int msg = id;
            inbox(when, entry_seq, msg);
        }
    }
    const std::string tail = inbox.take();
    ASSERT_GE(bytes.size(), tail.size());
    EXPECT_EQ(bytes.substr(bytes.size() - tail.size()), tail);

    Crossbar<int> restored("x", 3, 4, config());
    ckpt::Reader r(bytes.data(), bytes.size());
    restored.ckpt(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(restored.inFlight(), sent.size());
    EXPECT_EQ(restored.nextArrival(), xbar.nextArrival());
    for (unsigned dst = 0; dst < 4; ++dst) {
        std::vector<int> original, reloaded;
        popUntil(xbar, dst, 10000, original);
        popUntil(restored, dst, 10000, reloaded);
        EXPECT_EQ(reloaded, expectedOrder(sent, dst)) << "dst " << dst;
        EXPECT_EQ(reloaded, original) << "dst " << dst;
    }
    // Later sends continue the restored sequence and port clocks.
    EXPECT_EQ(restored.send(0, 1, 8, 500, -1), xbar.send(0, 1, 8, 500, -1));
}

/** An inbox-shaped entry for the RingFifo tests. */
struct RingItem
{
    Cycle when;
    std::uint64_t seq;
    int msg;

    template <class Ar> void ckpt(Ar &ar) { ar(when, seq, msg); }
};

/**
 * Checkpoint @p ring and check its bytes against ckpt's std::deque
 * encoding of @p ref and the same built by hand (a count, then
 * (when, seq, msg) oldest first); a ring restored from them must hold
 * @p ref's entries in order.
 */
void
expectDequeBytes(RingFifo<RingItem> &ring, std::deque<RingItem> &ref)
{
    ckpt::Writer ring_bytes, deque_bytes, hand_bytes;
    ring.ckpt(ring_bytes);
    ckpt::io(deque_bytes, ref);
    std::uint64_t n = ref.size();
    hand_bytes(n);
    for (RingItem item : ref)
        hand_bytes(item.when, item.seq, item.msg);
    EXPECT_EQ(ring_bytes.bytes(), deque_bytes.bytes());
    EXPECT_EQ(ring_bytes.bytes(), hand_bytes.bytes());

    const std::string bytes(ring_bytes.bytes());
    RingFifo<RingItem> restored;
    ckpt::Reader r(bytes.data(), bytes.size());
    restored.ckpt(r);
    EXPECT_EQ(r.remaining(), 0u);
    ASSERT_EQ(restored.size(), ref.size());
    for (const RingItem &item : ref) {
        EXPECT_EQ(restored.front().msg, item.msg);
        restored.pop_front();
    }
}

TEST(RingFifo, HeadWrapsBeforeGrowthAndBytesMatchDequeFormat)
{
    RingFifo<RingItem> ring;
    std::deque<RingItem> ref;
    int next = 0;
    auto push = [&] {
        const RingItem item{static_cast<Cycle>(10 * next),
                            static_cast<std::uint64_t>(next), next};
        ring.push_back(RingItem{item});
        ref.push_back(item);
        ++next;
    };
    auto pop = [&] {
        ASSERT_EQ(ring.front().msg, ref.front().msg);
        ring.pop_front();
        ref.pop_front();
    };

    for (int i = 0; i < 4; ++i)
        push();
    const std::size_t initial = ring.capacity();
    ASSERT_EQ(initial, 4u);
    for (int i = 0; i < 3; ++i)
        pop();
    // The head sits at the last slot; these pushes wrap the tail and
    // fill the ring: entries 3, 4, 5, 6 in slots 3, 0, 1, 2.
    for (int i = 0; i < 3; ++i)
        push();
    EXPECT_EQ(ring.capacity(), initial);
    EXPECT_EQ(ring.back().msg, 6);
    expectDequeBytes(ring, ref);

    // Full and wrapped: this push grows the ring while it holds
    // entries, which must keep their order.
    push();
    EXPECT_EQ(ring.capacity(), 2 * initial);
    // Move the head off slot 0 again before the next checkpoint.
    pop();
    pop();
    push();
    expectDequeBytes(ring, ref);

    std::vector<int> popped;
    while (!ring.empty()) {
        popped.push_back(ring.front().msg);
        ring.pop_front();
    }
    EXPECT_EQ(popped, (std::vector<int>{5, 6, 7, 8}));
}

TEST(Crossbar, InboxWrapsAndGrowsInFlight)
{
    // One source and destination, so arrival order is send order.
    Crossbar<int> xbar("x", 1, 1, config());
    std::vector<Cycle> when; // delivery cycle, by id
    Cycle now = 0;
    auto send = [&] {
        const int id = static_cast<int>(when.size());
        when.push_back(xbar.send(0, 0, 8, now++, int{id}));
    };
    for (int i = 0; i < 4; ++i)
        send();
    // Popping three moves the inbox head to the ring's last slot; three
    // more sends then wrap the tail and fill the ring.
    std::vector<int> popped;
    for (; popped.size() < 3; ++now)
        while (xbar.hasReady(0, now) && popped.size() < 3)
            popped.push_back(xbar.popReady(0));
    for (int i = 0; i < 3; ++i)
        send();

    // Checkpoint while wrapped. The inbox section is the send sequence,
    // the destination count, then ids 3-6 as (when, seq, msg).
    ckpt::Writer w;
    xbar.ckpt(w);
    const std::string bytes = w.take();
    ckpt::Writer inbox;
    std::uint64_t seq = when.size(), dsts = 1, n = 4;
    inbox(seq, dsts, n);
    for (int id = 3; id < 7; ++id) {
        Cycle delivery = when[id];
        std::uint64_t entry_seq = static_cast<std::uint64_t>(id);
        int msg = id;
        inbox(delivery, entry_seq, msg);
    }
    const std::string tail = inbox.take();
    ASSERT_GE(bytes.size(), tail.size());
    EXPECT_EQ(bytes.substr(bytes.size() - tail.size()), tail);

    Crossbar<int> restored("x", 1, 1, config());
    ckpt::Reader r(bytes.data(), bytes.size());
    restored.ckpt(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(restored.inFlight(), 4u);

    // Five more sends grow both rings while they hold wrapped entries.
    for (Crossbar<int> *each : {&xbar, &restored})
        for (int i = 0; i < 5; ++i)
            each->send(0, 0, 8, now + i, 7 + i);
    std::vector<int> rest, restored_rest;
    popUntil(xbar, 0, 1000, rest);
    popUntil(restored, 0, 1000, restored_rest);
    EXPECT_EQ(rest, (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10, 11}));
    EXPECT_EQ(restored_rest, rest);
    EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, HeadArrayMatchesInboxScan)
{
    // A shadow of every inbox (its delivery cycles, in pop order): at
    // each step hasReady() and nextArrival() must equal a scan of it,
    // before and after a checkpoint restore swaps the crossbar.
    Crossbar<int> original("x", 3, 5, config());
    Crossbar<int> restored("x", 3, 5, config());
    Crossbar<int> *xbar = &original;
    std::vector<std::deque<Cycle>> shadow(5);
    std::uint64_t state = 17;
    auto next = [&state](unsigned bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>((state >> 33) % bound);
    };
    auto expect_matches_scan = [&](Cycle now) {
        Cycle earliest = ~static_cast<Cycle>(0);
        for (unsigned dst = 0; dst < shadow.size(); ++dst) {
            const bool ready =
                !shadow[dst].empty() && shadow[dst].front() <= now;
            EXPECT_EQ(xbar->hasReady(dst, now), ready) << "dst " << dst;
            if (!shadow[dst].empty())
                earliest = std::min(earliest, shadow[dst].front());
        }
        EXPECT_EQ(xbar->nextArrival(), earliest);
    };

    Cycle now = 0;
    for (int step = 0; step < 4000; ++step) {
        if (step == 2000) {
            ckpt::Writer w;
            original.ckpt(w);
            const std::string bytes = w.take();
            ckpt::Reader r(bytes.data(), bytes.size());
            restored.ckpt(r);
            EXPECT_EQ(r.remaining(), 0u);
            ASSERT_GT(restored.inFlight(), 0u);
            xbar = &restored;
            expect_matches_scan(now);
        }
        const unsigned roll = next(8);
        if (roll < 4) {
            const unsigned dst = next(5);
            shadow[dst].push_back(
                xbar->send(next(3), dst, 1 + next(96), now, int{step}));
        } else if (roll < 7) {
            // Drain one destination, or whatever of it has arrived.
            const unsigned dst = next(5);
            while (xbar->hasReady(dst, now)) {
                xbar->popReady(dst);
                shadow[dst].pop_front();
            }
        } else {
            now += next(6);
        }
        expect_matches_scan(now);
    }
}

TEST(CrossbarDeath, PortOutOfRange)
{
    CrossbarTiming xbar("x", 2, 2, config());
    EXPECT_DEATH(xbar.route(2, 0, 8, 0), "port out of range");
    EXPECT_DEATH(xbar.route(0, 5, 8, 0), "port out of range");
}

} // namespace
} // namespace getm
