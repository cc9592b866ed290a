/**
 * @file
 * Direct tests of MemPartition: local request handling (reads, volatile
 * writes, atomics), response scheduling into the down crossbar, port
 * gating, idle/next-event reporting for the simulation loop, and the
 * outbound queue's order and checkpoint bytes against the
 * std::priority_queue it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "ckpt/serial.hh"
#include "gpu/gpu_system.hh"
#include "gpu/mem_partition.hh"

namespace getm {
namespace {

struct Rig
{
    GpuConfig cfg = GpuConfig::testRig();
    BackingStore store;
    AddressMap map{1, 128};
    Crossbar<MemMsg> up{"up", 1, 1, CrossbarTiming::Config{}};
    Crossbar<MemMsg> down{"down", 1, 1, CrossbarTiming::Config{}};
    MemPartition part;

    Rig() : part(0, cfg, map, store, up, down, 1, noTxEvents)
    {
    }

    /** Push a message into the up crossbar at cycle 0. */
    void
    send(MemMsg &&msg)
    {
        up.send(0, 0, msg.bytes, 0, std::move(msg));
    }

    /** Tick until the down crossbar delivers a message (or give up). */
    MemMsg
    runUntilResponse(Cycle limit = 5000)
    {
        for (Cycle now = 0; now < limit; ++now) {
            part.tick(now);
            if (down.hasReady(0, now))
                return down.popReady(0);
        }
        ADD_FAILURE() << "no response within " << limit << " cycles";
        return MemMsg{};
    }
};

MemMsg
ntxRead(Addr line, Addr word, bool bypass)
{
    MemMsg msg;
    msg.kind = MsgKind::NtxRead;
    msg.addr = line;
    msg.flag = bypass;
    msg.ops.push_back({0, word, 0, 0});
    msg.bytes = 8;
    return msg;
}

TEST(MemPartition, ReadReturnsDataAfterLlcLatency)
{
    Rig rig;
    rig.store.write(0x10000, 99);
    rig.send(ntxRead(0x10000, 0x10000, true));
    const MemMsg resp = rig.runUntilResponse();
    EXPECT_EQ(resp.kind, MsgKind::NtxReadResp);
    EXPECT_EQ(resp.ops[0].value, 99u);
}

TEST(MemPartition, FillResponsesCarryLineSizedPayload)
{
    Rig rig;
    MemMsg msg = ntxRead(0x10000, 0x10000, false);
    msg.txId = 1; // MSHR-tracked fill
    rig.send(std::move(msg));
    const MemMsg resp = rig.runUntilResponse();
    EXPECT_EQ(resp.bytes, 8u + 128u);
    EXPECT_EQ(resp.txId, 1u);
}

TEST(MemPartition, VolatileWriteAppliesAndAcks)
{
    Rig rig;
    MemMsg msg;
    msg.kind = MsgKind::NtxWrite;
    msg.addr = 0x10000;
    msg.flag = true; // volatile: partition is the serialization point
    msg.ops.push_back({0, 0x10004, 1234, 0});
    msg.bytes = 20;
    rig.send(std::move(msg));
    const MemMsg resp = rig.runUntilResponse();
    EXPECT_EQ(resp.kind, MsgKind::NtxWriteAck);
    EXPECT_EQ(rig.store.read(0x10004), 1234u);
}

TEST(MemPartition, NonVolatileWriteIsTimingOnly)
{
    // The core already applied the data (private accesses); the
    // partition only models the traffic and sends no ack.
    Rig rig;
    rig.store.write(0x10004, 7);
    MemMsg msg;
    msg.kind = MsgKind::NtxWrite;
    msg.addr = 0x10000;
    msg.flag = false;
    msg.ops.push_back({0, 0x10004, 9999, 0});
    msg.bytes = 20;
    rig.send(std::move(msg));
    for (Cycle now = 0; now < 2000; ++now)
        rig.part.tick(now);
    EXPECT_TRUE(rig.down.idle());
    EXPECT_EQ(rig.store.read(0x10004), 7u); // untouched
}

TEST(MemPartition, AtomicsSerializeAndReturnOldValues)
{
    Rig rig;
    rig.store.write(0x10000, 10);
    MemMsg msg;
    msg.kind = MsgKind::Atomic;
    msg.addr = 0x10000;
    msg.aop = static_cast<std::uint8_t>(AtomicOp::Add);
    msg.ops.push_back({0, 0x10000, 5, 0});
    msg.ops.push_back({1, 0x10000, 5, 0});
    msg.bytes = 40;
    rig.send(std::move(msg));
    const MemMsg resp = rig.runUntilResponse();
    EXPECT_EQ(resp.ops[0].value, 10u);
    EXPECT_EQ(resp.ops[1].value, 15u);
    EXPECT_EQ(rig.store.read(0x10000), 20u);
}

TEST(MemPartition, AtomicCasSemantics)
{
    Rig rig;
    rig.store.write(0x10000, 3);
    MemMsg msg;
    msg.kind = MsgKind::Atomic;
    msg.addr = 0x10000;
    msg.aop = static_cast<std::uint8_t>(AtomicOp::Cas);
    msg.ops.push_back({0, 0x10000, 3, 77}); // compare 3, swap 77: wins
    msg.ops.push_back({1, 0x10000, 3, 88}); // compare 3: now 77, fails
    msg.bytes = 40;
    rig.send(std::move(msg));
    const MemMsg resp = rig.runUntilResponse();
    EXPECT_EQ(resp.ops[0].value, 3u);
    EXPECT_EQ(resp.ops[1].value, 77u);
    EXPECT_EQ(rig.store.read(0x10000), 77u);
}

TEST(MemPartition, OnePopPerCycle)
{
    Rig rig;
    rig.send(ntxRead(0x10000, 0x10000, true));
    rig.send(ntxRead(0x20000, 0x20000, true));
    unsigned responses = 0;
    Cycle first = 0, second = 0;
    for (Cycle now = 0; now < 5000; ++now) {
        rig.part.tick(now);
        while (rig.down.hasReady(0, now)) {
            rig.down.popReady(0);
            (responses == 0 ? first : second) = now;
            ++responses;
        }
    }
    EXPECT_EQ(responses, 2u);
    EXPECT_GT(second, first); // serialized through the single port
}

TEST(MemPartition, IdleAndNextEventReporting)
{
    Rig rig;
    EXPECT_TRUE(rig.part.idle(0));
    EXPECT_EQ(rig.part.nextEventCycle(0), ~static_cast<Cycle>(0));
    rig.send(ntxRead(0x10000, 0x10000, true));
    // Before arrival the partition is idle; once the message lands the
    // next event is its processing.
    Cycle now = 0;
    while (!rig.up.hasReady(0, now))
        ++now;
    EXPECT_FALSE(rig.part.idle(now));
    EXPECT_NE(rig.part.nextEventCycle(now), ~static_cast<Cycle>(0));
}

/** An outbound entry as the std::priority_queue-based queue held it. */
struct RefOutbound
{
    Cycle when;
    std::uint64_t seq;
    MemMsg msg;

    bool
    operator>(const RefOutbound &other) const
    {
        return when != other.when ? when > other.when : seq > other.seq;
    }

    template <class Ar> void ckpt(Ar &ar) { ar(when, seq, msg); }
};

using RefQueue = std::priority_queue<RefOutbound, std::vector<RefOutbound>,
                                     std::greater<RefOutbound>>;

/** A message tagged @p id in ts, with 1-8 ops (exercises the pool). */
MemMsg
tagged(std::uint64_t id)
{
    MemMsg msg;
    msg.ts = id;
    msg.kind = MsgKind::GetmLoadResp;
    msg.ops.reserve(1 + id % 8);
    for (std::uint64_t i = 0; i <= id % 8; ++i)
        msg.ops.push_back({static_cast<std::uint8_t>(i), 4 * id + 4 * i,
                           static_cast<std::uint32_t>(id), 0});
    msg.bytes = 8 + 4 * static_cast<unsigned>(msg.ops.size());
    return msg;
}

std::string
bytesOf(OutboundQueue &queue)
{
    ckpt::Writer w;
    queue.ckpt(w);
    return w.take();
}

TEST(OutboundQueue, MatchesPriorityQueueWithNonMonotonicWhens)
{
    OutboundQueue queue;
    RefQueue ref;
    std::uint64_t ref_seq = 0;
    std::uint64_t state = 99;
    auto next = [&state](unsigned bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>((state >> 33) % bound);
    };
    // Always pops the reference, so a failure cannot stall the loops.
    auto pop_both = [&](OutboundQueue &q) {
        const RefOutbound &want = ref.top();
        if (q.empty()) {
            ADD_FAILURE() << "queue empty with " << ref.size() << " due";
        } else {
            EXPECT_EQ(q.nextWhen(), want.when);
            const MemMsg msg = q.pop();
            EXPECT_EQ(msg.ts, want.msg.ts);
            EXPECT_EQ(msg.ops.size(), want.msg.ops.size());
            for (std::size_t i = 0;
                 i < std::min(msg.ops.size(), want.msg.ops.size()); ++i)
                EXPECT_EQ(msg.ops[i].addr, want.msg.ops[i].addr);
        }
        ref.pop();
    };

    // Mid-flight checkpoint: the std::priority_queue's bytes, and a
    // restore that writes them back unchanged.
    auto round_trip = [&] {
        ASSERT_GT(queue.size(), 20u);
        ckpt::Writer w;
        w(ref_seq);
        ckpt::io(w, ref);
        const std::string bytes = bytesOf(queue);
        EXPECT_EQ(bytes, w.bytes());
        OutboundQueue restored;
        ckpt::Reader r(bytes.data(), bytes.size());
        restored.ckpt(r);
        EXPECT_EQ(r.remaining(), 0u);
        EXPECT_EQ(bytesOf(restored), bytes);
        queue = std::move(restored);
    };

    Cycle now = 0;
    std::uint64_t id = 0;
    for (int step = 0; step < 6000; ++step) {
        // The second checkpoint follows the far pushes' growth.
        if (step == 1500 || step == 4500)
            round_trip();
        const unsigned roll = next(12);
        Cycle when;
        if (step == 3000 || step == 3600) {
            // Far past the wheel's window with ~120 queued: it
            // grows mid-run, and near pushes keep arriving behind.
            when = now + 3000 + next(3000);
        } else if (roll < 4) {
            // Ready cycles jump back as well as forward, with ties.
            when = now + next(200);
        } else if (roll < 7) {
            // LLC responses: 330 cycles out, later on a DRAM miss.
            when = now + 331 + next(200);
        } else if (roll < 8) {
            // An EAPG broadcast, earlier than every LLC response.
            when = now + 1;
        } else {
            now += next(8);
            while (!ref.empty() && ref.top().when <= now)
                pop_both(queue);
            EXPECT_TRUE(queue.empty() || queue.nextWhen() > now);
            continue;
        }
        queue.push(tagged(id), when);
        ref.push(RefOutbound{when, ref_seq++, tagged(id)});
        ++id;
        EXPECT_EQ(queue.size(), ref.size());
    }
    while (!ref.empty())
        pop_both(queue);
    EXPECT_TRUE(queue.empty());
}

TEST(MemPartition, OutboundResponsesLeaveInReadyOrder)
{
    // Responses scheduled out of order reach the down crossbar in
    // (ready cycle, schedule order); one core keeps that order visible.
    Rig rig;
    const std::vector<Cycle> ready = {40, 12, 40, 7, 25, 12, 90, 3};
    for (std::size_t i = 0; i < ready.size(); ++i)
        rig.part.scheduleToCore(tagged(i), ready[i]);

    ckpt::Writer w;
    rig.part.ckpt(w);
    const std::string bytes = w.take();
    Rig copy;
    ckpt::Reader r(bytes.data(), bytes.size());
    copy.part.ckpt(r);
    EXPECT_EQ(r.remaining(), 0u);
    ckpt::Writer again;
    copy.part.ckpt(again);
    EXPECT_EQ(again.bytes(), bytes);

    for (Rig *each : {&rig, &copy}) {
        std::vector<std::uint64_t> order;
        for (Cycle now = 0; now < 500; ++now) {
            each->part.tick(now);
            while (each->down.hasReady(0, now))
                order.push_back(each->down.popReady(0).ts);
        }
        EXPECT_EQ(order,
                  (std::vector<std::uint64_t>{7, 3, 1, 5, 4, 0, 2, 6}));
    }
}

} // namespace
} // namespace getm
