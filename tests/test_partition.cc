/**
 * @file
 * Direct tests of MemPartition: local request handling (reads, volatile
 * writes, atomics), response scheduling into the down crossbar, port
 * gating, and idle/next-event reporting for the simulation loop.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace getm
