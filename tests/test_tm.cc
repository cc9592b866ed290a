/**
 * @file
 * Unit tests for src/tm: transaction logs, intra-warp conflict
 * detection, and backoff.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "ckpt/serial.hh"
#include "common/rng.hh"
#include "tm/backoff.hh"
#include "tm/intra_warp_cd.hh"
#include "tm/tx_log.hh"

namespace getm {
namespace {

TEST(TxLog, FirstReadOnlyIsRecorded)
{
    ThreadTxLog log;
    log.addRead(0x100, 7);
    log.addRead(0x100, 9); // later read of same addr ignored
    ASSERT_EQ(log.readLog().size(), 1u);
    EXPECT_EQ(log.readLog()[0].value, 7u);
}

TEST(TxLog, WritesCoalesceAndCount)
{
    ThreadTxLog log;
    log.addWrite(0x100, 1);
    log.addWrite(0x100, 2);
    log.addWrite(0x104, 3);
    ASSERT_EQ(log.writeLog().size(), 2u);
    EXPECT_EQ(log.writeLog()[0].value, 2u);
    EXPECT_EQ(log.writeLog()[0].count, 2u);
    EXPECT_EQ(log.writeLog()[1].count, 1u);
}

TEST(TxLog, FindWriteForwardsLatest)
{
    ThreadTxLog log;
    EXPECT_FALSE(log.findWrite(0x100).has_value());
    log.addWrite(0x100, 5);
    log.addWrite(0x100, 6);
    EXPECT_EQ(log.findWrite(0x100).value(), 6u);
}

TEST(TxLog, ReadOnlyAndClear)
{
    ThreadTxLog log;
    log.addRead(0x100, 1);
    EXPECT_TRUE(log.readOnly());
    log.addWrite(0x104, 2);
    EXPECT_FALSE(log.readOnly());
    log.clear();
    EXPECT_TRUE(log.readOnly());
    EXPECT_TRUE(log.readLog().empty());
}

TEST(IntraWarpCd, ReadsDoNotConflict)
{
    IntraWarpCd iwcd;
    EXPECT_FALSE(iwcd.checkAndRecord(0, 0x100, false));
    EXPECT_FALSE(iwcd.checkAndRecord(1, 0x100, false));
}

TEST(IntraWarpCd, WriteAfterForeignReadConflicts)
{
    IntraWarpCd iwcd;
    EXPECT_FALSE(iwcd.checkAndRecord(0, 0x100, false));
    EXPECT_TRUE(iwcd.checkAndRecord(1, 0x100, true));
}

TEST(IntraWarpCd, ReadAfterForeignWriteConflicts)
{
    IntraWarpCd iwcd;
    EXPECT_FALSE(iwcd.checkAndRecord(0, 0x100, true));
    EXPECT_TRUE(iwcd.checkAndRecord(1, 0x100, false));
}

TEST(IntraWarpCd, OwnAccessesNeverSelfConflict)
{
    IntraWarpCd iwcd;
    EXPECT_FALSE(iwcd.checkAndRecord(3, 0x100, false));
    EXPECT_FALSE(iwcd.checkAndRecord(3, 0x100, true));
    EXPECT_FALSE(iwcd.checkAndRecord(3, 0x100, true));
}

TEST(IntraWarpCd, DropLaneReleasesClaims)
{
    IntraWarpCd iwcd;
    EXPECT_FALSE(iwcd.checkAndRecord(0, 0x100, true));
    iwcd.dropLane(0);
    EXPECT_FALSE(iwcd.checkAndRecord(1, 0x100, true));
}

TEST(IntraWarpCd, ResolveAcceptsDisjointLanes)
{
    std::array<ThreadTxLog, warpSize> logs;
    logs[0].addWrite(0x100, 1);
    logs[1].addWrite(0x104, 1);
    logs[2].addRead(0x108, 0);
    const LaneMask survivors =
        IntraWarpCd::resolveAtCommit(logs.data(), warpSize, 0b111);
    EXPECT_EQ(survivors, 0b111u);
}

TEST(IntraWarpCd, ResolveRejectsWriteWriteLosers)
{
    std::array<ThreadTxLog, warpSize> logs;
    logs[0].addWrite(0x100, 1);
    logs[1].addWrite(0x100, 2);
    logs[2].addWrite(0x100, 3);
    const LaneMask survivors =
        IntraWarpCd::resolveAtCommit(logs.data(), warpSize, 0b111);
    EXPECT_EQ(survivors, 0b001u); // lowest lane wins
}

TEST(IntraWarpCd, ResolveRejectsReadOfWrittenWord)
{
    std::array<ThreadTxLog, warpSize> logs;
    logs[0].addWrite(0x100, 1);
    logs[1].addRead(0x100, 0);
    logs[1].addWrite(0x200, 1);
    const LaneMask survivors =
        IntraWarpCd::resolveAtCommit(logs.data(), warpSize, 0b11);
    EXPECT_EQ(survivors, 0b01u);
}

TEST(IntraWarpCd, ResolveAllowsSharedReads)
{
    std::array<ThreadTxLog, warpSize> logs;
    for (int lane = 0; lane < 8; ++lane)
        logs[lane].addRead(0x100, 0);
    const LaneMask survivors =
        IntraWarpCd::resolveAtCommit(logs.data(), warpSize, 0xff);
    EXPECT_EQ(survivors, 0xffu);
}

TEST(IntraWarpCd, ResolveRespectsCandidateMask)
{
    std::array<ThreadTxLog, warpSize> logs;
    logs[0].addWrite(0x100, 1);
    logs[1].addWrite(0x100, 2);
    // Lane 0 is not a candidate, so lane 1 survives.
    const LaneMask survivors =
        IntraWarpCd::resolveAtCommit(logs.data(), warpSize, 0b10);
    EXPECT_EQ(survivors, 0b10u);
}

/**
 * Reference model of the intra-warp table: a plain hash map of owner
 * masks, with the same insert-on-check behaviour.
 */
class ReferenceIwcd
{
  public:
    bool
    checkAndRecord(LaneId lane, Addr addr, bool is_write)
    {
        Owners &owners = table[addr];
        const LaneMask self = 1u << lane;
        const bool conflict =
            is_write ? ((owners.readers | owners.writers) & ~self) != 0
                     : (owners.writers & ~self) != 0;
        if (conflict)
            return true;
        (is_write ? owners.writers : owners.readers) |= self;
        return false;
    }

    void
    dropLane(LaneId lane)
    {
        for (auto &[addr, owners] : table) {
            owners.readers &= ~(1u << lane);
            owners.writers &= ~(1u << lane);
        }
    }

    void clear() { table.clear(); }

    static LaneMask
    resolveAtCommit(const ThreadTxLog *logs, unsigned warp_size,
                    LaneMask candidates)
    {
        std::unordered_map<Addr, Owners> accepted;
        LaneMask survivors = 0;
        for (LaneId lane = 0; lane < warp_size; ++lane) {
            if (!(candidates & (1u << lane)))
                continue;
            bool conflict = false;
            for (const LogEntry &entry : logs[lane].readLog()) {
                auto it = accepted.find(entry.addr);
                conflict |= it != accepted.end() && it->second.writers;
            }
            for (const LogEntry &entry : logs[lane].writeLog()) {
                auto it = accepted.find(entry.addr);
                conflict |= it != accepted.end() &&
                            (it->second.readers || it->second.writers);
            }
            if (conflict)
                continue;
            survivors |= 1u << lane;
            for (const LogEntry &entry : logs[lane].readLog())
                accepted[entry.addr].readers |= 1u << lane;
            for (const LogEntry &entry : logs[lane].writeLog())
                accepted[entry.addr].writers |= 1u << lane;
        }
        return survivors;
    }

  private:
    struct Owners
    {
        LaneMask readers = 0;
        LaneMask writers = 0;
    };
    std::unordered_map<Addr, Owners> table;
};

/**
 * Apply @p steps seeded random operations to both tables and require
 * identical answers. Words come from a pool of @p pool_words, so a large
 * pool grows the index well past its first resize between clears.
 */
template <class Table>
void
applyRandomOps(Table &table, ReferenceIwcd &reference, Rng &rng,
               unsigned steps, unsigned pool_words)
{
    for (unsigned step = 0; step < steps; ++step) {
        const std::uint64_t roll = rng.below(1000);
        if (roll < 2) {
            table.clear();
            reference.clear();
        } else if (roll < 20) {
            const auto lane = static_cast<LaneId>(rng.below(warpSize));
            table.dropLane(lane);
            reference.dropLane(lane);
        } else {
            const auto lane = static_cast<LaneId>(rng.below(warpSize));
            const Addr addr = 0x1000 + 4 * rng.below(pool_words);
            const bool is_write = rng.below(3) == 0;
            ASSERT_EQ(table.checkAndRecord(lane, addr, is_write),
                      reference.checkAndRecord(lane, addr, is_write))
                << "step " << step << " lane " << lane << " addr "
                << addr << " write " << is_write;
        }
    }
}

TEST(IntraWarpCd, RandomOpsMatchReferenceModel)
{
    for (unsigned pool : {8u, 64u, 600u, 5000u}) {
        Rng rng(17 + pool);
        IntraWarpCd table;
        ReferenceIwcd reference;
        applyRandomOps(table, reference, rng, 40000, pool);
    }
}

TEST(IntraWarpCd, ResolveAtCommitMatchesReference)
{
    Rng rng(29);
    for (unsigned round = 0; round < 400; ++round) {
        // Alternate tiny and large per-lane logs so the reused scratch
        // table both grows and shrinks back between commits.
        const unsigned pool = (round % 3 == 0) ? 6 : (round % 3 == 1)
                                                         ? 96
                                                         : 4000;
        const unsigned max_entries = (round % 2) ? 4 : 40;
        std::array<ThreadTxLog, warpSize> logs;
        for (LaneId lane = 0; lane < warpSize; ++lane) {
            const auto reads = rng.below(max_entries + 1);
            const auto writes = rng.below(max_entries / 2 + 1);
            for (std::uint64_t i = 0; i < reads; ++i)
                logs[lane].addRead(0x2000 + 4 * rng.below(pool), 0);
            for (std::uint64_t i = 0; i < writes; ++i)
                logs[lane].addWrite(0x2000 + 4 * rng.below(pool), 1);
        }
        const auto candidates = static_cast<LaneMask>(rng.next());
        ASSERT_EQ(IntraWarpCd::resolveAtCommit(logs.data(), warpSize,
                                               candidates),
                  ReferenceIwcd::resolveAtCommit(logs.data(), warpSize,
                                                 candidates))
            << "round " << round;
    }
}

TEST(IntraWarpCd, CheckpointRoundTripKeepsAnswers)
{
    Rng rng(41);
    IntraWarpCd table;
    ReferenceIwcd reference;
    applyRandomOps(table, reference, rng, 3000, 400);

    ckpt::Writer writer;
    writer(table);
    const std::string bytes = writer.take();
    ckpt::Reader reader(bytes.data(), bytes.size());
    IntraWarpCd restored;
    reader(restored);
    EXPECT_EQ(reader.remaining(), 0u);

    // The original, the restored copy and the reference must keep
    // answering alike from here on.
    Rng rng_a(43), rng_b(43);
    ReferenceIwcd reference_b = reference;
    applyRandomOps(table, reference, rng_a, 20000, 400);
    applyRandomOps(restored, reference_b, rng_b, 20000, 400);
}

TEST(Backoff, WindowDoublesAndSaturates)
{
    Backoff::Config cfg;
    cfg.baseWindow = 16;
    cfg.maxWindow = 64;
    Backoff backoff(cfg);
    EXPECT_EQ(backoff.currentWindow(), 16u);
    Rng rng(1);
    backoff.nextDelay(rng);
    EXPECT_EQ(backoff.currentWindow(), 32u);
    backoff.nextDelay(rng);
    EXPECT_EQ(backoff.currentWindow(), 64u);
    backoff.nextDelay(rng);
    EXPECT_EQ(backoff.currentWindow(), 64u); // saturated
}

TEST(Backoff, DelaysWithinWindow)
{
    Backoff backoff;
    Rng rng(2);
    for (int i = 0; i < 50; ++i)
        EXPECT_LT(backoff.nextDelay(rng), backoff.currentWindow());
}

TEST(Backoff, ResetRestoresBase)
{
    Backoff::Config cfg;
    cfg.baseWindow = 16;
    cfg.maxWindow = 1024;
    Backoff backoff(cfg);
    Rng rng(3);
    for (int i = 0; i < 5; ++i)
        backoff.nextDelay(rng);
    backoff.reset();
    EXPECT_EQ(backoff.currentWindow(), 16u);
    EXPECT_EQ(backoff.consecutiveAborts(), 0u);
}

} // namespace
} // namespace getm
