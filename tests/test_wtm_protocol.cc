/**
 * @file
 * Direct tests of the WarpTM partition unit: TCD probing, commit-id
 * ordered validation with skips, hazard-gated pipelining, decisions,
 * and the eager-lazy fast path; plus an equivalence check of its
 * commit-id window against a std::map reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "ckpt/serial.hh"
#include "warptm/wtm_partition.hh"

namespace getm {
namespace {

class MockContext : public PartitionContext
{
  public:
    PartitionId partitionId() const override { return 0; }
    unsigned numCores() const override { return 2; }

    void
    scheduleToCore(MemMsg &&msg, Cycle when) override
    {
        sent.push_back({when, std::move(msg)});
    }

    Cycle accessLlc(Addr, bool, Cycle) override { return 0; }
    Cycle llcLatency() const override { return 10; }
    BackingStore &memory() override { return store; }
    StatSet &stats() override { return statSet; }

    BackingStore store;
    StatSet statSet{"mock"};
    std::vector<std::pair<Cycle, MemMsg>> sent;
};

MemMsg
txLoad(Addr word)
{
    MemMsg msg;
    msg.kind = MsgKind::WtmTxLoad;
    msg.ops.push_back({0, word, 0, 0});
    return msg;
}

/** A validation slice: reads are (addr, observed value); writes aux=1. */
MemMsg
slice(std::uint64_t id,
      std::vector<std::tuple<Addr, std::uint32_t, bool>> entries)
{
    MemMsg msg;
    msg.kind = MsgKind::WtmValidate;
    msg.txId = id;
    for (auto &[addr, value, is_write] : entries)
        msg.ops.push_back({0, addr, value, is_write ? 1u : 0u});
    return msg;
}

MemMsg
skip(std::uint64_t id)
{
    MemMsg msg;
    msg.kind = MsgKind::WtmSkip;
    msg.txId = id;
    return msg;
}

MemMsg
decision(std::uint64_t id, LaneMask pass)
{
    MemMsg msg;
    msg.kind = MsgKind::WtmDecision;
    msg.txId = id;
    msg.ts = pass;
    msg.flag = pass != 0;
    return msg;
}

TEST(WtmVu, LoadReturnsDataAndTcdTimestamp)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    ctx.store.write(0x100, 55);
    unit.noteDataWrite(0x100, 40);

    unit.handleRequest(txLoad(0x100), 50);
    ASSERT_EQ(ctx.sent.size(), 1u);
    const MemMsg &resp = ctx.sent[0].second;
    EXPECT_EQ(resp.kind, MsgKind::WtmLoadResp);
    EXPECT_EQ(resp.ops[0].value, 55u);
    EXPECT_EQ(resp.ops[0].aux, 40u); // TCD last-write cycle
}

TEST(WtmVu, ValidationPassesWhenValuesMatch)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    ctx.store.write(0x100, 7);

    unit.handleRequest(slice(1, {{0x100, 7, false}, {0x200, 9, true}}),
                       0);
    ASSERT_EQ(ctx.sent.size(), 1u);
    EXPECT_EQ(ctx.sent[0].second.kind, MsgKind::WtmValidateResp);
    EXPECT_TRUE(ctx.sent[0].second.ops.empty()); // no failed lanes
}

TEST(WtmVu, ValidationFlagsStaleReads)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    ctx.store.write(0x100, 8); // the log observed 7

    unit.handleRequest(slice(1, {{0x100, 7, false}}), 0);
    ASSERT_EQ(ctx.sent.size(), 1u);
    ASSERT_EQ(ctx.sent[0].second.ops.size(), 1u);
    EXPECT_EQ(ctx.sent[0].second.ops[0].lane, 0u);
}

TEST(WtmVu, CommitDecisionAppliesWrites)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    unit.handleRequest(slice(1, {{0x300, 42, true}}), 0);
    ctx.sent.clear();

    unit.handleRequest(decision(1, 0x1), 5);
    EXPECT_EQ(ctx.store.read(0x300), 42u);
    ASSERT_EQ(ctx.sent.size(), 1u);
    EXPECT_EQ(ctx.sent[0].second.kind, MsgKind::WtmCommitAck);
}

TEST(WtmVu, AbortDecisionDropsWrites)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    ctx.store.write(0x300, 5);
    unit.handleRequest(slice(1, {{0x300, 42, true}}), 0);
    unit.handleRequest(decision(1, 0x0), 5);
    EXPECT_EQ(ctx.store.read(0x300), 5u); // unchanged
}

TEST(WtmVu, ValidatesInCommitIdOrder)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    // Id 2 arrives before id 1: it must wait.
    unit.handleRequest(slice(2, {{0x200, 0, true}}), 0);
    EXPECT_TRUE(ctx.sent.empty());
    unit.handleRequest(slice(1, {{0x100, 0, true}}), 1);
    // Both validate now (disjoint addresses pipeline), id 1 first.
    ASSERT_EQ(ctx.sent.size(), 2u);
    EXPECT_EQ(ctx.sent[0].second.txId, 1u);
    EXPECT_EQ(ctx.sent[1].second.txId, 2u);
}

TEST(WtmVu, SkipAdvancesOrderWithoutResponse)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    unit.handleRequest(slice(2, {{0x200, 0, true}}), 0);
    EXPECT_TRUE(ctx.sent.empty());
    unit.handleRequest(skip(1), 1);
    ASSERT_EQ(ctx.sent.size(), 1u);
    EXPECT_EQ(ctx.sent[0].second.txId, 2u);
    EXPECT_EQ(unit.nextCommitId(), 3u);
}

TEST(WtmVu, HazardBlocksOverlappingValidation)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    // Id 1 writes 0x100 and awaits its decision; id 2 reads 0x100.
    unit.handleRequest(slice(1, {{0x100, 9, true}}), 0);
    ASSERT_EQ(ctx.sent.size(), 1u);
    unit.handleRequest(slice(2, {{0x100, 9, false}}), 1);
    EXPECT_EQ(ctx.sent.size(), 1u); // id 2 blocked on the hazard

    // The decision applies id 1's write; id 2 then validates against
    // the committed value.
    unit.handleRequest(decision(1, 0x1), 2);
    ASSERT_EQ(ctx.sent.size(), 3u); // ack for 1 + validation resp for 2
    EXPECT_EQ(ctx.sent[1].second.kind, MsgKind::WtmCommitAck);
    EXPECT_EQ(ctx.sent[2].second.txId, 2u);
    EXPECT_TRUE(ctx.sent[2].second.ops.empty()); // observed 9: passes
}

TEST(WtmVu, NonConflictingTransactionsPipeline)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    for (std::uint64_t id = 1; id <= 4; ++id)
        unit.handleRequest(
            slice(id, {{0x100 + id * 0x100, 1, true}}), id);
    // All four validated without any decisions yet.
    EXPECT_EQ(ctx.sent.size(), 4u);
    // Decisions in reverse order still apply cleanly.
    for (std::uint64_t id = 4; id >= 1; --id)
        unit.handleRequest(decision(id, 0x1), 10 + id);
    EXPECT_EQ(ctx.sent.size(), 8u);
}

TEST(WtmVu, ElSliceAppliesTimingOnlyAndAcks)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    MemMsg msg = slice(0, {{0x500, 77, true}});
    msg.flag = true; // EagerLazy fast path
    msg.bytes = 20;
    unit.handleRequest(std::move(msg), 0);
    ASSERT_EQ(ctx.sent.size(), 1u);
    EXPECT_EQ(ctx.sent[0].second.kind, MsgKind::WtmCommitAck);
    // Functional data was applied at the core; the partition only
    // updates timing and the TCD table.
    EXPECT_EQ(ctx.store.read(0x500), 0u);
    ctx.sent.clear();
    unit.handleRequest(txLoad(0x500), 10);
    EXPECT_EQ(ctx.sent[0].second.ops[0].aux, 0u + 0u); // tcd updated at 0
}

TEST(WtmVu, TcdUpdatedByCommits)
{
    MockContext ctx;
    WtmPartitionUnit unit(ctx, {}, "u");
    unit.handleRequest(slice(1, {{0x700, 5, true}}), 0);
    unit.handleRequest(decision(1, 0x1), 30);
    ctx.sent.clear();
    unit.handleRequest(txLoad(0x700), 50);
    EXPECT_GE(ctx.sent[0].second.ops[0].aux, 30u);
}

// --- the commit-id window against a std::map reference model -----------

/**
 * The ordered-map bookkeeping the partition unit used before its
 * commit-id window, reduced to the validate/skip/decision path:
 * slices and skips wait in `reorder`, early decisions in `decisions`,
 * validated slices in `awaiting`, and hazards are looked up in a
 * word -> count map. Its checkpoint writes the three maps where the
 * unit writes its window.
 */
class MapReference
{
  public:
    MapReference(PartitionContext &context, const WtmPartitionConfig &config)
        : ctx(context), cfg(config),
          tcd(std::max(1u, config.tcdEntries / RecencyBloom::numWays),
              config.seed)
    {
    }

    void
    handle(MemMsg &&msg, Cycle now)
    {
        const std::uint64_t id = msg.txId;
        if (msg.kind == MsgKind::WtmDecision) {
            earlyDecisions += !awaiting.count(id);
            decisions.emplace(id, std::move(msg));
        } else {
            reorder.emplace(id, std::move(msg));
        }
        std::uint64_t oldest = nextId;
        for (const auto *queue : {&reorder, &decisions, &awaiting})
            if (!queue->empty())
                oldest = std::min(oldest, queue->begin()->first);
        maxSpan = std::max(maxSpan, id - oldest + 1);
        tryAdvance(now);
    }

    void
    save(ckpt::Writer &ar)
    {
        ar(tcd, reorder, decisions, awaiting, nextId, vuFree);
    }

    bool
    drained() const
    {
        return reorder.empty() && decisions.empty() && awaiting.empty();
    }

    std::uint64_t nextId = 1;
    /** Decisions that arrived before their slice validated. */
    unsigned earlyDecisions = 0;
    /** Admissions refused for a full pipeline / for a hazard. */
    unsigned depthStalls = 0;
    unsigned hazardStalls = 0;
    /** Widest id range the maps held at once. */
    std::uint64_t maxSpan = 0;

  private:
    void
    tryAdvance(Cycle now)
    {
        bool progress = true;
        while (progress) {
            progress = false;
            for (auto it = decisions.begin(); it != decisions.end();) {
                auto slice_it = awaiting.find(it->first);
                if (slice_it == awaiting.end()) {
                    ++it;
                    continue;
                }
                applyDecision(it->second, now);
                awaiting.erase(slice_it);
                it = decisions.erase(it);
                progress = true;
            }
            auto it = reorder.find(nextId);
            if (it == reorder.end())
                continue;
            if (it->second.kind == MsgKind::WtmSkip) {
                reorder.erase(it);
                ++nextId;
                progress = true;
                continue;
            }
            bool hazard = false;
            for (const LaneOp &op : it->second.ops)
                hazard = hazard || pendingWrites.count(op.addr);
            if (awaiting.size() >= cfg.pipelineDepth) {
                ++depthStalls;
                continue;
            }
            if (hazard) {
                ++hazardStalls;
                continue;
            }
            MemMsg slice = std::move(it->second);
            reorder.erase(it);
            ++nextId;
            validateSlice(std::move(slice), now);
            progress = true;
        }
    }

    void
    validateSlice(MemMsg &&slice, Cycle now)
    {
        const Cycle start = std::max(now, vuFree);
        const Cycle busy = std::max<Cycle>(1, slice.ops.size());
        vuFree = start + busy;
        MemMsg resp;
        resp.kind = MsgKind::WtmValidateResp;
        resp.core = slice.core;
        resp.partition = ctx.partitionId();
        resp.wid = slice.wid;
        resp.warpSlot = slice.warpSlot;
        resp.txId = slice.txId;
        LaneMask failed = 0;
        for (const LaneOp &op : slice.ops)
            if (!op.aux && ctx.memory().read(op.addr) != op.value)
                failed |= 1u << op.lane;
        for (LaneMask rest = failed; rest; rest &= rest - 1)
            resp.ops.push_back(
                {static_cast<std::uint8_t>(std::countr_zero(rest)), 0, 0, 0});
        resp.bytes = 8;
        ctx.scheduleToCore(std::move(resp),
                           start + busy + ctx.llcLatency());
        for (const LaneOp &op : slice.ops)
            if (op.aux)
                ++pendingWrites[op.addr];
        const std::uint64_t id = slice.txId;
        awaiting.emplace(id, std::move(slice));
    }

    void
    applyDecision(const MemMsg &decision, Cycle now)
    {
        const MemMsg &slice = awaiting.at(decision.txId);
        const LaneMask pass = static_cast<LaneMask>(decision.ts);
        const Cycle start = std::max(now, vuFree);
        Cycle bytes = 0;
        for (const LaneOp &op : slice.ops) {
            if (!op.aux)
                continue;
            auto it = pendingWrites.find(op.addr);
            if (it != pendingWrites.end() && --it->second == 0)
                pendingWrites.erase(it);
            if (!(pass & (1u << op.lane)))
                continue;
            ctx.memory().write(op.addr, op.value);
            tcd.insert(op.addr, start, 0);
            bytes += 12;
        }
        const Cycle busy = std::max<Cycle>(
            1, (bytes + cfg.commitBytesPerCycle - 1) /
                   cfg.commitBytesPerCycle);
        vuFree = start + busy;
        MemMsg ack;
        ack.kind = MsgKind::WtmCommitAck;
        ack.core = slice.core;
        ack.partition = ctx.partitionId();
        ack.wid = slice.wid;
        ack.warpSlot = slice.warpSlot;
        ack.bytes = 8;
        ctx.scheduleToCore(std::move(ack), start + busy);
    }

    PartitionContext &ctx;
    WtmPartitionConfig cfg;
    RecencyBloom tcd;
    std::map<std::uint64_t, MemMsg> reorder;
    std::map<std::uint64_t, MemMsg> decisions;
    std::map<std::uint64_t, MemMsg> awaiting;
    std::unordered_map<Addr, unsigned> pendingWrites;
    Cycle vuFree = 0;
};

/**
 * A jittered delivery of @p n commit ids: a slice or a skip per id, and
 * a decision per slice. Id k's slice or skip is due at k plus up to
 * @p jitter, its decision anywhere from jitter / 4 before that to three
 * jitters after, so ids arrive far ahead of the oldest undecided one
 * (the window grows) and some decisions beat their slices. Slices touch
 * a pool of @p words words, so later ids hazard with undecided ones.
 */
std::vector<MemMsg>
randomTraffic(std::mt19937_64 &rng, unsigned n, unsigned words,
              unsigned jitter)
{
    std::vector<std::pair<double, MemMsg>> due;
    const auto uniform = [&rng](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    for (std::uint64_t id = 1; id <= n; ++id) {
        const double arrive = static_cast<double>(id) + uniform(0, jitter);
        if (rng() % 4 == 0) {
            due.push_back({arrive, skip(id)});
            continue;
        }
        MemMsg s;
        s.kind = MsgKind::WtmValidate;
        s.txId = id;
        s.wid = static_cast<GlobalWarpId>(id); // names the tx in acks
        LaneMask lanes = 0;
        const unsigned ops = 1 + static_cast<unsigned>(rng() % 6);
        for (unsigned i = 0; i < ops; ++i) {
            const auto lane = static_cast<std::uint8_t>(rng() % warpSize);
            const Addr addr = 0x1000 + 4 * (rng() % words);
            const bool write = rng() % 2;
            s.ops.push_back({lane, addr,
                             static_cast<std::uint32_t>(rng() % 3),
                             write ? 1u : 0u});
            lanes |= 1u << lane;
        }
        due.push_back({arrive, std::move(s)});
        due.push_back(
            {arrive + uniform(-0.25 * jitter, 3.0 * jitter),
             decision(id, lanes & static_cast<LaneMask>(rng()))});
    }
    std::stable_sort(due.begin(), due.end(),
                     [](const auto &x, const auto &y) {
                         return x.first < y.first;
                     });
    std::vector<MemMsg> msgs;
    for (auto &[when, msg] : due)
        msgs.push_back(std::move(msg));
    return msgs;
}

std::string
saved(WtmPartitionUnit &unit)
{
    ckpt::Writer ar;
    unit.ckptSave(ar);
    return ar.take();
}

std::string
saved(MapReference &ref)
{
    ckpt::Writer ar;
    ref.save(ar);
    return ar.take();
}

struct WindowCase
{
    unsigned pipelineDepth;
    unsigned ids;
    unsigned words;
    unsigned jitter;
};

class WtmWindowEquivalence : public ::testing::TestWithParam<WindowCase>
{
};

TEST_P(WtmWindowEquivalence, MatchesMapReference)
{
    const WindowCase wc = GetParam();
    WtmPartitionConfig cfg;
    cfg.pipelineDepth = wc.pipelineDepth;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        std::vector<MemMsg> traffic = randomTraffic(rng, wc.ids, wc.words, wc.jitter);

        MockContext ctx, ref_ctx;
        auto unit = std::make_unique<WtmPartitionUnit>(ctx, cfg, "u");
        MapReference ref(ref_ctx, cfg);
        for (std::size_t i = 0; i < traffic.size(); ++i) {
            const Cycle now = 3 * i;
            MemMsg copy = traffic[i];
            unit->handleRequest(std::move(traffic[i]), now);
            ref.handle(std::move(copy), now);

            ASSERT_EQ(ctx.sent.size(), ref_ctx.sent.size())
                << "seed " << seed << " message " << i;
            for (std::size_t k = 0; k < ctx.sent.size(); ++k) {
                const auto &[when, got] = ctx.sent[k];
                const auto &[ref_when, want] = ref_ctx.sent[k];
                EXPECT_EQ(when, ref_when);
                EXPECT_EQ(got.kind, want.kind);
                EXPECT_EQ(got.wid, want.wid);
                EXPECT_EQ(got.txId, want.txId);
                ASSERT_EQ(got.ops.size(), want.ops.size());
                for (std::size_t o = 0; o < got.ops.size(); ++o)
                    EXPECT_EQ(got.ops[o].lane, want.ops[o].lane);
            }
            EXPECT_EQ(unit->nextCommitId(), ref.nextId);
            // The queues checkpoint to the map archive's bytes.
            const std::string bytes = saved(*unit);
            ASSERT_EQ(bytes, saved(ref)) << "seed " << seed << " message "
                                         << i;
            if (i == traffic.size() / 2) {
                // Restore mid-flight and carry on with the copy.
                auto restored =
                    std::make_unique<WtmPartitionUnit>(ctx, cfg, "u");
                ckpt::Reader rd(bytes.data(), bytes.size());
                restored->ckptLoad(rd);
                EXPECT_EQ(rd.remaining(), 0u);
                EXPECT_EQ(saved(*restored), bytes);
                unit = std::move(restored);
            }
        }
        EXPECT_TRUE(ref.drained());
        EXPECT_EQ(unit->nextCommitId(), wc.ids + 1);
        EXPECT_GT(ref.earlyDecisions, 0u);
        EXPECT_GT(ref.depthStalls + ref.hazardStalls, 0u);
        if (wc.pipelineDepth <= 2) {
            EXPECT_GT(ref.depthStalls, 0u);
        }
        if (wc.words <= 4) {
            EXPECT_GT(ref.hazardStalls, 0u);
        }
        if (wc.jitter >= 100) {
            EXPECT_GT(ref.maxSpan, 256u); // the ring grew past 256
        }
        for (unsigned w = 0; w < wc.words; ++w)
            EXPECT_EQ(ctx.store.read(0x1000 + 4 * w),
                      ref_ctx.store.read(0x1000 + 4 * w));
    }
}

// Depth 1 and 2 stall on the pipeline, a 4-word pool on hazards, and
// a jitter of 120 ids spreads the window past 256 ids (the ring grows
// from 64 entries to 512). The 128- and 256-word pools keep dozens of
// distinct words pending, so the hazard table's probe chains collide,
// lose members from their middles, and (at depth 16) grow the table.
INSTANTIATE_TEST_SUITE_P(
    Window, WtmWindowEquivalence,
    ::testing::Values(WindowCase{1, 150, 64, 8}, WindowCase{2, 150, 64, 8},
                      WindowCase{8, 150, 4, 8}, WindowCase{8, 400, 32, 120},
                      WindowCase{8, 400, 128, 24},
                      WindowCase{16, 400, 256, 48}),
    [](const auto &info) {
        return "Depth" + std::to_string(info.param.pipelineDepth) + "Words" +
               std::to_string(info.param.words) + "Jitter" +
               std::to_string(info.param.jitter);
    });

} // namespace
} // namespace getm
