/**
 * @file
 * Unit tests for the observability layer: histogram statistics, JSON
 * escaping/validation, the cycle sampler's interval math under
 * idle-cycle skipping, abort-reason attribution on a forced WAR hazard,
 * and a metrics-document round trip through the strict validator.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "check/fault.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "core/getm_partition.hh"
#include "gpu/gpu_system.hh"
#include "obs/metrics.hh"
#include "obs/observability.hh"
#include "obs/sampler.hh"
#include "obs/tx_events.hh"
#include "workloads/workload.hh"

namespace getm {
namespace {

// ---------------------------------------------------------------------------
// Histogram statistics
// ---------------------------------------------------------------------------

TEST(Histogram, PowerOfTwoBucketEdges)
{
    EXPECT_EQ(HistogramData::bucketOf(0), 0u);
    EXPECT_EQ(HistogramData::bucketOf(1), 1u);
    EXPECT_EQ(HistogramData::bucketOf(2), 2u);
    EXPECT_EQ(HistogramData::bucketOf(3), 2u);
    EXPECT_EQ(HistogramData::bucketOf(4), 3u);
    EXPECT_EQ(HistogramData::bucketOf(7), 3u);
    EXPECT_EQ(HistogramData::bucketOf(8), 4u);
    EXPECT_EQ(HistogramData::bucketOf(1023), 10u);
    EXPECT_EQ(HistogramData::bucketOf(1024), 11u);

    // Every bucket's [low, high] range maps back to that bucket.
    for (unsigned i = 0; i < 20; ++i) {
        EXPECT_EQ(HistogramData::bucketOf(HistogramData::bucketLow(i)), i);
        EXPECT_EQ(HistogramData::bucketOf(HistogramData::bucketHigh(i)),
                  i);
    }
    EXPECT_EQ(HistogramData::bucketLow(0), 0u);
    EXPECT_EQ(HistogramData::bucketHigh(0), 0u);
    EXPECT_EQ(HistogramData::bucketLow(4), 8u);
    EXPECT_EQ(HistogramData::bucketHigh(4), 15u);
}

TEST(Histogram, SampleAccumulatesMoments)
{
    StatSet stats("t");
    EXPECT_EQ(stats.histogram("lat"), nullptr);

    for (std::uint64_t v : {0ull, 1ull, 3ull, 3ull, 100ull})
        stats.histSample("lat", v);

    const HistogramData *hist = stats.histogram("lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, 5u);
    EXPECT_EQ(hist->sum, 107u);
    EXPECT_EQ(hist->minValue, 0u);
    EXPECT_EQ(hist->maxValue, 100u);
    EXPECT_DOUBLE_EQ(hist->mean(), 107.0 / 5.0);
    EXPECT_EQ(hist->buckets[0], 1u); // value 0
    EXPECT_EQ(hist->buckets[1], 1u); // value 1
    EXPECT_EQ(hist->buckets[2], 2u); // values 2..3
    EXPECT_EQ(hist->buckets[7], 1u); // values 64..127
}

TEST(Histogram, MergeCombinesBuckets)
{
    StatSet a("a"), b("b");
    a.histSample("h", 1);
    a.histSample("h", 100);
    b.histSample("h", 3);
    b.histSample("other", 7);

    a.merge(b);
    const HistogramData *merged = a.histogram("h");
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->count, 3u);
    EXPECT_EQ(merged->sum, 104u);
    EXPECT_EQ(merged->minValue, 1u);
    EXPECT_EQ(merged->maxValue, 100u);
    ASSERT_NE(a.histogram("other"), nullptr);
    EXPECT_EQ(a.histogram("other")->count, 1u);
}

TEST(Histogram, DumpIsByteStable)
{
    StatSet stats("unit");
    stats.histSample("lat", 5);
    stats.histSample("lat", 6);
    const std::string dump = stats.dump();
    EXPECT_NE(dump.find("unit.lat.samples 2"), std::string::npos);
    EXPECT_NE(dump.find("unit.lat.mean 5.5"), std::string::npos);
    EXPECT_NE(dump.find("unit.lat.bucket[4..7] 2"), std::string::npos);
    // No locale grouping separators in large numbers.
    StatSet big("b");
    big.inc("events", 1234567);
    EXPECT_NE(big.dump().find("b.events 1234567"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON escaping and validation
// ---------------------------------------------------------------------------

TEST(Json, EscapeNeutralizesInjection)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
    EXPECT_EQ(jsonEscape(std::string_view("\x1f", 1)), "\\u001f");

    // An adversarial name embedded in a document must stay one string.
    JsonWriter w;
    w.beginObject()
        .member("name", "evil\",\"injected\":1,\"x\":\"")
        .endObject();
    std::string error;
    ASSERT_TRUE(jsonValidate(w.str(), error)) << error;
    EXPECT_EQ(w.str().find("\"injected\":1"), std::string::npos);
}

TEST(Json, ValidateAcceptsAndRejects)
{
    std::string error;
    EXPECT_TRUE(jsonValidate("{\"a\":[1,2.5,-3e2,true,null,\"s\"]}",
                             error));
    EXPECT_TRUE(jsonValidate("  42  ", error));
    EXPECT_FALSE(jsonValidate("{\"a\":1,}", error));
    EXPECT_FALSE(jsonValidate("{\"a\" 1}", error));
    EXPECT_FALSE(jsonValidate("[1,2", error));
    EXPECT_FALSE(jsonValidate("\"\\x\"", error));
    EXPECT_FALSE(jsonValidate("{} trailing", error));
    EXPECT_FALSE(jsonValidate("\"raw\ncontrol\"", error));
}

TEST(Json, NumberFormattingIsLocaleIndependent)
{
    EXPECT_EQ(jsonNumber(static_cast<std::uint64_t>(1234567)), "1234567");
    EXPECT_EQ(jsonNumber(static_cast<std::int64_t>(-42)), "-42");
    EXPECT_EQ(jsonNumber(2.5), "2.5");
    EXPECT_EQ(jsonNumber(0.0), "0");
    // JSON has no NaN/Inf representation.
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

// ---------------------------------------------------------------------------
// Cycle sampler interval math
// ---------------------------------------------------------------------------

TEST(Sampler, AlignNextFindsStrictlyLaterBoundary)
{
    EXPECT_EQ(CycleSampler::alignNext(0, 512), 512u);
    EXPECT_EQ(CycleSampler::alignNext(511, 512), 512u);
    EXPECT_EQ(CycleSampler::alignNext(512, 512), 1024u);
    EXPECT_EQ(CycleSampler::alignNext(513, 512), 1024u);
    EXPECT_EQ(CycleSampler::alignNext(1023, 512), 1024u);
}

TEST(Sampler, OneSamplePerBoundaryCrossing)
{
    CycleSampler sampler;
    unsigned gauge = 0;
    sampler.addProbe("gauge", [&gauge] { return double(gauge); });
    sampler.setInterval(100);

    sampler.maybeSample(0); // nextDue = 0: first sample lands at cycle 0
    gauge = 5;
    sampler.maybeSample(50);  // before the boundary: no sample
    sampler.maybeSample(100); // on the boundary
    gauge = 9;
    // Idle skipping jumped over boundaries 200 and 300: exactly one
    // sample is taken, and the sampler realigns to 400.
    sampler.maybeSample(350);
    sampler.maybeSample(350); // same cycle again: already realigned
    EXPECT_EQ(sampler.nextSampleCycle(), 400u);

    const SampleSeries &data = sampler.data();
    ASSERT_EQ(data.numSamples(), 3u);
    EXPECT_EQ(data.cycles, (std::vector<Cycle>{0, 100, 350}));
    ASSERT_EQ(data.names.size(), 1u);
    EXPECT_EQ(data.values[0], (std::vector<double>{0.0, 5.0, 9.0}));
}

TEST(Sampler, DisabledSamplerIsInert)
{
    CycleSampler sampler;
    sampler.addProbe("gauge", [] { return 1.0; });
    EXPECT_FALSE(sampler.enabled());
    EXPECT_EQ(sampler.nextSampleCycle(), ~static_cast<Cycle>(0));
    sampler.maybeSample(12345);
    EXPECT_EQ(sampler.data().numSamples(), 0u);
}

TEST(Sampler, IntervalZeroHasNoBoundariesAndNoDivision)
{
    // --sample-interval=0 means "disabled", not "every cycle" and
    // certainly not a division by zero: alignNext must answer "never"
    // and finalize must not invent a row.
    EXPECT_EQ(CycleSampler::alignNext(0, 0), ~static_cast<Cycle>(0));
    EXPECT_EQ(CycleSampler::alignNext(12345, 0), ~static_cast<Cycle>(0));
    CycleSampler sampler;
    sampler.addProbe("gauge", [] { return 1.0; });
    sampler.setInterval(0);
    sampler.maybeSample(500);
    sampler.finalize(500);
    EXPECT_EQ(sampler.data().numSamples(), 0u);
}

TEST(Sampler, FinalizeRecordsThePartialFinalWindow)
{
    CycleSampler sampler;
    unsigned gauge = 0;
    sampler.addProbe("gauge", [&gauge] { return double(gauge); });
    sampler.setInterval(100);
    sampler.maybeSample(0);
    gauge = 3;
    sampler.maybeSample(100);
    gauge = 8;
    // The run ends at cycle 142, mid-window: finalize records the tail
    // instead of silently dropping the last 42 cycles of telemetry.
    sampler.finalize(142);
    const SampleSeries &data = sampler.data();
    ASSERT_EQ(data.numSamples(), 3u);
    EXPECT_EQ(data.cycles, (std::vector<Cycle>{0, 100, 142}));
    EXPECT_EQ(data.values[0], (std::vector<double>{0.0, 3.0, 8.0}));
    // Idempotent: finalizing again at the same cycle adds nothing.
    sampler.finalize(142);
    EXPECT_EQ(sampler.data().numSamples(), 3u);
}

TEST(Sampler, IntervalLongerThanTheRunStillExportsTheRun)
{
    // interval > run length: without finalize the series would hold
    // only the cycle-0 row and the whole run would be invisible.
    CycleSampler sampler;
    unsigned gauge = 1;
    sampler.addProbe("gauge", [&gauge] { return double(gauge); });
    sampler.setInterval(1'000'000);
    sampler.maybeSample(0);
    gauge = 6;
    sampler.maybeSample(4000); // far before the first boundary
    sampler.finalize(4000);
    const SampleSeries &data = sampler.data();
    ASSERT_EQ(data.numSamples(), 2u);
    EXPECT_EQ(data.cycles, (std::vector<Cycle>{0, 4000}));
    EXPECT_EQ(data.values[0], (std::vector<double>{1.0, 6.0}));
}

TEST(Sampler, EmitHookMirrorsEverySample)
{
    CycleSampler sampler;
    sampler.addProbe("a", [] { return 1.0; });
    sampler.addProbe("b", [] { return 2.0; });
    sampler.setInterval(10);
    std::vector<std::string> seen;
    sampler.setEmit([&seen](const std::string &name, Cycle now,
                            double value) {
        seen.push_back(name + "@" + std::to_string(now) + "=" +
                       std::to_string(static_cast<int>(value)));
    });
    sampler.maybeSample(10);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "a@10=1");
    EXPECT_EQ(seen[1], "b@10=2");
}

// ---------------------------------------------------------------------------
// Abort attribution: a forced WAR hazard through the GETM unit
// ---------------------------------------------------------------------------

/** Partition context whose event hub feeds a live Observability. */
class ObsContext : public PartitionContext
{
  public:
    PartitionId partitionId() const override { return 0; }
    unsigned numCores() const override { return 2; }

    void
    scheduleToCore(MemMsg &&msg, Cycle when) override
    {
        sent.push_back({when, std::move(msg)});
    }

    Cycle
    accessLlc(Addr, bool, Cycle) override
    {
        return 0;
    }

    Cycle llcLatency() const override { return 10; }
    BackingStore &memory() override { return store; }
    StatSet &stats() override { return statSet; }
    const TxEvents &events() const override { return hooks; }

    BackingStore store;
    StatSet statSet{"mock"};
    Observability hub{32};
    TxEvents hooks{.obs = &hub};
    std::vector<std::pair<Cycle, MemMsg>> sent;
};

GetmPartitionConfig
smallConfig()
{
    GetmPartitionConfig cfg;
    cfg.meta.preciseEntries = 64;
    cfg.meta.bloomEntries = 32;
    cfg.stall.lines = 2;
    cfg.stall.entriesPerLine = 2;
    return cfg;
}

MemMsg
accessReq(MsgKind kind, GlobalWarpId wid, LogicalTs warpts, Addr word)
{
    MemMsg msg;
    msg.kind = kind;
    msg.wid = wid;
    msg.warpSlot = wid;
    msg.ts = warpts;
    msg.addr = word - word % 32;
    msg.ops.push_back({0, word, 0, kind == MsgKind::GetmTxStore ? 1u
                                                                : 0u});
    return msg;
}

TEST(Attribution, ForcedWarAbortCarriesReasonAndAddress)
{
    ObsContext ctx;
    GetmPartitionUnit unit(ctx, smallConfig(), "u");

    // A logically later load establishes rts = 10 on granule 0x1000...
    unit.handleRequest(
        accessReq(MsgKind::GetmTxLoad, 1, 10, 0x1004), 0);
    ASSERT_EQ(ctx.sent.size(), 1u);
    EXPECT_EQ(ctx.sent[0].second.outcome, GetmOutcome::Success);

    // ...so an older store (warpts 5 < rts 10) is a WAR violation.
    unit.handleRequest(
        accessReq(MsgKind::GetmTxStore, 2, 5, 0x1000), 1);
    ASSERT_EQ(ctx.sent.size(), 2u);
    const MemMsg &resp = ctx.sent[1].second;
    EXPECT_EQ(resp.kind, MsgKind::GetmStoreResp);
    EXPECT_EQ(resp.outcome, GetmOutcome::Abort);
    EXPECT_EQ(static_cast<AbortReason>(resp.reason), AbortReason::WarTs);

    // The sink saw the conflicting granule attributed to WAR_TS.
    const ObsReport report = ctx.hub.report(8);
    ASSERT_EQ(report.hotAddrs.size(), 1u);
    EXPECT_EQ(report.hotAddrs[0].addr, 0x1000u);
    EXPECT_EQ(report.hotAddrs[0].byReason[static_cast<unsigned>(
                  AbortReason::WarTs)],
              1u);
    EXPECT_EQ(report.distinctConflictAddrs, 1u);
}

TEST(Attribution, StallEventsBalanceAndTrackDepth)
{
    ObsContext ctx;
    GetmPartitionUnit unit(ctx, smallConfig(), "u");

    // A store reserves the granule; an older load must queue behind it.
    unit.handleRequest(
        accessReq(MsgKind::GetmTxStore, 1, 10, 0x2000), 0);
    unit.handleRequest(
        accessReq(MsgKind::GetmTxLoad, 2, 20, 0x2000), 1);
    EXPECT_EQ(ctx.hub.stallOccupancy(), 1u);

    // Commit cleanup releases the waiter: the gauge returns to zero.
    MemMsg commit;
    commit.kind = MsgKind::GetmCommit;
    commit.wid = 1;
    commit.flag = true;
    commit.bytes = 20;
    commit.ops.push_back({0, 0x2000, 42, 1});
    unit.handleRequest(std::move(commit), 2);
    EXPECT_EQ(ctx.hub.stallOccupancy(), 0u);

    const ObsReport report = ctx.hub.report(8);
    EXPECT_EQ(report.stallsByReason[static_cast<unsigned>(
                  AbortReason::LockedByWriter)],
              1u);
    EXPECT_EQ(report.stallPeakOccupancy, 1u);
    EXPECT_DOUBLE_EQ(report.meanStallWaiters(), 1.0);
}

/** ObsContext that reports as partition @p id into a shared hub. */
class SharedHubContext : public ObsContext
{
  public:
    SharedHubContext(Observability &shared, PartitionId id_) : id(id_)
    {
        hooks.obs = &shared;
    }

    PartitionId partitionId() const override { return id; }
    FaultInjector *faults() override { return injector; }

    FaultInjector *injector = nullptr;

  private:
    PartitionId id;
};

TEST(Observability, StallPeakIsGpuWideAndRolloverFlushReleases)
{
    Observability hub{32};
    SharedHubContext ctx0(hub, 0);
    SharedHubContext ctx1(hub, 1);
    GetmPartitionUnit unit0(ctx0, smallConfig(), "u0");
    GetmPartitionUnit unit1(ctx1, smallConfig(), "u1");

    // One load waits behind a writer at partition 0, two at partition 1.
    unit0.handleRequest(accessReq(MsgKind::GetmTxStore, 1, 10, 0x2000), 0);
    unit0.handleRequest(accessReq(MsgKind::GetmTxLoad, 2, 20, 0x2000), 1);
    unit1.handleRequest(accessReq(MsgKind::GetmTxStore, 3, 10, 0x3000), 0);
    unit1.handleRequest(accessReq(MsgKind::GetmTxLoad, 4, 20, 0x3000), 1);
    unit1.handleRequest(accessReq(MsgKind::GetmTxLoad, 5, 30, 0x3000), 2);
    EXPECT_EQ(unit0.stallBuffer().occupancy(), 1u);
    EXPECT_EQ(unit1.stallBuffer().occupancy(), 2u);
    EXPECT_EQ(hub.stallOccupancy(), 3u);

    // Partition 1's writer commits under an injected leaked lock: the
    // reservation count drops to zero but the waiters stay parked...
    FaultInjector leak(FaultKind::LeakLock, 1.0, 1);
    ctx1.injector = &leak;
    MemMsg commit;
    commit.kind = MsgKind::GetmCommit;
    commit.wid = 3;
    commit.flag = true;
    commit.bytes = 20;
    commit.ops.push_back({0, 0x3000, 42, 1});
    unit1.handleRequest(std::move(commit), 3);
    EXPECT_EQ(unit1.stallBuffer().occupancy(), 2u);

    // ...until a rollover flush drops them and reports their release.
    unit1.flushForRollover(4);
    EXPECT_EQ(unit1.stallBuffer().occupancy(), 0u);
    EXPECT_EQ(hub.stallOccupancy(), 1u);

    // The peak is the GPU-wide total, not one partition's.
    EXPECT_EQ(hub.report(8).stallPeakOccupancy, 3u);
}

TEST(Observability, HotAddressRowsKeyByGranule)
{
    // Two words of one granule are one contended granule, whichever
    // address a site reports.
    Observability hub{32};
    hub.conflictEvent(AbortReason::Validation, 0x104, 1);
    hub.conflictEvent(AbortReason::Validation, 0x11c, 1);
    hub.abortEvent(AbortReason::Validation, 0x100, 1, 2);
    hub.abortEvent(AbortReason::None, invalidAddr, 0, 1);
    const ObsReport report = hub.report(8);
    ASSERT_EQ(report.hotAddrs.size(), 1u);
    EXPECT_EQ(report.hotAddrs[0].addr, 0x100u);
    EXPECT_EQ(report.hotAddrs[0].total, 4u);
    EXPECT_EQ(report.distinctConflictAddrs, 1u);
}

TEST(Observability, EveryProtocolReportsGranuleAlignedRows)
{
    for (ProtocolKind protocol :
         {ProtocolKind::Getm, ProtocolKind::WarpTmLL, ProtocolKind::WarpTmEL,
          ProtocolKind::Eapg}) {
        for (BenchId bench : {BenchId::HtH, BenchId::Atm}) {
            GpuConfig cfg = GpuConfig::testRig();
            cfg.protocol = protocol;
            cfg.hotAddrTopN = 1000;
            GpuSystem gpu(cfg);
            auto workload = makeWorkload(bench, 0.01, 123);
            workload->setup(gpu, /*lock_variant=*/false);
            const RunResult result = gpu.run(
                workload->kernel(), workload->numThreads(), 200'000'000);
            EXPECT_FALSE(result.obs.hotAddrs.empty())
                << protocolName(protocol);
            for (const HotAddrRow &row : result.obs.hotAddrs)
                EXPECT_EQ(row.addr % cfg.getmGranule, 0u)
                    << protocolName(protocol) << " row " << row.addr;
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics document round trip
// ---------------------------------------------------------------------------

TEST(Metrics, DocumentValidatesAndCarriesRequiredKeys)
{
    MetricsMeta meta;
    meta.bench = "HT-H";
    meta.protocol = "GETM";
    meta.scale = 0.25;
    meta.seed = 7;
    meta.threads = 1152;
    meta.verified = true;
    meta.cycles = 1000;
    meta.commits = 10;
    meta.aborts = 3;
    meta.config.emplace_back("cores", "15");
    meta.config.emplace_back("evil\"key", "v\\alue");

    StatSet stats("gpu");
    stats.inc("tx_commits", 10);
    stats.trackMax("peak", 4);
    stats.sample("occupancy", 2.5);
    stats.histSample("lat", 7);

    Observability hub{32};
    hub.abortEvent(AbortReason::WarTs, 0x100, 0, 2);
    hub.abortEvent(AbortReason::IntraWarp, invalidAddr, 0, 1);
    hub.stallEvent(AbortReason::LockedByWriter, 0x100, 0, 1);
    hub.stallRelease();
    hub.cycleSampler().addProbe("g", [] { return 1.0; });
    hub.cycleSampler().setInterval(100);
    hub.cycleSampler().maybeSample(100);
    const ObsReport obs = hub.report(4);
    EXPECT_EQ(obs.totalAbortLanes(), meta.aborts);

    const std::string doc = metricsToJson(meta, stats, obs);
    std::string error;
    ASSERT_TRUE(jsonValidate(doc, error)) << error;

    for (const char *needle :
         {"\"schema\":\"getm-metrics\"", "\"version\":2", "\"meta\":",
          "\"config\":", "\"run\":", "\"aborts_by_reason\":",
          "\"stalls_by_reason\":", "\"stall\":", "\"hot_addresses\":",
          "\"timeseries\":", "\"stats\":", "\"histograms\":",
          "\"WAR_TS\":2", "\"INTRA_WARP\":1", "\"evil\\\"key\""})
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "missing " << needle;

    // Every reason name appears exactly once per breakdown table, so
    // consumers can sum the table without knowing the enum.
    for (unsigned i = 0; i < numAbortReasons; ++i) {
        const std::string key =
            std::string("\"") +
            abortReasonName(static_cast<AbortReason>(i)) + "\":";
        EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
    }
}

} // namespace
} // namespace getm
