/**
 * @file
 * OLTP subsystem tests: the zipfian generators' analytic and
 * statistical properties and their per-process normaliser memo,
 * workload-spec parsing/canonicalization, the fractional-scale
 * clamping contract, end-to-end verification of both OLTP workloads
 * under every protocol, YCSB's verify failures on corrupted records,
 * and that the conflict profiler's hot addresses translate back into
 * zipf-rank / account labels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/zipf.hh"
#include "gpu/gpu_system.hh"
#include "oltp/ycsb.hh"
#include "workloads/registry.hh"

namespace getm {
namespace {

// --------------------------------------------------------------------
// Zipfian generator
// --------------------------------------------------------------------

TEST(Zipfian, DeterministicAcrossInstances)
{
    const ZipfianGenerator a(10'000, 0.9);
    const ZipfianGenerator b(10'000, 0.9);
    Rng ra(42), rb(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(ra), b.next(rb));
}

TEST(Zipfian, SeedChangesSequence)
{
    const ZipfianGenerator g(10'000, 0.9);
    Rng ra(1), rb(2);
    int differ = 0;
    for (int i = 0; i < 100; ++i)
        differ += g.next(ra) != g.next(rb);
    EXPECT_GT(differ, 50);
}

TEST(Zipfian, ThetaZeroIsUniform)
{
    const std::uint64_t n = 64;
    const ZipfianGenerator g(n, 0.0);
    for (std::uint64_t r = 0; r < n; ++r)
        EXPECT_NEAR(g.mass(r), 1.0 / static_cast<double>(n), 1e-12);

    // Empirically: no rank should be far from the uniform expectation.
    Rng rng(7);
    std::vector<std::uint64_t> counts(n, 0);
    const int draws = 64 * 1000;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t r = g.next(rng);
        ASSERT_LT(r, n);
        ++counts[r];
    }
    for (std::uint64_t r = 0; r < n; ++r) {
        EXPECT_GT(counts[r], 700u) << "rank " << r;
        EXPECT_LT(counts[r], 1300u) << "rank " << r;
    }
}

TEST(Zipfian, MassSumsToOne)
{
    const std::uint64_t n = 1000;
    const ZipfianGenerator g(n, 0.9);
    double sum = 0;
    for (std::uint64_t r = 0; r < n; ++r)
        sum += g.mass(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(g.mass(0), g.mass(1));
    EXPECT_GT(g.mass(1), g.mass(n - 1));
}

TEST(Zipfian, HottestRankMatchesAnalyticMass)
{
    const std::uint64_t n = 1000;
    const ZipfianGenerator g(n, 0.9);
    Rng rng(11);
    const int draws = 200'000;
    int hottest = 0;
    for (int i = 0; i < draws; ++i)
        hottest += g.next(rng) == 0;
    const double empirical = static_cast<double>(hottest) / draws;
    // ~11% of mass on the head at theta 0.9, n 1000; allow 5% rel. err.
    EXPECT_NEAR(empirical, g.mass(0), 0.05 * g.mass(0));
}

/** zeta() as a plain loop, summed in the generator's order. */
double
referenceZeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; i++)
        sum += 1.0 / std::pow(double(i), theta);
    return sum;
}

std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(ZetaMemo, FirstAndSecondCallMatchTheLoopBitForBit)
{
    const std::pair<std::uint64_t, double> cases[] = {
        {1, 0.0}, {64, 0.5}, {100'000, 0.9}, {100'000, 0.99}};
    for (const auto &[n, theta] : cases) {
        const std::uint64_t want = bitsOf(referenceZeta(n, theta));
        EXPECT_EQ(bitsOf(ZipfianGenerator::zeta(n, theta)), want)
            << "n " << n << " theta " << theta;
        EXPECT_EQ(bitsOf(ZipfianGenerator::zeta(n, theta)), want)
            << "n " << n << " theta " << theta << ", second call";
    }
}

TEST(ZetaMemo, GeneratorsBuiltOnTwoThreadsDrawAsOnOne)
{
    const auto draws = [](std::uint64_t n, double theta) {
        const ScrambledZipfian zipf(n, theta, /*salt=*/11);
        Rng rng(5);
        std::vector<std::uint64_t> out(512);
        for (std::uint64_t &key : out)
            key = zipf.next(rng);
        return out;
    };
    // (n, theta) pairs no other test uses, so both threads reach the
    // memo before either pair is in it.
    struct Case
    {
        std::uint64_t n1;
        double theta1;
        std::uint64_t n2;
        double theta2;
    };
    for (const Case c : {Case{150'001, 0.61, 150'001, 0.61},
                         Case{150'003, 0.62, 120'001, 0.63}}) {
        std::vector<std::uint64_t> a, b;
        std::thread ta([&] { a = draws(c.n1, c.theta1); });
        std::thread tb([&] { b = draws(c.n2, c.theta2); });
        ta.join();
        tb.join();
        EXPECT_EQ(bitsOf(ZipfianGenerator::zeta(c.n1, c.theta1)),
                  bitsOf(referenceZeta(c.n1, c.theta1)));
        EXPECT_EQ(bitsOf(ZipfianGenerator::zeta(c.n2, c.theta2)),
                  bitsOf(referenceZeta(c.n2, c.theta2)));
        EXPECT_EQ(a, draws(c.n1, c.theta1));
        EXPECT_EQ(b, draws(c.n2, c.theta2));
    }
}

TEST(ScrambledZipfian, ScrambleIsABijection)
{
    const std::uint64_t n = 1000; // not a power of two: cycle-walking
    const ScrambledZipfian s(n, 0.9, /*salt=*/123);
    std::set<std::uint64_t> keys;
    for (std::uint64_t r = 0; r < n; ++r) {
        const std::uint64_t key = s.scramble(r);
        ASSERT_LT(key, n);
        ASSERT_TRUE(keys.insert(key).second) << "collision at rank " << r;
        ASSERT_EQ(s.rankOf(key), r);
    }
}

TEST(ScrambledZipfian, ScramblePreservesMarginal)
{
    // A bijection permutes the per-item masses, so the sorted frequency
    // profile of scrambled draws must match the unscrambled one: the
    // count observed for key scramble(r) is the count of rank r.
    const std::uint64_t n = 200;
    const ScrambledZipfian s(n, 0.9, /*salt=*/5);
    Rng ra(3), rb(3);
    std::vector<std::uint64_t> by_rank(n, 0), by_key(n, 0);
    for (int i = 0; i < 100'000; ++i) {
        ++by_rank[s.ranks().next(ra)];
        ++by_key[s.next(rb)];
    }
    for (std::uint64_t r = 0; r < n; ++r)
        EXPECT_EQ(by_key[s.scramble(r)], by_rank[r]) << "rank " << r;
}

TEST(ScrambledZipfian, SaltChangesPermutation)
{
    const std::uint64_t n = 1 << 12;
    const ScrambledZipfian a(n, 0.9, 1), b(n, 0.9, 2);
    int differ = 0;
    for (std::uint64_t r = 0; r < 64; ++r)
        differ += a.scramble(r) != b.scramble(r);
    EXPECT_GT(differ, 32);
}

// --------------------------------------------------------------------
// Workload specs / registry
// --------------------------------------------------------------------

TEST(WorkloadSpecs, BareNamesCanonicalizeToThemselves)
{
    for (const BenchInfo &info : benchRegistry()) {
        WorkloadSpec spec;
        std::string error;
        ASSERT_TRUE(parseWorkloadSpec(info.name, spec, error)) << error;
        EXPECT_EQ(spec.token(), info.name);
    }
}

TEST(WorkloadSpecs, CaseInsensitiveAndSortedParams)
{
    WorkloadSpec spec;
    std::string error;
    ASSERT_TRUE(parseWorkloadSpec("ycsb:THETA=0.95:keys=1000", spec, error))
        << error;
    EXPECT_EQ(spec.token(), "YCSB:keys=1000:theta=0.95");
    EXPECT_EQ(spec.param("theta"), 0.95);
    EXPECT_EQ(spec.param("rmw"), 40); // registry default applies
}

TEST(WorkloadSpecs, UnknownNameListsRegisteredNames)
{
    WorkloadSpec spec;
    std::string error;
    EXPECT_FALSE(parseWorkloadSpec("NOPE", spec, error));
    EXPECT_NE(error.find("unknown bench"), std::string::npos) << error;
    EXPECT_NE(error.find("HT-H"), std::string::npos) << error;
    EXPECT_NE(error.find("YCSB"), std::string::npos) << error;
    EXPECT_NE(error.find("BANK"), std::string::npos) << error;
}

TEST(WorkloadSpecs, UnknownParamListsFamilyParams)
{
    WorkloadSpec spec;
    std::string error;
    EXPECT_FALSE(parseWorkloadSpec("YCSB:bogus=1", spec, error));
    EXPECT_NE(error.find("theta"), std::string::npos) << error;
    EXPECT_NE(error.find("rmw"), std::string::npos) << error;
}

TEST(WorkloadSpecs, RejectsBadValues)
{
    WorkloadSpec spec;
    std::string error;
    // Out of range, params on a param-free bench, duplicates, and a
    // mix that sums past 100%.
    EXPECT_FALSE(parseWorkloadSpec("YCSB:theta=1.5", spec, error));
    EXPECT_FALSE(parseWorkloadSpec("HT-H:theta=0.5", spec, error));
    EXPECT_FALSE(parseWorkloadSpec("YCSB:theta=0.5:theta=0.6", spec,
                                   error));
    EXPECT_FALSE(parseWorkloadSpec("YCSB:read=80:rmw=30", spec, error));
    EXPECT_FALSE(parseWorkloadSpec("YCSB:theta=", spec, error));
}

TEST(WorkloadSpecs, ResolvedParamsEmptyForPaperBenches)
{
    // Paper benches contribute no bench.<key> lines to spec hashes, so
    // every pre-registry resume hash stays byte-identical.
    WorkloadSpec spec{"HT-H"};
    EXPECT_TRUE(resolvedParams(spec).empty());
    WorkloadSpec ycsb{"YCSB"};
    EXPECT_EQ(resolvedParams(ycsb).size(), 5u);
}

// --------------------------------------------------------------------
// Scale clamping
// --------------------------------------------------------------------

TEST(ScaleClamping, TinyScalesNeverYieldZeroCounts)
{
    // A fractional scale small enough to round every base count to 0
    // must still produce a runnable workload: at least one warp of
    // threads and the documented minimum object counts.
    for (const BenchInfo &info : benchRegistry()) {
        WorkloadSpec spec{info.name};
        auto workload = makeWorkload(spec, /*scale=*/1e-9, /*seed=*/3);
        ASSERT_NE(workload, nullptr) << info.name;
        // Geometry-derived thread counts (cloth edges, CUDA-cuts
        // pixels) need not be warp multiples, but clamping guarantees
        // at least one full warp of work everywhere.
        EXPECT_GE(workload->numThreads(), warpSize) << info.name;
    }
}

TEST(ScaleClamping, Scale001RunsAndVerifies)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    GpuSystem gpu(cfg);
    auto workload =
        makeWorkload(WorkloadSpec{"ATM"}, /*scale=*/0.01, /*seed=*/5);
    workload->setup(gpu, /*lock_variant=*/false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 80'000'000);
    EXPECT_GT(result.cycles, 0u);
    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why)) << why;
}

// --------------------------------------------------------------------
// OLTP workloads end to end
// --------------------------------------------------------------------

struct OltpCombo
{
    const char *spec;
    ProtocolKind protocol;
};

std::string
oltpComboName(const ::testing::TestParamInfo<OltpCombo> &info)
{
    std::string name = info.param.spec;
    name += "_";
    name += protocolName(info.param.protocol);
    std::string out;
    for (const char ch : name)
        out += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
    return out;
}

class OltpWorkloadTest : public ::testing::TestWithParam<OltpCombo>
{
};

TEST_P(OltpWorkloadTest, RunsAndVerifies)
{
    const OltpCombo combo = GetParam();
    WorkloadSpec spec;
    std::string error;
    ASSERT_TRUE(parseWorkloadSpec(combo.spec, spec, error)) << error;

    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = combo.protocol;
    GpuSystem gpu(cfg);

    auto workload = makeWorkload(spec, /*scale=*/0.01, /*seed=*/99);
    workload->setup(gpu, combo.protocol == ProtocolKind::FgLock);

    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 80'000'000);
    EXPECT_GT(result.cycles, 0u);
    if (combo.protocol != ProtocolKind::FgLock) {
        EXPECT_GT(result.commits, 0u);
    }
    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why)) << why;
}

std::vector<OltpCombo>
oltpCombos()
{
    std::vector<OltpCombo> combos;
    for (const char *spec :
         {"YCSB", "YCSB:rmw=0:read=40", "YCSB:theta=0", "BANK",
          "BANK:theta=0.9:amax=100"})
        for (ProtocolKind proto :
             {ProtocolKind::FgLock, ProtocolKind::Getm,
              ProtocolKind::WarpTmLL, ProtocolKind::WarpTmEL,
              ProtocolKind::Eapg})
            combos.push_back({spec, proto});
    return combos;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, OltpWorkloadTest,
                         ::testing::ValuesIn(oltpCombos()),
                         oltpComboName);

// --------------------------------------------------------------------
// YCSB verify failures
// --------------------------------------------------------------------

/**
 * One small YCSB run under GETM, shared by the cases below. Each case
 * corrupts records through the backing store, checks the first failing
 * key and its diagnostic, and restores what it wrote.
 *
 * The records are YCSB's first allocation: 8 bytes per key, value cell
 * then tag cell, every value starting at 1000. After the run, a key
 * that kept value 1000 had no RMW (amounts are 1..99 and never wrap
 * here), and a key with tag 0 had no blind write (tags are thread
 * id + 1), so the final state alone tells the cases' key kinds apart.
 */
class YcsbVerify : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        GpuConfig cfg = GpuConfig::testRig();
        cfg.protocol = ProtocolKind::Getm;
        gpu = std::make_unique<GpuSystem>(cfg);
        workload = makeWorkload(WorkloadSpec{"YCSB"}, /*scale=*/0.01,
                                /*seed=*/99);
        records = gpu->memory().allocate(0);
        workload->setup(*gpu, /*lock_variant=*/false);
        gpu->run(workload->kernel(), workload->numThreads(), 80'000'000);
        keys = scaledCount("YCSB keys", YcsbParams{}.keys, 0.01, 64);
    }

    static void
    TearDownTestSuite()
    {
        workload.reset();
        gpu.reset();
    }

    void
    SetUp() override
    {
        std::string why;
        ASSERT_TRUE(workload->verify(*gpu, why)) << why;
        ASSERT_GT(keys, 0u);
    }

    static Addr valueAt(std::uint64_t key) { return records + 8 * key; }
    static Addr tagAt(std::uint64_t key) { return records + 8 * key + 4; }

    static std::uint32_t
    read(Addr at)
    {
        return gpu->memory().read(at);
    }

    /** The lowest key whose value and tag match @p pred, from @p from. */
    template <class Pred>
    static std::uint64_t
    findKey(Pred pred, std::uint64_t from = 0)
    {
        for (std::uint64_t k = from; k < keys; ++k)
            if (pred(read(valueAt(k)), read(tagAt(k))))
                return k;
        ADD_FAILURE() << "no such key";
        return 0;
    }

    static bool
    untouched(std::uint32_t value, std::uint32_t tag)
    {
        return value == 1000 && tag == 0;
    }

    /**
     * Write @p corrupt to each address, expect verify to fail with
     * @p want, then restore every address.
     */
    static void
    expectFailure(const std::vector<std::pair<Addr, std::uint32_t>> &corrupt,
                  const std::string &want)
    {
        std::vector<std::uint32_t> saved;
        for (const auto &[at, value] : corrupt) {
            saved.push_back(read(at));
            gpu->memory().write(at, value);
        }
        std::string why;
        EXPECT_FALSE(workload->verify(*gpu, why));
        EXPECT_EQ(why, want);
        for (std::size_t i = corrupt.size(); i-- > 0;)
            gpu->memory().write(corrupt[i].first, saved[i]);
        why.clear();
        EXPECT_TRUE(workload->verify(*gpu, why)) << why;
    }

    static inline std::unique_ptr<GpuSystem> gpu;
    static inline std::unique_ptr<Workload> workload;
    static inline Addr records = 0;
    static inline std::uint64_t keys = 0;
};

TEST_F(YcsbVerify, UntouchedKeyValue)
{
    // The lowest and the highest untouched key: both ends of the walk.
    std::uint64_t last = keys - 1;
    while (last > 0 && !untouched(read(valueAt(last)), read(tagAt(last))))
        --last;
    for (const std::uint64_t k : {findKey(untouched), last}) {
        expectFailure({{valueAt(k), 1001}},
                      "key " + std::to_string(k) +
                          " value 1001 != expected 1000 (lost or stray "
                          "update)");
    }
}

TEST_F(YcsbVerify, RmwKeyValue)
{
    const std::uint64_t k =
        findKey([](std::uint32_t value, std::uint32_t) {
            return value != 1000;
        });
    const std::uint32_t expect = read(valueAt(k));
    expectFailure({{valueAt(k), expect - 1}},
                  "key " + std::to_string(k) + " value " +
                      std::to_string(expect - 1) + " != expected " +
                      std::to_string(expect) + " (lost or stray update)");
}

TEST_F(YcsbVerify, UntouchedKeyTag)
{
    const std::uint64_t k = findKey(untouched);
    expectFailure({{tagAt(k), 7}},
                  "key " + std::to_string(k) + " tag written by nobody: 7");
}

TEST_F(YcsbVerify, BlindWrittenKeyTagOfANonWriter)
{
    const std::uint64_t k =
        findKey([](std::uint32_t, std::uint32_t tag) { return tag != 0; });
    // Writer ids are thread id + 1, so numThreads() + 1 wrote nothing.
    const auto stranger =
        static_cast<std::uint32_t>(workload->numThreads() + 1);
    expectFailure({{tagAt(k), stranger}},
                  "key " + std::to_string(k) + " tag " +
                      std::to_string(stranger) +
                      " is not one of its blind writers");
}

TEST_F(YcsbVerify, LowerOfTwoCorruptKeysIsReported)
{
    const std::uint64_t low = findKey(untouched);
    const std::uint64_t high = findKey(untouched, low + 1);
    const std::string lowTag =
        "key " + std::to_string(low) + " tag written by nobody: 9";
    const std::string lowValue = "key " + std::to_string(low) +
                                 " value 1002 != expected 1000 (lost or "
                                 "stray update)";
    // Whichever kind of fault the lower key has, and in either write
    // order, the lower key is the one named.
    expectFailure({{valueAt(high), 1002}, {tagAt(low), 9}}, lowTag);
    expectFailure({{tagAt(low), 9}, {valueAt(high), 1002}}, lowTag);
    expectFailure({{tagAt(high), 9}, {valueAt(low), 1002}}, lowValue);
    // A value fault and a tag fault on one key: the value is checked
    // first.
    expectFailure({{tagAt(low), 9}, {valueAt(low), 1002}}, lowValue);
}

TEST(OltpHotAddrs, ProfilerRowsGetWorkloadLabels)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    GpuSystem gpu(cfg);

    WorkloadSpec spec;
    std::string error;
    ASSERT_TRUE(parseWorkloadSpec("YCSB:theta=0.95", spec, error))
        << error;
    auto workload = makeWorkload(spec, /*scale=*/0.01, /*seed=*/99);
    workload->setup(gpu, /*lock_variant=*/false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 80'000'000);

    // The zipf rank a label names, or ~0 when it names none.
    const auto rankIn = [](const std::string &label) -> std::uint64_t {
        const auto at = label.find("zipf rank ");
        return at == std::string::npos
                   ? ~std::uint64_t{0}
                   : std::stoull(label.substr(at + 10));
    };

    ASSERT_FALSE(result.obs.hotAddrs.empty());
    unsigned labeled = 0;
    const unsigned granule = cfg.getmGranule;
    for (HotAddrRow row : result.obs.hotAddrs) {
        if (workload->addrInfo(row.addr, granule, row.label)) {
            ++labeled;
            EXPECT_NE(row.label.find("key"), std::string::npos)
                << row.label;
            EXPECT_NE(row.label.find("zipf rank"), std::string::npos)
                << row.label;
            // A granule holds several 8-byte records: the label names
            // the most popular of them.
            std::uint64_t hottest = ~std::uint64_t{0};
            for (Addr record = row.addr; record < row.addr + granule;
                 record += 8) {
                std::string one;
                if (workload->addrInfo(record, 8, one))
                    hottest = std::min(hottest, rankIn(one));
            }
            EXPECT_EQ(rankIn(row.label), hottest) << row.label;
        }
    }
    EXPECT_GT(labeled, 0u);
}

TEST(OltpHotAddrs, BankLabelsNameAccountsTellersBranches)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    GpuSystem gpu(cfg);

    auto workload =
        makeWorkload(WorkloadSpec{"BANK"}, /*scale=*/0.01, /*seed=*/99);
    workload->setup(gpu, /*lock_variant=*/false);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 80'000'000);

    ASSERT_FALSE(result.obs.hotAddrs.empty());
    // Every transfer touches one teller and one branch record; with 16
    // branches those granules dominate contention, so the top rows must
    // resolve to branch/teller/account names.
    unsigned labeled = 0;
    bool sawHotRecord = false;
    for (HotAddrRow row : result.obs.hotAddrs) {
        if (!workload->addrInfo(row.addr, cfg.getmGranule, row.label))
            continue;
        ++labeled;
        const bool known =
            row.label.find("branch") != std::string::npos ||
            row.label.find("teller") != std::string::npos ||
            row.label.find("account") != std::string::npos;
        EXPECT_TRUE(known) << row.label;
        sawHotRecord |= known;
    }
    EXPECT_GT(labeled, 0u);
    EXPECT_TRUE(sawHotRecord);
}

// --------------------------------------------------------------------
// Timestamp uniqueness
// --------------------------------------------------------------------

TEST(TimestampOrder, ComposedTimestampsAreUniqueAndOrdered)
{
    // Equal logical clocks from different warps must still be totally
    // ordered (the warp id tie-breaks in the low bits), and any clock
    // advance dominates every warp-id tie-break.
    EXPECT_NE(composeTs(5, 0), composeTs(5, 1));
    EXPECT_LT(composeTs(5, 0), composeTs(5, 1));
    EXPECT_LT(composeTs(5, (1u << tsWarpIdBits) - 1), composeTs(6, 0));
    EXPECT_EQ(tsClock(composeTs(42, 7)), 42u);
}

TEST(TimestampOrder, HighContentionYcsbIsSerializableUnderGetm)
{
    // Regression: with per-warp Lamport clocks alone, two warps could
    // share a warpts; each then passed the other's `>=` limit checks,
    // letting both read a granule the other overwrote — a pure
    // antidependency cycle eager detection never orders and no abort
    // breaks. The zipfian head at theta=0.99 reproduced it reliably.
    WorkloadSpec spec;
    std::string error;
    ASSERT_TRUE(parseWorkloadSpec("YCSB:theta=0.99", spec, error)) << error;

    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    cfg.checkLevel = 2; // serializability graph checking
    GpuSystem gpu(cfg);

    auto workload = makeWorkload(spec, /*scale=*/0.01, /*seed=*/7);
    workload->setup(gpu, /*fglock=*/false);

    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(), 80'000'000);
    EXPECT_GT(result.commits, 0u);
    EXPECT_EQ(result.check.totalViolations, 0u)
        << result.check.summary();
    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why)) << why;
}

} // namespace
} // namespace getm
