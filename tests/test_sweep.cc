/**
 * @file
 * Sweep-harness tests: thread pool, manifest parsing, point
 * enumeration and id/hash semantics, resume skipping, and the merged
 * sweep document.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "sweep/manifest.hh"
#include "sweep/runner.hh"

using namespace getm;

namespace {

std::string
readAll(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    std::stringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

/** A fresh scratch directory under the test temp dir. */
std::string
scratchDir(const std::string &tag)
{
    const std::string dir = testing::TempDir() + "getm_sweep_" + tag +
                            "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

/** A fast manifest: tiny machine, tiny workload, 2 points. */
const char *const tinyManifest =
    "name = tiny\n"
    "bench = ATM\n"
    "protocol = getm warptm\n"
    "scale = 0.02\n"
    "cores = 2\n"
    "partitions = 2\n"
    "warps_per_core = 4\n"
    "sample_interval = 256\n";

} // namespace

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsABarrierAndReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    for (int i = 0; i < 10; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, BoundedQueueDoesNotDeadlock)
{
    // Queue capacity 1 forces submit() to block and hand off; 200
    // tasks through a single worker exercises the backpressure path.
    ThreadPool pool(1, 1);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, TaskExceptionsRethrowAtWaitAndPoolSurvives)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 20; ++i)
        pool.submit([&count, i] {
            ++count;
            if (i == 7)
                throw std::runtime_error("task 7 exploded");
        });
    try {
        pool.wait();
        FAIL() << "wait() swallowed the task exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 7 exploded");
    }
    // Every task ran despite the throw, and the pool stays usable:
    // the error slot was cleared by the rethrow.
    EXPECT_EQ(count.load(), 20);
    pool.submit([&count] { ++count; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(count.load(), 21);
}

TEST(ThreadPool, OnlyTheFirstTaskExceptionIsKept)
{
    ThreadPool pool(1); // serial worker: deterministic first thrower
    pool.submit([] { throw std::runtime_error("first"); });
    pool.submit([] { throw std::runtime_error("second"); });
    try {
        pool.wait();
        FAIL() << "wait() swallowed the task exceptions";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

// --------------------------------------------------------------------------
// Manifest parsing
// --------------------------------------------------------------------------

TEST(SweepManifest, ParsesAxesAndEnumeratesCrossProduct)
{
    SweepManifest manifest;
    std::string error;
    ASSERT_TRUE(manifest.parse("name = demo\n"
                               "bench = HT-H ATM\n"
                               "protocol = getm, warptm\n"
                               "getm_granule = 32 64\n",
                               "", error))
        << error;
    EXPECT_EQ(manifest.name(), "demo");

    std::vector<SweepPoint> points;
    ASSERT_TRUE(manifest.enumerate(points, error)) << error;
    EXPECT_EQ(points.size(), 8u); // 2 bench x 2 protocol x 2 granule

    // Declaration order, later axes fastest.
    EXPECT_EQ(points[0].id, "HT-H+GETM+getm_granule=32");
    EXPECT_EQ(points[1].id, "HT-H+GETM+getm_granule=64");
    EXPECT_EQ(points[2].id, "HT-H+WarpTM-LL+getm_granule=32");
    EXPECT_EQ(points.back().id, "ATM+WarpTM-LL+getm_granule=64");

    EXPECT_EQ(points[0].config.getmGranule, 32u);
    EXPECT_EQ(points[1].config.getmGranule, 64u);
    EXPECT_EQ(points[0].config.protocol, ProtocolKind::Getm);
}

TEST(SweepManifest, SingleValueAxesStayOutOfTheId)
{
    SweepManifest manifest;
    std::string error;
    ASSERT_TRUE(manifest.parse("name = demo\n"
                               "bench = CL\n"
                               "protocol = eapg\n"
                               "scale = 0.5\n"
                               "getm_granule = 64\n",
                               "", error))
        << error;
    std::vector<SweepPoint> points;
    ASSERT_TRUE(manifest.enumerate(points, error)) << error;
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].id, "CL+EAPG");
    EXPECT_EQ(points[0].scale, 0.5);
    EXPECT_EQ(points[0].config.getmGranule, 64u);
}

TEST(SweepManifest, BenchAllExpandsToTheFullSuite)
{
    SweepManifest manifest;
    std::string error;
    ASSERT_TRUE(manifest.parse("name = demo\nbench = all\n", "", error));
    std::vector<SweepPoint> points;
    ASSERT_TRUE(manifest.enumerate(points, error)) << error;
    EXPECT_EQ(points.size(), allBenchIds().size());
}

TEST(SweepManifest, ConcurrencyOptResolvesTheTableIVOptimum)
{
    SweepManifest manifest;
    std::string error;
    ASSERT_TRUE(manifest.parse("name = demo\n"
                               "bench = HT-H\n"
                               "protocol = getm warptm\n"
                               "concurrency = opt 2 0\n",
                               "", error));
    std::vector<SweepPoint> points;
    ASSERT_TRUE(manifest.enumerate(points, error)) << error;
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].config.core.txWarpLimit,
              optimalConcurrency(BenchId::HtH, ProtocolKind::Getm));
    EXPECT_EQ(points[1].config.core.txWarpLimit, 2u);
    // 0 = unlimited
    EXPECT_EQ(points[2].config.core.txWarpLimit, 0xffffffffu);
    EXPECT_EQ(points[1].id, "HT-H+GETM+concurrency=2");
}

TEST(SweepManifest, RejectsBadInput)
{
    const std::pair<const char *, const char *> cases[] = {
        {"bench = HT-H\n", "lacks 'name"},
        {"name = x\nbench = NOPE\n", "unknown bench"},
        {"name = x\nprotocol = tsx\n", "unknown protocol"},
        {"name = x\nfrobnicate = 1\n", "unknown key"},
        {"name = x\nscale = -1\n", "bad scale"},
        {"name = x\nseed = 3 3\nseed = 4\n", "duplicate axis"},
        {"name = x\nbench\n", "expected 'key = value'"},
        {"name = x\nbench =\n", "empty value"},
        {"name = x\nretries = 1\n", "unknown key 'retries'"},
        {"name = x\nseed = -1\n", "bad value for 'seed'"},
        {"name = x\nmax_cycles = -5\n", "bad max_cycles"},
        {"name = x\nscale = abc\n", "bad scale"},
    };
    for (const auto &[text, want] : cases) {
        SweepManifest manifest;
        std::string error;
        EXPECT_FALSE(manifest.parse(text, "", error)) << text;
        EXPECT_NE(error.find(want), std::string::npos)
            << "input: " << text << "error: " << error;
    }
}

TEST(SweepManifest, TxWarpLimitBelongsToTheConcurrencyAxis)
{
    // The concurrency axis sets every point's tx_warp_limit, so a
    // manifest that sets the key by an axis or in its base config is
    // refused at load, as a base config's seed is.
    const std::string dir = scratchDir("tx_warp_limit");
    std::filesystem::create_directories(dir);
    const auto write = [&dir](const std::string &name,
                              const std::string &text) {
        std::ofstream(dir + "/" + name) << text;
        return dir + "/" + name;
    };
    write("limit.cfg", "cores = 4\ntx_warp_limit = 2\n");
    for (const char *text : {"name = x\ntx_warp_limit = 2 4\n",
                             "name = x\nconfig = limit.cfg\n"}) {
        SweepManifest manifest;
        std::string error;
        EXPECT_FALSE(manifest.load(write("m.sweep", text), error)) << text;
        EXPECT_NE(error.find("tx_warp_limit"), std::string::npos) << error;
        EXPECT_NE(error.find("concurrency"), std::string::npos) << error;
    }

    // The same limits through the concurrency axis load and apply.
    SweepManifest manifest;
    std::string error;
    ASSERT_TRUE(manifest.load(
        write("m.sweep", "name = x\nconcurrency = 2 4\n"), error))
        << error;
    std::vector<SweepPoint> points;
    ASSERT_TRUE(manifest.enumerate(points, error)) << error;
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].config.core.txWarpLimit, 2u);
    EXPECT_EQ(points[1].config.core.txWarpLimit, 4u);
    std::filesystem::remove_all(dir);
}

TEST(SweepManifest, DuplicatePointIdsAreRejectedByTheRunner)
{
    SweepManifest manifest;
    std::string error;
    // Two identical bench tokens enumerate two identical points.
    ASSERT_TRUE(
        manifest.parse("name = dup\nbench = ATM ATM\n", "", error));
    SweepOptions options;
    options.dir = scratchDir("dup");
    options.progress = false;
    SweepOutcome outcome;
    EXPECT_FALSE(runSweep(manifest, options, outcome, error));
    EXPECT_NE(error.find("duplicate point id"), std::string::npos)
        << error;
    std::filesystem::remove_all(options.dir);
}

// --------------------------------------------------------------------------
// Spec hashes
// --------------------------------------------------------------------------

TEST(SweepManifestHash, IndependentOfTheManifestDirectory)
{
    const char *const text = "name = scaled\nconfig = ../scaled.cfg\n"
                             "bench = ATM\n";
    SweepManifest relative, absolute, other;
    std::string error;
    ASSERT_TRUE(relative.parse(text, "configs/sweeps", error)) << error;
    ASSERT_TRUE(absolute.parse(text, "/src/checkout/configs/sweeps", error))
        << error;
    EXPECT_EQ(relative.manifestHash(), absolute.manifestHash());

    // The config value itself is still part of the identity.
    ASSERT_TRUE(other.parse("name = scaled\nconfig = ../other.cfg\n"
                            "bench = ATM\n",
                            "configs/sweeps", error))
        << error;
    EXPECT_NE(relative.manifestHash(), other.manifestHash());
}

TEST(SweepPointHash, TracksEveryResolvedKnob)
{
    SweepManifest manifest;
    std::string error;
    ASSERT_TRUE(manifest.parse("name = a\nbench = ATM\n", "", error));
    std::vector<SweepPoint> base;
    ASSERT_TRUE(manifest.enumerate(base, error));

    // Same spec, re-enumerated: identical hash.
    std::vector<SweepPoint> again;
    ASSERT_TRUE(manifest.enumerate(again, error));
    EXPECT_EQ(base[0].specHash(), again[0].specHash());

    // Any knob change (even one that keeps the id stable, like a
    // single-value config axis) must change the hash.
    SweepManifest changed;
    ASSERT_TRUE(changed.parse("name = a\nbench = ATM\n"
                              "getm_granule = 64\n",
                              "", error));
    std::vector<SweepPoint> other;
    ASSERT_TRUE(changed.enumerate(other, error));
    EXPECT_EQ(base[0].id, other[0].id);
    EXPECT_NE(base[0].specHash(), other[0].specHash());
}

// --------------------------------------------------------------------------
// End-to-end runs: resume, force, merged document
// --------------------------------------------------------------------------

class SweepRunTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_TRUE(manifest.parse(tinyManifest, "", error)) << error;
        options.dir = scratchDir("run");
        options.jobs = 2;
        options.progress = false;
    }

    void TearDown() override { std::filesystem::remove_all(options.dir); }

    SweepManifest manifest;
    SweepOptions options;
    SweepOutcome outcome;
    std::string error;
};

TEST_F(SweepRunTest, RunsResumesAndForcesCorrectly)
{
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    EXPECT_EQ(outcome.total, 2u);
    EXPECT_EQ(outcome.ran, 2u);
    EXPECT_EQ(outcome.skipped, 0u);
    EXPECT_EQ(outcome.unverified, 0u);
    const std::string merged = readAll(options.dir + "/sweep.json");

    // Rerun: every point resumes from matching state.
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    EXPECT_EQ(outcome.ran, 0u);
    EXPECT_EQ(outcome.skipped, 2u);
    EXPECT_EQ(readAll(options.dir + "/sweep.json"), merged);

    // A stale hash invalidates exactly that point.
    {
        std::ofstream hash(options.dir + "/state/ATM+GETM.hash",
                           std::ios::trunc);
        hash << "0000000000000000";
    }
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    EXPECT_EQ(outcome.ran, 1u);
    EXPECT_EQ(outcome.skipped, 1u);
    EXPECT_EQ(readAll(options.dir + "/sweep.json"), merged);

    // --force reruns everything and reproduces the same bytes.
    options.force = true;
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    EXPECT_EQ(outcome.ran, 2u);
    EXPECT_EQ(outcome.skipped, 0u);
    EXPECT_EQ(readAll(options.dir + "/sweep.json"), merged);
}

TEST_F(SweepRunTest, MergedDocumentIsValidAndSorted)
{
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    const std::string merged = readAll(options.dir + "/sweep.json");
    ASSERT_FALSE(merged.empty());

    std::string json_error;
    EXPECT_TRUE(jsonValidate(merged, json_error)) << json_error;

    // Sweep header and both point ids present, in sorted order.
    EXPECT_NE(merged.find("\"schema\":\"getm-sweep\""),
              std::string::npos);
    EXPECT_NE(merged.find("\"name\":\"tiny\""), std::string::npos);
    const auto getm_at = merged.find("\"ATM+GETM\"");
    const auto wtm_at = merged.find("\"ATM+WarpTM-LL\"");
    ASSERT_NE(getm_at, std::string::npos);
    ASSERT_NE(wtm_at, std::string::npos);
    EXPECT_LT(getm_at, wtm_at);

    // Each embedded point is a getm-metrics document (the strict
    // validation is tools/check_metrics.py, exercised by the
    // sweep_determinism_check ctest).
    EXPECT_NE(merged.find("\"schema\":\"getm-metrics\""),
              std::string::npos);

    // Serial rerun from scratch produces byte-identical output.
    SweepOptions serial = options;
    serial.dir = scratchDir("serial");
    serial.jobs = 1;
    ASSERT_TRUE(runSweep(manifest, serial, outcome, error)) << error;
    EXPECT_EQ(readAll(serial.dir + "/sweep.json"), merged);
    std::filesystem::remove_all(serial.dir);
}

TEST(SweepRunTrace, ManifestTraceTxWritesSideFilesOnly)
{
    // A manifest's trace_tx reaches its point without --trace-tx, and
    // tracing changes no byte of sweep.json.
    const std::string point = "name = one\nbench = ATM\nscale = 0.02\n"
                              "cores = 2\npartitions = 2\n"
                              "warps_per_core = 4\n";
    SweepManifest plain, traced;
    std::string error;
    ASSERT_TRUE(plain.parse(point, "", error)) << error;
    ASSERT_TRUE(traced.parse(point + "trace_tx = 1\n", "", error)) << error;

    SweepOptions options;
    options.progress = false;
    SweepOutcome outcome;
    const auto run = [&](const SweepManifest &manifest,
                         const std::string &tag) {
        options.dir = scratchDir(tag);
        EXPECT_TRUE(runSweep(manifest, options, outcome, error)) << error;
        return options.dir;
    };
    const auto side_file = [](const std::string &dir) {
        return std::filesystem::exists(dir + "/points/ATM+GETM.trace.json");
    };
    const std::string plain_dir = run(plain, "untraced");
    const std::string traced_dir = run(traced, "traced");
    EXPECT_FALSE(side_file(plain_dir));
    EXPECT_TRUE(side_file(traced_dir));
    EXPECT_EQ(readAll(traced_dir + "/sweep.json"),
              readAll(plain_dir + "/sweep.json"));

    // --trace-tx 0 turns the manifest's tracing off.
    options.traceTx = 0;
    const std::string off_dir = run(traced, "trace_off");
    EXPECT_FALSE(side_file(off_dir));
    for (const std::string &dir : {plain_dir, traced_dir, off_dir})
        std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------------
// Failure isolation
// --------------------------------------------------------------------------

namespace {

/** tinyManifest plus an inject axis: point 2 leaks GETM reservations
 *  at commit and therefore deadlocks (see tests/test_robustness.cc). */
const char *const faultyManifest =
    "name = faulty\n"
    "bench = ATM\n"
    "protocol = getm\n"
    "scale = 0.02\n"
    "cores = 2\n"
    "partitions = 2\n"
    "warps_per_core = 4\n"
    "sample_interval = 256\n"
    "max_cycles = 30000000\n"
    "inject = none leak-lock\n";

} // namespace

class FaultySweepTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_TRUE(manifest.parse(faultyManifest, "", error)) << error;
        options.dir = scratchDir("faulty");
        options.jobs = 1;
        options.progress = false;
    }

    void TearDown() override { std::filesystem::remove_all(options.dir); }

    SweepManifest manifest;
    SweepOptions options;
    SweepOutcome outcome;
    std::string error;
};

TEST_F(FaultySweepTest, FailedPointIsIsolatedAndRecorded)
{
    // The sweep itself succeeds: the pathological point is recorded,
    // not fatal, and the clean point still completes.
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    EXPECT_EQ(outcome.total, 2u);
    EXPECT_EQ(outcome.ran, 2u);
    ASSERT_EQ(outcome.failed, 1u);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].id, "ATM+GETM+inject=leak-lock");
    EXPECT_EQ(outcome.failures[0].status, "deadlock");

    const std::string merged = readAll(options.dir + "/sweep.json");
    std::string json_error;
    EXPECT_TRUE(jsonValidate(merged, json_error)) << json_error;
    EXPECT_NE(merged.find("\"num_failed\":1"), std::string::npos);
    EXPECT_NE(merged.find("\"failure\":"), std::string::npos);
    EXPECT_NE(merged.find("\"status\":\"deadlock\""), std::string::npos);
    EXPECT_NE(merged.find("\"attempts\":1"), std::string::npos);
    EXPECT_NE(merged.find("\"diagnostic\":"), std::string::npos);
    // The clean point's full document is embedded alongside.
    EXPECT_NE(merged.find("\"ATM+GETM+inject=none\""),
              std::string::npos);
    EXPECT_NE(merged.find("\"run\":"), std::string::npos);
}

TEST_F(FaultySweepTest, FailedPointAlwaysRerunsOnResume)
{
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    EXPECT_EQ(outcome.failed, 1u);
    const std::string merged = readAll(options.dir + "/sweep.json");

    // Resume: the clean point is skipped, the failed point reruns
    // (its state hash is poisoned), and the bytes are reproduced.
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    EXPECT_EQ(outcome.skipped, 1u);
    EXPECT_EQ(outcome.ran, 1u);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(readAll(options.dir + "/sweep.json"), merged);
}

TEST_F(FaultySweepTest, SuccessfulPointBytesAreUnaffectedByFailures)
{
    ASSERT_TRUE(runSweep(manifest, options, outcome, error)) << error;
    const std::string with_failure =
        readAll(options.dir + "/points/ATM+GETM+inject=none.json");

    // The same clean point from a manifest without the faulty sibling
    // must produce byte-identical output: failure isolation cannot
    // leak into successful points.
    SweepManifest clean;
    ASSERT_TRUE(clean.parse("name = faulty\n"
                            "bench = ATM\n"
                            "protocol = getm\n"
                            "scale = 0.02\n"
                            "cores = 2\n"
                            "partitions = 2\n"
                            "warps_per_core = 4\n"
                            "sample_interval = 256\n"
                            "max_cycles = 30000000\n"
                            "inject = none\n",
                            "", error))
        << error;
    SweepOptions clean_options = options;
    clean_options.dir = scratchDir("faulty_clean");
    ASSERT_TRUE(runSweep(clean, clean_options, outcome, error)) << error;
    EXPECT_EQ(outcome.failed, 0u);
    // (The single-value inject axis drops out of the id, so the same
    // point is named ATM+GETM here; the document bytes are what must
    // match.)
    EXPECT_EQ(readAll(clean_options.dir + "/points/ATM+GETM.json"),
              with_failure);
    std::filesystem::remove_all(clean_options.dir);
}
