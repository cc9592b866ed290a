/**
 * @file
 * Pins every counter of the runtime checker's report on a fixed run
 * matrix against tests/golden/check_reports.txt.
 *
 * The checker's host data structures (shadow history, lane slots,
 * conflict graph, GC) may be rebuilt for speed, but what it reports
 * must not move: begins, commits, aborts, reads, applies, graph edges,
 * GC passes, reclaimed nodes and the per-kind violation counts. The
 * matrix covers
 *
 *  - HT-H, ATM and CL under the four TM protocols (scale 0.05), once
 *    with the default GC period and once with a 64-commit period so
 *    every point runs many GC passes;
 *  - CL/GETM at scale 1.0 (about 14 passes at the default period);
 *  - the fault cases of CI's check-smoke job, plus skip-rts-bump on
 *    HT-H at scale 0.25, where cycles close across GC passes;
 *  - CC and BH at scale 0.25 under WarpTM-LL and EAPG, which pin the
 *    history their validation windows and broadcasts commit;
 *  - YCSB theta=0.9 under GETM with a rollover at clock 5, where
 *    retries pending at each rollover must not share a timestamp.
 *
 * Runs use the getm-sim defaults (GTX 480 machine, seed 7, per-bench
 * optimal concurrency). To regenerate the golden after an intended
 * change, run with GETM_CHECK_GOLDEN_OUT=<file> and review the diff.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "check/fault.hh"
#include "gpu/gpu_system.hh"
#include "workloads/registry.hh"

#ifndef GETM_GOLDEN_DIR
#error "GETM_GOLDEN_DIR must name tests/golden"
#endif

namespace getm {
namespace {

struct GoldenCase
{
    const char *bench;
    ProtocolKind protocol;
    double scale;
    FaultKind fault;
    std::uint64_t gcPeriod;
    LogicalTs rollover = 0; ///< Rollover threshold; 0 = never.
};

std::vector<GoldenCase>
goldenMatrix()
{
    const ProtocolKind tm[] = {ProtocolKind::Getm, ProtocolKind::WarpTmLL,
                               ProtocolKind::WarpTmEL, ProtocolKind::Eapg};
    std::vector<GoldenCase> cases;
    for (std::uint64_t period : {4096u, 64u})
        for (const char *bench : {"HT-H", "ATM", "CL"})
            for (ProtocolKind p : tm)
                cases.push_back({bench, p, 0.05, FaultKind::None, period});
    cases.push_back({"CL", ProtocolKind::Getm, 1.0, FaultKind::None, 4096});

    const struct
    {
        ProtocolKind protocol;
        FaultKind fault;
    } faults[] = {
        {ProtocolKind::Getm, FaultKind::SkipRtsBump},
        {ProtocolKind::Getm, FaultKind::ForceStoreGrant},
        {ProtocolKind::Getm, FaultKind::CorruptCommit},
        {ProtocolKind::Getm, FaultKind::DropCommitWrite},
        {ProtocolKind::WarpTmLL, FaultKind::CommitStaleRead},
        {ProtocolKind::WarpTmLL, FaultKind::CorruptCommit},
        {ProtocolKind::WarpTmLL, FaultKind::DropCommitWrite},
        {ProtocolKind::WarpTmEL, FaultKind::SkipValidation},
        {ProtocolKind::WarpTmEL, FaultKind::CorruptCommit},
        {ProtocolKind::WarpTmEL, FaultKind::DropCommitWrite},
        {ProtocolKind::Eapg, FaultKind::CommitStaleRead},
    };
    for (const auto &f : faults)
        cases.push_back({"HT-H", f.protocol, 0.05, f.fault, 4096});
    cases.push_back({"HT-H", ProtocolKind::Getm, 0.25,
                     FaultKind::SkipRtsBump, 4096});
    for (const char *bench : {"CC", "BH"})
        for (ProtocolKind p : {ProtocolKind::WarpTmLL, ProtocolKind::Eapg})
            cases.push_back({bench, p, 0.25, FaultKind::None, 4096});
    cases.push_back({"YCSB:theta=0.9", ProtocolKind::Getm, 0.05,
                     FaultKind::None, 4096, 5});
    return cases;
}

/** One golden line: the case, then every report counter. */
std::string
runCase(const GoldenCase &gc)
{
    WorkloadSpec spec;
    std::string error;
    EXPECT_TRUE(parseWorkloadSpec(gc.bench, spec, error)) << error;

    GpuConfig cfg = GpuConfig::gtx480();
    cfg.protocol = gc.protocol;
    cfg.seed = 7;
    cfg.core.txWarpLimit = optimalConcurrency(spec, gc.protocol);
    cfg.checkLevel = static_cast<unsigned>(CheckLevel::Serial);
    if (gc.fault != FaultKind::None) {
        cfg.injectFault = static_cast<unsigned>(gc.fault);
        cfg.injectProb = 1.0;
    }
    if (gc.rollover)
        cfg.rolloverThreshold = gc.rollover;
    GpuSystem gpu(cfg);
    gpu.checkerPtr()->setGcPeriod(gc.gcPeriod);
    auto workload = makeWorkload(spec, gc.scale, 7);
    workload->setup(gpu, false);
    gpu.run(workload->kernel(), workload->numThreads(), 2'000'000'000ull);
    const CheckReport &r = gpu.checkerPtr()->report();

    std::ostringstream os;
    os << gc.bench << ' ' << protocolName(gc.protocol) << ' ' << gc.scale
       << ' ' << faultKindName(gc.fault) << " gc=" << gc.gcPeriod;
    if (gc.rollover)
        os << " rollover=" << gc.rollover;
    os << ": begins=" << r.txBegins << " commits=" << r.txCommits
       << " aborts=" << r.txAborts << " reads=" << r.readsChecked
       << " writes=" << r.writesApplied << " edges=" << r.graphEdges
       << " gc_runs=" << r.gcRuns << " reclaimed=" << r.nodesReclaimed
       << " violations=" << r.totalViolations;
    for (unsigned k = 0; k < numViolationKinds; ++k)
        os << ' ' << violationKindName(static_cast<ViolationKind>(k)) << '='
           << r.byKind[k];
    return os.str();
}

TEST(CheckReportGolden, EveryCounterMatches)
{
    std::vector<std::string> got;
    for (const GoldenCase &gc : goldenMatrix())
        got.push_back(runCase(gc));

    if (const char *out = std::getenv("GETM_CHECK_GOLDEN_OUT")) {
        std::ofstream file(out);
        for (const std::string &line : got)
            file << line << '\n';
        GTEST_SKIP() << "wrote " << got.size() << " lines to " << out;
    }

    std::ifstream file(std::string(GETM_GOLDEN_DIR) + "/check_reports.txt");
    ASSERT_TRUE(file.good()) << "missing tests/golden/check_reports.txt";
    std::vector<std::string> want;
    for (std::string line; std::getline(file, line);)
        want.push_back(line);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "case " << i;
}

} // namespace
} // namespace getm
