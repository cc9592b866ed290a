/**
 * @file
 * Tutorial: plugging a custom TM protocol into the simulator.
 *
 * The simulator's protocol engines implement TmCoreProtocol (core side)
 * and, when they need LLC-side machinery, TmPartitionProtocol. State
 * that spans the whole GPU -- a global commit-id counter, GETM's
 * timestamp-rollover coordinator -- goes in a TmGpuProtocol
 * (simt/tm_iface.hh), which GpuSystem::wireProtocol() creates beside the
 * other engines and whose hooks the cycle loop calls each cycle, at
 * checkpoints, in diagnostics and at the end of a run. IdealTM needs no
 * GPU-wide state, so it only implements TmCoreProtocol. This
 * example implements "IdealTM" -- a zero-overhead transactional memory
 * whose accesses are free and whose commits validate and apply
 * instantaneously at the core. It is obviously not buildable hardware;
 * it is the *upper bound* every real design chases, and a ~100-line
 * demonstration of the plugin surface.
 *
 * The program then races IdealTM against GETM and WarpTM on the bank
 * workload: the gap between IdealTM and a real protocol is exactly the
 * cost of that protocol's conflict detection and commit machinery.
 */

#include <bit>
#include <cstdio>

#include "gpu/gpu_system.hh"
#include "tm/intra_warp_cd.hh"
#include "workloads/workload.hh"

using namespace getm;

namespace {

/** An idealized TM: free accesses, instant value-validated commits. */
class IdealTm : public TmCoreProtocol
{
  public:
    explicit IdealTm(SimtCore &core_) : core(core_) {}

    void
    txAccess(Warp &warp, bool is_store, const LaneAddrs &addrs,
             const LaneVals &vals, LaneMask lanes,
             std::uint8_t rd) override
    {
        (void)rd;
        for (LaneId lane = 0; lane < warpSize; ++lane) {
            if (!(lanes & (1u << lane)))
                continue;
            const Addr addr = addrs[lane];
            if (is_store) {
                warp.logs[lane].addWrite(addr, vals[lane]);
            } else if (auto own = warp.logs[lane].findWrite(addr)) {
                core.writebackLane(warp, lane, *own); // read-own-write
            } else {
                const std::uint32_t value = core.memory().read(addr);
                warp.logs[lane].addRead(addr, value);
                core.writebackLane(warp, lane, value);
            }
        }
        // No messages, no latency: accesses are free. (A real engine
        // would core.sendToPartition() here and count outstanding
        // responses; see src/core/getm_core_tm.cc.)
    }

    void
    txCommitPoint(Warp &warp) override
    {
        const int txi = warp.transactionIndex();
        LaneMask committers = warp.stack[txi].mask;

        // Resolve intra-warp conflicts, then value-validate each lane's
        // read log against memory -- both instantaneous.
        const LaneMask survivors = IntraWarpCd::resolveAtCommit(
            warp.logs.data(), warpSize, committers);
        LaneMask failed = committers & ~survivors;
        for (LaneId lane = 0; lane < warpSize; ++lane) {
            if (!(survivors & (1u << lane)))
                continue;
            for (const LogEntry &entry : warp.logs[lane].readLog())
                if (core.memory().read(entry.addr) != entry.value) {
                    failed |= 1u << lane;
                    break;
                }
        }
        if (failed)
            core.abortTxLanes(warp, failed, AbortReason::Validation);

        // Apply the winners' write logs atomically, right now.
        const LaneMask committed = committers & ~failed;
        for (LaneId lane = 0; lane < warpSize; ++lane)
            if (committed & (1u << lane))
                for (const LogEntry &entry : warp.logs[lane].writeLog())
                    core.memory().write(entry.addr, entry.value);

        core.retireTxAttempt(warp, committed);
    }

    void
    onResponse(Warp &, const MemMsg &) override
    {
        // IdealTM never sends partition messages, so none come back.
    }

  private:
    SimtCore &core;
};

RunResult
runAtm(ProtocolKind protocol, bool ideal, double scale)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.protocol = protocol;
    cfg.core.txWarpLimit = optimalConcurrency(BenchId::Atm, protocol);
    GpuSystem gpu(cfg);
    if (ideal)
        for (unsigned c = 0; c < gpu.numCores(); ++c)
            gpu.coreAt(c).setProtocol(
                std::make_unique<IdealTm>(gpu.coreAt(c)));

    auto workload = makeWorkload(BenchId::Atm, scale, 3);
    // IdealTM borrows the FgLock shell (it has no built-in engine) but
    // runs the *transactional* kernel.
    workload->setup(gpu, protocol == ProtocolKind::FgLock && !ideal);
    const RunResult result =
        gpu.run(workload->kernel(), workload->numThreads());
    std::string why;
    if (!workload->verify(gpu, why)) {
        std::fprintf(stderr, "verification failed: %s\n", why.c_str());
        std::exit(1);
    }
    return result;
}

} // namespace

int
main()
{
    const double scale = 0.5;
    std::printf("ATM under custom vs built-in protocols (scale %.2f)\n\n",
                scale);
    std::printf("%-12s %12s %10s %10s\n", "protocol", "cycles",
                "commits", "aborts");

    struct Row
    {
        const char *name;
        ProtocolKind protocol;
        bool ideal;
    };
    const Row rows[] = {
        // FgLock carries no engine, so it is a convenient shell for the
        // custom one.
        {"IdealTM", ProtocolKind::FgLock, true},
        {"GETM", ProtocolKind::Getm, false},
        {"WarpTM", ProtocolKind::WarpTmLL, false},
    };
    double ideal_cycles = 0;
    for (const Row &row : rows) {
        const RunResult result = runAtm(row.protocol, row.ideal, scale);
        if (ideal_cycles == 0)
            ideal_cycles = static_cast<double>(result.cycles);
        std::printf("%-12s %12llu %10llu %10llu   (%.2fx IdealTM)\n",
                    row.name,
                    static_cast<unsigned long long>(result.cycles),
                    static_cast<unsigned long long>(result.commits),
                    static_cast<unsigned long long>(result.aborts),
                    static_cast<double>(result.cycles) / ideal_cycles);
    }
    std::printf("\nThe distance from IdealTM is the price of real "
                "conflict detection and\ncommit hardware; GETM's whole "
                "contribution is shrinking it.\n");
    return 0;
}
