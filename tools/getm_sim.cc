/**
 * @file
 * getm_sim: command-line driver for the simulator.
 *
 * Runs any Table III benchmark under any protocol with the knobs the
 * evaluation sweeps, and prints a result summary (optionally the full
 * statistics dump or the kernel disassembly). Examples:
 *
 *     getm_sim --bench HT-H --protocol getm
 *     getm_sim --bench ATM --protocol warptm --scale 0.5 --stats
 *     getm_sim --bench AP --protocol fglock --disasm
 *     getm_sim --list
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "common/sim_error.hh"
#include "common/stop_flag.hh"
#include "gpu/config_file.hh"
#include "gpu/gpu_system.hh"
#include "obs/metrics.hh"
#include "power/tm_structures.hh"
#include "sweep/runner.hh"
#include "workloads/registry.hh"

using namespace getm;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --bench SPEC        HT-H HT-M HT-L ATM CL CLto BH CC AP,\n"
        "                      or a parameterized OLTP spec such as\n"
        "                      YCSB:theta=0.95 or BANK:accounts=1e5\n"
        "                      (see --list-benches)\n"
        "  --protocol NAME     getm | warptm | warptm-el | eapg | fglock\n"
        "  --scale F           workload scale (default 0.25; 1.0 = paper)\n"
        "  --config FILE       apply a key=value configuration file\n"
        "  --seed N            key seed: workload seed (default: a\n"
        "                      --config file's seed, else 7)\n"
        "  --concurrency N     key tx_warp_limit: tx warps/core (default:\n"
        "                      a --config file's limit, else the Table IV\n"
        "                      optimum; 0 = unlimited)\n"
        "machine settings: each flag is the config line 'KEY = VALUE' for\n"
        "the key named, applied in command-line order with --config files\n"
        "(--seed and --concurrency win over every file):\n"
        "  --cores N           key cores: SIMT cores (default 15)\n"
        "  --partitions N      key partitions: memory partitions (def. 6)\n"
        "  --granule N         key getm_granule: GETM metadata granularity\n"
        "                      bytes (default 32)\n"
        "  --table-entries N   key getm_precise_entries: GETM precise\n"
        "                      entries GPU-wide (default 4096)\n"
        "  --max-registers     key getm_max_registers = 1: GETM ablation,\n"
        "                      registers instead of Bloom\n"
        "  --rollover N        key rollover_threshold: force GETM timestamp\n"
        "                      rollover at N (default 0 = never)\n"
        "  --sample-interval N key sample_interval: telemetry sampling\n"
        "                      period in cycles (default 512 when\n"
        "                      --metrics is given, else 0 = off)\n"
        "  --hot-addrs N       key hot_addrs: rows in the hot-address\n"
        "                      table (default 16)\n"
        "  --trace-tx N        key trace_tx: trace every Nth transaction's\n"
        "                      lifecycle (1 = all; 0 = off). Adds a\n"
        "                      \"tx_trace\" section to --metrics and\n"
        "                      per-warp spans to --timeline; observe-only,\n"
        "                      so simulated timing is unchanged\n"
        "  --check[=LEVEL]     key check: runtime correctness checker:\n"
        "                      read | serial (default). Violations go to\n"
        "                      stderr and fail the run; timing and all\n"
        "                      reported stats are unchanged\n"
        "  --inject=FAULT[@P]  keys inject = FAULT, inject_prob = P\n"
        "                      (default 1): inject a protocol fault:\n"
        "                      skip-rts-bump | force-store-grant |\n"
        "                      commit-stale-read | skip-validation |\n"
        "                      corrupt-commit | drop-commit-write |\n"
        "                      leak-lock\n"
        "  --watchdog-cycles N key watchdog_cycles: declare livelock after\n"
        "                      N visited cycles without a tx lane\n"
        "                      committing or an instruction retiring\n"
        "                      outside a tx (default 2000000; 0 off)\n"
        "  --timeout-sec S     key timeout_sec: abort the run after S\n"
        "                      seconds of wall clock (default 0 =\n"
        "                      unlimited)\n"
        "other options:\n"
        "  --timeline FILE     write a Chrome-trace tx timeline\n"
        "                      (named tracks; telemetry counter rows)\n"
        "  --metrics FILE      write the full metrics document (JSON:\n"
        "                      stats tree, abort-reason breakdown,\n"
        "                      hot-address table, sampled time-series)\n"
        "  --max-cycles N      per-run simulation safety bound\n"
        "                      (default 2000000000)\n"
        "  --checkpoint-every N  write a crash-safe machine snapshot\n"
        "                      every N simulated cycles (at the first\n"
        "                      visited cycle at or past each multiple\n"
        "                      of N); restores are byte-identical\n"
        "  --checkpoint-dir D  snapshot directory (default .)\n"
        "  --restore PATH      resume from a snapshot file, or from the\n"
        "                      newest snapshot in a directory\n"
        "  --ckpt-kill-at N    crash-test hook: vanish (as if SIGKILLed,\n"
        "                      exit 137) at the first visited cycle >= N\n"
        "  --stats             dump all statistics\n"
        "  --json              machine-readable result summary\n"
        "  --disasm            print the kernel disassembly and exit\n"
        "  --area              print the protocol's area/power overheads\n"
        "  --list              list benchmarks and protocols\n"
        "  --list-benches      list every registered bench with its\n"
        "                      parameters, defaults and ranges\n"
        "exit codes: 0 ok; 1 internal error; 2 usage; 3 verification\n"
        "or checker violation; 4 simulation error; 5 watchdog guard\n"
        "(livelock, cycle limit, wall timeout); 128+N stopped by\n"
        "signal N (SIGINT/SIGTERM stop cleanly at the next cycle\n"
        "boundary, flushing metrics and a final checkpoint)\n",
        argv0);
}

/** Machine-setting flags that take the next argument as the value of
 *  one config key: {flag, key}. */
constexpr std::pair<const char *, const char *> aliases[] = {
    {"--cores", "cores"},
    {"--partitions", "partitions"},
    {"--granule", "getm_granule"},
    {"--table-entries", "getm_precise_entries"},
    {"--rollover", "rollover_threshold"},
    {"--sample-interval", "sample_interval"},
    {"--hot-addrs", "hot_addrs"},
    {"--trace-tx", "trace_tx"},
    {"--watchdog-cycles", "watchdog_cycles"},
    {"--timeout-sec", "timeout_sec"},
};

void
listBenches()
{
    for (const BenchInfo &info : benchRegistry()) {
        std::printf("%-6s %s\n", info.name, info.summary);
        for (const BenchParamInfo &param : info.params)
            std::printf("       %-10s %-12g default; range [%g, %g]: %s\n",
                        param.key, param.def, param.min, param.max,
                        param.help);
    }
}

int runSimulation(const SweepPoint &point, bool dump_stats, bool json,
                  const std::string &metrics_path);

} // namespace

int
main(int argc, char **argv)
{
    // One point, run through the same pipeline as a sweep's points.
    SweepPoint point;
    point.bench = WorkloadSpec{"HT-H"};
    point.protocol = ProtocolKind::Getm;
    point.config = pointBaseConfig();
    GpuConfig &cfg = point.config;
    // Applied after every --config file, so they win over the files.
    std::optional<std::string> seed, concurrency;
    bool dump_stats = false, disasm = false, area = false;
    bool json = false;
    std::string metrics_path;
    bool sample_interval_set = false;

    // Every machine setting goes through the config-file parser as the
    // line `key = value`; a value must not end the line early.
    const auto apply = [&cfg](const std::string &arg, const std::string &key,
                              const std::string &value) {
        std::string error;
        if (value.find_first_of("#\n") != std::string::npos)
            error = "bad value for '" + key + "'";
        else if (applyConfigText(key + " = " + value, cfg, error))
            return;
        std::fprintf(stderr, "%s: %s\n", arg.c_str(), error.c_str());
        std::exit(2);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        std::string key;
        for (const auto &[flag, alias_key] : aliases)
            if (arg == flag)
                key = alias_key;
        if (!key.empty()) {
            apply(arg, key, next());
            sample_interval_set |= key == "sample_interval";
        } else if (arg == "--max-registers") {
            apply(arg, "getm_max_registers", "1");
        } else if (arg == "--check" || arg.rfind("--check=", 0) == 0) {
            apply(arg, "check", arg == "--check" ? "on" : arg.substr(8));
        } else if (arg.rfind("--inject=", 0) == 0) {
            const std::string spec = arg.substr(9);
            const auto at = spec.find('@');
            apply(arg, "inject", spec.substr(0, at));
            apply(arg, "inject_prob",
                  at == std::string::npos ? "1" : spec.substr(at + 1));
        } else if (arg == "--bench") {
            std::string spec_error;
            if (!parseWorkloadSpec(next(), point.bench, spec_error)) {
                std::fprintf(stderr, "%s\n", spec_error.c_str());
                return 2;
            }
        } else if (arg == "--protocol") {
            auto parsed = parseProtocol(next());
            if (!parsed) {
                std::fprintf(stderr, "unknown protocol\n");
                return 2;
            }
            point.protocol = *parsed;
        } else if (arg == "--scale") {
            point.scale = std::atof(next());
        } else if (arg == "--seed") {
            seed = next();
        } else if (arg == "--concurrency") {
            concurrency = next();
        } else if (arg == "--config") {
            std::string error;
            if (!loadConfigFile(next(), cfg, error)) {
                std::fprintf(stderr, "config: %s\n", error.c_str());
                return 2;
            }
        } else if (arg == "--timeline") {
            cfg.timelinePath = next();
        } else if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--max-cycles") {
            point.maxCycles = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--checkpoint-every") {
            cfg.ckptEvery = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--checkpoint-dir") {
            cfg.ckptDir = next();
        } else if (arg == "--restore") {
            cfg.restorePath = next();
        } else if (arg == "--ckpt-kill-at") {
            cfg.ckptKillAt = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--disasm") {
            disasm = true;
        } else if (arg == "--area") {
            area = true;
        } else if (arg == "--list") {
            std::printf("benchmarks: %s\n",
                        registeredBenchNames().c_str());
            std::printf("protocols: getm warptm warptm-el eapg "
                        "fglock\n");
            return 0;
        } else if (arg == "--list-benches") {
            listBenches();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (area) {
        const OverheadReport report = tmOverheads(point.protocol, cfg);
        for (const auto &row : report.rows)
            std::printf("%-32s %7.1f KB x%-3u %8.3f mm^2 %9.2f mW\n",
                        row.name.c_str(), row.kilobytesPerInstance,
                        row.instances, row.estimate.areaMm2,
                        row.estimate.powerMw);
        std::printf("%-32s %14s %8.3f mm^2 %9.2f mW\n", "TOTAL", "",
                    report.totalAreaMm2, report.totalPowerMw);
        return 0;
    }

    if (seed)
        apply("--seed", "seed", *seed);
    if (concurrency)
        apply("--concurrency", "tx_warp_limit", *concurrency);
    resolvePoint(point, !metrics_path.empty() && !sample_interval_set);

    // Graceful shutdown: SIGINT/SIGTERM set a flag the simulation
    // loops poll at every cycle boundary; the run then stops cleanly
    // (final checkpoint when enabled) and surfaces here as SimError
    // INTERRUPT, flushing partial metrics before exiting 128+signal.
    std::signal(SIGINT, [](int sig) { requestStop(sig); });
    std::signal(SIGTERM, [](int sig) { requestStop(sig); });

    try {
        if (disasm) {
            GpuSystem gpu(cfg);
            auto workload =
                makeWorkload(point.bench, point.scale, point.seed);
            workload->setup(gpu, point.protocol == ProtocolKind::FgLock);
            std::printf("%s", workload->kernel().disassemble().c_str());
            return 0;
        }
        return runSimulation(point, dump_stats, json, metrics_path);
    } catch (const SimError &e) {
        // A typed simulation pathology: dump the diagnostic snapshot,
        // export a failure document when metrics were requested, and
        // exit with the taxonomy's status (4 general, 5 watchdog,
        // 128+signal for a clean stop) — distinct from verification
        // failure (3) and usage errors (2).
        std::fprintf(stderr, "%s\n", e.diagnostic().toText().c_str());
        if (!metrics_path.empty()) {
            const PointFailure failed = pointFailure(point, e);
            std::string error;
            if (!writeFailureFile(metrics_path, failed.meta, failed.failure,
                                  error))
                std::fprintf(stderr, "metrics: %s\n", error.c_str());
            else if (!json)
                std::printf("wrote failure document to %s\n",
                            metrics_path.c_str());
        }
        if (e.kind() == SimErrorKind::Interrupt)
            return 128 + (stopSignal() ? stopSignal() : SIGTERM);
        return simErrorExitCode(e.kind());
    }
}

namespace {

int
runSimulation(const SweepPoint &point, bool dump_stats, bool json,
              const std::string &metrics_path)
{
    const PointRun run = runPoint(point, [&](const Workload &workload) {
        if (!json)
            std::printf("running %s under %s (scale %.3g, %llu threads)"
                        "...\n",
                        point.bench.token().c_str(),
                        protocolName(point.protocol), point.scale,
                        static_cast<unsigned long long>(
                            workload.numThreads()));
    });
    const RunResult &result = run.result;
    const bool ok = run.meta.verified;

    if (point.config.checkLevel) {
        std::fprintf(stderr, "%s\n", result.check.summary().c_str());
        for (const Violation &v : result.check.samples)
            std::fprintf(stderr,
                         "  %s addr=%#llx tx=%llu expected=%u actual=%u"
                         "%s%s\n",
                         violationKindName(v.kind),
                         static_cast<unsigned long long>(v.addr),
                         static_cast<unsigned long long>(v.tx),
                         v.expected, v.actual,
                         v.detail.empty() ? "" : ": ",
                         v.detail.c_str());
    }

    if (!metrics_path.empty()) {
        std::string error;
        if (!writeMetricsFile(metrics_path, run.meta, result.stats,
                              result.obs, error)) {
            std::fprintf(stderr, "metrics: %s\n", error.c_str());
            return 1;
        }
        if (!json)
            std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }

    if (json) {
        std::printf("{\"bench\":\"%s\",\"protocol\":\"%s\","
                    "\"scale\":%g,\"threads\":%llu,"
                    "\"cycles\":%llu,\"commits\":%llu,"
                    "\"aborts\":%llu,\"tx_exec\":%llu,"
                    "\"tx_wait\":%llu,\"flits\":%llu,"
                    "\"rollovers\":%llu,\"verified\":%s}\n",
                    point.bench.token().c_str(),
                    protocolName(point.protocol), point.scale,
                    static_cast<unsigned long long>(run.meta.threads),
                    static_cast<unsigned long long>(result.cycles),
                    static_cast<unsigned long long>(result.commits),
                    static_cast<unsigned long long>(result.aborts),
                    static_cast<unsigned long long>(result.txExecCycles),
                    static_cast<unsigned long long>(result.txWaitCycles),
                    static_cast<unsigned long long>(result.xbarFlits),
                    static_cast<unsigned long long>(result.rollovers),
                    ok ? "true" : "false");
        return ok ? 0 : exitVerification;
    }
    std::printf("cycles        %llu\n",
                static_cast<unsigned long long>(result.cycles));
    std::printf("commits       %llu\n",
                static_cast<unsigned long long>(result.commits));
    std::printf("aborts        %llu (%.0f /1K commits)\n",
                static_cast<unsigned long long>(result.aborts),
                result.abortsPer1kCommits());
    for (unsigned i = 0; i < numAbortReasons; ++i)
        if (result.obs.abortLanesByReason[i])
            std::printf("  %-21s %llu\n",
                        abortReasonName(static_cast<AbortReason>(i)),
                        static_cast<unsigned long long>(
                            result.obs.abortLanesByReason[i]));
    std::printf("tx exec/wait  %llu / %llu warp-cycles\n",
                static_cast<unsigned long long>(result.txExecCycles),
                static_cast<unsigned long long>(result.txWaitCycles));
    std::printf("xbar flits    %llu\n",
                static_cast<unsigned long long>(result.xbarFlits));
    if (result.rollovers)
        std::printf("rollovers     %llu\n",
                    static_cast<unsigned long long>(result.rollovers));
    const std::vector<HotAddrRow> &hot = result.obs.hotAddrs;
    if (std::any_of(hot.begin(), hot.end(), [](const HotAddrRow &row) {
            return !row.label.empty();
        })) {
        std::printf("hot addresses\n");
        for (const HotAddrRow &row : hot) {
            if (row.label.empty())
                continue;
            std::printf("  %#10llx %8llu events  %s\n",
                        static_cast<unsigned long long>(row.addr),
                        static_cast<unsigned long long>(row.total),
                        row.label.c_str());
        }
    }
    std::printf("verification  %s%s%s\n", ok ? "PASS" : "FAIL",
                ok ? "" : ": ", ok ? "" : run.why.c_str());
    if (dump_stats)
        std::printf("\n%s", result.stats.dump().c_str());
    return ok ? 0 : exitVerification;
}

} // namespace
