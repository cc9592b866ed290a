/**
 * @file
 * getm-sweep: parallel, resumable experiment orchestrator.
 *
 * Enumerates the (config x workload x protocol) points of a sweep
 * manifest, runs each as an isolated in-process simulation on a worker
 * pool, and merges the per-point `getm-metrics` documents into one
 * `sweep.json` keyed by point id. Completed points whose spec hash
 * still matches are skipped on rerun, so an interrupted sweep resumes
 * where it stopped. See docs/SWEEPS.md for the manifest schema.
 *
 *     getm-sweep --manifest configs/sweeps/smoke.sweep
 *     getm-sweep --manifest configs/sweeps/fig11_exec_time.sweep \
 *         --dir out/fig11 --jobs 8
 *     getm-sweep --manifest m.sweep --list
 */

#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "common/stop_flag.hh"
#include "gpu/config_file.hh"
#include "sweep/runner.hh"
#include "workloads/registry.hh"

using namespace getm;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --manifest FILE [options]\n"
        "  --manifest FILE  sweep manifest (required; see docs/SWEEPS.md)\n"
        "  --dir DIR        working directory for per-point results and\n"
        "                   resume state (default: sweep-<name>)\n"
        "  --out FILE       merged document path (default: DIR/sweep.json)\n"
        "  --jobs N         worker threads, at most one per point\n"
        "                   (default: hardware threads)\n"
        "  --force          rerun every point, ignoring resume state\n"
        "  --trace-tx N     trace every Nth transaction per point, in\n"
        "                   place of the manifest's trace_tx (0 = off);\n"
        "                   a traced point writes DIR/points/<id>.trace.json,\n"
        "                   and spec hashes and sweep.json bytes are\n"
        "                   unchanged\n"
        "  --list           print the enumerated point ids and exit\n"
        "  --list-benches   list every registered bench with its\n"
        "                   parameters, defaults and ranges\n"
        "  --quiet          no per-point progress lines\n"
        "exit codes: 0 ok; 1 infrastructure error; 2 usage; 3 one or\n"
        "more points failed workload verification or the checker; 4 one\n"
        "or more points died in a typed simulation failure; 128+N\n"
        "stopped by signal N (SIGINT/SIGTERM: in-flight points stop at\n"
        "their next cycle boundary; the identical rerun skips finished\n"
        "points and reruns the rest)\n",
        argv0);
}

/**
 * Map a completed outcome onto the taxonomy the usage text documents:
 * verification failures exit 3, typed simulation failures exit 4 (the
 * simulation failure wins when both occur -- it is the one to triage
 * first).
 */
int
sweepStatus(const SweepOutcome &outcome, const std::string &dir)
{
    int status = 0;
    if (outcome.unverified) {
        std::fprintf(stderr,
                     "getm-sweep: %u point%s FAILED workload "
                     "verification (see meta.verified)\n",
                     outcome.unverified,
                     outcome.unverified == 1 ? "" : "s");
        status = exitVerification;
    }
    if (outcome.failed) {
        std::fprintf(stderr,
                     "getm-sweep: %u point%s FAILED to simulate "
                     "(failure documents in %s/points):\n",
                     outcome.failed, outcome.failed == 1 ? "" : "s",
                     dir.c_str());
        for (const SweepFailure &f : outcome.failures)
            std::fprintf(stderr, "  %-10s %s: %s\n", f.status.c_str(),
                         f.id.c_str(), f.message.c_str());
        status = exitSimError;
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string manifest_path;
    SweepOptions options;
    options.dir.clear();
    bool list = false;
    // Whole numbers read as config keys read them; a bad one is usage.
    const auto number = [](const std::string &arg, const char *text,
                           std::uint64_t max) {
        std::uint64_t value;
        if (parseWholeNumber(text, value, max))
            return value;
        std::fprintf(stderr, "%s: bad value '%s'\n", arg.c_str(), text);
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
        if (arg == "--manifest") {
            manifest_path = next();
        } else if (arg == "--dir") {
            options.dir = next();
        } else if (arg == "--out") {
            options.outPath = next();
        } else if (arg == "--jobs") {
            options.jobs = static_cast<unsigned>(
                number(arg, next(), std::numeric_limits<unsigned>::max()));
        } else if (arg == "--force") {
            options.force = true;
        } else if (arg == "--trace-tx") {
            options.traceTx = number(arg, next(), UINT64_MAX);
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--list-benches") {
            printBenchList();
            return 0;
        } else if (arg == "--quiet") {
            options.progress = false;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (manifest_path.empty()) {
        usage(argv[0]);
        return 2;
    }

    SweepManifest manifest;
    std::string error;
    if (!manifest.load(manifest_path, error)) {
        std::fprintf(stderr, "getm-sweep: %s: %s\n",
                     manifest_path.c_str(), error.c_str());
        return 2;
    }

    if (list) {
        std::vector<SweepPoint> points;
        if (!manifest.enumerate(points, error)) {
            std::fprintf(stderr, "getm-sweep: %s\n", error.c_str());
            return 2;
        }
        for (const SweepPoint &point : points)
            std::printf("%s %s\n", hashHex(point.specHash()).c_str(),
                        point.id.c_str());
        std::printf("%zu points\n", points.size());
        return 0;
    }

    if (options.dir.empty())
        options.dir = "sweep-" + manifest.name();
    if (options.outPath.empty())
        options.outPath = options.dir + "/sweep.json";

    SweepOutcome outcome;
    // Graceful shutdown: SIGINT/SIGTERM set a flag every in-flight
    // point's cycle loop polls at its next cycle boundary; points
    // wind down cleanly, queued points never start, and the identical
    // rerun resumes.
    std::signal(SIGINT, [](int sig) { requestStop(sig); });
    std::signal(SIGTERM, [](int sig) { requestStop(sig); });

    if (!runSweep(manifest, options, outcome, error)) {
        std::fprintf(stderr, "getm-sweep: %s\n", error.c_str());
        return 1;
    }

    if (outcome.interrupted) {
        const int sig = stopSignal() ? stopSignal() : SIGTERM;
        std::fprintf(stderr,
                     "getm-sweep: stopped by signal %d; partial "
                     "results in %s (rerun to resume)\n",
                     sig, options.dir.c_str());
        return 128 + sig;
    }

    std::printf("%s: %u points (%u ran, %u resumed) -> %s\n",
                manifest.name().c_str(), outcome.total, outcome.ran,
                outcome.skipped, options.outPath.c_str());
    return sweepStatus(outcome, options.dir);
}
