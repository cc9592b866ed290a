#include "sweep/runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "common/sim_error.hh"
#include "common/stop_flag.hh"
#include "common/thread_pool.hh"
#include "gpu/config_file.hh"
#include "gpu/gpu_system.hh"
#include "obs/tx_tracer.hh"
#include "workloads/registry.hh"

namespace getm {

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    std::stringstream buffer;
    buffer << file.rdbuf();
    out = buffer.str();
    return true;
}

/** The meta fields every document of @p point carries. */
MetricsMeta
identityMeta(const SweepPoint &point)
{
    MetricsMeta meta;
    meta.bench = point.bench.token();
    meta.protocol = protocolName(point.protocol);
    meta.scale = point.scale;
    meta.seed = point.config.seed;
    meta.config = configProvenance(point.config);
    return meta;
}

/**
 * Duplicate ids would make two workers race on the same result files;
 * reject them before anything runs.
 */
bool
checkUniqueIds(const std::vector<SweepPoint> &points, std::string &error)
{
    std::map<std::string, unsigned> seen;
    for (const SweepPoint &point : points)
        if (++seen[point.id] == 2) {
            error = "manifest enumerates duplicate point id '" +
                    point.id + "'";
            return false;
        }
    return true;
}

/**
 * Render and write the merged document: fixed head, failures keyed
 * and sorted by id, then every per-point document from @p points_dir
 * spliced in id order. @p failures must already be sorted.
 */
bool
writeMergedDocument(const SweepManifest &manifest,
                    const std::vector<SweepPoint> &points,
                    const std::string &points_dir,
                    const std::vector<SweepFailure> &failures,
                    const std::string &out_path, std::string &error)
{
    std::vector<std::string> ids;
    for (const SweepPoint &point : points)
        ids.push_back(point.id);
    std::sort(ids.begin(), ids.end());

    JsonWriter w;
    w.beginObject();
    w.member("schema", sweepSchemaName);
    w.member("version", sweepSchemaVersion);
    w.key("sweep").beginObject();
    w.member("name", manifest.name());
    w.member("manifest_hash", hashHex(manifest.manifestHash()));
    w.member("num_points",
             static_cast<std::uint64_t>(points.size()));
    // Emitted only when something failed, so a clean sweep document
    // stays byte-identical to the pre-failure-isolation format.
    if (!failures.empty()) {
        w.member("num_failed",
                 static_cast<std::uint64_t>(failures.size()));
        w.key("failures").beginObject();
        for (const SweepFailure &f : failures)
            w.member(f.id, f.status);
        w.endObject();
    }
    w.endObject();
    w.key("points").beginObject();
    for (const std::string &id : ids) {
        std::string doc;
        if (!readFile(points_dir + "/" + id + ".json", doc)) {
            error = "missing point result for " + id;
            return false;
        }
        // Trust but verify: a corrupt per-point file must not produce
        // a corrupt merged document.
        std::string json_error;
        if (!jsonValidate(doc, json_error)) {
            error = "point " + id + ": " + json_error;
            return false;
        }
        w.key(id).rawValue(doc);
    }
    w.endObject();
    w.endObject();

    return writeTextFile(out_path, w.take() + "\n", error);
}

} // namespace

PointRun
runPoint(const SweepPoint &point,
         const std::function<void(const Workload &)> &before_run)
{
    GpuSystem gpu(point.config);
    auto workload = makeWorkload(point.bench, point.scale, point.config.seed);
    workload->setup(gpu, point.protocol == ProtocolKind::FgLock);
    if (before_run)
        before_run(*workload);

    PointRun out;
    RunResult &result = out.result;
    result = gpu.run(workload->kernel(), workload->numThreads(),
                     point.maxCycles);
    // Workloads without an address mapping leave every label empty, so
    // their documents keep their exact pre-label bytes.
    for (HotAddrRow &row : result.obs.hotAddrs)
        workload->addrInfo(row.addr, point.config.getmGranule, row.label);

    // A checker violation fails verification: the point ran, but its
    // execution was provably not serializable/opaque.
    const bool verified = workload->verify(gpu, out.why);
    const CheckReport &check = result.check;
    if (check.totalViolations && out.why.empty())
        out.why = "runtime checker reported violations";

    out.meta = identityMeta(point);
    MetricsMeta &meta = out.meta;
    meta.threads = workload->numThreads();
    meta.verified = verified && !check.totalViolations;
    meta.cycles = result.cycles;
    meta.commits = result.commits;
    meta.aborts = result.aborts;
    meta.txExecCycles = result.txExecCycles;
    meta.txWaitCycles = result.txWaitCycles;
    meta.xbarFlits = result.xbarFlits;
    meta.rollovers = result.rollovers;
    meta.maxLogicalTs = result.maxLogicalTs;
    if (check.totalViolations) {
        meta.checkLevel = checkLevelName(check.level);
        for (unsigned i = 0; i < numViolationKinds; ++i)
            if (check.byKind[i])
                meta.checkViolations.emplace_back(
                    violationKindName(static_cast<ViolationKind>(i)),
                    check.byKind[i]);
    }
    return out;
}

PointFailure
pointFailure(const SweepPoint &point, const std::exception &error)
{
    PointFailure out{identityMeta(point), {}};
    if (const auto *sim = dynamic_cast<const SimError *>(&error)) {
        out.failure.status = simErrorStatus(sim->kind());
        out.failure.kind = simErrorKindName(sim->kind());
        out.failure.message = sim->diagnostic().message;
        out.failure.diagnosticJson = sim->diagnostic().toJson();
    } else {
        out.failure.status = "error";
        out.failure.kind = "INTERNAL";
        out.failure.message = error.what();
    }
    return out;
}

bool
runSweep(const SweepManifest &manifest, const SweepOptions &options,
         SweepOutcome &outcome, std::string &error)
{
    outcome = SweepOutcome{};

    std::vector<SweepPoint> points;
    if (!manifest.enumerate(points, error))
        return false;
    if (points.empty()) {
        error = "manifest enumerates no points";
        return false;
    }
    if (!checkUniqueIds(points, error))
        return false;
    outcome.total = static_cast<unsigned>(points.size());
    if (options.traceTx)
        for (SweepPoint &point : points)
            point.config.traceTx = *options.traceTx;

    const std::string points_dir = options.dir + "/points";
    const std::string state_dir = options.dir + "/state";
    std::error_code fs_error;
    std::filesystem::create_directories(points_dir, fs_error);
    std::filesystem::create_directories(state_dir, fs_error);
    if (fs_error) {
        error = "cannot create " + options.dir + ": " +
                fs_error.message();
        return false;
    }

    const unsigned jobs = std::min(
        options.jobs ? options.jobs : ThreadPool::defaultThreads(),
        outcome.total);
    if (options.progress)
        std::fprintf(stderr, "getm-sweep: %s -> %s (%u worker%s)\n",
                     manifest.name().c_str(), options.dir.c_str(), jobs,
                     jobs == 1 ? "" : "s");

    std::mutex mtx; // Guards outcome counters, progress, first error.
    std::string worker_error;
    unsigned done = 0;
    const auto t0 = std::chrono::steady_clock::now();

    auto progress = [&](const char *verb, const SweepPoint &point,
                        const std::string &detail) {
        if (!options.progress)
            return;
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::fprintf(stderr, "[%3u/%3u %6.1fs] %-8s %s%s\n", done,
                     outcome.total, secs, verb, point.id.c_str(),
                     detail.c_str());
    };

    auto handlePoint = [&](const SweepPoint &point) {
        if (stopRequested()) {
            // Queued behind the stop: never started, nothing written;
            // the rerun picks it up.
            std::lock_guard<std::mutex> lock(mtx);
            outcome.interrupted = true;
            return;
        }

        const std::string json_path =
            points_dir + "/" + point.id + ".json";
        const std::string hash_path =
            state_dir + "/" + point.id + ".hash";
        const std::string hash = hashHex(point.specHash());

        if (!options.force) {
            std::string stored, doc, ignored;
            if (readFile(hash_path, stored) && stored == hash &&
                readFile(json_path, doc) &&
                jsonValidate(doc, ignored)) {
                std::lock_guard<std::mutex> lock(mtx);
                ++outcome.skipped;
                ++done;
                progress("resume", point, "");
                return;
            }
        }

        // Failures are isolated: the point records a failure document
        // and the sweep continues.
        bool verified = false;
        std::string doc;
        std::string trace_doc;
        MetricsFailure failure;
        bool failed = false;
        try {
            PointRun run = runPoint(point);
            verified = run.meta.verified;
            ObsReport &obs = run.result.obs;
            if (obs.txTrace.enabled) {
                trace_doc = txTraceToJson(obs.txTrace, point.id);
                // The trace lives in the side file only: stripping it
                // here keeps the per-point document -- and thus
                // sweep.json -- byte identical to an untraced sweep.
                obs.txTrace.enabled = false;
            }
            doc = metricsToJson(run.meta, run.result.stats, obs);
        } catch (const std::exception &e) {
            const auto *sim = dynamic_cast<const SimError *>(&e);
            if (sim && sim->kind() == SimErrorKind::Interrupt) {
                // A graceful stop is not a point failure: write no
                // document and no state hash, so the identical rerun
                // reruns this point.
                std::lock_guard<std::mutex> lock(mtx);
                outcome.interrupted = true;
                ++done;
                progress("stopped", point, "  (interrupted)");
                return;
            }
            failed = true;
            PointFailure pf = pointFailure(point, e);
            failure = pf.failure;
            doc = failureToJson(pf.meta, failure);
        }

        // A failed point stores a poisoned hash, so resume always
        // reruns it (the failure document stays inspectable
        // meanwhile); a successful point stores the real hash.
        std::string write_error;
        bool wrote =
            writeTextFile(json_path, doc, write_error) &&
            writeTextFile(hash_path, failed ? "failed " + hash : hash,
                          write_error);
        if (wrote && !failed && !trace_doc.empty())
            wrote = writeTextFile(points_dir + "/" + point.id +
                                      ".trace.json",
                                  trace_doc, write_error);

        std::lock_guard<std::mutex> lock(mtx);
        ++outcome.ran;
        ++done;
        if (failed) {
            ++outcome.failed;
            outcome.failures.push_back(
                SweepFailure{point.id, failure.status, failure.message});
        } else if (!verified) {
            ++outcome.unverified;
        }
        if (!wrote && worker_error.empty())
            worker_error = write_error;
        progress(failed ? "FAILED" : "ran", point,
                 failed ? "  (" + failure.status + ")"
                 : verified ? ""
                            : "  VERIFICATION FAILED");
    };

    if (jobs <= 1) {
        for (const SweepPoint &point : points)
            handlePoint(point);
    } else {
        ThreadPool pool(jobs);
        for (const SweepPoint &point : points)
            pool.submit([&handlePoint, &point] { handlePoint(point); });
        pool.wait();
    }

    if (!worker_error.empty()) {
        error = worker_error;
        return false;
    }

    // A graceful stop leaves the sweep partial: skip the merge (some
    // points have no documents yet) and let the caller report
    // 128+signal. The identical rerun resumes: completed points skip
    // by hash, interrupted points rerun from cycle 0.
    if (outcome.interrupted || stopRequested()) {
        outcome.interrupted = true;
        return true;
    }

    // Merge, keyed and sorted by id so the bytes are independent of
    // execution order and worker count.
    std::sort(outcome.failures.begin(), outcome.failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.id < b.id;
              });
    const std::string out_path = options.outPath.empty()
                                     ? options.dir + "/sweep.json"
                                     : options.outPath;
    return writeMergedDocument(manifest, points, points_dir,
                               outcome.failures, out_path, error);
}

} // namespace getm
