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
#include "obs/metrics.hh"
#include "obs/tx_tracer.hh"
#include "workloads/workload.hh"

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

bool
writeFile(const std::string &path, const std::string &content,
          std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    const bool ok =
        std::fwrite(content.data(), 1, content.size(), f) ==
        content.size();
    std::fclose(f);
    if (!ok)
        error = "short write to " + path;
    return ok;
}

/**
 * Simulate one point end to end and render its metrics document.
 * With @p trace_tx nonzero the run is traced and @p trace_doc receives
 * the standalone trace document; the returned metrics document stays
 * byte-identical to an untraced run (the InstrumentsInvisible guarantee is
 * what makes enabling tracing on an existing sweep safe).
 */
std::string
simulatePoint(const SweepPoint &point, std::uint64_t trace_tx,
              bool &verified, std::string &trace_doc)
{
    GpuConfig run_cfg = point.config;
    run_cfg.traceTx = trace_tx;
    GpuSystem gpu(run_cfg);
    auto workload = makeWorkload(point.bench, point.scale, point.seed);
    workload->setup(gpu, point.protocol == ProtocolKind::FgLock);
    RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(),
                point.maxCycles);

    // Label hot granules the workload can explain (zipf head keys, hot
    // accounts). Workloads without a mapping leave rows untouched, so
    // their documents keep their exact pre-label bytes.
    for (HotAddrRow &row : result.obs.hotAddrs)
        workload->addrInfo(row.addr, run_cfg.getmGranule, row.label);

    std::string why;
    verified = workload->verify(gpu, why);
    // A runtime-checker violation is a verification failure: the point
    // ran, but its execution was provably not serializable/opaque.
    if (result.check.totalViolations)
        verified = false;

    MetricsMeta meta;
    meta.bench = point.bench.token();
    meta.protocol = protocolName(point.protocol);
    meta.scale = point.scale;
    meta.seed = point.seed;
    meta.threads = workload->numThreads();
    meta.verified = verified;
    meta.cycles = result.cycles;
    meta.commits = result.commits;
    meta.aborts = result.aborts;
    meta.txExecCycles = result.txExecCycles;
    meta.txWaitCycles = result.txWaitCycles;
    meta.xbarFlits = result.xbarFlits;
    meta.rollovers = result.rollovers;
    meta.maxLogicalTs = result.maxLogicalTs;
    meta.config = configProvenance(point.config);
    if (result.check.totalViolations) {
        meta.checkLevel = checkLevelName(result.check.level);
        for (unsigned i = 0;
             i < static_cast<unsigned>(ViolationKind::Count); ++i)
            if (result.check.byKind[i])
                meta.checkViolations.emplace_back(
                    violationKindName(static_cast<ViolationKind>(i)),
                    result.check.byKind[i]);
    }
    if (result.obs.txTrace.enabled) {
        trace_doc = txTraceToJson(result.obs.txTrace, point.id);
        // The trace lives in the side file only: stripping it here
        // keeps the per-point document — and thus sweep.json — byte
        // identical to an untraced sweep.
        result.obs.txTrace.enabled = false;
    }
    return metricsToJson(meta, result.stats, result.obs);
}

/** Identity-only meta for a point that never produced a result. */
MetricsMeta
failureMeta(const SweepPoint &point)
{
    MetricsMeta meta;
    meta.bench = point.bench.token();
    meta.protocol = protocolName(point.protocol);
    meta.scale = point.scale;
    meta.seed = point.seed;
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
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          manifest.manifestHash()));
        w.member("manifest_hash", buf);
    }
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

    return writeFile(out_path, w.take() + "\n", error);
}

} // namespace

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

    const unsigned jobs =
        options.jobs ? options.jobs : ThreadPool::defaultThreads();

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

    auto runPoint = [&](const SweepPoint &point) {
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
        const std::string hash = point.specHashHex();

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
            doc = simulatePoint(point, options.traceTx, verified,
                                trace_doc);
        } catch (const SimError &e) {
            if (e.kind() == SimErrorKind::Interrupt) {
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
            failure.status = simErrorStatus(e.kind());
            failure.kind = simErrorKindName(e.kind());
            failure.message = e.diagnostic().message;
            failure.diagnosticJson = e.diagnostic().toJson();
        } catch (const std::exception &e) {
            failed = true;
            failure.status = "error";
            failure.kind = "INTERNAL";
            failure.message = e.what();
        }
        if (failed)
            doc = failureToJson(failureMeta(point), failure);

        // A failed point stores a poisoned hash, so resume always
        // reruns it (the failure document stays inspectable
        // meanwhile); a successful point stores the real hash.
        std::string write_error;
        bool wrote =
            writeFile(json_path, doc, write_error) &&
            writeFile(hash_path, failed ? "failed " + hash : hash,
                      write_error);
        if (wrote && !failed && !trace_doc.empty())
            wrote = writeFile(points_dir + "/" + point.id +
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
            runPoint(point);
    } else {
        ThreadPool pool(jobs);
        for (const SweepPoint &point : points)
            pool.submit([&runPoint, &point] { runPoint(point); });
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
