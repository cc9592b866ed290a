/**
 * @file
 * The sweep runner: executes every point of a manifest on a worker
 * pool and merges the per-point metrics into one sweep document. It
 * does five things: run the points on `jobs` workers (no more than
 * there are points), skip finished points by spec hash, isolate a
 * failed point into a failure document, stop cleanly on SIGINT/SIGTERM,
 * and write one sorted, byte-deterministic sweep.json.
 *
 * Each point is one fully isolated in-process simulation (its own
 * GpuSystem, workload, and stats; the library keeps no mutable global
 * state -- see docs/SWEEPS.md "Concurrency audit"), so N points run
 * concurrently on N threads and produce bit-identical results to a
 * serial run.
 *
 * On-disk layout under SweepOptions::dir:
 *
 *     points/<id>.json       the point's getm-metrics document
 *     points/<id>.trace.json the point's tx trace (tracing runs only)
 *     state/<id>.hash        the point's resolved spec hash (hex)
 *     sweep.json             the merged document (schema getm-sweep)
 *
 * Resume: a point is skipped when its state/<id>.hash content equals
 * the freshly computed hash and points/<id>.json still validates as
 * JSON. Any change to the point's resolved configuration (manifest
 * edit, new default, different base config) changes the hash and
 * forces a rerun of exactly the affected points. A failed point
 * stores a poisoned hash ("failed <hash>"), so it always reruns. A
 * point cut by a stop stores nothing and reruns from cycle 0: the
 * longest figure point takes seconds, so no per-point checkpoint is
 * kept.
 *
 * The merged document embeds every per-point metrics document
 * verbatim under "points", keyed and sorted by point id, so its bytes
 * depend only on the set of point results -- never on worker count or
 * completion order. `sweep_determinism_check` (ctest) asserts this.
 */

#ifndef GETM_SWEEP_RUNNER_HH
#define GETM_SWEEP_RUNNER_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "gpu/run_result.hh"
#include "obs/metrics.hh"
#include "obs/schema_version.hh"
#include "sweep/manifest.hh"

namespace getm {

class Workload;

/** What one simulated point produced. */
struct PointRun
{
    RunResult result;
    MetricsMeta meta; ///< Every field, filled from result.
    std::string why;  ///< Why verification failed; "" if it passed.
};

/**
 * Run one point end to end, for the sweep and for getm-sim alike, so
 * the same spec gives the same metrics document from either driver:
 * build the GpuSystem, set up the workload, run it, label the hot
 * addresses the workload can explain, verify (a checker violation
 * fails verification) and fill the meta. @p before_run, when set, sees
 * the set-up workload just before the kernel starts.
 * @throws SimError on a typed simulation failure.
 */
PointRun runPoint(
    const SweepPoint &point,
    const std::function<void(const Workload &)> &before_run = {});

/** The failure document's identity-only meta and typed failure. */
struct PointFailure
{
    MetricsMeta meta;
    MetricsFailure failure;
};

/** Describe @p point ended by @p error; an exception other than a
 *  SimError is status "error", kind "INTERNAL". */
PointFailure pointFailure(const SweepPoint &point,
                          const std::exception &error);

/** Sweep execution knobs (the getm-sweep CLI maps onto this 1:1). */
struct SweepOptions
{
    std::string dir = "sweep-out"; ///< Working directory (created).
    std::string outPath;           ///< Merged doc; "" = <dir>/sweep.json.
    unsigned jobs = 0;             ///< Workers; 0 = hardware threads.
    bool force = false;            ///< Ignore resume state, rerun all.
    bool progress = true;          ///< Per-point progress on stderr.

    /**
     * When set, trace every Nth transaction of every point (0 = off)
     * in place of the manifest's `trace_tx`. Tracing changes no point
     * id, spec hash or byte of the merged sweep.json; each point whose
     * resolved `trace_tx` is nonzero also writes
     * points/<id>.trace.json.
     */
    std::optional<std::uint64_t> traceTx;
};

/** One point that ended in a typed simulation failure. */
struct SweepFailure
{
    std::string id;      ///< Point id.
    std::string status;  ///< "deadlock", "livelock", "timeout", ...
    std::string message; ///< The failure's one-line description.
};

/** What happened, for reporting and tests. */
struct SweepOutcome
{
    unsigned total = 0;    ///< Points enumerated.
    unsigned ran = 0;      ///< Simulated this invocation.
    unsigned skipped = 0;  ///< Resumed from matching state.
    unsigned unverified = 0; ///< Ran but failed workload verification.
    unsigned failed = 0;   ///< Ended in a typed simulation failure.
    std::vector<SweepFailure> failures; ///< One row per failed point.

    /**
     * A SIGINT/SIGTERM stop was honoured: in-flight points wound down
     * at their next cycle boundary, queued points never started, and
     * no merged document was produced. Completed per-point results are
     * on disk, so the identical rerun skips them and reruns the rest
     * from cycle 0.
     */
    bool interrupted = false;
};

/** Current getm-sweep merged-document schema (version in
 *  obs/schema_version.hh, shared with tools/check_metrics.py). */
inline constexpr const char *sweepSchemaName = "getm-sweep";

/**
 * Run @p manifest under @p options: enumerate, execute (or resume)
 * every point, and write the merged document.
 *
 * Simulation pathologies (SimError: deadlock, livelock, cycle limit,
 * wall timeout, bad config) are isolated per point: the point is
 * recorded as a failure document (getm-metrics with a "failure"
 * section) in points/<id>.json while the rest of the sweep continues.
 * A point runs once: the simulation is deterministic, so a rerun of
 * a deadlock, livelock or cycle-limit failure repeats it exactly.
 * Failed points store a poisoned state hash, so a resumed sweep
 * always reruns exactly them. Successful points are byte-identical to
 * a failure-free sweep.
 *
 * @return false with @p error set on enumeration or I/O failure.
 *         Workload verification failures do not fail the sweep; they
 *         are counted in @p outcome and flagged per point in the
 *         metrics (`meta.verified`). Typed simulation failures are
 *         likewise counted (`failed`, `failures`) without failing the
 *         sweep; callers decide the exit status.
 */
bool runSweep(const SweepManifest &manifest, const SweepOptions &options,
              SweepOutcome &outcome, std::string &error);

} // namespace getm

#endif // GETM_SWEEP_RUNNER_HH
