/**
 * @file
 * The sweep runner: executes every point of a manifest on a worker
 * pool and merges the per-point metrics into one sweep document.
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
 * forces a rerun of exactly the affected points.
 *
 * The merged document embeds every per-point metrics document
 * verbatim under "points", keyed and sorted by point id, so its bytes
 * depend only on the set of point results -- never on worker count or
 * completion order. `sweep_determinism_check` (ctest) asserts this.
 */

#ifndef GETM_SWEEP_RUNNER_HH
#define GETM_SWEEP_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/schema_version.hh"
#include "sweep/manifest.hh"

namespace getm {

/** Sweep execution knobs (the getm-sweep CLI maps onto this 1:1). */
struct SweepOptions
{
    std::string dir = "sweep-out"; ///< Working directory (created).
    std::string outPath;           ///< Merged doc; "" = <dir>/sweep.json.
    unsigned jobs = 0;             ///< Workers; 0 = hardware threads.
    bool force = false;            ///< Ignore resume state, rerun all.
    bool progress = true;          ///< Per-point progress on stderr.

    /**
     * Trace every Nth transaction of every point (0 = off). Applied
     * after enumeration, so point ids, spec hashes, and the merged
     * sweep.json stay byte-identical to an untraced run; each traced
     * point additionally writes points/<id>.trace.json.
     */
    std::uint64_t traceTx = 0;

    /**
     * Deterministic manifest partitioning (docs/DURABILITY.md): with
     * shardCount > 0, run only the points whose enumeration index i
     * satisfies i % shardCount == shardIndex. Enumeration order is a
     * pure function of the manifest, so the same `--shard i/N` always
     * names the same points on every host; mergeSweep() reassembles
     * the byte-identical single-process sweep.json from the shards'
     * working directories.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 0; ///< 0 = unsharded.

    /**
     * Per-point crash-resume: checkpoint each point's machine every N
     * simulated cycles (0 = off) into DIR/ckpt/<id>. A rerun or a
     * retry whose snapshot directory holds a completed checkpoint
     * restores from it instead of re-simulating from cycle 0, and a
     * point that dies in a typed SimError parks its final snapshot
     * next to the failure document (points/<id>.final.ckpt). Like
     * traceTx, excluded from provenance, so spec hashes and every
     * emitted document are unchanged by the cadence.
     */
    std::uint64_t ckptEvery = 0;
};

/** One point that ended in a typed simulation failure. */
struct SweepFailure
{
    std::string id;      ///< Point id.
    std::string status;  ///< "deadlock", "livelock", "timeout", ...
    std::string message; ///< The failure's one-line description.
    unsigned attempts = 1; ///< Tries made (1 + granted retries).
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
     * at their next cycle boundary (final checkpoints written when
     * enabled), queued points never started, and no merged document
     * was produced. Completed per-point results are on disk, so the
     * identical rerun resumes where the stop landed.
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
 * retried up to the manifest's `retries` budget with a
 * deterministically reseeded workload, and if every attempt fails it
 * is recorded as a failure document (getm-metrics with a "failure"
 * section) in points/<id>.json while the rest of the sweep continues.
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

/**
 * Reassemble the merged document of @p manifest from the working
 * directories of completed shard runs (`--merge`): every enumerated
 * point's points/<id>.json is located across @p shard_dirs (searched
 * in order), validated, and spliced with the exact head and ordering
 * runSweep() uses — so the output is byte-identical to the
 * single-process sweep.json. Writes to options.outPath (or
 * options.dir + "/sweep.json").
 *
 * @return false with @p error set when a point's document is missing
 *         from every shard directory or fails validation. Failure
 *         documents are counted in @p outcome like a live run.
 */
bool mergeSweep(const SweepManifest &manifest, const SweepOptions &options,
                const std::vector<std::string> &shard_dirs,
                SweepOutcome &outcome, std::string &error);

} // namespace getm

#endif // GETM_SWEEP_RUNNER_HH
