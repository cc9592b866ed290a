/**
 * @file
 * Declarative sweep manifests: enumerate (config x workload x protocol)
 * simulation points from one `key = value` file.
 *
 * A manifest reuses the config-file syntax (`#` comments, `key =
 * value`) but any axis key may carry a comma- or space-separated list
 * of values; the sweep is the cross product of every axis, in the
 * order the axes appear in the file. Example:
 *
 *     # configs/sweeps/fig14_sensitivity.sweep
 *     name = fig14-sensitivity
 *     scale = 1.0
 *     bench = HT-H HT-M HT-L ATM BH
 *     protocol = getm
 *     getm_precise_entries = 2048 4096 8192
 *
 * Recognized keys:
 *
 *   name          sweep identity (required; stamped into sweep.json)
 *   config        base GpuConfig file applied to every point, resolved
 *                 relative to the manifest's directory
 *   bench         axis: workload specs — Table III names, `all` (= the
 *                 nine paper benches), or parameterized tokens like
 *                 `YCSB:theta=0.95` (colon-separated key=value pairs;
 *                 see workloads/registry.hh). Default HT-H
 *   protocol      axis: getm warptm warptm-el eapg fglock (def. getm)
 *   scale         axis: workload scale factors (default 0.25)
 *   seed          axis: workload/GPU seeds (default 7)
 *   concurrency   axis: tx warps/core, the `tx_warp_limit` key; `opt` =
 *                 the Table IV optimum for each (bench, protocol),
 *                 0 = unlimited (def. opt)
 *   max_cycles    per-point simulation safety bound (scalar)
 *   <config key>  axis: any `gpu/config_file.hh` key (getm_granule,
 *                 cores, llc_latency, ...) with one or more values,
 *                 except `tx_warp_limit`, which the concurrency axis
 *                 sets
 *
 * Every point gets a stable, filesystem-safe id: the bench spec token
 * and protocol joined with `+`, followed by one `key=value` token per
 * axis that has more than one value in the manifest (so single-value
 * axes keep ids short). Examples: `HT-H+getm+getm_precise_entries=2048`,
 * `YCSB:theta=0.95+getm` (`:` and `=` are legal in POSIX file names).
 *
 * Points also carry a 64-bit FNV-1a hash over their *resolved*
 * specification (bench, protocol, scale, seed, thread count is
 * excluded -- it derives from scale -- plus the full flattened
 * GpuConfig provenance and the metrics schema version). The hash is
 * what makes sweeps resumable: a completed point is skipped on rerun
 * iff its stored hash still matches, so editing a default or a config
 * axis invalidates exactly the points it affects.
 */

#ifndef GETM_SWEEP_MANIFEST_HH
#define GETM_SWEEP_MANIFEST_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpu/gpu_config.hh"
#include "workloads/registry.hh"

namespace getm {

/** One fully resolved simulation point of a sweep. */
struct SweepPoint
{
    std::string id;        ///< Stable filesystem-safe identity.
    WorkloadSpec bench;
    ProtocolKind protocol;
    double scale = 0.25;
    std::uint64_t seed = 7;
    std::uint64_t maxCycles = 2'000'000'000ull;
    /** Complete GPU configuration for this point: protocol, seed and
     *  the resolved tx-warp limit folded in (see resolvePoint()). */
    GpuConfig config;

    /** Resume hash over the resolved spec (see file comment). */
    std::uint64_t specHash() const;
    /** specHash() as fixed-width hex, as stored in state files. */
    std::string specHashHex() const;
};

/** A parsed manifest: axes in declaration order. */
class SweepManifest
{
  public:
    /**
     * Parse manifest @p text. @p manifest_dir anchors relative
     * `config =` paths (pass the manifest file's directory, or "" for
     * the working directory).
     * @return false with @p error set on syntax errors, unknown keys,
     *         unknown bench/protocol names, empty axes or a
     *         `tx_warp_limit` axis.
     */
    bool parse(const std::string &text, const std::string &manifest_dir,
               std::string &error);

    /**
     * Load @p path and parse it, then load its base config: false with
     * @p error set if that fails or sets `seed` or `tx_warp_limit` (the
     * seed and concurrency axes set them for every point).
     */
    bool load(const std::string &path, std::string &error);

    /**
     * Cross-product every axis into concrete points, in manifest
     * declaration order (row-major, later axes fastest).
     * @return false with @p error set if a base/axis config key fails
     *         to apply.
     */
    bool enumerate(std::vector<SweepPoint> &points,
                   std::string &error) const;

    const std::string &name() const { return sweepName; }

    /**
     * FNV-1a hash of the manifest's canonical axis spec. It covers the
     * `config =` value as written, not as anchored, so it does not
     * depend on the path the manifest was loaded by.
     */
    std::uint64_t manifestHash() const;

  private:
    struct Axis
    {
        std::string key;
        std::vector<std::string> values; ///< Raw tokens, validated.
    };

    const Axis *findAxis(const std::string &key) const;

    std::string sweepName;
    std::string baseConfig;     ///< `config =` as written; "" = none.
    std::string baseConfigPath; ///< baseConfig anchored for loading.
    std::uint64_t maxCycles = 2'000'000'000ull;
    std::vector<Axis> axes; ///< Declaration order, including defaults.
};

/**
 * The config every point starts from, before config files, flags and
 * axes: GpuConfig::gtx480() with seed 7 and no tx-warp limit chosen
 * yet (resolvePoint() chooses one before the point runs).
 */
GpuConfig pointBaseConfig();

/**
 * Finish @p point for a run, as getm-sim and getm-sweep both do: fold
 * the protocol into its config, take the point's seed from the config,
 * give a tx-warp limit that no config text, flag or axis chose the
 * Table IV optimum for the bench and protocol, and, when
 * @p default_sampler is set, turn a sampler that is off on at 512
 * cycles (a metrics document without time-series is half a document).
 */
void resolvePoint(SweepPoint &point, bool default_sampler);

} // namespace getm

#endif // GETM_SWEEP_MANIFEST_HH
