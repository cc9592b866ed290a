/**
 * @file
 * Plain-text configuration files for GpuConfig.
 *
 * A config file is a list of `key = value` lines (with `#` comments),
 * mirroring how GPGPU-Sim experiments are driven by gpgpusim.config
 * files. Unknown keys are an error -- silently ignored typos are how
 * simulation studies go wrong. Supported keys cover everything the
 * evaluation sweeps:
 *
 *     # Table II baseline, GETM at 64 B granularity
 *     cores = 15
 *     partitions = 6
 *     warps_per_core = 48
 *     tx_warp_limit = 8
 *     llc_kb_per_partition = 128
 *     llc_latency = 330
 *     getm_granule = 64
 *     getm_precise_entries = 4096
 *     getm_bloom_entries = 1024
 *     getm_max_registers = 0
 *     wtm_tcd_entries = 2048
 *     rollover_threshold = 0        # 0 = disabled
 *     seed = 7
 */

#ifndef GETM_GPU_CONFIG_FILE_HH
#define GETM_GPU_CONFIG_FILE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gpu/gpu_config.hh"

namespace getm {

/** Sees one `key = value` line; @p where is its "line N: " prefix for
 *  diagnostics ("" when the text is one line without a newline).
 *  Returns false, with the caller's error set, to stop. */
using ConfigLineFn = std::function<bool(
    const std::string &key, const std::string &value,
    const std::string &where)>;

/**
 * Read @p text as a whole number, as every numeric config key does:
 * decimal, 0x hex or 0 octal digits, no sign or space, at most @p max.
 * @return false, leaving @p value alone, if it is not one.
 */
bool parseWholeNumber(
    const std::string &text, std::uint64_t &value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** Read @p text as a non-negative real, as inject_prob and timeout_sec
 *  are read; false, leaving @p value alone, if it is not one. */
bool parseReal(const std::string &text, double &value);

/**
 * Walk @p text in config-file syntax: strip `#` comments, skip blank
 * lines, split every other line at its first `=` and trim both sides.
 * Sweep manifests use the same syntax.
 * @return false at the first line without `=` (with @p error set) or
 *         the first line @p fn rejects.
 */
bool forEachConfigLine(const std::string &text, std::string &error,
                       const ConfigLineFn &fn);

/**
 * Apply `key = value` lines from @p text onto @p cfg.
 * @param error Filled with a diagnostic on failure.
 * @return false on parse error or unknown key.
 */
bool applyConfigText(const std::string &text, GpuConfig &cfg,
                     std::string &error);

/** Load @p path and apply it onto @p cfg. */
bool loadConfigFile(const std::string &path, GpuConfig &cfg,
                    std::string &error);

/**
 * Sanity-check @p cfg for values that would misbehave downstream
 * (zero core/partition/warp counts, zero line/granule sizes, a
 * degenerate Backoff::Config). Called at the end of applyConfigText()
 * so bad files are rejected at load time, and by the GpuSystem
 * constructor (which turns a failure into SimError CONFIG) so
 * programmatic configs get the same screening.
 *
 * @return false with @p error describing the first offending value.
 */
bool validateGpuConfig(const GpuConfig &cfg, std::string &error);

/**
 * Flatten @p cfg into ordered key/value pairs using the same key names
 * the config-file parser accepts (plus the protocol). This is the
 * config-provenance block of the exported metrics document: feeding the
 * values back through a config file reproduces the run's machine
 * (`ConfigFile.ProvenanceRoundTrips` in tests/test_config_file.cc
 * checks this for every key). The keys that only check, trace or guard
 * a run (check, inject, inject_prob, trace_tx, watchdog_cycles,
 * timeout_sec) are left out.
 */
std::vector<std::pair<std::string, std::string>>
configProvenance(const GpuConfig &cfg);

} // namespace getm

#endif // GETM_GPU_CONFIG_FILE_HH
