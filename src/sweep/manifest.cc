#include "sweep/manifest.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/fnv1a.hh"
#include "common/json.hh"
#include "gpu/config_file.hh"

namespace getm {

namespace {

/** A tx-warp limit no config text sets (`tx_warp_limit = 0` means
 *  unlimited): resolvePoint() gives it the Table IV optimum. */
constexpr unsigned limitUnchosen = 0;

/** Split on commas and/or whitespace; never returns empty tokens. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string token;
    for (const char ch : text + ",") {
        if (ch == ',' || ch == ' ' || ch == '\t') {
            if (!token.empty())
                out.push_back(token);
            token.clear();
        } else {
            token += ch;
        }
    }
    return out;
}

/** The canonical spelling of axis @p key's @p token, read back from
 *  the @p point it was applied to; point ids and hashes use it. */
std::string
axisToken(const std::string &key, const std::string &token,
          const SweepPoint &point)
{
    return key == "bench"      ? point.bench.token()
           : key == "protocol" ? protocolName(point.protocol)
           : key == "scale"    ? jsonNumber(point.scale)
           : key == "seed"     ? jsonNumber(point.config.seed)
                               : token;
}

} // namespace

bool
applyPointLine(const std::string &line, SweepPoint &point,
               std::string &error)
{
    const auto apply = [&](const std::string &key, const std::string &value,
                           const std::string &where) {
        const auto fail = [&](const std::string &why) {
            error = where + why;
            return false;
        };
        if (key == "bench") {
            std::string spec_error;
            return parseWorkloadSpec(value, point.bench, spec_error) ||
                   fail(spec_error);
        }
        if (key == "protocol") {
            const auto protocol = parseProtocol(value);
            if (!protocol)
                return fail("unknown protocol '" + value + "'");
            point.protocol = *protocol;
            return true;
        }
        if (key == "scale") {
            double scale;
            if (!parseReal(value, scale) || scale == 0 || std::isinf(scale))
                return fail("bad scale '" + value + "'");
            point.scale = scale;
            return true;
        }
        if (key == "max_cycles")
            return parseWholeNumber(value, point.maxCycles) ||
                   fail("bad max_cycles '" + value + "'");
        if (key == "concurrency" && value == "opt") {
            point.config.core.txWarpLimit = limitUnchosen;
            return true;
        }
        const std::string config_key =
            key == "concurrency" ? "tx_warp_limit" : key;
        std::string config_error;
        return applyConfigText(config_key + " = " + value, point.config,
                               config_error) ||
               fail(config_error);
    };
    return forEachConfigLine(line, error, apply);
}

GpuConfig
pointBaseConfig()
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.seed = 7;
    cfg.core.txWarpLimit = limitUnchosen;
    return cfg;
}

void
resolvePoint(SweepPoint &point, bool default_sampler)
{
    GpuConfig &cfg = point.config;
    cfg.protocol = point.protocol;
    if (cfg.core.txWarpLimit == limitUnchosen)
        cfg.core.txWarpLimit =
            optimalConcurrency(point.bench, point.protocol);
    if (default_sampler && cfg.sampleInterval == 0)
        cfg.sampleInterval = 512;
}

std::uint64_t
SweepPoint::specHash() const
{
    std::string spec = "getm-sweep-point v1\n";
    spec += "bench=" + bench.token() + "\n";
    // Parameter-bearing families fold their *resolved* parameters in
    // (defaults applied), so editing a registry default invalidates
    // exactly the points it affects. Parameter-free benches contribute
    // no lines here, keeping every pre-registry hash byte-identical.
    for (const auto &[key, value] : resolvedParams(bench))
        spec += "bench." + key + "=" + jsonNumber(value) + "\n";
    spec += "scale=" + jsonNumber(scale) + "\n";
    spec += "max_cycles=" + jsonNumber(maxCycles) + "\n";
    // configProvenance covers protocol, seed, tx_warp_limit and every
    // other knob that changes simulated behaviour.
    for (const auto &[key, value] : configProvenance(config))
        spec += key + "=" + value + "\n";
    return fnv1a64(spec);
}

std::string
hashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

const SweepManifest::Axis *
SweepManifest::findAxis(const std::string &key) const
{
    for (const Axis &axis : axes)
        if (axis.key == key)
            return &axis;
    return nullptr;
}

bool
SweepManifest::parse(const std::string &text,
                     const std::string &manifest_dir, std::string &error)
{
    *this = SweepManifest{};

    const auto parsed = [&](const std::string &key,
                            const std::string &value_text,
                            const std::string &at) {
        if (value_text.empty()) {
            error = at + "empty value for '" + key + "'";
            return false;
        }

        if (key == "name") {
            sweepName = value_text;
            return true;
        }
        if (key == "config") {
            baseConfig = value_text;
            baseConfigPath = manifest_dir.empty()
                                 ? value_text
                                 : manifest_dir + "/" + value_text;
            return true;
        }
        if (key == "max_cycles") {
            SweepPoint scratch;
            if (!applyPointLine(key + " = " + value_text, scratch, error)) {
                error = at + error;
                return false;
            }
            maxCycles = scratch.maxCycles;
            return true;
        }
        if (key == "tx_warp_limit") {
            error = at + "the concurrency axis sets every point's "
                         "'tx_warp_limit'; list the limits as "
                         "'concurrency = ...'";
            return false;
        }

        if (findAxis(key)) {
            error = at + "duplicate axis '" + key + "'";
            return false;
        }

        // Each token must apply to a point as it will in enumerate();
        // the axis keeps its canonical spelling.
        Axis axis;
        axis.key = key;
        for (const std::string &token : splitList(value_text)) {
            if (key == "bench" && token == "all") {
                // The paper's suite; OLTP benches are named explicitly
                // (workloads/registry.hh).
                for (const BenchId id : allBenchIds())
                    axis.values.push_back(benchName(id));
                continue;
            }
            SweepPoint scratch;
            if (!applyPointLine(key + " = " + token, scratch, error)) {
                error = at + error;
                return false;
            }
            axis.values.push_back(axisToken(key, token, scratch));
        }
        if (axis.values.empty()) {
            error = at + "axis '" + key + "' has no values";
            return false;
        }
        axes.push_back(std::move(axis));
        return true;
    };
    if (!forEachConfigLine(text, error, parsed))
        return false;

    if (sweepName.empty()) {
        error = "manifest lacks 'name ='";
        return false;
    }

    // Fill in defaults for the identity axes so enumeration can rely
    // on their presence. Single-value axes never widen the product.
    const std::pair<const char *, const char *> defaults[] = {
        {"bench", "HT-H"},   {"protocol", "getm"}, {"scale", "0.25"},
        {"seed", "7"},       {"concurrency", "opt"},
    };
    for (const auto &[key, value] : defaults)
        if (!findAxis(key))
            axes.push_back(Axis{key, {value}});
    return true;
}

bool
SweepManifest::load(const std::string &path, std::string &error)
{
    std::ifstream file(path);
    if (!file) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : path.substr(0, slash);
    if (!parse(buffer.str(), dir, error))
        return false;
    if (baseConfigPath.empty())
        return true;

    // The seed and concurrency axes set every point's seed and tx-warp
    // limit, so either in the base config would be ignored. Loaded over
    // two different seeds, a file that sets one ends both loads on the
    // same value.
    GpuConfig zero = pointBaseConfig(), one = zero;
    zero.seed = 0;
    one.seed = 1;
    if (!loadConfigFile(baseConfigPath, zero, error) ||
        !loadConfigFile(baseConfigPath, one, error))
        return false;
    if (zero.seed == one.seed) {
        error = "config " + baseConfig + " sets 'seed', which the "
                "manifest's seed axis overrides; list the seeds as "
                "'seed = ...' in the manifest";
        return false;
    }
    if (zero.core.txWarpLimit != limitUnchosen) {
        error = "config " + baseConfig + " sets 'tx_warp_limit', which "
                "the manifest's concurrency axis overrides; list the "
                "limits as 'concurrency = ...' in the manifest";
        return false;
    }
    return true;
}

std::uint64_t
SweepManifest::manifestHash() const
{
    std::string spec = "getm-sweep-manifest v1\n";
    spec += "name=" + sweepName + "\n";
    spec += "config=" + baseConfig + "\n";
    spec += "max_cycles=" + jsonNumber(maxCycles) + "\n";
    for (const Axis &axis : axes) {
        // Tracing writes side files only, never a byte of sweep.json.
        if (axis.key == "trace_tx")
            continue;
        spec += axis.key + "=";
        for (const std::string &value : axis.values)
            spec += value + ",";
        spec += "\n";
    }
    return fnv1a64(spec);
}

bool
SweepManifest::enumerate(std::vector<SweepPoint> &points,
                         std::string &error) const
{
    points.clear();

    GpuConfig base = pointBaseConfig();
    if (!baseConfigPath.empty() &&
        !loadConfigFile(baseConfigPath, base, error))
        return false;

    // Odometer over the axes, in declaration order (last axis fastest).
    std::vector<std::size_t> index(axes.size(), 0);
    for (;;) {
        SweepPoint point;
        point.config = base;
        point.maxCycles = maxCycles;
        std::string id_suffix;

        for (std::size_t a = 0; a < axes.size(); ++a) {
            const Axis &axis = axes[a];
            const std::string &value = axis.values[index[a]];
            if (!applyPointLine(axis.key + " = " + value, point, error)) {
                error = "axis " + axis.key + ": " + error;
                return false;
            }
            if (axis.values.size() > 1 && axis.key != "bench" &&
                axis.key != "protocol")
                id_suffix += "+" + axis.key + "=" + value;
        }

        // Every point exports a metrics document; default the sampler
        // on (as `getm-sim --metrics` does) unless the manifest takes
        // explicit control of the interval.
        resolvePoint(point, !findAxis("sample_interval"));

        point.id = point.bench.token() + "+" +
                   protocolName(point.protocol) + id_suffix;
        points.push_back(std::move(point));

        // Tick the odometer.
        std::size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++index[a] < axes[a].values.size())
                break;
            index[a] = 0;
            if (a == 0)
                return true;
        }
        if (axes.empty())
            return true;
    }
}

} // namespace getm
