#include "gpu/config_file.hh"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "check/fault.hh"
#include "check/violation.hh"

namespace getm {

namespace {

std::string
trim(const std::string &text)
{
    const auto begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

// How a key's text becomes its field and, for provenance, back.

/**
 * A whole number (parseWholeNumber()) times @p unit (1024 for
 * kilobytes) that fits its field. With @p zeroIsNever, 0
 * means never (unlimited, disabled): the field's largest value.
 */
template <std::uint64_t unit, bool zeroIsNever = false>
struct Num
{
    template <class T>
    static bool
    parse(const std::string &text, T &field)
    {
        constexpr std::uint64_t max = std::numeric_limits<T>::max();
        std::uint64_t value;
        if (!parseWholeNumber(text, value, max / unit))
            return false;
        field = static_cast<T>(zeroIsNever && !value ? max : value * unit);
        return true;
    }

    template <class T>
    static std::string
    format(T field)
    {
        if (zeroIsNever && field == std::numeric_limits<T>::max())
            return "0";
        return std::to_string(field / unit);
    }
};

using Plain = Num<1>;
using Kib = Num<1024>;
using ZeroIsNever = Num<1, true>;

/** A name @p Parse knows (a check level, a fault), stored as its
 *  number. */
template <class Enum, bool (*Parse)(const std::string &, Enum &)>
struct Named
{
    static bool
    parse(const std::string &text, unsigned &field)
    {
        Enum value;
        if (!Parse(text, value))
            return false;
        field = static_cast<unsigned>(value);
        return true;
    }
};

/** A non-negative real (parseReal()); validateGpuConfig() bounds it
 *  further. */
struct Real
{
    static constexpr auto parse = parseReal;
};

/** One config key: its name, how its text sets its field and, for a
 *  key in the provenance block, how the field prints back. */
struct Key
{
    const char *name;
    bool (*set)(GpuConfig &, const std::string &);
    std::string (*get)(const GpuConfig &); ///< nullptr: not provenance.
};

/**
 * A key that checks, traces or guards a run without changing its
 * simulated behaviour. It stays out of configProvenance(), so turning
 * it on changes neither a run's reported config nor a sweep spec hash.
 * @p Field is the member path to the field, outermost first.
 */
template <class Conv, auto... Field>
constexpr Key
setting(const char *name)
{
    return {name,
            [](GpuConfig &cfg, const std::string &text) {
                return Conv::parse(text, (cfg .* ... .* Field));
            },
            nullptr};
}

/** A key that shapes the simulated machine, listed in provenance. */
template <class Conv, auto... Field>
constexpr Key
key(const char *name)
{
    Key k = setting<Conv, Field...>(name);
    k.get = [](const GpuConfig &cfg) {
        return Conv::format((cfg .* ... .* Field));
    };
    return k;
}

using C = GpuConfig;

/**
 * Every config key, each named once. configProvenance() lists the
 * provenance keys in this order, and sweep spec hashes and the
 * checkpoint config hash fold that order in.
 */
constexpr Key keys[] = {
    key<Plain, &C::numCores>("cores"),
    key<Plain, &C::numPartitions>("partitions"),
    key<Plain, &C::core, &CoreConfig::maxWarps>("warps_per_core"),
    key<ZeroIsNever, &C::core, &CoreConfig::txWarpLimit>("tx_warp_limit"),
    key<Plain, &C::core, &CoreConfig::issueWidth>("issue_width"),
    key<Kib, &C::core, &CoreConfig::l1Bytes>("l1_kb"),
    key<Kib, &C::llcBytesPerPartition>("llc_kb_per_partition"),
    key<Plain, &C::llcLatency>("llc_latency"),
    key<Plain, &C::lineBytes>("line_bytes"),
    key<Plain, &C::xbar, &CrossbarTiming::Config::latency>("xbar_latency"),
    key<Plain, &C::xbar, &CrossbarTiming::Config::flitBytes>(
        "xbar_flit_bytes"),
    key<Plain, &C::dram, &DramModel::Config::accessLatency>("dram_latency"),
    key<Plain, &C::dram, &DramModel::Config::rowHitLatency>(
        "dram_row_hit_latency"),
    key<Plain, &C::dram, &DramModel::Config::numBanks>("dram_banks"),
    key<Plain, &C::getmGranule>("getm_granule"),
    key<Plain, &C::getmPreciseEntriesTotal>("getm_precise_entries"),
    key<Plain, &C::getmBloomEntriesTotal>("getm_bloom_entries"),
    key<Plain, &C::getmUseMaxRegisters>("getm_max_registers"),
    key<Plain, &C::getmStall, &StallBuffer::Config::lines>(
        "getm_stall_lines"),
    key<Plain, &C::getmStall, &StallBuffer::Config::entriesPerLine>(
        "getm_stall_entries"),
    key<Plain, &C::wtm, &WtmPartitionConfig::tcdEntries>("wtm_tcd_entries"),
    key<ZeroIsNever, &C::rolloverThreshold>("rollover_threshold"),
    key<Plain, &C::sampleInterval>("sample_interval"),
    key<Plain, &C::hotAddrTopN>("hot_addrs"),
    key<Plain, &C::seed>("seed"),
    setting<Plain, &C::traceTx>("trace_tx"),
    setting<Plain, &C::watchdogCycles>("watchdog_cycles"),
    setting<Named<CheckLevel, parseCheckLevel>, &C::checkLevel>("check"),
    setting<Named<FaultKind, parseFaultKind>, &C::injectFault>("inject"),
    setting<Real, &C::injectProb>("inject_prob"),
    setting<Real, &C::timeoutSec>("timeout_sec"),
};

} // namespace

bool
parseWholeNumber(const std::string &text, std::uint64_t &value,
                 std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t parsed = std::strtoull(text.c_str(), &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || parsed > max)
        return false;
    value = parsed;
    return true;
}

bool
parseReal(const std::string &text, double &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(parsed >= 0.0))
        return false;
    value = parsed;
    return true;
}

bool
forEachConfigLine(const std::string &text, std::string &error,
                  const ConfigLineFn &fn)
{
    // A flag value or a manifest axis token is one line without a
    // newline; its caller, not the text, knows where it came from.
    const bool one_line = text.find('\n') == std::string::npos;
    std::istringstream in(text);
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto comment = line.find('#');
        if (comment != std::string::npos)
            line.erase(comment);
        line = trim(line);
        if (line.empty())
            continue;
        const std::string where =
            one_line ? "" : "line " + std::to_string(line_no) + ": ";
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            error = where + "expected 'key = value'";
            return false;
        }
        if (!fn(trim(line.substr(0, eq)), trim(line.substr(eq + 1)), where))
            return false;
    }
    return true;
}

bool
applyConfigText(const std::string &text, GpuConfig &cfg,
                std::string &error)
{
    const auto apply = [&](const std::string &name,
                           const std::string &value,
                           const std::string &where) {
        for (const Key &k : keys) {
            if (name != k.name)
                continue;
            if (k.set(cfg, value))
                return true;
            error = where + "bad value for '" + name + "'";
            return false;
        }
        error = where + "unknown key '" + name + "'";
        return false;
    };
    return forEachConfigLine(text, error, apply) &&
           validateGpuConfig(cfg, error);
}

bool
validateGpuConfig(const GpuConfig &cfg, std::string &error)
{
    const auto reject = [&error](const std::string &why) {
        error = "invalid config: " + why;
        return false;
    };
    if (cfg.numCores == 0)
        return reject("cores must be nonzero");
    if (cfg.numPartitions == 0)
        return reject("partitions must be nonzero");
    if (cfg.core.maxWarps == 0)
        return reject("warps_per_core must be nonzero");
    if (cfg.core.issueWidth == 0)
        return reject("issue_width must be nonzero");
    if (cfg.lineBytes == 0)
        return reject("line_bytes must be nonzero");
    if (cfg.getmGranule == 0)
        return reject("getm_granule must be nonzero");
    if (cfg.core.backoff.baseWindow == 0)
        return reject("backoff base window must be nonzero");
    if (cfg.core.backoff.maxWindow < cfg.core.backoff.baseWindow)
        return reject("backoff max window smaller than base window");
    if (cfg.injectProb < 0.0 || cfg.injectProb > 1.0)
        return reject("inject_prob must be within [0, 1]");
    if (cfg.timeoutSec < 0.0)
        return reject("timeout_sec must be non-negative");
    return true;
}

bool
loadConfigFile(const std::string &path, GpuConfig &cfg,
               std::string &error)
{
    std::ifstream file(path);
    if (!file) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    return applyConfigText(buffer.str(), cfg, error);
}

std::vector<std::pair<std::string, std::string>>
configProvenance(const GpuConfig &cfg)
{
    std::vector<std::pair<std::string, std::string>> out;
    out.emplace_back("protocol", protocolName(cfg.protocol));
    for (const Key &k : keys)
        if (k.get)
            out.emplace_back(k.name, k.get(cfg));
    return out;
}

} // namespace getm
