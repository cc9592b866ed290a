#include "gpu/config_file.hh"

#include <cstdint>
#include <cstdlib>
#include <fstream>
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

bool
applyKey(GpuConfig &cfg, const std::string &key, std::uint64_t value)
{
    if (key == "cores")
        cfg.numCores = static_cast<unsigned>(value);
    else if (key == "partitions")
        cfg.numPartitions = static_cast<unsigned>(value);
    else if (key == "warps_per_core")
        cfg.core.maxWarps = static_cast<unsigned>(value);
    else if (key == "tx_warp_limit")
        cfg.core.txWarpLimit =
            value == 0 ? 0xffffffffu : static_cast<unsigned>(value);
    else if (key == "issue_width")
        cfg.core.issueWidth = static_cast<unsigned>(value);
    else if (key == "l1_kb")
        cfg.core.l1Bytes = value * 1024;
    else if (key == "llc_kb_per_partition")
        cfg.llcBytesPerPartition = value * 1024;
    else if (key == "llc_latency")
        cfg.llcLatency = value;
    else if (key == "line_bytes")
        cfg.lineBytes = static_cast<unsigned>(value);
    else if (key == "xbar_latency")
        cfg.xbar.latency = value;
    else if (key == "xbar_flit_bytes")
        cfg.xbar.flitBytes = static_cast<unsigned>(value);
    else if (key == "dram_latency")
        cfg.dram.accessLatency = value;
    else if (key == "dram_row_hit_latency")
        cfg.dram.rowHitLatency = value;
    else if (key == "dram_banks")
        cfg.dram.numBanks = static_cast<unsigned>(value);
    else if (key == "getm_granule")
        cfg.getmGranule = static_cast<unsigned>(value);
    else if (key == "getm_precise_entries")
        cfg.getmPreciseEntriesTotal = static_cast<unsigned>(value);
    else if (key == "getm_bloom_entries")
        cfg.getmBloomEntriesTotal = static_cast<unsigned>(value);
    else if (key == "getm_max_registers")
        cfg.getmUseMaxRegisters = value != 0;
    else if (key == "getm_stall_lines")
        cfg.getmStall.lines = static_cast<unsigned>(value);
    else if (key == "getm_stall_entries")
        cfg.getmStall.entriesPerLine = static_cast<unsigned>(value);
    else if (key == "wtm_tcd_entries")
        cfg.wtm.tcdEntries = static_cast<unsigned>(value);
    else if (key == "rollover_threshold")
        cfg.rolloverThreshold =
            value == 0 ? ~static_cast<LogicalTs>(0) : value;
    else if (key == "sample_interval")
        cfg.sampleInterval = value;
    else if (key == "trace_tx")
        cfg.traceTx = value;
    else if (key == "watchdog_cycles")
        cfg.watchdogCycles = value;
    else if (key == "hot_addrs")
        cfg.hotAddrTopN = static_cast<unsigned>(value);
    else if (key == "seed")
        cfg.seed = value;
    else
        return false;
    return true;
}

/**
 * Keys whose values are words, tried before the numeric parser. The
 * checker/injection/timeout keys are deliberately absent from
 * configProvenance(): enabling validation or a safety net must not
 * change a run's reported configuration or sweep spec hashes
 * (watchdog_cycles and trace_tx, handled by the numeric parser, are
 * excluded for the same reason: both are observe-only).
 */
bool
applyStringKey(GpuConfig &cfg, const std::string &key,
               const std::string &value_text, bool &handled)
{
    handled = true;
    if (key == "check") {
        CheckLevel level;
        if (!parseCheckLevel(value_text, level))
            return false;
        cfg.checkLevel = static_cast<unsigned>(level);
    } else if (key == "inject") {
        FaultKind kind;
        if (!parseFaultKind(value_text, kind))
            return false;
        cfg.injectFault = static_cast<unsigned>(kind);
    } else if (key == "inject_prob") {
        char *end = nullptr;
        const double prob = std::strtod(value_text.c_str(), &end);
        if (value_text.empty() || (end && *end != '\0') || prob < 0.0 ||
            prob > 1.0)
            return false;
        cfg.injectProb = prob;
    } else if (key == "timeout_sec") {
        char *end = nullptr;
        const double secs = std::strtod(value_text.c_str(), &end);
        if (value_text.empty() || (end && *end != '\0') || secs < 0.0)
            return false;
        cfg.timeoutSec = secs;
    } else {
        handled = false;
    }
    return true;
}

} // namespace

bool
applyConfigText(const std::string &text, GpuConfig &cfg,
                std::string &error)
{
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
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            error = "line " + std::to_string(line_no) + ": expected "
                    "'key = value'";
            return false;
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value_text = trim(line.substr(eq + 1));
        bool handled = false;
        if (!applyStringKey(cfg, key, value_text, handled)) {
            error = "line " + std::to_string(line_no) +
                    ": bad value for '" + key + "'";
            return false;
        }
        if (handled)
            continue;
        char *end = nullptr;
        const std::uint64_t value =
            std::strtoull(value_text.c_str(), &end, 0);
        if (value_text.empty() || (end && *end != '\0')) {
            error = "line " + std::to_string(line_no) +
                    ": bad value for '" + key + "'";
            return false;
        }
        if (!applyKey(cfg, key, value)) {
            error = "line " + std::to_string(line_no) +
                    ": unknown key '" + key + "'";
            return false;
        }
    }
    return validateGpuConfig(cfg, error);
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
    auto add = [&out](const char *key, std::uint64_t value) {
        out.emplace_back(key, std::to_string(value));
    };
    out.emplace_back("protocol", protocolName(cfg.protocol));
    add("cores", cfg.numCores);
    add("partitions", cfg.numPartitions);
    add("warps_per_core", cfg.core.maxWarps);
    add("tx_warp_limit", cfg.core.txWarpLimit == 0xffffffffu
                             ? 0
                             : cfg.core.txWarpLimit);
    add("issue_width", cfg.core.issueWidth);
    add("l1_kb", cfg.core.l1Bytes / 1024);
    add("llc_kb_per_partition", cfg.llcBytesPerPartition / 1024);
    add("llc_latency", cfg.llcLatency);
    add("line_bytes", cfg.lineBytes);
    add("xbar_latency", cfg.xbar.latency);
    add("xbar_flit_bytes", cfg.xbar.flitBytes);
    add("dram_latency", cfg.dram.accessLatency);
    add("dram_row_hit_latency", cfg.dram.rowHitLatency);
    add("dram_banks", cfg.dram.numBanks);
    add("getm_granule", cfg.getmGranule);
    add("getm_precise_entries", cfg.getmPreciseEntriesTotal);
    add("getm_bloom_entries", cfg.getmBloomEntriesTotal);
    add("getm_max_registers", cfg.getmUseMaxRegisters ? 1 : 0);
    add("getm_stall_lines", cfg.getmStall.lines);
    add("getm_stall_entries", cfg.getmStall.entriesPerLine);
    add("wtm_tcd_entries", cfg.wtm.tcdEntries);
    add("rollover_threshold",
        cfg.rolloverThreshold == ~static_cast<LogicalTs>(0)
            ? 0
            : cfg.rolloverThreshold);
    add("sample_interval", cfg.sampleInterval);
    add("hot_addrs", cfg.hotAddrTopN);
    add("seed", cfg.seed);
    return out;
}

} // namespace getm
