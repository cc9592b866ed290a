#include "workloads/registry.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "common/json.hh"
#include "common/log.hh"
#include "gpu/config_file.hh"
#include "oltp/bank.hh"
#include "oltp/ycsb.hh"

namespace getm {

namespace {

bool
equalsIgnoreCase(const std::string &a, const char *b)
{
    std::size_t i = 0;
    for (; i < a.size() && b[i]; ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return i == a.size() && !b[i];
}

const BenchParamInfo *
findParam(const BenchInfo &info, const std::string &key)
{
    for (const BenchParamInfo &param : info.params)
        if (equalsIgnoreCase(key, param.key))
            return &param;
    return nullptr;
}

std::string
paramList(const BenchInfo &info)
{
    std::string out;
    for (const BenchParamInfo &param : info.params) {
        if (!out.empty())
            out += ", ";
        out += param.key;
    }
    return out;
}

} // namespace

const std::vector<BenchInfo> &
benchRegistry()
{
    static const std::vector<BenchInfo> registry = [] {
        std::vector<BenchInfo> r;
        for (const BenchId id : allBenchIds())
            r.push_back(BenchInfo{id, benchName(id),
                                  "paper Table III benchmark", {}});
        r.push_back(BenchInfo{
            BenchId::Ycsb, "YCSB",
            "zipfian KV with a read/RMW/blind-write mix (src/oltp/)",
            {
                {"theta", 0.9, 0.0, 0.999,
                 "zipfian skew (0 = uniform)"},
                {"keys", 4000000, 64, 1e12,
                 "key-space size at scale 1.0"},
                {"ops", 4, 1, 8, "operations per transaction"},
                {"read", 50, 0, 100, "percent of ops that read"},
                {"rmw", 40, 0, 100,
                 "percent of ops that read-modify-write (the rest "
                 "blind-write)"},
            }});
        r.push_back(BenchInfo{
            BenchId::Bank, "BANK",
            "TPC-C-lite transfers: 2 accounts + teller + branch "
            "audit rows (src/oltp/)",
            {
                {"theta", 0.6, 0.0, 0.999,
                 "zipfian account skew (0 = uniform)"},
                {"accounts", 1000000, 64, 1e12,
                 "account count at scale 1.0"},
                {"branches", 16, 1, 65536,
                 "branch audit rows (absolute, not scaled)"},
                {"tellers", 160, 1, 1048576,
                 "teller audit rows (absolute, not scaled)"},
                {"amax", 500, 1, 1000000, "maximum transfer amount"},
            }});
        return r;
    }();
    return registry;
}

const BenchInfo *
findBench(const std::string &name)
{
    for (const BenchInfo &info : benchRegistry())
        if (equalsIgnoreCase(name, info.name))
            return &info;
    return nullptr;
}

void
printBenchList()
{
    for (const BenchInfo &info : benchRegistry()) {
        std::printf("%-6s %s\n", info.name, info.summary);
        for (const BenchParamInfo &param : info.params)
            std::printf("       %-10s %-12g default; range [%g, %g]: %s\n",
                        param.key, param.def, param.min, param.max,
                        param.help);
    }
}

std::string
registeredBenchNames()
{
    std::string out;
    for (const BenchInfo &info : benchRegistry()) {
        if (!out.empty())
            out += " ";
        out += info.name;
    }
    return out;
}

std::string
WorkloadSpec::token() const
{
    std::string out = name;
    for (const auto &[key, value] : params)
        out += ":" + key + "=" + jsonNumber(value);
    return out;
}

double
WorkloadSpec::param(const std::string &key) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return v;
    const BenchInfo *info = findBench(name);
    if (info)
        if (const BenchParamInfo *p = findParam(*info, key))
            return p->def;
    panic("workload %s has no parameter '%s'", name.c_str(),
          key.c_str());
}

bool
parseWorkloadSpec(const std::string &text, WorkloadSpec &spec,
                  std::string &error)
{
    spec = WorkloadSpec{};

    // Split on ':'.
    std::vector<std::string> parts;
    std::string part;
    for (const char ch : text + ":") {
        if (ch == ':') {
            parts.push_back(part);
            part.clear();
        } else {
            part += ch;
        }
    }
    if (parts.empty() || parts[0].empty()) {
        error = "empty bench name (known: " + registeredBenchNames() +
                ")";
        return false;
    }

    const BenchInfo *info = findBench(parts[0]);
    if (!info) {
        error = "unknown bench '" + parts[0] +
                "' (known: " + registeredBenchNames() + ")";
        return false;
    }
    spec.name = info->name;

    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &token = parts[i];
        const auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = spec.name + ": expected key=value, got '" + token +
                    "'";
            return false;
        }
        const std::string key = token.substr(0, eq);
        const std::string value_text = token.substr(eq + 1);
        const BenchParamInfo *param = findParam(*info, key);
        if (!param) {
            error = spec.name + " has no parameter '" + key + "'" +
                    (info->params.empty()
                         ? " (it takes none)"
                         : " (parameters: " + paramList(*info) + ")");
            return false;
        }
        double value;
        if (!parseReal(value_text, value)) {
            error = spec.name + ": bad value '" + value_text +
                    "' for parameter '" + param->key + "'";
            return false;
        }
        if (value < param->min || value > param->max) {
            error = spec.name + ": parameter '" +
                    std::string(param->key) + "' = " +
                    jsonNumber(value) + " out of range [" +
                    jsonNumber(param->min) + ", " +
                    jsonNumber(param->max) + "]";
            return false;
        }
        for (const auto &[seen_key, seen_value] : spec.params) {
            (void)seen_value;
            if (seen_key == param->key) {
                error = spec.name + ": duplicate parameter '" +
                        seen_key + "'";
                return false;
            }
        }
        spec.params.emplace_back(param->key, value);
    }

    std::sort(spec.params.begin(), spec.params.end());

    // Cross-parameter constraints.
    if (info->id == BenchId::Ycsb &&
        spec.param("read") + spec.param("rmw") > 100.0) {
        error = "YCSB: read + rmw percentages exceed 100";
        return false;
    }
    return true;
}

std::vector<std::pair<std::string, double>>
resolvedParams(const WorkloadSpec &spec)
{
    std::vector<std::pair<std::string, double>> out;
    const BenchInfo *info = findBench(spec.name);
    if (!info)
        return out;
    for (const BenchParamInfo &param : info->params)
        out.emplace_back(param.key, spec.param(param.key));
    std::sort(out.begin(), out.end());
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec, double scale, std::uint64_t seed)
{
    const BenchInfo *info = findBench(spec.name);
    if (!info)
        panic("unknown workload '%s'", spec.name.c_str());
    switch (info->id) {
      case BenchId::Ycsb: {
        YcsbParams params;
        params.theta = spec.param("theta");
        params.keys = spec.param("keys");
        params.opsPerTx = static_cast<unsigned>(spec.param("ops"));
        params.readPct = spec.param("read");
        params.rmwPct = spec.param("rmw");
        return std::make_unique<YcsbWorkload>(params, scale, seed,
                                              spec.token());
      }
      case BenchId::Bank: {
        BankParams params;
        params.theta = spec.param("theta");
        params.accounts = spec.param("accounts");
        params.branches =
            static_cast<std::uint64_t>(spec.param("branches"));
        params.tellers =
            static_cast<std::uint64_t>(spec.param("tellers"));
        params.maxAmount =
            static_cast<std::uint32_t>(spec.param("amax"));
        return std::make_unique<BankWorkload>(params, scale, seed,
                                              spec.token());
      }
      default:
        return makeWorkload(info->id, scale, seed);
    }
}

unsigned
optimalConcurrency(const WorkloadSpec &spec, ProtocolKind protocol)
{
    const BenchInfo *info = findBench(spec.name);
    return optimalConcurrency(info ? info->id : BenchId::HtH, protocol);
}

} // namespace getm
