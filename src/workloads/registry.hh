/**
 * @file
 * Parameterized workload registry.
 *
 * The closed `BenchId` enum covers the paper's Table III kernels; the
 * OLTP family (src/oltp/) needs per-instance parameters — zipfian
 * theta, key-space size, operation mixes — so `--bench` and sweep
 * manifests accept *workload specs*:
 *
 *     HT-H                    a bare registered name
 *     YCSB:theta=0.95         name plus key=value parameters,
 *     BANK:theta=0.7:amax=100 colon-separated
 *
 * A parsed spec is canonicalized (registered-name casing, parameters
 * sorted by key, numbers in jsonNumber form) so equal specs always
 * produce equal tokens — tokens are used verbatim in sweep point ids
 * and in spec hashes. Parameter-free specs canonicalize to exactly the
 * bare bench name, which keeps every pre-existing point id and resume
 * hash byte-identical.
 *
 * Unknown names and parameters fail with a message that lists what IS
 * registered — the registry is the single source of truth behind
 * `--list-benches` on both CLIs.
 */

#ifndef GETM_WORKLOADS_REGISTRY_HH
#define GETM_WORKLOADS_REGISTRY_HH

#include <string>
#include <utility>
#include <vector>

#include "workloads/workload.hh"

namespace getm {

/** A parsed, canonical `--bench` value: name + explicit parameters. */
struct WorkloadSpec
{
    std::string name; ///< Canonical registered name ("HT-H", "YCSB").
    /** Explicitly given parameters, sorted by key. */
    std::vector<std::pair<std::string, double>> params;

    WorkloadSpec() = default;
    explicit WorkloadSpec(std::string name_) : name(std::move(name_)) {}

    /** Canonical text form: `NAME` or `NAME:k=v:k=v`. */
    std::string token() const;

    bool
    operator==(const WorkloadSpec &other) const
    {
        return name == other.name && params == other.params;
    }
    bool operator!=(const WorkloadSpec &other) const
    {
        return !(*this == other);
    }

    /** Parameter value with the registry default applied. */
    double param(const std::string &key) const;
};

/** One tunable of a registered workload family. */
struct BenchParamInfo
{
    const char *key;
    double def;
    double min;
    double max;
    const char *help;
};

/** One registered workload family. */
struct BenchInfo
{
    BenchId id;
    const char *name;    ///< Canonical spelling.
    const char *summary; ///< One-line description for --list-benches.
    std::vector<BenchParamInfo> params;
};

/** Every registered family: the nine paper benches, then OLTP. */
const std::vector<BenchInfo> &benchRegistry();

/** Look up a family by (case-insensitive) name; null if unknown. */
const BenchInfo *findBench(const std::string &name);

/** Print every family with its parameters, defaults and ranges to
 *  stdout: the `--list-benches` text of getm-sim and getm-sweep. */
void printBenchList();

/** Comma-separated canonical names, for error messages. */
std::string registeredBenchNames();

/**
 * Parse `NAME[:key=value]...` into a canonical spec.
 * @return false with @p error set (listing registered names, or the
 *         family's parameters) on any problem.
 */
bool parseWorkloadSpec(const std::string &text, WorkloadSpec &spec,
                       std::string &error);

/**
 * Every parameter of @p spec's family with defaults applied, sorted by
 * key. This resolved form — not the explicit-only token — is what spec
 * hashes fold in, so editing a registry default invalidates exactly the
 * sweep points it affects (same rule as config provenance).
 */
std::vector<std::pair<std::string, double>>
resolvedParams(const WorkloadSpec &spec);

/** Instantiate @p spec at the given scale and seed. */
std::unique_ptr<Workload> makeWorkload(const WorkloadSpec &spec,
                                       double scale,
                                       std::uint64_t seed = 7);

/** Table IV optimum for the spec's family. */
unsigned optimalConcurrency(const WorkloadSpec &spec,
                            ProtocolKind protocol);

} // namespace getm

#endif // GETM_WORKLOADS_REGISTRY_HH
