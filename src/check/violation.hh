/**
 * @file
 * Typed violation taxonomy and report of the runtime checker.
 *
 * Every problem the checker can detect is one of these kinds, so tests
 * and CI can assert *which* invariant a fault broke rather than just
 * "something failed". Mirrors the style of obs/abort_reason.hh: a
 * single enum, a stable machine-readable name, and array-sized Count.
 */

#ifndef GETM_CHECK_VIOLATION_HH
#define GETM_CHECK_VIOLATION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace getm {

/** How much checking a run performs. */
enum class CheckLevel : std::uint8_t
{
    Off = 0, ///< No checker constructed; zero overhead.
    Read,    ///< Read validity + commit apply/intent cross-check.
    Serial,  ///< Read + incremental conflict-serializability graph.
};

/** Parse "off" / "read" / "serial" / "on" (or 0-2); false if unknown. */
bool parseCheckLevel(const std::string &text, CheckLevel &out);

/** Stable lower-case name, accepted back by parseCheckLevel(). */
const char *checkLevelName(CheckLevel level);

/** Which correctness invariant a detected violation broke. */
enum class ViolationKind : std::uint8_t
{
    /**
     * A transactional read observed a value different from the latest
     * write the checker saw applied to that address (opacity: every
     * read, even by a doomed attempt, must see current committed
     * state; all four protocols bind read data at the functional
     * memory's serialization point).
     */
    InconsistentRead = 0,
    /** The committed-transaction conflict graph contains a cycle. */
    SerializabilityCycle,
    /** A committed write was applied with a different value than the
     *  transaction logged (redo-log / commit-unit corruption). */
    CorruptApply,
    /** A committed write was never applied to memory. */
    LostWrite,
    /** End-of-run memory differs from the checker's applied-write
     *  shadow (a write bypassed every instrumented path). */
    FinalStateMismatch,
    Count
};

constexpr unsigned numViolationKinds =
    static_cast<unsigned>(ViolationKind::Count);

/** Stable machine-readable name ("SERIALIZABILITY_CYCLE", ...). */
constexpr const char *
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::InconsistentRead: return "INCONSISTENT_READ";
      case ViolationKind::SerializabilityCycle:
        return "SERIALIZABILITY_CYCLE";
      case ViolationKind::CorruptApply: return "CORRUPT_APPLY";
      case ViolationKind::LostWrite: return "LOST_WRITE";
      case ViolationKind::FinalStateMismatch:
        return "FINAL_STATE_MISMATCH";
      case ViolationKind::Count: break;
    }
    return "?";
}

/** One detected violation (the first few are kept verbatim). */
struct Violation
{
    ViolationKind kind = ViolationKind::InconsistentRead;
    Addr addr = invalidAddr;      ///< Offending address (when known).
    std::uint64_t tx = 0;         ///< Checker transaction id (0: none).
    std::uint32_t expected = 0;   ///< Expected value (when applicable).
    std::uint32_t actual = 0;     ///< Observed value (when applicable).
    std::string detail;           ///< Human-readable one-liner.

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(kind, addr, tx, expected, actual, detail);
    }
};

/** Everything the checker learned during one run. */
struct CheckReport
{
    CheckLevel level = CheckLevel::Off;

    // Coverage counters (diagnostics, never exported to StatSet so a
    // checked run's stats stay byte-identical to an unchecked one).
    std::uint64_t txBegins = 0;
    std::uint64_t txCommits = 0;
    std::uint64_t txAborts = 0;
    std::uint64_t readsChecked = 0;
    std::uint64_t writesApplied = 0;
    std::uint64_t graphEdges = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t nodesReclaimed = 0;

    std::array<std::uint64_t, numViolationKinds> byKind{};
    std::uint64_t totalViolations = 0;

    /** First few violations in detection order (capped). */
    std::vector<Violation> samples;

    /** One-line human summary ("clean" or per-kind counts). */
    std::string summary() const;

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(level, txBegins, txCommits, txAborts, readsChecked,
           writesApplied, graphEdges, gcRuns, nodesReclaimed, byKind,
           totalViolations, samples);
    }
};

} // namespace getm

#endif // GETM_CHECK_VIOLATION_HH
