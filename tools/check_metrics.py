#!/usr/bin/env python3
"""Validate a getm-metrics or getm-sweep JSON document.

For a getm-metrics document, checks the schema identity, the presence
and types of every required section, and the cross-document invariants
the simulator guarantees:

  * sum(aborts_by_reason) == run.aborts (exact abort attribution);
  * every abort-reason table carries the full reason taxonomy, so
    consumers can sum tables without knowing the enum;
  * hot-address rows are sorted by total events and internally
    consistent (by_reason sums to total);
  * time-series rows are rectangular (one value per probe per sample)
    and sample cycles are strictly increasing, at least one interval
    apart;
  * a "check" section (present when the runtime checker found
    violations) names a real level, `read` or `serial`, only known
    violation kinds, and a total_violations equal to their sum.

A getm-metrics *failure* document (a "failure" section in place of
run/stats, written for points that ended in a typed simulation error;
see docs/ROBUSTNESS.md) is validated against its own reduced shape:
schema/meta/config plus a failure section with a known status.

For a getm-sweep document (written by getm-sweep, see docs/SWEEPS.md),
checks the sweep header and that every embedded point is itself a
valid getm-metrics document (full or failure), keyed and sorted by
point id, and that the header's failures index agrees with the
embedded failure documents.

A getm-metrics document may carry a "tx_trace" section (written when
the run was traced with --trace-tx; getm-sweep instead writes it as a
standalone points/<id>.trace.json side file with schema
"getm-tx-trace", which this script also validates). The tracer's
defining invariant is checked per transaction: the exec/noc/stall/
validation/retry cycle categories sum exactly to the transaction's
lifetime, and every kill chain refers back to a traced transaction
whose abort list it restates. Where the run's counters are at hand --
the run section of the same metrics document, or for a side file the
same point of a sweep document given on the same command line -- the
tracer's raw scheduler-dwell totals must not exceed them:
raw_exec + raw_mem <= run.tx_exec_cycles and
raw_validate + raw_backoff <= run.tx_wait_cycles.

Schema versions are parsed from src/obs/schema_version.hh, the single
source of truth shared with the C++ exporters.

Usage: check_metrics.py METRICS_OR_SWEEP_OR_TRACE.json [more.json ...]
Exits non-zero with a message on the first violation.
"""

import json
import pathlib
import re
import sys


def _schema_versions():
    """Read the version constants out of src/obs/schema_version.hh.

    The header keeps each constant in the exact shape
    `inline constexpr int NAME = N;` so this textual parse cannot
    drift from what the C++ exporters compile in.
    """
    header = (pathlib.Path(__file__).resolve().parent.parent
              / "src" / "obs" / "schema_version.hh")
    text = header.read_text(encoding="utf-8")
    found = dict(re.findall(
        r"^inline constexpr int (\w+) = (\d+);", text, re.MULTILINE))
    versions = {}
    for name in ("metricsSchemaVersion", "sweepSchemaVersion",
                 "txTraceSchemaVersion"):
        if name not in found:
            raise SystemExit(
                f"check_metrics: {header}: no `inline constexpr int "
                f"{name} = N;` line")
    return {name: int(found[name]) for name in found}


_VERSIONS = _schema_versions()
SCHEMA = "getm-metrics"
VERSION = _VERSIONS["metricsSchemaVersion"]
SWEEP_SCHEMA = "getm-sweep"
SWEEP_VERSION = _VERSIONS["sweepSchemaVersion"]
TRACE_SCHEMA = "getm-tx-trace"
TRACE_VERSION = _VERSIONS["txTraceSchemaVersion"]

REASONS = [
    "NONE", "RAW_TS", "WAR_TS", "WAW_TS", "LOCKED_BY_WRITER",
    "STALL_BUFFER_FULL", "BLOOM_FALSE_POSITIVE", "INTRA_WARP",
    "VALIDATION_FAIL", "EAGER_VALIDATION_FAIL", "EARLY_ABORT", "ROLLOVER",
]

TOP_LEVEL = [
    "schema", "version", "meta", "config", "run", "aborts_by_reason",
    "stalls_by_reason", "stall", "distinct_conflict_addrs",
    "hot_addresses", "timeseries", "stats",
]

META_KEYS = ["bench", "protocol", "scale", "seed", "threads", "verified"]
RUN_KEYS = [
    "cycles", "commits", "aborts", "tx_exec_cycles", "tx_wait_cycles",
    "xbar_flits", "rollovers", "max_logical_ts", "aborts_per_1k_commits",
]
STATS_KEYS = ["counters", "maxima", "averages", "histograms"]

CHECK_LEVELS = ["read", "serial"]
VIOLATION_KINDS = [
    "INCONSISTENT_READ", "SERIALIZABILITY_CYCLE", "CORRUPT_APPLY",
    "LOST_WRITE", "FINAL_STATE_MISMATCH",
]

FAILURE_TOP_LEVEL = ["schema", "version", "meta", "config", "failure"]
FAILURE_KEYS = ["status", "kind", "message", "attempts"]
FAILURE_STATUSES = [
    "deadlock", "livelock", "cycle-limit", "timeout", "config", "error",
    "checkpoint", "interrupted",
]


class CheckError(Exception):
    pass


def require(cond, why):
    if not cond:
        raise CheckError(why)


def check_reason_table(table, label):
    require(isinstance(table, dict), f"{label} is not an object")
    require(sorted(table) == sorted(REASONS),
            f"{label} keys differ from the reason taxonomy: "
            f"{sorted(set(table) ^ set(REASONS))}")
    for name, count in table.items():
        require(isinstance(count, int) and count >= 0,
                f"{label}[{name}] is not a non-negative integer")
    return sum(table.values())


def check_hot_addresses(rows):
    require(isinstance(rows, list), "hot_addresses is not an array")
    prev_total = None
    for i, row in enumerate(rows):
        label = f"hot_addresses[{i}]"
        for key in ("addr", "addr_hex", "partition", "total",
                    "mean_waiters", "by_reason"):
            require(key in row, f"{label} lacks '{key}'")
        require(row["addr_hex"] == hex(row["addr"]),
                f"{label}: addr_hex {row['addr_hex']} does not match "
                f"addr {row['addr']}")
        require(row["total"] > 0, f"{label}: empty row exported")
        if "label" in row:
            # Workload-provided granule description (OLTP benches map
            # granules back to "key N (zipf rank R)" / "branch B").
            # Optional: absent whenever the workload has no mapping.
            require(isinstance(row["label"], str) and row["label"],
                    f"{label}: label must be a non-empty string")
        by_reason = row["by_reason"]
        require(all(k in REASONS for k in by_reason),
                f"{label}: unknown reason in by_reason")
        require(sum(by_reason.values()) == row["total"],
                f"{label}: by_reason sums to "
                f"{sum(by_reason.values())}, total says {row['total']}")
        if prev_total is not None:
            require(row["total"] <= prev_total,
                    f"{label}: rows not sorted by total")
        prev_total = row["total"]


def check_timeseries(ts):
    for key in ("interval", "num_samples", "cycles", "series"):
        require(key in ts, f"timeseries lacks '{key}'")
    cycles = ts["cycles"]
    require(len(cycles) == ts["num_samples"],
            "timeseries.num_samples disagrees with cycles[]")
    for name, column in ts["series"].items():
        require(len(column) == len(cycles),
                f"timeseries.series[{name}] is not rectangular")
    interval = ts["interval"]
    for i, (a, b) in enumerate(zip(cycles, cycles[1:])):
        require(b > a,
                f"samples at cycles {a} and {b} are not strictly "
                f"increasing")
        # The last row may be the end-of-run flush of a partial window
        # (CycleSampler::finalize), so only interior gaps must span a
        # full interval.
        if i + 2 < len(cycles):
            require(b - a >= interval,
                    f"samples at cycles {a} and {b} are closer than "
                    f"the {interval}-cycle interval")
    if ts["num_samples"]:
        require(interval > 0, "samples recorded with interval 0")


TRACE_HEADER_KEYS = [
    "version", "sample_rate", "tx_seen", "traced", "committed", "open",
    "totals", "noc", "transactions", "kill_chains",
]
TRACE_TX_KEYS = [
    "trace_id", "warp", "core", "slot", "begin", "end", "lifetime",
    "attempts", "committed_lanes", "committed", "cycles", "accesses",
    "aborts",
]
TRACE_CYCLE_KEYS = ["exec", "noc", "stall", "validation", "retry"]


def check_check_section(check):
    require(check.get("level") in CHECK_LEVELS,
            f"check.level is {check.get('level')!r}, want one of "
            f"{CHECK_LEVELS}")
    kinds = check.get("violations_by_kind")
    require(isinstance(kinds, dict) and kinds,
            "check.violations_by_kind is missing or empty")
    for kind, count in kinds.items():
        require(kind in VIOLATION_KINDS,
                f"check.violations_by_kind names unknown kind {kind!r}")
        require(isinstance(count, int) and count > 0,
                f"check.violations_by_kind.{kind} is not a positive "
                f"integer")
    total = sum(kinds.values())
    require(check.get("total_violations") == total,
            f"check.total_violations is {check.get('total_violations')!r}, "
            f"violations_by_kind sums to {total}")


def check_trace_link(link, label):
    for key in ("attempt", "reason", "aborter_warp", "cycle"):
        require(key in link, f"{label} lacks '{key}'")
    require(link["reason"] in REASONS,
            f"{label}: unknown abort reason {link['reason']!r}")
    require(isinstance(link["aborter_warp"], int)
            and link["aborter_warp"] >= -1,
            f"{label}: aborter_warp {link['aborter_warp']!r} is not an "
            f"integer >= -1 (-1 means unknown)")
    if "addr" in link:
        require(link.get("addr_hex") == hex(link["addr"]),
                f"{label}: addr_hex does not match addr")
        require("partition" in link,
                f"{label}: addr without a conflict-site partition")


def check_tx_trace(trace):
    """Validate a tx_trace section (embedded or standalone).

    The load-bearing invariant is exact cycle accounting: for every
    traced transaction the exec/noc/stall/validation/retry categories
    sum to exactly end - begin, and the report totals are the exact
    sums of the per-transaction rows. Kill chains must restate the
    abort list of a transaction that is actually in the document.
    """
    for key in TRACE_HEADER_KEYS:
        require(key in trace, f"tx_trace lacks '{key}'")
    require(trace["version"] == TRACE_VERSION,
            f"tx_trace version is {trace['version']!r}, "
            f"want {TRACE_VERSION}")
    require(trace["sample_rate"] >= 1, "tx_trace sample_rate is 0")

    txs = trace["transactions"]
    require(isinstance(txs, list), "tx_trace.transactions is not an array")
    require(trace["traced"] == len(txs),
            f"tx_trace.traced says {trace['traced']}, transactions "
            f"holds {len(txs)}")
    require(trace["traced"] <= trace["tx_seen"],
            "tx_trace traced more transactions than it saw")

    by_id = {}
    totals = dict.fromkeys(TRACE_CYCLE_KEYS, 0)
    total_lifetime = 0
    committed = 0
    still_open = 0
    for i, tx in enumerate(txs):
        label = f"tx_trace.transactions[{i}]"
        for key in TRACE_TX_KEYS:
            require(key in tx, f"{label} lacks '{key}'")
        require(tx["trace_id"] == i,
                f"{label}: trace ids are not dense in trace order")
        by_id[tx["trace_id"]] = tx
        require(tx["end"] >= tx["begin"],
                f"{label}: ends before it begins")
        require(tx["lifetime"] == tx["end"] - tx["begin"],
                f"{label}: lifetime {tx['lifetime']} != end - begin")
        cycles = tx["cycles"]
        for key in TRACE_CYCLE_KEYS:
            require(key in cycles, f"{label}.cycles lacks '{key}'")
            require(isinstance(cycles[key], int) and cycles[key] >= 0,
                    f"{label}.cycles[{key}] is not a non-negative "
                    f"integer")
            totals[key] += cycles[key]
        breakdown = sum(cycles[key] for key in TRACE_CYCLE_KEYS)
        require(breakdown == tx["lifetime"],
                f"{label}: cycle categories sum to {breakdown}, "
                f"lifetime is {tx['lifetime']} (exact accounting "
                f"violated)")
        total_lifetime += tx["lifetime"]
        require(tx["attempts"] >= 1, f"{label}: zero attempts")
        accesses = tx["accesses"]
        require(accesses["completed"] <= accesses["issued"],
                f"{label}: more accesses completed than issued")
        if tx["committed"]:
            if tx["committed_lanes"] > 0:
                committed += 1
        else:
            still_open += 1
        # One attempt may collect several abort links (each in-flight
        # access that loses a conflict reports separately), so the list
        # can be longer than attempts -- but attempt indices must be
        # non-decreasing and in range.
        prev_attempt = 0
        for j, link in enumerate(tx["aborts"]):
            check_trace_link(link, f"{label}.aborts[{j}]")
            require(link["attempt"] < tx["attempts"],
                    f"{label}.aborts[{j}]: attempt index out of range")
            require(link["attempt"] >= prev_attempt,
                    f"{label}.aborts[{j}]: attempt index went backwards")
            prev_attempt = link["attempt"]

    require(trace["committed"] == committed,
            f"tx_trace.committed says {trace['committed']}, rows say "
            f"{committed}")
    require(trace["open"] == still_open,
            f"tx_trace.open says {trace['open']}, rows say {still_open}")
    header_totals = trace["totals"]
    for key in TRACE_CYCLE_KEYS:
        require(header_totals[key] == totals[key],
                f"tx_trace.totals[{key}] says {header_totals[key]}, "
                f"rows sum to {totals[key]}")
    require(header_totals["lifetime"] == total_lifetime,
            f"tx_trace.totals.lifetime says "
            f"{header_totals['lifetime']}, rows sum to {total_lifetime}")

    for direction in ("up", "down"):
        hop = trace["noc"][direction]
        for key in ("msgs", "latency_cycles", "bytes"):
            require(isinstance(hop[key], int) and hop[key] >= 0,
                    f"tx_trace.noc.{direction}[{key}] is not a "
                    f"non-negative integer")

    chains = trace["kill_chains"]
    require(isinstance(chains, list),
            "tx_trace.kill_chains is not an array")
    prev_len = None
    for i, chain in enumerate(chains):
        label = f"tx_trace.kill_chains[{i}]"
        for key in ("trace_id", "victim_warp", "length", "links"):
            require(key in chain, f"{label} lacks '{key}'")
        require(chain["trace_id"] in by_id,
                f"{label}: trace_id {chain['trace_id']} names no traced "
                f"transaction (referential integrity violated)")
        tx = by_id[chain["trace_id"]]
        require(chain["victim_warp"] == tx["warp"],
                f"{label}: victim_warp disagrees with its transaction")
        require(chain["length"] == len(chain["links"]) == len(
                tx["aborts"]),
                f"{label}: length/links disagree with the "
                f"transaction's abort list")
        for j, (link, abort) in enumerate(
                zip(chain["links"], tx["aborts"])):
            check_trace_link(link, f"{label}.links[{j}]")
            require(link["reason"] == abort["reason"]
                    and link["cycle"] == abort["cycle"],
                    f"{label}.links[{j}] does not restate the "
                    f"transaction's abort record")
        if prev_len is not None:
            require(chain["length"] <= prev_len,
                    f"{label}: chains not sorted by length")
        prev_len = chain["length"]
    return trace


def check_trace_bounds(trace, run):
    """Tracer dwell totals are bounded by the aggregate counters.

    Tracing clips each warp's dwell at its transaction's begin and
    excludes pre-begin throttling, so the traced totals can only be
    lower than the counters the figures are built from.
    """
    totals = trace["totals"]
    exec_ = totals["raw_exec"] + totals["raw_mem"]
    wait = totals["raw_validate"] + totals["raw_backoff"]
    require(exec_ <= run["tx_exec_cycles"],
            f"tx_trace raw_exec + raw_mem = {exec_} exceeds "
            f"run.tx_exec_cycles = {run['tx_exec_cycles']}")
    require(wait <= run["tx_wait_cycles"],
            f"tx_trace raw_validate + raw_backoff = {wait} exceeds "
            f"run.tx_wait_cycles = {run['tx_wait_cycles']}")


def check_trace_document(doc):
    require(doc.get("version") == TRACE_VERSION,
            f"trace version is {doc.get('version')!r}, "
            f"want {TRACE_VERSION}")
    require("tx_trace" in doc, "trace document lacks 'tx_trace'")
    check_tx_trace(doc["tx_trace"])
    return doc


def check_failure_document(doc):
    for key in FAILURE_TOP_LEVEL:
        require(key in doc, f"failure document lacks top-level '{key}'")
    require("run" not in doc and "stats" not in doc,
            "failure document carries run/stats sections")
    for key in ("bench", "protocol", "scale", "seed"):
        require(key in doc["meta"], f"meta lacks '{key}'")
    require(doc["meta"].get("verified") is False,
            "failure document claims verified")
    require(isinstance(doc["config"], dict) and doc["config"],
            "config provenance is missing or empty")
    failure = doc["failure"]
    for key in FAILURE_KEYS:
        require(key in failure, f"failure lacks '{key}'")
    require(failure["status"] in FAILURE_STATUSES,
            f"unknown failure status {failure['status']!r}")
    require(isinstance(failure["attempts"], int)
            and failure["attempts"] >= 1,
            "failure.attempts is not a positive integer")
    diag = failure.get("diagnostic")
    if diag is not None:
        for key in ("kind", "message", "cycle"):
            require(key in diag, f"failure.diagnostic lacks '{key}'")
    return doc


def check_sweep_document(doc):
    require(doc.get("version") == SWEEP_VERSION,
            f"sweep version is {doc.get('version')!r}, "
            f"want {SWEEP_VERSION}")
    for key in ("sweep", "points"):
        require(key in doc, f"sweep document lacks top-level '{key}'")
    header = doc["sweep"]
    for key in ("name", "manifest_hash", "num_points"):
        require(key in header, f"sweep header lacks '{key}'")
    points = doc["points"]
    require(isinstance(points, dict), "points is not an object")
    require(len(points) == header["num_points"],
            f"points holds {len(points)} entries, header says "
            f"{header['num_points']}")
    require(len(points) > 0, "sweep document has no points")
    ids = list(points)  # json.load preserves document order
    require(ids == sorted(ids), "point ids are not sorted")
    failed_ids = set()
    for point_id, point in points.items():
        try:
            check_document(point)
        except CheckError as err:
            raise CheckError(f"point {point_id}: {err}") from err
        if "failure" in point:
            failed_ids.add(point_id)
    declared = header.get("failures", {})
    require(set(declared) == failed_ids,
            f"sweep header declares failures {sorted(declared)}, "
            f"embedded failure documents are {sorted(failed_ids)}")
    if failed_ids:
        require(header.get("num_failed") == len(failed_ids),
                "sweep header num_failed disagrees with failures")
        for point_id, status in declared.items():
            require(points[point_id]["failure"]["status"] == status,
                    f"header status for {point_id} disagrees with its "
                    f"failure document")
    return doc


def check_document(doc):
    if doc.get("schema") == SWEEP_SCHEMA:
        return check_sweep_document(doc)
    if doc.get("schema") == TRACE_SCHEMA:
        return check_trace_document(doc)
    require(doc.get("schema") == SCHEMA,
            f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    require(doc.get("version") == VERSION,
            f"version is {doc.get('version')!r}, want {VERSION}")
    if "failure" in doc:
        return check_failure_document(doc)
    for key in TOP_LEVEL:
        require(key in doc, f"document lacks top-level '{key}'")
    for key in META_KEYS:
        require(key in doc["meta"], f"meta lacks '{key}'")
    for key in RUN_KEYS:
        require(key in doc["run"], f"run lacks '{key}'")
    for key in STATS_KEYS:
        require(key in doc["stats"], f"stats lacks '{key}'")
    require(isinstance(doc["config"], dict) and doc["config"],
            "config provenance is missing or empty")

    abort_sum = check_reason_table(doc["aborts_by_reason"],
                                   "aborts_by_reason")
    require(abort_sum == doc["run"]["aborts"],
            f"aborts_by_reason sums to {abort_sum}, run.aborts is "
            f"{doc['run']['aborts']}")
    check_reason_table(doc["stalls_by_reason"], "stalls_by_reason")
    check_hot_addresses(doc["hot_addresses"])
    check_timeseries(doc["timeseries"])
    if "check" in doc:
        check_check_section(doc["check"])
    if "tx_trace" in doc:
        check_tx_trace(doc["tx_trace"])
        check_trace_bounds(doc["tx_trace"], doc["run"])

    for name, hist in doc["stats"]["histograms"].items():
        total = sum(b["count"] for b in hist["buckets"])
        require(total == hist["count"],
                f"histogram {name}: buckets sum to {total}, count says "
                f"{hist['count']}")
    return doc


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as fh:
                docs.append((path, json.load(fh)))
        except (OSError, json.JSONDecodeError) as err:
            print(f"check_metrics: {path}: {err}", file=sys.stderr)
            return 1
    # A trace side file has no run section: its counters are those of
    # the same point in a sweep document given alongside it.
    runs = {point_id: point["run"]
            for _, doc in docs if doc.get("schema") == SWEEP_SCHEMA
            for point_id, point in doc.get("points", {}).items()
            if "run" in point}
    for path, doc in docs:
        run = runs.get(doc.get("point"))
        try:
            check_document(doc)
            if doc.get("schema") == TRACE_SCHEMA and run is not None:
                check_trace_bounds(doc["tx_trace"], run)
        except CheckError as err:
            print(f"check_metrics: {path}: {err}", file=sys.stderr)
            return 1
        if doc.get("schema") == SWEEP_SCHEMA:
            failed = sum("failure" in p for p in doc["points"].values())
            print(f"check_metrics: {path}: OK "
                  f"(sweep {doc['sweep']['name']!r}, "
                  f"{len(doc['points'])} valid points"
                  + (f", {failed} failed" if failed else "") + ")")
        elif doc.get("schema") == TRACE_SCHEMA:
            trace = doc["tx_trace"]
            print(f"check_metrics: {path}: OK "
                  f"(tx trace, {trace['traced']} transactions, "
                  f"{trace['committed']} committed, "
                  f"{len(trace['kill_chains'])} kill chains"
                  + (", within the run's counters" if run else "")
                  + ")")
        elif "failure" in doc:
            failure = doc["failure"]
            print(f"check_metrics: {path}: OK "
                  f"(failure document: {failure['status']}, "
                  f"{failure['attempts']} attempts)")
        else:
            run = doc["run"]
            print(f"check_metrics: {path}: OK "
                  f"({doc['meta']['bench']}/{doc['meta']['protocol']}, "
                  f"{run['aborts']} aborts attributed, "
                  f"{len(doc['hot_addresses'])} hot addresses, "
                  f"{doc['timeseries']['num_samples']} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
