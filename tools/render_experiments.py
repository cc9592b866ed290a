#!/usr/bin/env python3
"""Render the measured tables of EXPERIMENTS.md from sweep documents.

Every number EXPERIMENTS.md reports for a paper figure sits between
generated-region markers:

    <!-- render:fig11 -->
    ...generated Markdown...
    <!-- /render:fig11 -->

Each region is computed from the merged sweep.json of one or more
manifests in configs/sweeps/ (a document is recognized by the sweep
name in its header), including the normalizations, geometric means
and ratios the paper's figures plot, and the Summary's verdicts. A
region whose sweeps are not all given is left as it is and reported
as skipped, so one sweep re-checks only the regions it feeds.

Rather than render a wrong number, the renderer refuses its input
when a point a region reads is missing, when any point of a given
sweep has meta.verified false (a failed verification or simulation),
or when a point's scale or seed differs from the reference run:
seed 7 and scale 1.0 (0.25 for Table IV's 216-point sweep, 0.5 for
the GETM ablations).

Usage:
    render_experiments.py --check SWEEP.json [SWEEP.json ...]
    render_experiments.py --write SWEEP.json [SWEEP.json ...]

--check re-renders and exits 1 if any region differs from
EXPERIMENTS.md (printing a diff); --write rewrites the regions in
place. Unusable input exits 2.
"""

import argparse
import difflib
import json
import math
import pathlib
import re
import sys

EXPERIMENTS = pathlib.Path(__file__).resolve().parent.parent / \
    "EXPERIMENTS.md"
REGION_RE = re.compile(
    r"<!-- render:(\w+) -->\n(.*?)<!-- /render:\1 -->", re.DOTALL)

BENCHES = ["HT-H", "HT-M", "HT-L", "ATM", "CL", "CLto", "BH", "CC", "AP"]
WTM, EL, EAPG, GETM, LOCK = "WarpTM-LL", "WarpTM-EL", "EAPG", "GETM", \
    "FGLock"
# Tx-warp limits of Fig. 3 and Table IV; 0 is unlimited, the paper's NL.
LIMITS = [1, 2, 4, 8, 16, 0]

SEED = 7
SCALE = {
    "fig03-concurrency": 1.0,
    "fig04-eager-vs-lazy": 1.0,
    "fig10-12-protocols": 1.0,
    "fig14-table-size": 1.0,
    "fig14-granularity": 1.0,
    "fig15-16-stalls": 1.0,
    "fig17-scalability": 1.0,
    "tab04-concurrency": 0.25,
    "ablation-getm": 0.5,
}
PROTOCOLS = "fig10-12-protocols"


class RenderError(Exception):
    pass


class Sweeps:
    """The given sweep documents, keyed by sweep name."""

    def __init__(self, paths):
        self.points = {}
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("schema") != "getm-sweep":
                raise RenderError(f"{path}: not a getm-sweep document")
            name = doc["sweep"]["name"]
            if name not in SCALE:
                raise RenderError(f"{path}: sweep {name!r} feeds no "
                                  f"EXPERIMENTS.md region")
            if name in self.points:
                raise RenderError(f"{path}: sweep {name!r} given twice")
            for point_id, point in doc["points"].items():
                meta = point["meta"]
                if meta["verified"] is not True:
                    raise RenderError(f"{name}: point {point_id} is not "
                                      f"verified")
                if meta["scale"] != SCALE[name] or meta["seed"] != SEED:
                    raise RenderError(
                        f"{name}: point {point_id} ran at scale "
                        f"{meta['scale']} seed {meta['seed']}, the "
                        f"reference run is scale {SCALE[name]} seed "
                        f"{SEED}")
            self.points[name] = doc["points"]

    def point(self, sweep, bench, protocol, **axes):
        point_id = "+".join([bench, protocol] +
                            [f"{k}={v}" for k, v in axes.items()])
        try:
            return self.points[sweep][point_id]
        except KeyError:
            raise RenderError(f"{sweep}: point {point_id} is missing") \
                from None

    def run(self, sweep, bench, protocol, **axes):
        return self.point(sweep, bench, protocol, **axes)["run"]

    def cycles(self, sweep, bench, protocol, **axes):
        return self.run(sweep, bench, protocol, **axes)["cycles"]


def gmean(values):
    log_sum = 0.0
    for value in values:
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))


def f3(x):
    return f"{x:.3f}"


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def yes(flag):
    return "yes" if flag else "**no**"


def listing(names):
    return ", ".join(names) if names else "none"


REGIONS = {}


def region(*sweeps):
    """Register a region renderer fed by the named sweeps."""
    def register(fn):
        REGIONS[fn.__name__] = (sweeps, fn)
        return fn
    return register


# --- per-figure numbers shared by the tables and the Summary ---------

def fig03_totals(s, protocol):
    """Per-transaction (exec, wait, total) cycles at each limit."""
    rows = []
    for limit in LIMITS:
        run = s.run("fig03-concurrency", "HT-H", protocol,
                    concurrency=limit)
        exec_ = run["tx_exec_cycles"] / run["commits"]
        wait = run["tx_wait_cycles"] / run["commits"]
        rows.append((exec_, wait, exec_ + wait))
    return rows


def best_limit(totals):
    """The limit with the lowest total per transaction, and that total."""
    best = min(range(len(LIMITS)), key=lambda i: totals[i][2])
    return LIMITS[best], totals[best][2]


def limit_name(limit):
    return "NL" if limit == 0 else str(limit)


def limit_rank(limit):
    return math.inf if limit == 0 else limit


def fig11_ratios(s):
    """Per bench: (WTM, EAPG, GETM) cycles over FGLock cycles."""
    ratios = {}
    for bench in BENCHES:
        lock = s.cycles(PROTOCOLS, bench, LOCK)
        ratios[bench] = [s.cycles(PROTOCOLS, bench, p) / lock
                         for p in (WTM, EAPG, GETM)]
    return ratios


def flit_ratios(s):
    """Per bench: (EAPG, GETM) crossbar flits over WarpTM's."""
    ratios = {}
    for bench in BENCHES:
        wtm = s.run(PROTOCOLS, bench, WTM)["xbar_flits"]
        ratios[bench] = [s.run(PROTOCOLS, bench, p)["xbar_flits"] / wtm
                         for p in (EAPG, GETM)]
    return ratios


def access_cycles(s):
    return {bench: s.point(PROTOCOLS, bench, GETM)["stats"]["averages"]
            ["access_cycles"]["mean"] for bench in BENCHES}


def sensitivity(s, sweep, key, values):
    """Per bench: GETM cycles at each value over 15-core WarpTM's."""
    return {bench: [s.cycles(sweep, bench, GETM, **{key: v}) /
                    s.cycles(PROTOCOLS, bench, WTM) for v in values]
            for bench in BENCHES}


def tab04_optima(s):
    """Per bench and protocol: (best limit, aborts/1K at that limit)."""
    optima = {}
    for bench in BENCHES:
        for protocol in (WTM, EAPG, EL, GETM):
            runs = [s.run("tab04-concurrency", bench, protocol,
                          concurrency=limit) for limit in LIMITS]
            # Earliest limit wins a tie, as in a first-minimum scan.
            best = min(range(len(LIMITS)),
                       key=lambda i: runs[i]["cycles"])
            optima[bench, protocol] = (
                LIMITS[best], runs[best]["aborts_per_1k_commits"])
    return optima


TABLE_SIZES = [2048, 4096, 8192]
GRANULES = [16, 32, 64, 128]

# The GETM ablations: the baseline corner of the ablation sweep, and
# each variant's one change to it.
ABLATION = "ablation-getm"
ABLATION_BASE = {"getm_max_registers": 0, "getm_stall_lines": 4,
                 "getm_granule": 32}
ABLATION_VARIANTS = [("max-registers", {"getm_max_registers": 1}),
                     ("no stall buffer", {"getm_stall_lines": 0}),
                     ("64 B granules", {"getm_granule": 64})]


# --- regions ----------------------------------------------------------

@region("fig03-concurrency")
def fig03(s):
    ll, el = fig03_totals(s, WTM), fig03_totals(s, EL)
    rows = [[limit_name(limit)] + [f"{x:.1f}" for x in ll[i] + el[i]]
            for i, limit in enumerate(LIMITS)]
    ll_best, _ = best_limit(ll)
    el_best, el_min = best_limit(el)
    return table(["limit", "LL exec/tx", "LL wait/tx", "LL total",
                  "EL exec/tx", "EL wait/tx", "EL total"], rows) + (
        f"\nLL's total per transaction is lowest at limit "
        f"{limit_name(ll_best)}; at NL it is {ll[-1][2] / ll[0][2]:.1f}× "
        f"limit 1. EL's is lowest at limit {limit_name(el_best)}, "
        f"{el[0][2] / el_min:.1f}× below limit 1.\n")


@region("fig04-eager-vs-lazy")
def fig04(s):
    sweep = "fig04-eager-vs-lazy"
    rows, to_lock, el_over_ll = [], [[], []], []
    for bench in BENCHES:
        lock = s.cycles(sweep, bench, LOCK)
        tx = [s.run(sweep, bench, p)["tx_exec_cycles"] +
              s.run(sweep, bench, p)["tx_wait_cycles"] for p in (WTM, EL)]
        total = [s.cycles(sweep, bench, p) / lock for p in (WTM, EL)]
        el_over_ll.append(tx[1] / tx[0])
        for column, value in zip(to_lock, total):
            column.append(value)
        rows.append([bench, f"{tx[0]:,}", f"{tx[1]:,}",
                     f3(tx[1] / tx[0]), f3(total[0]), f3(total[1])])
    rows.append(["gmean", "", "", "", f3(gmean(to_lock[0])),
                 f3(gmean(to_lock[1]))])
    el_wins = sum(el < ll for ll, el in zip(*to_lock))
    return table(["bench", "LL tx-cycles", "EL tx-cycles", "EL/LL",
                  "LL/FGLock", "EL/FGLock"], rows) + (
        f"\nEL's tx-cycles are {min(el_over_ll):.3f}–"
        f"{max(el_over_ll):.3f}× LL's; EL's total time beats LL's on "
        f"{el_wins} of {len(BENCHES)} benchmarks.\n")


@region(PROTOCOLS)
def fig10(s):
    rows, norm = [], [[], []]
    for bench in BENCHES:
        runs = [s.run(PROTOCOLS, bench, p) for p in (WTM, EAPG, GETM)]
        totals = [r["tx_exec_cycles"] + r["tx_wait_cycles"] for r in runs]
        split = [f"{100.0 * r['tx_exec_cycles'] / totals[0]:.0f}/"
                 f"{100.0 * (t - r['tx_exec_cycles']) / totals[0]:.0f}"
                 for r, t in zip(runs, totals)]
        for column, total in zip(norm, totals[1:]):
            column.append(total / totals[0])
        rows.append([bench, f3(totals[1] / totals[0]),
                     f3(totals[2] / totals[0])] + split)
    rows.append(["gmean", f3(gmean(norm[0])), f3(gmean(norm[1])),
                 "", "", ""])
    above = [b for b, v in zip(BENCHES, norm[1]) if v > 1.0]
    return table(["bench", "EAPG", "GETM", "WTM exec/wait %",
                  "EAPG exec/wait %", "GETM exec/wait %"], rows) + (
        f"\nGETM's tx-only cycles exceed WarpTM's on: "
        f"{listing(above)}.\n")


@region(PROTOCOLS)
def fig11(s):
    ratios = fig11_ratios(s)
    rows = [[bench] + [f3(x) for x in r] + [f3(r[0] / r[2])]
            for bench, r in ratios.items()]
    columns = list(zip(*ratios.values()))
    speedups = [r[0] / r[2] for r in ratios.values()]
    rows.append(["gmean"] + [f3(gmean(c)) for c in columns] +
                [f3(gmean(speedups))])
    text = table(["bench", "WTM", "EAPG", "GETM", "WTM/GETM"], rows)
    text += (f"\n- WTM/GETM is **{gmean(speedups):.2f}×** at the gmean "
             f"and **{ratios['HT-H'][0] / ratios['HT-H'][2]:.2f}×** on "
             f"HT-H.\n")
    for bench, speedup in zip(BENCHES, speedups):
        if speedup >= 1.0:
            continue
        getm = s.point(PROTOCOLS, bench, GETM)
        text += (f"- GETM loses {bench}: "
                 f"{getm['run']['cycles']:,} cycles against WarpTM-LL's "
                 f"{s.cycles(PROTOCOLS, bench, WTM):,}. "
                 f"{getm['aborts_by_reason']['BLOOM_FALSE_POSITIVE']:,} "
                 f"of GETM's {getm['run']['aborts']:,} {bench} aborts "
                 f"are labelled `BLOOM_FALSE_POSITIVE`.\n")
    return text


@region(PROTOCOLS)
def fig12(s):
    ratios = flit_ratios(s)
    rows = [[bench] + [f3(x) for x in r] for bench, r in ratios.items()]
    columns = list(zip(*ratios.values()))
    rows.append(["gmean"] + [f3(gmean(c)) for c in columns])
    fewer = [b for b, r in ratios.items() if r[1] < 1.0]
    return table(["bench", "EAPG", "GETM"], rows) + (
        f"\nGETM sends {min(columns[1]):.3f}–{max(columns[1]):.3f}× "
        f"WarpTM's flits, fewer on: {listing(fewer)}.\n")


@region(PROTOCOLS)
def fig13(s):
    cycles = access_cycles(s)
    rows = [[bench, f3(v)] for bench, v in cycles.items()]
    rows.append(["mean", f3(sum(cycles.values()) / len(cycles))])
    return table(["bench", "access cycles"], rows)


@region("fig14-table-size", PROTOCOLS)
def fig14_size(s):
    return sensitivity_table(
        sensitivity(s, "fig14-table-size", "getm_precise_entries",
                    TABLE_SIZES), [f"{n // 1024}K" for n in TABLE_SIZES])


@region("fig14-granularity", PROTOCOLS)
def fig14_granule(s):
    return sensitivity_table(
        sensitivity(s, "fig14-granularity", "getm_granule", GRANULES),
        [f"{g} B" for g in GRANULES])


def sensitivity_table(norm, labels):
    rows = [[bench] + [f3(x) for x in r] for bench, r in norm.items()]
    rows.append(["gmean"] + [f3(gmean(c)) for c in zip(*norm.values())])
    return table(["bench"] + labels, rows)


@region("fig15-16-stalls")
def fig15(s):
    rows, peaks = [], {}
    for bench in BENCHES:
        point = s.point("fig15-16-stalls", bench, GETM)
        peaks[bench] = point["stall"]["peak_occupancy"]
        rows.append([bench, str(peaks[bench]),
                     f"{sum(point['stalls_by_reason'].values()):,}"])
    worst = max(peaks, key=peaks.get)
    rows.append(["max", str(peaks[worst]), ""])
    within = sum(p <= 12 for p in peaks.values())
    return table(["bench", "peak queued", "stalls"], rows) + (
        f"\nThe peak is {peaks[worst]} on {worst}; {within} of "
        f"{len(BENCHES)} benchmarks stay within the paper's 12.\n")


@region("fig15-16-stalls")
def fig16(s):
    rows, waiters = [], {}
    for bench in BENCHES:
        point = s.point("fig15-16-stalls", bench, GETM)
        waiters[bench] = point["stall"]["mean_waiters_per_addr"]
        hot = point["hot_addresses"]
        rows.append([bench, f3(waiters[bench])] + (
            [f"`{hot[0]['addr_hex']}`", f"{hot[0]['total']:,}",
             f"P{hot[0]['partition']}"] if hot else ["", "", ""]))
    rows.append(["mean", f3(sum(waiters.values()) / len(waiters)),
                 "", "", ""])
    stalling = [w for w in waiters.values() if w > 0]
    return table(["bench", "waiters/addr", "hottest granule", "events",
                  "partition"], rows) + (
        f"\nOn the {len(stalling)} benchmarks that stall at all, "
        f"{min(stalling):.3f}–{max(stalling):.3f} requests wait per "
        f"address.\n")


@region("fig17-scalability", PROTOCOLS)
def fig17(s):
    rows, norm = [], [[] for _ in range(5)]
    for bench in BENCHES:
        base = s.cycles(PROTOCOLS, bench, WTM)
        values = [s.cycles(PROTOCOLS, bench, p) / base
                  for p in (EAPG, GETM)]
        values += [s.cycles("fig17-scalability", bench, p) / base
                   for p in (WTM, EAPG, GETM)]
        for column, value in zip(norm, values):
            column.append(value)
        rows.append([bench] + [f3(v) for v in values])
    rows.append(["gmean"] + [f3(gmean(c)) for c in norm])
    return table(["bench", "EAPG15", "GETM15", "WTM56", "EAPG56",
                  "GETM56"], rows)


@region("tab04-concurrency")
def tab04(s):
    optima = tab04_optima(s)
    protocols = (WTM, EAPG, EL, GETM)
    rows = [[bench] + [limit_name(optima[bench, p][0]) for p in protocols]
            + [f"{optima[bench, p][1]:.0f}" for p in protocols]
            for bench in BENCHES]
    return table(["bench", "best WTM", "best EAPG", "best EL",
                  "best GETM", "aborts/1K WTM", "aborts/1K EAPG",
                  "aborts/1K EL", "aborts/1K GETM"], rows)


@region(ABLATION)
def ablation(s):
    rows, ratios, more_aborts = [], [], [0] * len(ABLATION_VARIANTS)
    for bench in BENCHES:
        base = s.run(ABLATION, bench, GETM, **ABLATION_BASE)
        row = [bench, f"{base['cycles']:,}",
               f"{base['aborts_per_1k_commits']:.0f}"]
        ratios.append([])
        for i, (_, change) in enumerate(ABLATION_VARIANTS):
            run = s.run(ABLATION, bench, GETM,
                        **{**ABLATION_BASE, **change})
            ratios[-1].append(run["cycles"] / base["cycles"])
            more_aborts[i] += (run["aborts_per_1k_commits"] >
                               base["aborts_per_1k_commits"])
            row += [f3(ratios[-1][-1]),
                    f"{run['aborts_per_1k_commits']:.0f}"]
        rows.append(row)
    columns = list(zip(*ratios))
    rows.append(["gmean", "", ""] +
                [cell for c in columns for cell in (f3(gmean(c)), "")])
    header = ["bench", "baseline cycles", "baseline ab/1K"]
    for name, _ in ABLATION_VARIANTS:
        header += [f"{name} ×", f"{name} ab/1K"]
    text = table(header, rows) + "\n"
    for (name, _), column, aborts in zip(ABLATION_VARIANTS, columns,
                                         more_aborts):
        worst = max(range(len(BENCHES)), key=column.__getitem__)
        slower = listing([b for b, x in zip(BENCHES, column) if x > 1.05])
        text += (f"- {name}: {gmean(column):.2f}× the baseline's time "
                 f"at the gmean, at worst {column[worst]:.2f}× on "
                 f"{BENCHES[worst]}; over 5% slower on: {slower}; more "
                 f"aborts/1K on {aborts} of {len(BENCHES)}.\n")
    return text


@region(PROTOCOLS)
def summary_headline(s):
    ratios = fig11_ratios(s)
    speedup = {b: r[0] / r[2] for b, r in ratios.items()}
    sgmean = gmean(speedup.values())
    losses = [f"{b} {v:.2f}×" for b, v in speedup.items() if v < 1.0]
    lock = gmean([r[2] for r in ratios.values()])
    eapg = gmean([r[1] for r in ratios.values()]) / \
        gmean([r[0] for r in ratios.values()])
    flits = [gmean(c) for c in zip(*flit_ratios(s).values())]
    meta = access_cycles(s)
    meta_mean = sum(meta.values()) / len(meta)
    rows = [
        ["GETM faster than WarpTM on HT-H (Fig. 11)", "2.1×",
         f"{speedup['HT-H']:.2f}×", yes(speedup["HT-H"] > 1.0)],
        ["GETM faster than WarpTM at the gmean (Fig. 11)", "1.2×",
         f"{sgmean:.2f}×; slower on {listing(losses)}",
         yes(sgmean > 1.0)],
        ["GETM within 7% of fine-grained locks (Fig. 11)",
         "≈ 1.07× FGLock", f"{lock:.2f}× FGLock", yes(lock <= 1.07)],
        ["EAPG within 5% of WarpTM or slower (Fig. 11)", "≈ 1×",
         f"{eapg:.2f}× WarpTM's time", yes(eapg >= 0.95)],
        ["EAPG's broadcasts cost traffic (Fig. 12)", "more flits",
         f"{flits[0]:.2f}× WarpTM's flits", yes(flits[0] > 1.0)],
        ["GETM's traffic premium below EAPG's (Fig. 12)", "minor",
         f"{flits[1]:.2f}× WarpTM's flits", yes(flits[1] < flits[0])],
        ["Metadata table under 1.1 cycles per access (Fig. 13)", "≈ 1",
         f"{meta_mean:.3f} mean, {max(meta.values()):.3f} max",
         yes(meta_mean < 1.1)],
    ]
    return table(["claim", "paper", "measured", "holds"], rows)


@region("fig03-concurrency", "fig04-eager-vs-lazy", "fig14-table-size",
        "fig14-granularity", "fig15-16-stalls", "fig17-scalability",
        "tab04-concurrency", PROTOCOLS)
def summary_other(s):
    ll, el = fig03_totals(s, WTM), fig03_totals(s, EL)
    ll_best, _ = best_limit(ll)
    el_best, _ = best_limit(el)
    eager_wins = sum(s.cycles("fig04-eager-vs-lazy", b, EL) <
                     s.cycles("fig04-eager-vs-lazy", b, WTM)
                     for b in BENCHES)
    size = [gmean(c) for c in zip(*sensitivity(
        s, "fig14-table-size", "getm_precise_entries",
        TABLE_SIZES).values())]
    sizes = "gmean × WarpTM: " + ", ".join(
        f"{n // 1024}K {v:.3f}" for n, v in zip(TABLE_SIZES, size))
    granule = [gmean(c) for c in zip(*sensitivity(
        s, "fig14-granularity", "getm_granule", GRANULES).values())]
    stalls = [s.point("fig15-16-stalls", b, GETM)["stall"]
              for b in BENCHES]
    peak = max(p["peak_occupancy"] for p in stalls)
    waiters = [p["mean_waiters_per_addr"] for p in stalls
               if p["mean_waiters_per_addr"] > 0]
    optima = tab04_optima(s)
    more_aborts = sum(optima[b, GETM][1] > optima[b, WTM][1]
                      for b in BENCHES)
    scaled = {p: gmean([s.cycles("fig17-scalability", b, p) /
                        s.cycles(PROTOCOLS, b, WTM) for b in BENCHES])
              for p in (WTM, EAPG, GETM)}
    rows = [
        ["Lazy validation's HT-H optimum at 2 or below (Fig. 3)",
         "LL best at 2", f"LL best at {limit_name(ll_best)}",
         yes(limit_rank(ll_best) <= 2)],
        ["Eager detection's HT-H optimum above 2 (Fig. 3)",
         "EL improves", f"EL best at {limit_name(el_best)}",
         yes(limit_rank(el_best) > 2)],
        ["Eager beats lazy on total time (Fig. 4)", "all benchmarks",
         f"{eager_wins} of {len(BENCHES)}",
         yes(eager_wins == len(BENCHES))],
        ["2K entries slower than 4K at the gmean (Fig. 14)",
         "too small", sizes, yes(size[0] > size[1])],
        ["8K entries within 5% of 4K at the gmean (Fig. 14)",
         "no significant gain", sizes, yes(size[2] >= 0.95 * size[1])],
        ["32 B granules faster than 128 B at the gmean (Fig. 14)",
         "finer helps",
         "gmean × WarpTM: " + ", ".join(
             f"{g} B {v:.3f}" for g, v in zip(GRANULES, granule)),
         yes(granule[1] < granule[3])],
        ["GPU-wide stall-buffer peak ≤ 12 (Fig. 15)", "≤ 12",
         f"{peak}", yes(peak <= 12)],
        ["Under 1.5 waiters per stalled address (Fig. 16)", "≈ 1",
         f"{min(waiters):.3f}–{max(waiters):.3f}",
         yes(max(waiters) < 1.5)],
        ["GETM's HT-H optimum above WarpTM's (Table IV)", "8 vs 2",
         f"{limit_name(optima['HT-H', GETM][0])} vs "
         f"{limit_name(optima['HT-H', WTM][0])}",
         yes(limit_rank(optima["HT-H", GETM][0]) >
             limit_rank(optima["HT-H", WTM][0]))],
        ["GETM aborts more than WarpTM on most benchmarks (Table IV)",
         "far higher",
         f"more aborts/1K than WarpTM on {more_aborts} of "
         f"{len(BENCHES)}", yes(2 * more_aborts > len(BENCHES))],
        ["GETM fastest at 56 cores at the gmean (Fig. 17)",
         "trends carry over",
         "gmean × 15-core WarpTM: " + ", ".join(
             f"{p} {v:.3f}" for p, v in scaled.items()),
         yes(scaled[GETM] < min(scaled[WTM], scaled[EAPG]))],
    ]
    return table(["claim", "paper", "measured", "holds"], rows)


def main():
    parser = argparse.ArgumentParser(
        description="Render EXPERIMENTS.md's measured regions from "
                    "sweep documents.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="fail if a rendered region differs")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the rendered regions in place")
    parser.add_argument("sweeps", nargs="+", metavar="SWEEP.json")
    args = parser.parse_args()

    text = EXPERIMENTS.read_text(encoding="utf-8")
    present = [m.group(1) for m in REGION_RE.finditer(text)]
    try:
        if sorted(present) != sorted(REGIONS):
            raise RenderError(
                f"EXPERIMENTS.md regions {sorted(present)} differ from "
                f"the renderer's {sorted(REGIONS)}")
        sweeps = Sweeps(args.sweeps)
        rendered, skipped = {}, []
        for name, (needs, render) in REGIONS.items():
            if all(sweep in sweeps.points for sweep in needs):
                rendered[name] = render(sweeps)
            else:
                skipped.append(name)
    except (OSError, ValueError, KeyError, RenderError) as err:
        print(f"render_experiments: {err}", file=sys.stderr)
        return 2

    stale = []

    def replace(match):
        name, old = match.group(1), match.group(2)
        new = rendered.get(name, old)
        if new != old:
            stale.append(name)
            if args.check:
                sys.stderr.writelines(difflib.unified_diff(
                    old.splitlines(True), new.splitlines(True),
                    f"EXPERIMENTS.md [{name}]", f"rendered [{name}]"))
        return f"<!-- render:{name} -->\n{new}<!-- /render:{name} -->"

    updated = REGION_RE.sub(replace, text)
    summary = (f"{len(rendered)} region(s) rendered, "
               f"{len(skipped)} skipped")
    if args.write:
        EXPERIMENTS.write_text(updated, encoding="utf-8")
        print(f"render_experiments: {summary}, "
              f"{len(stale)} rewritten")
        return 0
    if stale:
        print(f"render_experiments: {len(stale)} region(s) differ from "
              f"the sweeps: {', '.join(stale)}; re-render with --write",
              file=sys.stderr)
        return 1
    print(f"render_experiments: OK ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
