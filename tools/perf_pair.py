#!/usr/bin/env python3
"""Compare the host speed of two source trees on one perfbench workload.

    perf_pair.py --base REF_OR_DIR [--workload paper] [--seed 9801]
                 [--pairs 5] [--work DIR]
                 [--out .perf_pair/BENCH_perf.json]

The base is a git ref of this repository or a directory; the change
is the working tree this script sits in. Both are copied into --work
first (a ref through `git archive`, a directory without its build
outputs), so an edit made during the runs reaches neither build. Each
copy builds with its own perfbench/run.py into its own
CARGO_TARGET_DIR. Then N pairs of runs of one workload and seed follow,
alternating which side goes first: host speed drifts from minute to
minute, so only runs interleaved in time compare.

Each side's median and quartiles of every end-to-end metric are
printed and written to --out, by default .perf_pair/BENCH_perf.json
under the repository root, beside the default --work. The exit status
is 1 when the change's median wall_s is more than 1.25 times the
base's (the benchmark's wall_s bound), or when any run reports a
failed op or correct: false; 2 when a tree cannot be copied, built or
run. Counter digests that differ within a pair are reported but do
not fail: a change to the model moves them on purpose.
"""

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
BOUND = 1.25
# Build outputs and scratch left out of a copied directory tree.
SKIP = {".git", "build", ".bench_build", ".perf_pair", "out"}
DIGEST_RE = re.compile(r"counter digest (\S+)")


def parse_run(stdout):
    """One perfbench run's result: the JSON last line plus the digest."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    digest = DIGEST_RE.search(stdout)
    return {"correct": result.get("correct") is True,
            "failed": result.get("failed", 0),
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "digest": digest.group(1) if digest else None}


def spread(values):
    """Median and quartiles of one metric over a side's runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs):
    return {name: spread([r["metrics"][name] for r in runs])
            for name in runs[0]["metrics"]}


def decide(base, change):
    """The gate's verdict on two sides' parsed runs.

    Returns (failures, notes): any failure fails the gate; notes are
    reported only.
    """
    failures, notes = [], []
    for side, runs in zip(SIDES, (base, change)):
        for i, run in enumerate(runs, 1):
            if run["failed"] or not run["correct"]:
                failures.append(f"{side} run {i}: {run['failed']} failed "
                                f"op(s), correct: "
                                f"{str(run['correct']).lower()}")
    ratio = (statistics.median(r["metrics"]["wall_s"] for r in change) /
             statistics.median(r["metrics"]["wall_s"] for r in base))
    if ratio > BOUND:
        failures.append(f"median wall_s is {ratio:.3f}x the base's, "
                        f"above the {BOUND}x bound")
    for i, (b, c) in enumerate(zip(base, change), 1):
        if b["digest"] != c["digest"]:
            notes.append(f"pair {i}: counter digests differ (base "
                         f"{b['digest']}, change {c['digest']})")
    return failures, notes


def copy_tree(spec, dest):
    """Copy a directory tree or a git ref of this repository to dest."""
    if os.path.isdir(spec):
        top = os.path.abspath(spec)
        shutil.copytree(top, dest, ignore=lambda d, names: [
            n for n in names if n == "__pycache__" or
            (os.path.abspath(d) == top and n in SKIP)])
        return
    tar = subprocess.run(["git", "-C", ROOT, "archive", spec],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree, build, args):
    """One perfbench run of a tree; its stdout, also kept in --work."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed)],
        cwd=tree, env={**os.environ, "CARGO_TARGET_DIR": build},
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} exited "
                           f"{proc.returncode}")
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref or directory to compare against")
    parser.add_argument("--workload", default="paper",
                        choices=("paper", "oltp_skew", "instrumented"))
    parser.add_argument("--seed", type=int, default=9801)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--work", default=os.path.join(ROOT, ".perf_pair"),
                        help="scratch directory for the copies, builds "
                             "and run logs")
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".perf_pair", "BENCH_perf.json"))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = os.path.abspath(args.work)
    trees = {side: os.path.join(work, side) for side in SIDES}
    runs = {side: [] for side in SIDES}
    try:
        for side, spec in zip(SIDES, (args.base, ROOT)):
            for path in (trees[side], trees[side] + ".build"):
                shutil.rmtree(path, ignore_errors=True)
            copy_tree(spec, trees[side])
        for i in range(1, args.pairs + 1):
            order = SIDES if i % 2 else SIDES[::-1]
            for side in order:
                out = run_once(trees[side], trees[side] + ".build", args)
                with open(os.path.join(work, f"{side}-{i}.txt"), "w",
                          encoding="utf-8") as fh:
                    fh.write(out)
                runs[side].append(parse_run(out))
                print(f"pair {i} {side}: wall_s "
                      f"{runs[side][-1]['metrics']['wall_s']:.3f}",
                      flush=True)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.CalledProcessError) as err:
        print(f"perf_pair: {err}", file=sys.stderr)
        return 2

    failures, notes = decide(runs["base"], runs["change"])
    summary = {side: summarize(runs[side]) for side in SIDES}
    for name, base in summary["base"].items():
        change = summary["change"].get(name)
        if change is None:
            continue
        print(f"{name:<18} base {base['median']:.4g} "
              f"[{base['q1']:.4g}, {base['q3']:.4g}]  change "
              f"{change['median']:.4g} [{change['q1']:.4g}, "
              f"{change['q3']:.4g}]  ratio "
              f"{change['median'] / base['median']:.3f}")
    faster = sum(c["metrics"]["wall_s"] < b["metrics"]["wall_s"]
                 for b, c in zip(runs["base"], runs["change"]))
    print(f"change faster in {faster} of {args.pairs} pairs (wall_s)")
    for line in notes:
        print(f"perf_pair: note: {line}")
    for line in failures:
        print(f"perf_pair: FAIL: {line}", file=sys.stderr)

    doc = {"schema": "getm-perf-pair", "workload": args.workload,
           "seed": args.seed, "pairs": args.pairs, "bound": BOUND,
           "base": {"tree": args.base, "metrics": summary["base"],
                    "digests": [r["digest"] for r in runs["base"]]},
           "change": {"tree": ROOT, "metrics": summary["change"],
                      "digests": [r["digest"] for r in runs["change"]]},
           "change_faster_pairs": faster, "failures": failures,
           "notes": notes, "ok": not failures}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"perf_pair: {'OK' if not failures else 'FAIL'} -> {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
