#!/usr/bin/env python3
"""Keep the documentation honest.

Two checks over README.md, EXPERIMENTS.md, DESIGN.md and docs/*.md:

1. Every repository path a document references must exist. A
   candidate path is a slash-containing token with a known source/doc
   extension (e.g. `src/obs/metrics.cc`, `configs/sweeps/smoke.sweep`),
   a directory reference rooted at a top-level source dir (e.g.
   `src/obs/`), or a bare UPPERCASE.md name (e.g. `DESIGN.md`).
   References are resolved against the referencing file's directory
   first, then the repository root. Paths under build output
   directories (`build/`, `out/`, absolute paths) are ignored: they
   only exist after a build. The exception is a bench program,
   `build/bench/NAME` or `bench/NAME`, which must have its source
   `bench/NAME.cc`, so docs cannot keep naming a deleted program.

2. Every `--flag` the documentation shows for a simulator CLI must be
   accepted by the binary. A flag is attributed to a binary when it
   appears on a (possibly backslash-continued) command line naming
   that binary, or in an inline code span consisting of just the flag
   (e.g. "the `--hot-addrs N` flag"). Accepted flags are scraped from
   the binary's --help output.

Additionally, `--require PATH` (repeatable) names repo-relative
documents that must exist — the contract docs a deleted or renamed
file would silently orphan (e.g. docs/DURABILITY.md, whose absence
would leave the checkpoint format undocumented).

Usage:
    check_docs.py --root REPO [--binary getm-sim=/path/to/getm-sim ...]
                  [--require docs/DURABILITY.md ...]

Exits non-zero listing every violation (the docs_check ctest).
"""

import argparse
import os
import re
import subprocess
import sys

DOC_GLOBS = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
DOCS_DIR = "docs"

PATH_EXTENSIONS = (
    "md", "cc", "hh", "py", "cfg", "sweep", "cmake", "txt", "yml",
    "yaml",
)
PATH_RE = re.compile(
    r"(?<![\w/.-])((?:[A-Za-z0-9_.-]+/)+[A-Za-z0-9_.-]+\."
    r"(?:" + "|".join(PATH_EXTENSIONS) + r"))(?![\w-])")
DIR_RE = re.compile(
    r"(?<![\w/.-])((?:src|docs|tools|tests|bench|configs|examples)"
    r"(?:/[A-Za-z0-9_.-]+)*/)(?![\w.-])")
BARE_MD_RE = re.compile(r"(?<![\w/.-])([A-Z][A-Z_]+\.md)\b")
BENCH_BIN_RE = re.compile(
    r"(?<![\w/.-])(?:\./)?(?:build/)?bench/(\w+)(?![\w/.-])")
FLAG_RE = re.compile(r"(--[A-Za-z][A-Za-z0-9-]*)")
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
# `--flag`, `--flag N`, `--flag FILE`, `--flag=VALUE` style inline
# spans.
FLAG_SPAN_RE = re.compile(r"^(--[A-Za-z][A-Za-z0-9-]*)(=\S+|\s+\S+)?$")

IGNORED_PREFIXES = ("build/", "out/", "/")


def doc_files(root):
    files = [os.path.join(root, name) for name in DOC_GLOBS]
    docs = os.path.join(root, DOCS_DIR)
    if os.path.isdir(docs):
        files += [os.path.join(docs, name)
                  for name in sorted(os.listdir(docs))
                  if name.endswith(".md")]
    return [f for f in files if os.path.isfile(f)]


def strip_urls(text):
    return re.sub(r"https?://\S+", "", text)


def check_paths(root, path, text, problems):
    rel_dir = os.path.dirname(path)
    refs = set(PATH_RE.findall(text)) | set(DIR_RE.findall(text)) | \
        set(BARE_MD_RE.findall(text))
    for ref in sorted(refs):
        if ref.startswith(IGNORED_PREFIXES):
            continue
        if os.path.exists(os.path.join(rel_dir, ref)):
            continue
        if os.path.exists(os.path.join(root, ref)):
            continue
        # C++ include paths are rooted at src/.
        if os.path.exists(os.path.join(root, "src", ref)):
            continue
        problems.append(f"{os.path.relpath(path, root)}: "
                        f"references missing path '{ref}'")
    for name in sorted(set(BENCH_BIN_RE.findall(text))):
        if not os.path.isfile(os.path.join(root, "bench", name + ".cc")):
            problems.append(f"{os.path.relpath(path, root)}: "
                            f"references bench program '{name}' "
                            f"without bench/{name}.cc")


def binary_flags(binary_path):
    """Flags accepted per --help (which also exercises the binary)."""
    result = subprocess.run([binary_path, "--help"],
                            capture_output=True, text=True, timeout=60)
    if result.returncode != 0:
        raise RuntimeError(
            f"{binary_path} --help exited {result.returncode}")
    return set(FLAG_RE.findall(result.stdout + result.stderr))


def documented_flags(text, binary_names):
    """(binary_name_or_None, flag, line_no) triples found in @p text.

    binary_name is None for standalone inline-code flags, which are
    checked against the union of every binary's accepted flags.
    """
    found = []
    lines = text.split("\n")
    continuing = None  # binary name when the previous line ended in \
    for line_no, line in enumerate(lines, 1):
        owner = continuing
        if owner is None:
            for name in binary_names:
                if re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])",
                             line):
                    owner = name
                    break
        if owner is not None:
            for flag in FLAG_RE.findall(line):
                found.append((owner, flag, line_no))
            continuing = owner if line.rstrip().endswith("\\") else None
            continue
        for span in INLINE_CODE_RE.findall(line):
            match = FLAG_SPAN_RE.match(span.strip())
            if match:
                found.append((None, match.group(1), line_no))
    return found


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--binary", action="append", default=[],
                        metavar="NAME=PATH",
                        help="CLI to cross-check, e.g. "
                             "getm-sim=build/tools/getm-sim")
    parser.add_argument("--require", action="append", default=[],
                        metavar="PATH",
                        help="repo-relative document that must exist, "
                             "e.g. docs/DURABILITY.md")
    args = parser.parse_args()

    binaries = {}
    for spec in args.binary:
        name, _, binary_path = spec.partition("=")
        if not binary_path:
            parser.error(f"--binary wants NAME=PATH, got '{spec}'")
        binaries[name] = binary_flags(binary_path)
    union_flags = set().union(*binaries.values()) if binaries else set()

    problems = []
    for required in args.require:
        if not os.path.isfile(os.path.join(args.root, required)):
            problems.append(f"required document '{required}' is missing")
    files = doc_files(args.root)
    if not files:
        problems.append(f"no documentation found under {args.root}")
    for path in files:
        with open(path, encoding="utf-8") as fh:
            text = strip_urls(fh.read())
        check_paths(args.root, path, text, problems)
        if not binaries:
            continue
        rel = os.path.relpath(path, args.root)
        for owner, flag, line_no in documented_flags(text, binaries):
            accepted = binaries.get(owner, union_flags)
            if flag not in accepted:
                where = owner or "any documented CLI"
                problems.append(
                    f"{rel}:{line_no}: documents flag '{flag}' "
                    f"not accepted by {where}")

    if problems:
        for problem in problems:
            print(f"check_docs: {problem}", file=sys.stderr)
        print(f"check_docs: {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    names = ", ".join(binaries) if binaries else "no binaries"
    print(f"check_docs: OK ({len(files)} documents, "
          f"flags cross-checked against {names})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
