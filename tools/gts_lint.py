#!/usr/bin/env python3
"""Determinism and convention linter for the scheduler core.

The repo's contract (DESIGN.md section 16) is that every scheduling
decision is a pure function of (cluster state, job stream, seed): the
same trace replayed with any --threads value must produce byte-identical
decisions. This linter token-scans the decision-path directories for the
constructs that historically break that contract:

  unordered-iteration  iterating an unordered_{map,set} (bucket order is
                       implementation-defined and seed-dependent) where
                       the iteration order can feed a decision
  pointer-key          pointer-keyed containers / std::hash of a pointer
                       (address-space layout leaks into ordering)
  wall-clock           wall-clock reads inside the decision path (timing
                       belongs to the obs/ layer, which is allowlisted)
  raw-random           raw rand()/random_device/engine use outside
                       util::Rng (streams must be named and seeded)
  bare-assert          assert() instead of GTS_CHECK/GTS_DCHECK (vanishes
                       under NDEBUG, so release builds skip invariants)

plus repo-wide conventions absorbed from tools/lint.sh:

  pragma-once          every src/ header starts with #pragma once
  using-namespace-std  no 'using namespace std' in headers

A finding on a line ending in  // GTS_LINT_ALLOW(<rule>)  (or preceded
by a comment line carrying the same marker) is suppressed; use this for
reviewed exceptions and say why next to the marker. Known pre-existing
findings live in tools/gts_lint_baseline.json; CI fails on any finding
not in the baseline, and --update-baseline regenerates it.

Usage:
  tools/gts_lint.py                 # human-readable report, exit 1 on findings
  tools/gts_lint.py --json          # machine-readable report on stdout
  tools/gts_lint.py --update-baseline
  tools/gts_lint.py --no-baseline   # report everything, ignore the baseline
  tools/gts_lint.py path...         # restrict the scan (files or dirs)

Requires only the Python standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose code computes or feeds scheduling decisions (src/shard
# routes each job to the cell that places it; src/k8s binds pods through
# TOPO-AWARE-P; src/trace draws the arrival times every simulation replays).
# The obs/ and svc/ layers are deliberately absent: observability owns
# wall-clock timing, and the service layer timestamps requests.
DECISION_DIRS = (
    "src/sched",
    "src/partition",
    "src/topo",
    "src/jobgraph",
    "src/cluster",
    "src/shard",
    "src/k8s",
    "src/trace",
)

# All first-party C++ (conventions + the raw-random / bare-assert rules,
# which apply beyond the decision path).
SRC_DIRS = ("src",)

SUPPRESS_RE = re.compile(r"GTS_LINT_ALLOW\(\s*([a-z0-9-]+)\s*\)")

RULES = {
    "unordered-iteration": "iteration over an unordered container in the "
    "decision path (bucket order is not deterministic); iterate a sorted "
    "copy or a std::map, or suppress with a comment explaining why order "
    "cannot reach a decision",
    "pointer-key": "pointer-keyed container or pointer hash in the decision "
    "path (addresses vary run to run); key by a stable id",
    "wall-clock": "wall-clock read in the decision path; route timing "
    "through the obs/ layer (obs::wall_now_us) so decisions stay replayable",
    "raw-random": "raw randomness outside util::Rng; draw from a named "
    "util::Rng stream so runs are seed-reproducible",
    "bare-assert": "bare assert() (vanishes under NDEBUG); use "
    "GTS_CHECK/GTS_DCHECK from src/check/check.hpp",
    "pragma-once": "header missing '#pragma once'",
    "using-namespace-std": "'using namespace std' in a header leaks into "
    "every includer",
}

WALL_CLOCK_TOKENS = (
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "gettimeofday",
    "clock_gettime",
    "std::time(",
    "::time(",
    "localtime",
    "gmtime",
)

RAW_RANDOM_RE = re.compile(
    r"(?:^|[^_\w:])(?:rand|srand|rand_r|drand48)\s*\("
    r"|std::random_device"
    r"|std::(?:mt19937|mt19937_64|minstd_rand|default_random_engine)"
)

# Matches assert( but not static_assert( or foo_assert(.
BARE_ASSERT_RE = re.compile(r"(?:^|[^_\w])assert\s*\(")

POINTER_KEY_RE = re.compile(
    r"(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
    r"|std::hash\s*<\s*[\w:<>]+\s*\*\s*>"
)

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*):([^)]*)\)")

BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?begin\s*\(")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Replaced characters become spaces so that line numbers and column-free
    token matching still line up with the original file.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings: R"delim( ... )delim"
                if out and out[-1] == "R" and (len(out) < 2 or not out[-2].isalnum()):
                    match = re.match(r'R"([^(\s]*)\(', text[i - 1 :])
                    if match:
                        delim = match.group(1)
                        end = text.find(")" + delim + '"', i)
                        if end < 0:
                            end = n
                        else:
                            end += len(delim) + 2
                        segment = text[i:end]
                        out.append(
                            "".join("\n" if ch == "\n" else " " for ch in segment)
                        )
                        i = end
                        continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
            continue
        if state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
            continue
        # string / char literals
        if c == "\\":
            out.append("  ")
            i += 2
            continue
        if (state == "string" and c == '"') or (state == "char" and c == "'"):
            state = "code"
            out.append(" ")
            i += 1
            continue
        out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def unordered_container_names(stripped: str) -> set:
    """Names declared (or aliased) as unordered containers in this file."""
    names = set()
    for match in UNORDERED_DECL_RE.finditer(stripped):
        # Bracket-match the template argument list, then take the next
        # identifier as the declared name.
        i = match.end() - 1  # at '<'
        depth = 0
        n = len(stripped)
        while i < n:
            if stripped[i] == "<":
                depth += 1
            elif stripped[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = stripped[i + 1 : i + 200]
        name = re.match(r"\s*&?\s*(\w+)\s*[;={(\[]", tail)
        if name and name.group(1) not in ("final", "const", "return"):
            names.add(name.group(1))
    return names


class Finding:
    __slots__ = ("path", "line", "rule", "snippet")

    def __init__(self, path: str, line: int, rule: str, snippet: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.snippet = snippet.strip()

    def fingerprint(self) -> str:
        normalized = re.sub(r"\s+", " ", self.snippet)
        digest = hashlib.sha256(
            f"{self.path}|{self.rule}|{normalized}".encode()
        ).hexdigest()
        return digest[:16]

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": RULES[self.rule],
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


def is_suppressed(raw_lines, index: int, rule: str) -> bool:
    """GTS_LINT_ALLOW(rule) on the finding line or the line above it."""
    for candidate in (index, index - 1):
        if 0 <= candidate < len(raw_lines):
            for match in SUPPRESS_RE.finditer(raw_lines[candidate]):
                if match.group(1) == rule:
                    return True
    return False


def scan_file(path: str, rel: str, in_decision_path: bool):
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except OSError as error:
        print(f"gts_lint: cannot read {rel}: {error}", file=sys.stderr)
        return [], 0

    raw_lines = text.splitlines()
    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.splitlines()
    findings = []
    suppressed = 0
    is_header = rel.endswith((".hpp", ".h"))

    def report(lineno: int, rule: str, snippet: str):
        nonlocal suppressed
        if is_suppressed(raw_lines, lineno - 1, rule):
            suppressed += 1
        else:
            findings.append(Finding(rel, lineno, rule, snippet))

    # --- repo-wide conventions --------------------------------------------
    if is_header and not any(
        line.strip() == "#pragma once" for line in raw_lines
    ):
        report(1, "pragma-once", raw_lines[0] if raw_lines else "")
    for i, line in enumerate(stripped_lines):
        raw = raw_lines[i] if i < len(raw_lines) else ""
        if is_header and "using namespace std" in line:
            report(i + 1, "using-namespace-std", raw)
        if not rel.startswith("src/check/") and BARE_ASSERT_RE.search(line):
            report(i + 1, "bare-assert", raw)
        if not rel.startswith("src/util/rng") and RAW_RANDOM_RE.search(line):
            report(i + 1, "raw-random", raw)

    if not in_decision_path:
        return findings, suppressed

    # --- decision-path rules ----------------------------------------------
    unordered_names = unordered_container_names(stripped)
    for i, line in enumerate(stripped_lines):
        raw = raw_lines[i] if i < len(raw_lines) else ""
        for token in WALL_CLOCK_TOKENS:
            if token in line:
                report(i + 1, "wall-clock", raw)
                break
        if POINTER_KEY_RE.search(line):
            report(i + 1, "pointer-key", raw)
        for match in RANGE_FOR_RE.finditer(line):
            range_expr = match.group(2)
            if "unordered_" in range_expr or any(
                re.search(rf"\b{re.escape(name)}\b", range_expr)
                for name in unordered_names
            ):
                report(i + 1, "unordered-iteration", raw)
        for match in BEGIN_CALL_RE.finditer(line):
            if match.group(1) in unordered_names:
                report(i + 1, "unordered-iteration", raw)
    return findings, suppressed


def collect_files(root: str, restrict):
    """Yields (abs_path, rel_path, in_decision_path) for files to scan."""
    seen = set()
    targets = restrict if restrict else [os.path.join(root, d) for d in SRC_DIRS]
    for target in targets:
        target = os.path.abspath(target)
        if os.path.isfile(target):
            candidates = [target]
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames.sort()
                for filename in sorted(filenames):
                    candidates.append(os.path.join(dirpath, filename))
        for path in candidates:
            if not path.endswith((".cpp", ".hpp", ".h", ".cc")):
                continue
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel in seen:
                continue
            seen.add(rel)
            in_decision = any(
                rel == d or rel.startswith(d + "/") for d in DECISION_DIRS
            )
            yield path, rel, in_decision


def load_baseline(path: str) -> set:
    if not os.path.exists(path):
        return set()
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"gts_lint: bad baseline {path}: {error}", file=sys.stderr)
        sys.exit(2)
    return {entry["fingerprint"] for entry in data.get("findings", [])}


def write_baseline(path: str, findings) -> None:
    data = {
        "comment": "Known pre-existing gts_lint findings. New findings must "
        "be fixed or suppressed with GTS_LINT_ALLOW, not baselined, unless "
        "reviewed. Regenerate with: tools/gts_lint.py --update-baseline",
        "findings": [
            {
                "path": f.path,
                "rule": f.rule,
                "fingerprint": f.fingerprint(),
                "snippet": f.snippet,
            }
            for f in findings
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="determinism + convention linter (see module docstring)"
    )
    parser.add_argument("paths", nargs="*", help="files or dirs to scan")
    parser.add_argument("--json", action="store_true", help="JSON on stdout")
    parser.add_argument(
        "--baseline",
        default=os.path.join(REPO_ROOT, "tools", "gts_lint_baseline.json"),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report all findings, ignoring the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings",
    )
    parser.add_argument("--root", default=REPO_ROOT)
    args = parser.parse_args(argv)

    all_findings = []
    suppressed_total = 0
    files_scanned = 0
    for path, rel, in_decision in collect_files(args.root, args.paths):
        findings, suppressed = scan_file(path, rel, in_decision)
        all_findings.extend(findings)
        suppressed_total += suppressed
        files_scanned += 1

    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.update_baseline:
        write_baseline(args.baseline, all_findings)
        print(
            f"gts_lint: baseline written with {len(all_findings)} finding(s)"
        )
        return 0

    baseline = set() if args.no_baseline else load_baseline(args.baseline)
    new_findings = [
        f for f in all_findings if f.fingerprint() not in baseline
    ]
    baselined = len(all_findings) - len(new_findings)

    if args.json:
        json.dump(
            {
                "version": 1,
                "files_scanned": files_scanned,
                "findings": [f.to_json() for f in new_findings],
                "baselined": baselined,
                "suppressed": suppressed_total,
            },
            sys.stdout,
            indent=2,
        )
        sys.stdout.write("\n")
    else:
        for f in new_findings:
            print(f"{f.path}:{f.line}: [{f.rule}] {RULES[f.rule]}")
            print(f"    {f.snippet}")
        print(
            f"gts_lint: {files_scanned} file(s), "
            f"{len(new_findings)} new finding(s), {baselined} baselined, "
            f"{suppressed_total} suppressed"
        )
    return 1 if new_findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
