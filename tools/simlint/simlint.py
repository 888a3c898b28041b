#!/usr/bin/env python3
"""simlint — simulator-specific determinism/lifetime lint for nvgas.

The simulator's whole evaluation method rests on one property: a given
seed produces a byte-identical (time, seq) event stream. That property
is easy to break silently — one range-for over an unordered_map, one
wall-clock read, one pointer-keyed ordered container — so this lint
makes the discipline machine-checked instead of reviewed-for.

Rules (see docs/STATIC_ANALYSIS.md for the full rationale):

  D1  unordered-container discipline.
      (a) every declaration of std::unordered_map/std::unordered_set
          must carry a justified suppression (the "audited: lookup-only"
          annotation), and
      (b) iterating one (range-for, .begin()/.cbegin()/.rbegin()) is
          flagged wherever the container name was declared unordered.
      Iterated containers must switch to std::map / sorted-key
      iteration or justify why the order cannot reach simulation state.
  D2  no nondeterminism sources: wall clocks (std::chrono system/steady
      clock, time(), clock()), rand()/srand(), std::random_device.
      All randomness must flow through util::Rng with an explicit seed.
  D3  no pointer-keyed std::map/std::set and no std::less<T*>:
      iteration order would follow allocation addresses (ASLR).
  D4  no std::function in src/sim/, src/net/, src/gas/ and src/rt/ hot
      paths; util::InlineFunction is mandated there (zero-allocation
      event path).
  D5  heuristic: a by-reference lambda capture passed to
      Engine::at/after/at_cancellable/after_cancellable outlives the
      current frame and is a dangling-capture hazard; capture by value.
  D6  no direct NIC-injection calls (park_msg / deliver_parked /
      <nic>.arrive) outside sim/nic.{cpp,hpp}: Nic::send() is the one
      sanctioned injection point, where the mcheck Explorer hook can
      delay the arrival; a bypass makes that delivery invisible to
      bounded model checking.

Suppression: append `// simlint:allow(D1)` or
`// simlint:allow(D1: justification)` to the offending line; a
standalone suppression comment line applies to the next line. Several
rules may share one directive: `simlint:allow(D1,D3: reason)`.

Usage:
  simlint.py [PATH ...]            lint files / directories (default: src)
  simlint.py --json ...            emit findings as nvgas-lint-v1 JSON
  simlint.py --github-annotations  emit GitHub ::error workflow commands
  simlint.py --list-unordered ...  dump the unordered-container symbol table

Exit status: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
import lintkit  # noqa: E402  (shared stripper/Finding/output machinery)

SOURCE_SUFFIXES = lintkit.SOURCE_SUFFIXES

ALLOW_RE = lintkit.allow_re("simlint")

# Re-exported so rule code (and external callers) keep their names.
Finding = lintkit.Finding
StrippedFile = lintkit.StrippedFile
line_of = lintkit.line_of
line_text = lintkit.line_text
is_suppressed = lintkit.is_suppressed

RULES = {
    "D1": "unordered-container discipline (nondeterministic iteration order)",
    "D2": "nondeterminism source (wall clock / ambient randomness)",
    "D3": "pointer-keyed ordered container (address-order nondeterminism)",
    "D4": "std::function on a sim/net/gas/rt hot path (util::InlineFunction mandated)",
    "D5": "by-reference lambda capture passed to Engine scheduling (dangling hazard)",
    "D6": "direct NIC injection bypassing the Explorer hook in Nic::send()",
}


def strip_and_collect(path: str, text: str) -> StrippedFile:
    return lintkit.strip_and_collect(path, text, tool="simlint")


# --- D1: unordered-container discipline -------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(map|set)\s*<")


def match_template_close(code: str, open_idx: int) -> int:
    """Index just past the `>` matching the `<` at open_idx, or -1."""
    depth = 0
    i = open_idx
    n = len(code)
    while i < n:
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            # Ignore `->` and right-shift is not valid in a type anyway.
            if i > 0 and code[i - 1] == "-":
                i += 1
                continue
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1
        i += 1
    return -1


NAME_AFTER_TYPE_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*(?:[;={(]|$)", re.M)


def collect_unordered_names(files: list) -> dict:
    """name -> first declaration site, for every variable/member declared
    with an unordered container type anywhere in the scanned set."""
    names: dict[str, str] = {}
    for f in files:
        for m in UNORDERED_DECL_RE.finditer(f.code):
            close = match_template_close(f.code, m.end() - 1)
            if close < 0:
                continue
            nm = NAME_AFTER_TYPE_RE.match(f.code[close : close + 200])
            if nm:
                names.setdefault(
                    nm.group(1), f"{f.path}:{line_of(f.code, m.start())}"
                )
    return names


RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^()]*|[^()]*\([^()]*\)[^()]*):([^;()]+)\)")
BEGIN_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*(c?r?begin)\s*\(")
TAIL_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def check_d1(f: StrippedFile, unordered: dict) -> list:
    findings = []
    for m in UNORDERED_DECL_RE.finditer(f.code):
        ln = line_of(f.code, m.start())
        if is_suppressed(f, ln, "D1"):
            continue
        findings.append(
            Finding(
                f.path,
                ln,
                "D1",
                "std::unordered_%s: iteration order is nondeterministic; "
                "use std::map or annotate with simlint:allow(D1: "
                "<why it is never iterated>)" % m.group(1),
            )
        )
    for m in RANGE_FOR_RE.finditer(f.code):
        expr = m.group(2)
        tail = TAIL_IDENT_RE.search(expr.strip())
        if tail and tail.group(1) in unordered:
            ln = line_of(f.code, m.start())
            if not is_suppressed(f, ln, "D1"):
                findings.append(
                    Finding(
                        f.path,
                        ln,
                        "D1",
                        f"range-for over unordered container "
                        f"'{tail.group(1)}' (declared unordered at "
                        f"{unordered[tail.group(1)]}): hash order can leak "
                        "into the event stream",
                    )
                )
    for m in BEGIN_CALL_RE.finditer(f.code):
        if m.group(1) in unordered:
            ln = line_of(f.code, m.start())
            if not is_suppressed(f, ln, "D1"):
                findings.append(
                    Finding(
                        f.path,
                        ln,
                        "D1",
                        f"'{m.group(1)}.{m.group(2)}()' iterates an unordered "
                        f"container (declared unordered at "
                        f"{unordered[m.group(1)]})",
                    )
                )
    return findings


# --- D2: nondeterminism sources ----------------------------------------------

D2_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*chrono\s*::\s*(system_clock|steady_clock|high_resolution_clock)\b"),
     "std::chrono::{} reads the wall clock"),
    (re.compile(r"(?<![\w.:])\b(system_clock|steady_clock|high_resolution_clock)\s*::"),
     "{} reads the wall clock"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device is ambient entropy"),
    (re.compile(r"\bstd\s*::\s*(time|clock)\s*\("), "std::{}() reads the wall clock"),
    (re.compile(r"(?<![\w.:>])\b(time|clock)\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "{}() reads the wall clock"),
    (re.compile(r"(?:\bstd\s*::\s*|(?<![\w.:>])\b)(rand|srand)\s*\("),
     "{}() is unseeded global randomness; use util::Rng"),
]


def check_d2(f: StrippedFile) -> list:
    findings = []
    for pat, msg in D2_PATTERNS:
        for m in pat.finditer(f.code):
            ln = line_of(f.code, m.start())
            if is_suppressed(f, ln, "D2"):
                continue
            what = msg.format(m.group(1) if m.groups() else "")
            findings.append(
                Finding(f.path, ln, "D2",
                        what + "; all nondeterminism must flow through an "
                               "explicitly seeded util::Rng"))
    return findings


# --- D3: pointer-keyed ordered containers ------------------------------------

ORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*(map|set|multimap|multiset)\s*<")
LESS_PTR_RE = re.compile(r"\bstd\s*::\s*less\s*<[^<>]*\*\s*>")


def first_template_arg(code: str, open_idx: int) -> str:
    depth = 0
    i = open_idx
    start = open_idx + 1
    n = len(code)
    while i < n:
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            if i > 0 and code[i - 1] == "-":
                i += 1
                continue
            depth -= 1
            if depth == 0:
                return code[start:i]
        elif c == "," and depth == 1:
            return code[start:i]
        elif c in ";{}":
            break
        i += 1
    return ""


def check_d3(f: StrippedFile) -> list:
    findings = []
    for m in ORDERED_DECL_RE.finditer(f.code):
        key = first_template_arg(f.code, m.end() - 1)
        if "*" in key:
            ln = line_of(f.code, m.start())
            if not is_suppressed(f, ln, "D3"):
                findings.append(
                    Finding(f.path, ln, "D3",
                            f"std::{m.group(1)} keyed by pointer type "
                            f"'{key.strip()}': iteration order follows "
                            "allocation addresses (varies run to run under "
                            "ASLR); key by a stable id instead"))
    for m in LESS_PTR_RE.finditer(f.code):
        ln = line_of(f.code, m.start())
        if not is_suppressed(f, ln, "D3"):
            findings.append(
                Finding(f.path, ln, "D3",
                        "std::less over a pointer type orders by address; "
                        "key by a stable id instead"))
    return findings


# --- D4: std::function on sim/net/gas/rt hot paths ---------------------------

STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")


def in_hot_tree(path: str) -> bool:
    parts = pathlib.PurePath(path).parts
    return any(p in parts for p in ("sim", "net", "gas", "rt"))


def check_d4(f: StrippedFile) -> list:
    if not in_hot_tree(f.path):
        return []
    findings = []
    for m in STD_FUNCTION_RE.finditer(f.code):
        ln = line_of(f.code, m.start())
        if is_suppressed(f, ln, "D4"):
            continue
        findings.append(
            Finding(f.path, ln, "D4",
                    "std::function on a sim/net/gas/rt hot path allocates per "
                    "capture; util::InlineFunction is mandated here "
                    "(see DESIGN.md §3)"))
    return findings


# --- D5: by-reference captures handed to Engine scheduling -------------------

SCHED_CALL_RE = re.compile(r"(?:\.|->)\s*(at|after|at_cancellable|after_cancellable)\s*\(")
LAMBDA_INTRO_RE = re.compile(r"\[([^\[\]]*)\]\s*(?:\(|\{|mutable|noexcept|->)")
BYREF_CAPTURE_RE = re.compile(r"(?:^|,)\s*&\s*(?:[A-Za-z_]\w*)?\s*(?:,|$)")


def balanced_call_extent(code: str, open_idx: int, limit: int = 4000) -> int:
    depth = 0
    i = open_idx
    end = min(len(code), open_idx + limit)
    while i < end:
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return end


def check_d5(f: StrippedFile) -> list:
    findings = []
    for m in SCHED_CALL_RE.finditer(f.code):
        open_idx = m.end() - 1
        close = balanced_call_extent(f.code, open_idx)
        args = f.code[open_idx + 1 : close]
        for lm in LAMBDA_INTRO_RE.finditer(args):
            captures = lm.group(1)
            if BYREF_CAPTURE_RE.search(captures):
                ln = line_of(f.code, open_idx + 1 + lm.start())
                if not is_suppressed(f, ln, "D5"):
                    findings.append(
                        Finding(f.path, ln, "D5",
                                f"by-reference lambda capture "
                                f"'[{captures.strip()}]' passed to "
                                f"Engine::{m.group(1)}(): the frame is gone "
                                "when the event fires; capture by value"))
                break  # one finding per scheduling call is enough
    return findings


# --- D6: direct NIC injection bypassing the Explorer hook --------------------

# Method-call sites only (receiver required): the declarations in
# sim/nic.hpp and the internal calls in sim/nic.cpp are the sanctioned
# implementation and are exempted by file name below.
D6_PARKED_RE = re.compile(r"(?:\.|->)\s*(park_msg|deliver_parked)\s*\(")
D6_ARRIVE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*arrive\s*\(")


def d6_exempt(path: str) -> bool:
    p = pathlib.PurePath(path)
    return p.name in ("nic.cpp", "nic.hpp") and "sim" in p.parts


def check_d6(f: StrippedFile) -> list:
    if d6_exempt(f.path):
        return []
    findings = []

    def flag(ln: int, what: str) -> None:
        if not is_suppressed(f, ln, "D6"):
            findings.append(
                Finding(f.path, ln, "D6",
                        f"{what} bypasses the Explorer injection hook in "
                        "Nic::send(): mcheck cannot reorder this delivery, "
                        "so explored schedules silently under-cover it; "
                        "route the message through Nic::send()"))

    for m in D6_PARKED_RE.finditer(f.code):
        flag(line_of(f.code, m.start()),
             f"direct call to Nic::{m.group(1)}()")
    for m in D6_ARRIVE_RE.finditer(f.code):
        # `arrive` is also an LCO method; only a NIC-named receiver is a
        # delivery injection.
        if "nic" not in m.group(1).lower():
            continue
        flag(line_of(f.code, m.start()),
             f"direct call to {m.group(1)}.arrive()")
    return findings


# --- driver ------------------------------------------------------------------

def gather_files(paths: list) -> list:
    return lintkit.gather_files(paths, prog="simlint")


def lint_paths(paths: list, rules: set) -> list:
    stripped = []
    for fp in gather_files(paths):
        try:
            text = fp.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            print(f"simlint: cannot read {fp}: {e}", file=sys.stderr)
            sys.exit(2)
        stripped.append(strip_and_collect(str(fp), text))
    unordered = collect_unordered_names(stripped)
    findings: list[Finding] = []
    for f in stripped:
        if "D1" in rules:
            findings.extend(check_d1(f, unordered))
        if "D2" in rules:
            findings.extend(check_d2(f))
        if "D3" in rules:
            findings.extend(check_d3(f))
        if "D4" in rules:
            findings.extend(check_d4(f))
        if "D5" in rules:
            findings.extend(check_d5(f))
        if "D6" in rules:
            findings.extend(check_d6(f))
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    return findings


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(prog="simlint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    ap.add_argument("--rules", default=",".join(sorted(RULES)),
                    help="comma-separated rule subset (default: all)")
    ap.add_argument("--list-unordered", action="store_true",
                    help="dump the unordered-container symbol table and exit")
    lintkit.add_output_args(ap)
    args = ap.parse_args(argv)

    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        print(f"simlint: unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    paths = args.paths or ["src"]
    if args.list_unordered:
        stripped = [strip_and_collect(str(fp),
                                      fp.read_text(encoding="utf-8",
                                                   errors="replace"))
                    for fp in gather_files(paths)]
        for name, site in sorted(collect_unordered_names(stripped).items()):
            print(f"{name}\t{site}")
        return 0

    findings = lint_paths(paths, rules)
    return lintkit.emit(findings, "simlint", as_json=args.json,
                        github=args.github_annotations)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
