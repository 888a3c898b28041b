#!/usr/bin/env python3
"""lintkit — shared machinery for the nvgas source linters.

Both linters (tools/simlint, tools/protolint) are dependency-free Python
analyzers over the C++ tree; what they share lives here so their CLIs
and outputs stay identical:

  * a C++ comment/string stripper that preserves line/column positions
    and collects `<tool>:allow(RULE[: why])` suppression directives,
  * the Finding record and the suppression lookup,
  * the three output formats every linter must speak:
      - text (default): `path:line: RULE: message`, summary on stderr —
        the format `.github/problem-matchers/nvgas-lint.json` parses,
      - `--json`: the `nvgas-lint-v1` schema, identical across tools so
        downstream consumers need one parser,
      - `--github-annotations`: GitHub `::error` workflow commands.

Exit-status contract (all linters): 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".hxx", ".h", ".ipp"}

JSON_SCHEMA = "nvgas-lint-v1"


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclasses.dataclass
class StrippedFile:
    path: str
    code: str  # comments and literal contents blanked, newlines preserved
    allows: dict  # line (1-based) -> set of rule ids suppressed there


# Text ending inside a numeric literal: a quote there is a C++14 digit
# separator (1'000'000, 0xFF'FF), not the start of a char literal.
NUMBER_TAIL_RE = re.compile(r"(?<![\w.'])\d[\w.']*$")


def allow_re(tool: str) -> re.Pattern:
    """Suppression directive for one tool: `<tool>:allow(D1,P2: why)`.
    Tools ignore each other's directives, so a line may carry both a
    simlint:allow and a protolint:allow."""
    return re.compile(
        re.escape(tool) + r":allow\(\s*([A-Za-z0-9_,\s]+?)\s*(?::[^)]*)?\)")


def strip_and_collect(path: str, text: str, tool: str) -> StrippedFile:
    """Blank out comments and string/char literal contents (preserving
    newlines and column positions), collecting `<tool>:allow` directives
    from comment text as we go."""
    directive = allow_re(tool)
    out = []
    allows: dict[int, set[str]] = {}
    line = 1
    i = 0
    n = len(text)
    comment_start_line = 0
    comment_buf: list[str] = []

    def note_allow(buf: str, at_line: int) -> None:
        for m in directive.finditer(buf):
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            allows.setdefault(at_line, set()).update(rules)

    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_start_line = line
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_start_line = line
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal? Look back for R / u8R / LR etc.
                m = re.search(r'(?:u8|[uUL])?R$', "".join(out[-3:]))
                if m and text[i - 1] == "R":
                    j = text.find("(", i + 1)
                    raw_delim = ")" + text[i + 1 : j] + '"' if j > 0 else ')"'
                    state = "raw"
                else:
                    state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'" and NUMBER_TAIL_RE.search(text, max(0, i - 64), i):
                out.append(c)  # C++14 digit separator (4'000), not a char
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                note_allow("".join(comment_buf), comment_start_line)
                state = "code"
                out.append("\n")
            else:
                comment_buf.append(c)
                out.append(" " if c != "\n" else c)
            i += 1
            if c == "\n":
                line += 1
            continue
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                note_allow("".join(comment_buf), comment_start_line)
                state = "code"
                out.append("  ")
                i += 2
                continue
            comment_buf.append(c)
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append(c if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" ")
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append('"')
                i += len(raw_delim)
                continue
            out.append(c if c == "\n" else " ")
        if c == "\n":
            line += 1
        i += 1
    if state in ("line_comment", "block_comment"):
        note_allow("".join(comment_buf), comment_start_line)
    return StrippedFile(path=path, code="".join(out), allows=allows)


def line_of(code: str, offset: int) -> int:
    return code.count("\n", 0, offset) + 1


def line_text(code: str, lineno: int) -> str:
    lines = code.split("\n")
    return lines[lineno - 1] if 0 < lineno <= len(lines) else ""


def is_suppressed(f: StrippedFile, lineno: int, rule: str) -> bool:
    if rule in f.allows.get(lineno, set()):
        return True
    # A standalone suppression comment (no code on its line) covers the
    # next line — handy above multi-line declarations.
    prev = lineno - 1
    if rule in f.allows.get(prev, set()) and not line_text(f.code, prev).strip():
        return True
    return False


def gather_files(paths: list, prog: str = "lintkit") -> list:
    files = []
    for p in paths:
        path = pathlib.Path(p)
        if path.is_dir():
            files.extend(
                sorted(q for q in path.rglob("*")
                       if q.suffix in SOURCE_SUFFIXES and q.is_file()))
        elif path.is_file():
            files.append(path)
        else:
            print(f"{prog}: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def add_output_args(parser) -> None:
    """The shared output-format flags (mutually exclusive)."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit findings as nvgas-lint-v1 JSON on stdout")
    group.add_argument("--github-annotations", action="store_true",
                       help="emit findings as GitHub ::error workflow commands")


def _gh_escape(s: str) -> str:
    return s.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def emit(findings: list, tool: str, *, as_json: bool = False,
         github: bool = False) -> int:
    """Print findings in the selected format; returns the exit status."""
    if as_json:
        doc = {
            "schema": JSON_SCHEMA,
            "tool": tool,
            "count": len(findings),
            "rules": sorted({f.rule for f in findings}),
            "findings": [
                {"path": f.path, "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in findings
            ],
        }
        print(json.dumps(doc, indent=2))
        return 1 if findings else 0
    if github:
        for f in findings:
            print(f"::error file={_gh_escape(f.path)},line={f.line},"
                  f"title={tool} {f.rule}::{_gh_escape(f.message)}")
        if findings:
            print(f"{tool}: {len(findings)} violation(s)", file=sys.stderr)
        return 1 if findings else 0
    for f in findings:
        print(f.render())
    if findings:
        print(f"{tool}: {len(findings)} violation(s) "
              f"across rules {{{', '.join(sorted({f.rule for f in findings}))}}}",
              file=sys.stderr)
        return 1
    return 0
