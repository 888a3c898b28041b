#!/usr/bin/env python3
"""protolint — whole-program protocol-flow lint for nvgas.

simlint (D1-D6) checks line-level determinism/lifetime discipline;
protolint checks the *protocol graph*: it parses the scanned tree into
registration sites (`X_ = register_action<...>(reg, "name", fn)` and
`X_ = <registry>.add("name", fn)`), send/invoke edges (`c.send(dst, X_,
args)`, `send_parcel_at(src, t, dst, X_, args)`, `invoke_action_at(node,
t, X_, ...)`, `Coalescer::send(ctx, dst, X_, args)`), LCO/ledger
allocation vs resolution sites, park/wake pairs, and cancellable-timer
arm/cancel pairs — then checks that the graph is closed.

Rules (see docs/STATIC_ANALYSIS.md for the full rationale):

  P1  action send/handler totality. Every action token used at a send
      or local-invoke site must have a registration site, and every
      registered action must be referenced by at least one send/invoke
      site (no orphan handlers). Accessor indirection (`apply_action()`
      returning `apply_action_`) and setter aliasing
      (`set_apply_action(apply_id)`) are followed by name normalization
      (trailing underscores stripped).
  P2  completion totality. Every allocation of a completion object
      (Event / Future / AndGate / ReduceLco, via make_unique /
      make_shared or a direct declaration) must reach a resolution
      site: a `.set/.arrive/.contribute/.fire/.remote_contribute` on
      the same variable (through `.get()` / address-of aliases or an
      accessor call-form like `barrier_event(r, gen).set(t)`), or
      registration in the completion ledger (`register_lco` /
      `make_ref`) in a program that resolves ledger entries
      (`ledger_set` / `set_lco`). An unresolvable completion object is
      a hang waiting to happen — and the static precondition for
      failed-completion delivery in crash-stop recovery (ROADMAP
      item 5).
  P3  park/wake pairing. Every park call site (`park_msg`,
      `park_delayed`, `park_<q>`) must have a matching wake
      (`deliver_parked`, `unpark_<q>`, `deliver_<q>`, `wake_<q>`)
      somewhere in the scanned program, else parked work sleeps
      forever.
  P4  state growth. A container resized/reserved/assigned or
      constructor-initialized to the node count is O(P) state per node
      and blocks the 1024-node scale-out (ROADMAP item 2). Every such
      site must either become O(active peers) or carry a
      `protolint:allow(P4: <sparse/pooled justification>)`.
  P5  RTO cancellation. Every armed cancellable timer
      (`at_cancellable` / `after_cancellable`) must be stored and have
      a `cancel(<same token>)` path; a discarded or never-cancelled
      TimerId is a stale retransmission timer that survives delivery.

Suppression: append `// protolint:allow(P4)` or
`// protolint:allow(P4: justification)` to the offending line; a
standalone suppression comment line applies to the next line.

Usage:
  protolint.py [PATH ...]            lint files / directories (default: src)
  protolint.py --json ...            emit findings as nvgas-lint-v1 JSON
  protolint.py --github-annotations  emit GitHub ::error workflow commands

Scanned paths form ONE whole program: registrations in one file satisfy
sends in another. Exit status: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
import lintkit  # noqa: E402  (shared stripper/Finding/output machinery)

Finding = lintkit.Finding
StrippedFile = lintkit.StrippedFile
line_of = lintkit.line_of
is_suppressed = lintkit.is_suppressed

RULES = {
    "P1": "action send/handler totality (unregistered send or orphan handler)",
    "P2": "completion totality (LCO/ledger allocated but never resolved)",
    "P3": "park site without a matching wake for the same queue",
    "P4": "O(P) state growth (container sized by node count)",
    "P5": "armed cancellable timer without a cancellation path",
}


def strip_file(path: str, text: str) -> StrippedFile:
    return lintkit.strip_and_collect(path, text, tool="protolint")


def norm(token: str) -> str:
    """`lco_set_action_` (member) and `lco_set_action` (accessor) name
    the same protocol edge."""
    return token.rstrip("_")


def balanced_extent(code: str, open_idx: int) -> int:
    """Index of the `)` matching the `(` at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(code)):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def rev_balanced_open(code: str, close_idx: int) -> int:
    """Index of the `(`/`[` matching the `)`/`]` at close_idx, or -1."""
    close = code[close_idx]
    opener = "(" if close == ")" else "["
    depth = 0
    for i in range(close_idx, -1, -1):
        c = code[i]
        if c == close:
            depth += 1
        elif c == opener:
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_args(args: str) -> list:
    """Split a call's argument text on top-level commas."""
    out = []
    depth = 0
    cur = []
    for c in args:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    out.append("".join(cur))
    return out


def prev_nonspace(code: str, idx: int) -> str:
    j = idx - 1
    while j >= 0 and code[j].isspace():
        j -= 1
    return code[j] if j >= 0 else ""


def stmt_prefix(code: str, idx: int) -> str:
    """Text from the previous statement/scope boundary up to idx."""
    start = max(code.rfind(";", 0, idx), code.rfind("{", 0, idx),
                code.rfind("}", 0, idx)) + 1
    return code[start:idx]


IDENT_CHAIN_RE = re.compile(
    r"(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*([A-Za-z_]\w*)")
ACCESSOR_CALL_RE = re.compile(
    r"(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*([A-Za-z_]\w*)\s*\(\s*\)")
LAST_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def action_token(arg: str):
    """The protocol token named by a send-site action argument:
    `batch_action_` -> batch_action_, `runtime_->apply_action()` ->
    apply_action, `rt::x_` -> x_. Anything else (declarations like
    `ActionId action`, expressions) -> None."""
    arg = arg.strip()
    m = ACCESSOR_CALL_RE.fullmatch(arg)
    if m:
        return m.group(1)
    m = IDENT_CHAIN_RE.fullmatch(arg)
    if m:
        return m.group(1)
    return None


FN_NAME_STOPWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "do",
    "else", "new", "delete", "co_await", "co_return", "assert",
}
FN_CANDIDATE_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
FN_TAIL_RE = re.compile(r"\s*(?:const\s*|noexcept\s*|override\s*|final\s*)*\{")


def function_spans(code: str) -> list:
    """(name, start, end) for every function-shaped definition: name,
    balanced parens, optional qualifiers, then `{...}`. Constructors
    with init lists are missed; P2 only needs accessor bodies."""
    spans = []
    for m in FN_CANDIDATE_RE.finditer(code):
        if m.group(1) in FN_NAME_STOPWORDS:
            continue
        close = balanced_extent(code, m.end() - 1)
        if close < 0:
            continue
        tail = FN_TAIL_RE.match(code, close + 1)
        if not tail:
            continue
        brace = tail.end() - 1
        depth = 0
        end = -1
        for i in range(brace, len(code)):
            c = code[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end > 0:
            spans.append((m.group(1), m.start(), end))
    return spans


def enclosing_function(spans: list, offset: int):
    best = None
    for name, start, end in spans:
        if start <= offset <= end and (best is None or
                                       end - start < best[1] - best[0]):
            best = (start, end, name)
    return best[2] if best else None


# --- P1: action send/handler totality ---------------------------------------

REG_ACTION_RE = re.compile(
    r"([A-Za-z_]\w*)\s*=\s*(?:rt\s*::\s*)?register_action\b")
# `X = <receiver>.add(...)` where the receiver chain names the action
# registry (actions_, rt_.actions(), runtime_->actions(), ...).
REG_ADD_RE = re.compile(
    r"([A-Za-z_]\w*)\s*=\s*([^;{}=]*?)(?:\.|->)\s*add\s*\(")
# `set_apply_action(apply_id)`: publishing a registered id under an
# accessor name aliases the registration to that name.
SET_ALIAS_RE = re.compile(
    r"\bset_([A-Za-z_]\w*)\s*\(\s*([A-Za-z_]\w*)\s*\)")

CTX_SEND_RE = re.compile(r"\b(?:c|ctx)\s*\.\s*send\s*\(")
MEMBER_SEND_RE = re.compile(r"(?:\.|->)\s*send\s*\(")
SEND_PARCEL_AT_RE = re.compile(r"\bsend_parcel_at\s*\(")
INVOKE_AT_RE = re.compile(r"\binvoke_action_at\s*\(")
# World::apply(ctx, gva, action, args): address-located invoke — the
# parcel dispatches the action at whichever node owns the GVA.
APPLY_AT_RE = re.compile(r"(?<![\w.>:])apply\s*\(")
BARE_SEND_RE = re.compile(r"(?<![\w.>:])send\s*\(")

# Argument names that just forward an ActionId through plumbing; they
# are edges in someone else's graph, not new protocol tokens.
PLUMBING_TOKENS = {"action", "act", "action_id", "id", "a"}


def call_arg_token(code: str, open_idx: int, arg_index: int):
    close = balanced_extent(code, open_idx)
    if close < 0:
        return None
    args = split_args(code[open_idx + 1:close])
    if arg_index >= len(args):
        return None
    return action_token(args[arg_index])


def collect_registrations(prog: list) -> dict:
    """norm(token) -> (path, line, display_token) for every action
    registration (plus setter aliases onto the same entry)."""
    regs: dict[str, tuple] = {}
    for f in prog:
        for m in REG_ACTION_RE.finditer(f.code):
            regs.setdefault(norm(m.group(1)),
                            (f.path, line_of(f.code, m.start()), m.group(1)))
        for m in REG_ADD_RE.finditer(f.code):
            if "action" not in m.group(2).lower():
                continue
            regs.setdefault(norm(m.group(1)),
                            (f.path, line_of(f.code, m.start()), m.group(1)))
    # Aliases need the base set complete first.
    for f in prog:
        for m in SET_ALIAS_RE.finditer(f.code):
            if norm(m.group(2)) in regs:
                base = regs[norm(m.group(2))]
                regs.setdefault(norm(m.group(1)), base)
    return regs


def collect_send_sites(prog: list):
    """-> (strong, weak): strong sites are (file, line, token, what) and
    get diagnosed when unregistered; weak tokens only mark handlers as
    referenced (generic .send receivers we cannot classify)."""
    strong = []
    weak: set[str] = set()
    for f in prog:
        sites = []  # (match_end_of_name, arg_index, what)
        for m in CTX_SEND_RE.finditer(f.code):
            sites.append((m.end() - 1, 1, "c.send"))
        for m in SEND_PARCEL_AT_RE.finditer(f.code):
            sites.append((m.end() - 1, 3, "send_parcel_at"))
        for m in INVOKE_AT_RE.finditer(f.code):
            sites.append((m.end() - 1, 2, "invoke_action_at"))
        for m in APPLY_AT_RE.finditer(f.code):
            sites.append((m.end() - 1, 2, "apply"))
        strong_opens = {s[0] for s in sites}
        for m in MEMBER_SEND_RE.finditer(f.code):
            open_idx = m.end() - 1
            if open_idx in strong_opens:
                continue
            close = balanced_extent(f.code, open_idx)
            if close < 0:
                continue
            args = split_args(f.code[open_idx + 1:close])
            if args and args[0].strip() in ("c", "ctx"):
                # Coalescer::send(ctx, dst, action, args) shape.
                sites.append((open_idx, 2, "Coalescer::send"))
            else:
                tok = action_token(args[1]) if len(args) > 1 else None
                if tok:
                    weak.add(norm(tok))
        for m in BARE_SEND_RE.finditer(f.code):
            tok = call_arg_token(f.code, m.end() - 1, 1)
            if tok:
                weak.add(norm(tok))
        for open_idx, arg_index, what in sites:
            tok = call_arg_token(f.code, open_idx, arg_index)
            if tok is None or norm(tok) in PLUMBING_TOKENS:
                continue
            strong.append((f, line_of(f.code, open_idx), tok, what))
    return strong, weak


def check_p1(prog: list) -> list:
    findings = []
    regs = collect_registrations(prog)
    strong, weak = collect_send_sites(prog)
    referenced = set(weak)
    for f, ln, tok, what in strong:
        referenced.add(norm(tok))
        if norm(tok) in regs:
            continue
        if is_suppressed(f, ln, "P1"):
            continue
        findings.append(Finding(
            f.path, ln, "P1",
            f"action token '{tok}' sent via {what}() has no "
            "register_action / registry-add site anywhere in the scanned "
            "program: this parcel dispatches into a missing handler"))
    # Orphan check is per registration *site*: a registration published
    # under several tokens (member + setter alias) is referenced if any
    # of them is.
    sites: dict[tuple, list] = {}
    for tok_n, (path, ln, display) in regs.items():
        sites.setdefault((path, ln, display), []).append(tok_n)
    for (path, ln, display), tokens in sites.items():
        if any(t in referenced for t in tokens):
            continue
        f = next(sf for sf in prog if sf.path == path)
        if is_suppressed(f, ln, "P1"):
            continue
        findings.append(Finding(
            path, ln, "P1",
            f"action '{display}' is registered here but never referenced "
            "by any send/invoke site: orphan handler (dead protocol edge "
            "or a send site that lost its token)"))
    return findings


# --- P2: completion totality -------------------------------------------------

LCO_TYPES = r"(?:Event|Future|AndGate|ReduceLco)"
MAKE_LCO_RE = re.compile(
    r"\bstd\s*::\s*make_(?:unique|shared)\s*<\s*(?:rt\s*::\s*)?"
    + LCO_TYPES + r"\b")
DECL_LCO_RE = re.compile(
    r"\b(rt\s*::\s*)?" + LCO_TYPES +
    r"\s*(?:<[^;{}<>]*>)?\s+([A-Za-z_]\w*)\s*[;{(]")
ASSIGN_TARGET_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\.|->)?\s*(?:[A-Za-z_]\w*\s*)?=\s*$")
PUSH_TARGET_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\.|->)\s*(?:push_back|emplace_back)\s*\(\s*$")
RESOLVE_METHOD_RE = re.compile(
    r"(?:\.|->)\s*(?:set|arrive|contribute|fire|remote_contribute)\s*\(")
GETTER_ALIAS_RE = re.compile(
    r"([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*)\s*(?:\.|->)\s*get\s*\(\s*\)")
ADDR_ALIAS_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*&\s*([A-Za-z_]\w*)")
REGISTER_LCO_RE = re.compile(r"\bregister_lco\s*\(")
MAKE_REF_RE = re.compile(r"\bmake_ref\s*\(")
LEDGER_RESOLVE_RE = re.compile(r"\b(?:ledger_set|set_lco)\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def p2_exempt(path: str) -> bool:
    p = pathlib.PurePath(path)
    # lco.hpp defines the primitives; sim/ has its own (non-LCO) Event.
    return (p.name == "lco.hpp" and "rt" in p.parts) or "sim" in p.parts


def p2_alloc_target(code: str, idx: int):
    prefix = stmt_prefix(code, idx)
    m = PUSH_TARGET_RE.search(prefix)
    if m:
        return m.group(1)
    m = ASSIGN_TARGET_RE.search(prefix)
    if m:
        # `s.gate = make_unique<...>`: the field name is the token.
        tail = LAST_IDENT_RE.search(prefix[:prefix.rfind("=")])
        return tail.group(1) if tail else m.group(1)
    return None


def collect_resolved_tokens(prog: list) -> set:
    resolved: set[str] = set()
    ledger_resolves = any(LEDGER_RESOLVE_RE.search(f.code) for f in prog)
    for f in prog:
        aliases: dict[str, str] = {}
        for m in GETTER_ALIAS_RE.finditer(f.code):
            aliases[m.group(1)] = m.group(2)
        for m in ADDR_ALIAS_RE.finditer(f.code):
            aliases[m.group(1)] = m.group(2)
        for m in RESOLVE_METHOD_RE.finditer(f.code):
            j = m.start() - 1
            while j >= 0 and f.code[j].isspace():
                j -= 1
            if j < 0:
                continue
            if f.code[j] in ")]":
                open_idx = rev_balanced_open(f.code, j)
                if open_idx <= 0:
                    continue
                tail = LAST_IDENT_RE.search(f.code[:open_idx])
            else:
                tail = LAST_IDENT_RE.search(f.code[:j + 1])
            if not tail:
                continue
            name = tail.group(1)
            name = aliases.get(name, name)
            resolved.add(norm(name))
        if ledger_resolves:
            for m in REGISTER_LCO_RE.finditer(f.code):
                close = balanced_extent(f.code, m.end() - 1)
                if close < 0:
                    continue
                args = split_args(f.code[m.end():close])
                if len(args) > 1:
                    resolved.update(norm(t) for t in
                                    IDENT_RE.findall(args[1]))
            for m in MAKE_REF_RE.finditer(f.code):
                close = balanced_extent(f.code, m.end() - 1)
                if close < 0:
                    continue
                args = split_args(f.code[m.end():close])
                if args:
                    resolved.update(norm(t) for t in
                                    IDENT_RE.findall(args[0]))
    return resolved


def check_p2(prog: list) -> list:
    findings = []
    resolved = collect_resolved_tokens(prog)
    for f in prog:
        if p2_exempt(f.path):
            continue
        spans = None
        allocs = []  # (line, display, token_set)
        for m in MAKE_LCO_RE.finditer(f.code):
            tokens = set()
            target = p2_alloc_target(f.code, m.start())
            display = target or "<unnamed>"
            if target:
                tokens.add(norm(target))
            if spans is None:
                spans = function_spans(f.code)
            fn = enclosing_function(spans, m.start())
            if fn:
                tokens.add(norm(fn))
            allocs.append((line_of(f.code, m.start()), display, tokens))
        for m in DECL_LCO_RE.finditer(f.code):
            prev = prev_nonspace(f.code, m.start())
            if prev not in ("", ";", "{", "}"):
                continue  # parameter, template arg, member access, ...
            tokens = {norm(m.group(2))}
            if spans is None:
                spans = function_spans(f.code)
            fn = enclosing_function(spans, m.start())
            if fn:
                tokens.add(norm(fn))
            allocs.append((line_of(f.code, m.start()), m.group(2), tokens))
        for ln, display, tokens in allocs:
            if tokens & resolved:
                continue
            if is_suppressed(f, ln, "P2"):
                continue
            findings.append(Finding(
                f.path, ln, "P2",
                f"completion object '{display}' allocated here never "
                "reaches a resolution site (.set/.arrive/.contribute/"
                ".fire, a resolving accessor, or ledger registration with "
                "ledger_set): whoever awaits it hangs forever, and "
                "crash-stop recovery (ROADMAP item 5) cannot fail it over"))
    return findings


# --- P3: park/wake pairing ---------------------------------------------------

PARK_RE = re.compile(r"\b(park_[A-Za-z_]\w*)\s*\(")
P3_KNOWN_PAIRS = {
    "park_msg": ("deliver_parked",),
    "park_delayed": ("unpark_delayed",),
}


def p3_partners(park: str) -> tuple:
    if park in P3_KNOWN_PAIRS:
        return P3_KNOWN_PAIRS[park]
    q = park[len("park_"):]
    return (f"unpark_{q}", f"deliver_{q}", f"wake_{q}")


def check_p3(prog: list) -> list:
    findings = []
    for f in prog:
        for m in PARK_RE.finditer(f.code):
            prev = prev_nonspace(f.code, m.start())
            # Call sites only: skip definitions (`Nic::park_msg(`),
            # declarations (`void park_msg(`) and qualified names.
            if prev not in (".", ">", "=", "(", ",", ";", "{", "}", "",
                            ):
                continue
            if prev == ">" and f.code[:m.start()].rstrip()[-2:] != "->":
                continue
            park = m.group(1)
            partners = p3_partners(park)
            if any(re.search(r"\b" + p + r"\s*\(", g.code)
                   for g in prog for p in partners):
                continue
            ln = line_of(f.code, m.start())
            if is_suppressed(f, ln, "P3"):
                continue
            findings.append(Finding(
                f.path, ln, "P3",
                f"park site '{park}(...)' has no matching wake "
                f"({' / '.join(partners)}) anywhere in the scanned "
                "program: parked work sleeps forever"))
    return findings


# --- P4: O(P) state growth ---------------------------------------------------

P4_SIZE_CALL_RE = re.compile(r"(?:\.|->)\s*(resize|reserve|assign)\s*\(")
P4_CTOR_INIT_RE = re.compile(r"\b([A-Za-z_]\w*_)\s*\(")
P4_COUNT_RE = re.compile(
    r"\b(?:nodes|ranks|nranks|num_nodes|node_count|world_size)_?\b")
P4_COUNT_CALL_RE = re.compile(
    r"\b(?:nodes|ranks|nranks|num_nodes|node_count|world_size)\s*\(\s*\)")


def check_p4(prog: list) -> list:
    findings = []
    for f in prog:
        seen: set[int] = set()

        def flag(ln: int, name: str, how: str) -> None:
            if ln in seen or is_suppressed(f, ln, "P4"):
                return
            seen.add(ln)
            findings.append(Finding(
                f.path, ln, "P4",
                f"container '{name}' {how} the node count: O(P) state "
                "per node blocks the 1024-node scale-out (ROADMAP "
                "item 2); make it O(active peers) or annotate with "
                "protolint:allow(P4: <sparse/pooled justification>)"))

        for m in P4_SIZE_CALL_RE.finditer(f.code):
            open_idx = m.end() - 1
            close = balanced_extent(f.code, open_idx)
            if close < 0:
                continue
            args = f.code[open_idx + 1:close]
            if P4_COUNT_RE.search(args):
                prefix = stmt_prefix(f.code, m.start())
                tail = LAST_IDENT_RE.search(prefix)
                name = tail.group(1) if tail else "<unknown>"
                verb = {"resize": "resized", "reserve": "reserved",
                        "assign": "assigned"}[m.group(1)]
                flag(line_of(f.code, m.start()), name, f"is {verb} to")
        for m in P4_CTOR_INIT_RE.finditer(f.code):
            open_idx = m.end() - 1
            close = balanced_extent(f.code, open_idx)
            if close < 0:
                continue
            args = f.code[open_idx + 1:close]
            if P4_COUNT_CALL_RE.search(args):
                flag(line_of(f.code, m.start()), m.group(1),
                     "is constructed with")
    return findings


# --- P5: RTO cancellation ----------------------------------------------------

ARM_RE = re.compile(r"\b((?:at|after)_cancellable)\s*\(")
CANCEL_RE = re.compile(r"\bcancel\s*\(")


def p5_exempt(path: str) -> bool:
    # The engine defines the timer API; arming discipline applies to its
    # users.
    p = pathlib.PurePath(path)
    return "sim" in p.parts and p.name.startswith("engine")


def check_p5(prog: list) -> list:
    cancelled: set[str] = set()
    for f in prog:
        for m in CANCEL_RE.finditer(f.code):
            close = balanced_extent(f.code, m.end() - 1)
            if close < 0:
                continue
            tail = LAST_IDENT_RE.search(f.code[m.end():close])
            if tail:
                cancelled.add(norm(tail.group(1)))
    findings = []
    for f in prog:
        if p5_exempt(f.path):
            continue
        for m in ARM_RE.finditer(f.code):
            prev = prev_nonspace(f.code, m.start())
            if prev and (prev.isalnum() or prev in "_:*&"):
                continue  # declaration/definition, not an arming call
            if prev == ">" and f.code[:m.start()].rstrip()[-2:] != "->":
                continue
            prefix = stmt_prefix(f.code, m.start())
            if re.search(r"\breturn\b", prefix):
                continue  # forwarding accessor: caller owns the id
            ln = line_of(f.code, m.start())
            eq = prefix.rfind("=")
            if eq < 0:
                if not is_suppressed(f, ln, "P5"):
                    findings.append(Finding(
                        f.path, ln, "P5",
                        f"TimerId from {m.group(1)}() is discarded: this "
                        "timer can never be cancelled, so it survives "
                        "completion as a stale retransmission"))
                continue
            tail = LAST_IDENT_RE.search(prefix[:eq])
            tok = tail.group(1) if tail else None
            if tok and norm(tok) in cancelled:
                continue
            if is_suppressed(f, ln, "P5"):
                continue
            findings.append(Finding(
                f.path, ln, "P5",
                f"armed cancellable timer '{tok or '<unknown>'}' has no "
                "cancel() path anywhere in the scanned program: the RTO "
                "outlives the completion it guards"))
    return findings


# --- driver ------------------------------------------------------------------

CHECKS = {
    "P1": check_p1,
    "P2": check_p2,
    "P3": check_p3,
    "P4": check_p4,
    "P5": check_p5,
}


def lint_paths(paths: list, rules: set) -> list:
    prog = []
    for fp in lintkit.gather_files(paths, prog="protolint"):
        try:
            text = fp.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            print(f"protolint: cannot read {fp}: {e}", file=sys.stderr)
            sys.exit(2)
        prog.append(strip_file(str(fp), text))
    findings: list = []
    for rule in sorted(rules):
        findings.extend(CHECKS[rule](prog))
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    return findings


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(
        prog="protolint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint as one whole "
                         "program (default: src)")
    ap.add_argument("--rules", default=",".join(sorted(RULES)),
                    help="comma-separated rule subset (default: all)")
    lintkit.add_output_args(ap)
    args = ap.parse_args(argv)

    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        print(f"protolint: unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    findings = lint_paths(args.paths or ["src"], rules)
    return lintkit.emit(findings, "protolint", as_json=args.json,
                        github=args.github_annotations)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
