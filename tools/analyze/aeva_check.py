#!/usr/bin/env python3
"""aeva_check: compile_commands-driven AST-level determinism & concurrency
checks that neither clang-tidy nor regex lint (tools/lint/aeva_lint.py) can
express. The paper-reproduction contract is *bit-identical results under
any thread count* (CONTRIBUTING.md); these checks reject the constructs
that silently break it on paths no test happens to exercise.

Checks
------

  unordered-iteration-sink
      Iterating a `std::unordered_{map,set,multimap,multiset}` (or an
      alias of one) in a loop whose body feeds an order-sensitive sink:
      a stream/writer insertion (`<<`), an append to a sequence container
      (`push_back`/`emplace_back`/`append`), or a call into an output
      layer (write/record/export/emit/encode/snapshot/print/add_row).
      Hash-iteration order is implementation- and seed-defined, so such a
      loop embeds nondeterministic order into metrics, reports, or
      snapshots. Inserting into a `std::map`/`std::set` inside the loop
      is NOT flagged — re-sorting through an ordered container is exactly
      the sanctioned canonicalization.

  unordered-float-reduction
      A `+=`/`-=`/`*=`//= accumulation into a floating-point variable
      inside such a loop. Float addition is non-associative: summing in
      hash order produces different bits per run even when the set of
      addends is identical. Integer accumulations are order-independent
      and allowed; floats must reduce in canonical order (sort the keys
      first, or reduce per-slot then merge like util::RunningStats).

  mutable-static
      A non-const `static` (or `thread_local`) variable at namespace,
      class, or function scope. All of src/ is reachable from
      `Simulator::run` via the allocator/observability call graph, so any
      mutable static is cross-run shared state: it couples consecutive
      simulations, breaks sharded determinism, and dodges both snapshot
      capture and the thread-safety annotations. Inject state through
      config/members instead; genuinely safe exceptions (e.g. the
      first-fit allocator's overwritten thread-local scratch) carry an
      allowlist entry with the safety argument.

  raw-thread
      `std::thread`/`std::jthread` construction, `std::async`,
      `pthread_create`, or a `.detach()` call outside src/util/. All
      parallelism must fan out through `util::ThreadPool` (deterministic
      join, earliest-failure rethrow, annotated mutex) — a detached or
      ad-hoc thread has no join point, so neither the determinism suite
      nor TSan/thread-safety analysis can reason about it.
      (`std::thread::id` / `std::this_thread` / `hardware_concurrency`
      are reads, not spawns, and are allowed.)

  hot-path-lock
      Inside a loop of a configured hot function (default:
      `Simulator::run` / `Simulator::run_impl` in
      src/datacenter/simulator.cpp — the event loop),
      a lexical lock acquisition (`util::MutexGuard`, `lock_guard`, ...,
      `.lock()`) or a by-name metrics-registry lookup
      (`.counter("...")`/`.gauge("...")`/`.histogram("...")`, which takes
      the registry-wide map lock). Handles must be resolved once at setup
      (see SimObs in simulator.cpp); locking per event serializes the
      sharded-simulation push. Override/extend the hot list with
      `--hot file.cpp:Qualified::name`.

Engines
-------

`--engine builtin` (the default and the reference implementation) runs a
project-tuned C++ tokenizer + structural analyzer: comment/string/raw
-string aware lexing, brace/paren matching, function & loop extraction,
and per-file tracking of unordered-container and floating declarations.
It needs nothing beyond the Python stdlib, so it runs identically on a
bare gcc container and in CI, and its exact behavior is pinned by the
fixture suite under tests/tools/.

`--engine libclang` re-runs the declaration-level checks
(mutable-static, raw-thread) on real clang ASTs via the `clang.cindex`
bindings for type-accurate cross-validation, and delegates the
flow-sensitive checks to the builtin engine. `--engine auto` uses
libclang when the bindings import, builtin otherwise.

Input is a compile_commands.json (CMake exports one unconditionally,
see CMAKE_EXPORT_COMPILE_COMMANDS in the top-level CMakeLists); analyzed
files are the listed first-party TUs plus headers discovered under
--paths. Findings print as `path:line:col: [check] message` and can be
written as a JSON report (--json). Known, justified exceptions live in
tools/analyze/aeva_check_allowlist.json as {check: {"path-glob":
"reason"}} — the reason is mandatory and should contain the safety
argument, not just a waiver.

Exit status: 0 clean, 1 findings, 2 bad invocation/environment.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
ALLOWLIST_PATH = Path(__file__).resolve().parent / "aeva_check_allowlist.json"

CHECKS = [
    "unordered-iteration-sink",
    "unordered-float-reduction",
    "mutable-static",
    "raw-thread",
    "hot-path-lock",
]

#: file suffix sets
SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx"}
HEADER_SUFFIXES = {".hpp", ".hh", ".h"}

#: default hot-path spec: (file glob relative to repo, function).
#: A function matches if its recovered qualified name equals the spec or
#: ends with "::<spec>".
DEFAULT_HOT_PATHS = [
    ("src/datacenter/simulator.cpp", "Simulator::run"),
    ("src/datacenter/simulator.cpp", "Simulator::run_impl"),
]

#: checks exempt inside src/util/ by construction (the sanctioned
#: primitives themselves live there).
BUILTIN_EXEMPT = {
    "raw-thread": ["src/util/*"],
    "hot-path-lock": [],
    "mutable-static": [],
    "unordered-iteration-sink": [],
    "unordered-float-reduction": [],
}

UNORDERED_TYPES = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
}

SEQUENCE_APPENDS = {"push_back", "emplace_back", "append"}

SINK_CALL_RE = re.compile(
    r"^(write|record|export|emit|encode|snapshot|print|serialize|add_row"
    r"|to_json|to_csv|to_jsonl)", re.IGNORECASE
)

LOCK_TYPES = {"MutexGuard", "lock_guard", "unique_lock", "scoped_lock"}

FLOAT_TYPES = {"double", "float"}

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "do",
    "else", "case",
}

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


@dataclass
class Tok:
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct'
    text: str
    line: int  # 1-based
    col: int   # 1-based


ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
NUM_RE = re.compile(r"\.?\d(?:[\w.]|['][\w]|[eEpP][+-])*")
RAW_OPEN_RE = re.compile(r'(?:u8|[uUL])?R"([^\s()\\]{0,16})\(')
PUNCTS = sorted(
    [
        "->*", "<<=", ">>=", "...", "::", "<<", ">>", "->", "++", "--",
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "==", "!=",
        "<=", ">=", "&&", "||", ".*",
    ],
    key=len,
    reverse=True,
)


def tokenize(text: str) -> list[Tok]:
    """C++-aware lexer: skips comments, preprocessor directives (with
    continuations), and blanks string/char literal contents, emitting
    (kind, text, line, col) tokens with exact source positions."""
    toks: list[Tok] = []
    i, n = 0, len(text)
    line, col = 1, 1
    at_line_start = True

    def advance(upto: int) -> None:
        nonlocal i, line, col
        seg = text[i:upto]
        nl = seg.count("\n")
        if nl:
            line += nl
            col = upto - seg.rfind("\n") - i
        else:
            col += upto - i
        i = upto

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            at_line_start = True
            advance(i + 1)
            continue
        if c in " \t\r\f\v":
            advance(i + 1)
            continue
        if c == "#" and at_line_start:
            # preprocessor directive incl. backslash continuations
            j = i
            while j < n:
                e = text.find("\n", j)
                e = n if e == -1 else e
                if e > j and text[e - 1] == "\\":
                    j = e + 1
                else:
                    j = e
                    break
            advance(j)
            continue
        at_line_start = False
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            advance(n if j == -1 else j)
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            advance(n if j == -1 else j + 2)
            continue
        if c in "RuUL":
            prev = text[i - 1] if i > 0 else ""
            m = None
            if not (prev.isalnum() or prev == "_"):
                m = RAW_OPEN_RE.match(text, i)
            if m:
                closer = ")" + m.group(1) + '"'
                j = text.find(closer, m.end())
                j = n if j == -1 else j + len(closer)
                toks.append(Tok("str", '""', line, col))
                advance(j)
                continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("str" if c == '"' else "chr", c + c, line, col))
            advance(min(j + 1, n) if j < n and text[j] == c else j)
            continue
        m = ID_RE.match(text, i)
        if m:
            toks.append(Tok("id", m.group(0), line, col))
            advance(m.end())
            continue
        if c.isdigit() or (c == "." and nxt.isdigit()):
            m = NUM_RE.match(text, i)
            end = m.end() if m else i + 1
            toks.append(Tok("num", text[i:end], line, col))
            advance(end)
            continue
        for p in PUNCTS:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line, col))
                advance(i + len(p))
                break
        else:
            toks.append(Tok("punct", c, line, col))
            advance(i + 1)
    return toks


def build_match(toks: list[Tok]) -> dict[int, int]:
    """index of every ( { [ -> index of its closer, and the reverse.
    Unbalanced tokens (macro tricks) simply stay unmatched."""
    match: dict[int, int] = {}
    stacks: dict[str, list[int]] = {"(": [], "{": [], "[": []}
    closer_of = {")": "(", "}": "{", "]": "["}
    for idx, t in enumerate(toks):
        if t.text in stacks:
            stacks[t.text].append(idx)
        elif t.text in closer_of:
            stack = stacks[closer_of[t.text]]
            if stack:
                o = stack.pop()
                match[o] = idx
                match[idx] = o
    return match


# ---------------------------------------------------------------------------
# Structure recovery
# ---------------------------------------------------------------------------

TRAILING_FN_OK = {
    "const", "noexcept", "override", "final", "mutable", "&", "&&", "->",
    "*", "::", ",", ">", "<",
}


def find_functions(toks, match):
    """Recovers (qualified_name, body_open_idx, body_close_idx) for
    function definitions: a `{` preceded (over trailing qualifiers /
    annotation macros) by a `)` whose matching `(` follows an identifier
    chain. Lambdas and member-init lists fall out naturally (their
    recovered 'names' never match real hot-path specs)."""
    funcs = []
    for i, t in enumerate(toks):
        if t.text != "{" or i not in match:
            continue
        k, steps, paren = i - 1, 0, None
        while k >= 0 and steps < 40:
            tx = toks[k].text
            if tx == ")":
                paren = k
                break
            if tx in TRAILING_FN_OK or toks[k].kind in ("id", "num"):
                k -= 1
                steps += 1
                continue
            break
        if paren is None or paren not in match:
            continue
        o = match[paren]
        parts = []
        k = o - 1
        while k >= 0 and toks[k].kind == "id":
            parts.append(toks[k].text)
            if k - 1 >= 0 and toks[k - 1].text == "::":
                k -= 2
            else:
                break
        if not parts or parts[0] in CONTROL_KEYWORDS:
            continue
        funcs.append(("::".join(reversed(parts)), i, match[i]))
    return funcs


def loop_body_ranges(toks, match, start, end):
    """Token-index ranges of loop bodies (for/while/do) inside
    [start, end]. Single-statement bodies extend to their `;`."""
    ranges = []
    k = start
    while k < end:
        t = toks[k]
        if t.kind == "id" and t.text in ("for", "while"):
            p = k + 1
            if p < end and toks[p].text == "(" and p in match:
                cp = match[p]
                after = cp + 1
                if after < end and toks[after].text == "{" and after in match:
                    ranges.append((after, match[after]))
                elif after < end and toks[after].text != ";":
                    j, depth = after, 0
                    while j < end:
                        if toks[j].text in "([{":
                            depth += 1
                        elif toks[j].text in ")]}":
                            depth -= 1
                        elif toks[j].text == ";" and depth <= 0:
                            break
                        j += 1
                    ranges.append((after, j))
        elif t.kind == "id" and t.text == "do":
            if k + 1 < end and toks[k + 1].text == "{" and k + 1 in match:
                ranges.append((k + 1, match[k + 1]))
        k += 1
    return ranges


def skip_template_args(toks, j):
    """j at '<' -> index just past the matching '>' (handles '>>')."""
    depth = 0
    n = len(toks)
    while j < n:
        tx = toks[j].text
        if tx == "<":
            depth += 1
        elif tx == ">":
            depth -= 1
        elif tx == ">>":
            depth -= 2
        elif tx in (";", "{"):
            return j  # bail: was a comparison, not template args
        j += 1
        if depth <= 0:
            return j
    return j


def collect_unordered_names(toks):
    """Names of variables/members/aliases whose declared type is an
    unordered container (per-file, flow-insensitive)."""
    names: set[str] = set()
    aliases: set[str] = set()
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in UNORDERED_TYPES:
            continue
        # alias?  using A = [std::]unordered_map<...>
        k = i - 1
        if k >= 0 and toks[k].text == "::":
            k -= 2  # std ::
        if k >= 0 and toks[k].text == "=" and k - 2 >= 0 \
                and toks[k - 1].kind == "id" and toks[k - 2].text == "using":
            aliases.add(toks[k - 1].text)
        j = i + 1
        if j < n and toks[j].text == "<":
            j = skip_template_args(toks, j)
        while j < n and toks[j].text in ("&", "*", "const", ")"):
            j += 1
        if j < n and toks[j].kind == "id":
            names.add(toks[j].text)
    # declarations through an alias:  A x;  /  const A& x
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in aliases:
            j = i + 1
            while j < n and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "id":
                names.add(toks[j].text)
    names |= aliases
    return names


def collect_float_names(toks):
    """Names declared as double/float (members, locals, params)."""
    names: set[str] = set()
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in FLOAT_TYPES:
            continue
        j = i + 1
        while j < n and toks[j].text in ("&", "*", "const"):
            j += 1
        if j < n and toks[j].kind == "id":
            names.add(toks[j].text)
    return names


# ---------------------------------------------------------------------------
# Builtin-engine checks
# ---------------------------------------------------------------------------


def finding(check, rel, tok, message, lines):
    excerpt = lines[tok.line - 1].strip()[:140] if tok.line - 1 < len(lines) else ""
    return {
        "check": check,
        "path": rel,
        "line": tok.line,
        "col": tok.col,
        "message": message,
        "excerpt": excerpt,
    }


def check_unordered_loops(toks, match, rel, lines):
    out = []
    unordered = collect_unordered_names(toks)
    floats = collect_float_names(toks)
    if not unordered:
        return out
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "for":
            continue
        if i + 1 >= n or toks[i + 1].text != "(" or i + 1 not in match:
            continue
        p, cp = i + 1, match[i + 1]
        # range-for: ':' at our own paren level
        colon, depth = None, 0
        for j in range(p + 1, cp):
            tx = toks[j].text
            if tx in "([{":
                depth += 1
            elif tx in ")]}":
                depth -= 1
            elif tx == ":" and depth == 0:
                colon = j
                break
        iterated = None
        if colon is not None:
            expr_ids = [x for x in toks[colon + 1:cp] if x.kind == "id"]
            if expr_ids and expr_ids[-1].text in unordered:
                iterated = expr_ids[-1].text
        else:
            # classic iterator loop: <name>.begin() / .cbegin() in header
            for j in range(p + 1, cp - 1):
                if (toks[j].kind == "id" and toks[j].text in unordered
                        and j + 2 < cp and toks[j + 1].text in (".", "->")
                        and toks[j + 2].text in ("begin", "cbegin")):
                    iterated = toks[j].text
                    break
        if iterated is None:
            continue
        # body range
        after = cp + 1
        if after < n and toks[after].text == "{" and after in match:
            b0, b1 = after, match[after]
        else:
            b0, depth = after, 0
            b1 = b0
            while b1 < n:
                tx = toks[b1].text
                if tx in "([{":
                    depth += 1
                elif tx in ")]}":
                    depth -= 1
                elif tx == ";" and depth <= 0:
                    break
                b1 += 1
        sink_tok = None
        sink_what = None
        for j in range(b0, b1):
            tx = toks[j]
            if tx.text == "<<":
                sink_tok, sink_what = tx, "stream insertion"
                break
            if tx.text in (".", "->") and j + 2 < b1 \
                    and toks[j + 1].kind == "id" and toks[j + 2].text == "(":
                callee = toks[j + 1].text
                if callee in SEQUENCE_APPENDS:
                    sink_tok, sink_what = toks[j + 1], f".{callee}() append"
                    break
                if SINK_CALL_RE.match(callee):
                    sink_tok, sink_what = toks[j + 1], f"call to {callee}()"
                    break
            if tx.kind == "id" and SINK_CALL_RE.match(tx.text) \
                    and j + 1 < b1 and toks[j + 1].text == "(" \
                    and (j == b0 or toks[j - 1].text not in (".", "->")):
                sink_tok, sink_what = tx, f"call to {tx.text}()"
                break
        if sink_tok is not None:
            out.append(finding(
                "unordered-iteration-sink", rel, t,
                f"iteration over unordered container '{iterated}' feeds an "
                f"order-sensitive sink ({sink_what}); hash order is "
                "nondeterministic — iterate a sorted view (std::map / "
                "sorted key vector) instead", lines))
        for j in range(b0, b1):
            tx = toks[j]
            if tx.text in ("+=", "-=", "*=", "/=") and j >= 1 \
                    and toks[j - 1].kind == "id" \
                    and toks[j - 1].text in floats:
                out.append(finding(
                    "unordered-float-reduction", rel, tx,
                    f"floating-point accumulation into "
                    f"'{toks[j - 1].text}' in unordered-container "
                    f"iteration over '{iterated}': float addition is "
                    "non-associative, so hash order changes the bits — "
                    "reduce in canonical (sorted) order", lines))
                break
    return out


def check_mutable_static(toks, match, rel, lines):
    out = []
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind != "id" or t.text not in ("static", "thread_local"):
            i += 1
            continue
        start = i
        j = i
        # merge `static thread_local` into one declaration site
        while j < n and toks[j].kind == "id" \
                and toks[j].text in ("static", "thread_local", "inline"):
            j += 1
        # scan declaration until ; { or ( at depth 0
        is_const = False
        first_paren = None
        brace_init = None
        k = j
        depth = 0
        while k < n:
            tx = toks[k].text
            if depth == 0 and tx in ("const", "constexpr", "constinit"):
                is_const = True
            if tx == "<":
                k = skip_template_args(toks, k)
                continue
            if depth == 0 and tx == "(" and first_paren is None:
                first_paren = k
            if depth == 0 and tx == "{":
                brace_init = k
                break
            if depth == 0 and (tx == ";" or tx == "="):
                break
            if tx in "([":
                depth += 1
            elif tx in ")]":
                depth -= 1
            k += 1
        if is_const:
            i = k + 1
            continue
        if first_paren is not None and brace_init is None:
            # `static name(...)` — a function declaration/definition at
            # namespace/class scope; only a variable when the matching ')'
            # is followed by an initializer-free ';' *inside* a function
            # body — too ambiguous to flag, so skip parenthesized decls.
            i = k + 1
            continue
        # must actually declare a name
        decl_ids = [x for x in toks[j:k] if x.kind == "id"]
        if not decl_ids:
            i = k + 1
            continue
        out.append(finding(
            "mutable-static", rel, t,
            "mutable static state (shared across every simulation and "
            "thread reachable from Simulator::run): inject it via "
            "config/members, or document the safety argument in the "
            "aeva_check allowlist", lines))
        i = k + 1
    return out


def check_raw_thread(toks, match, rel, lines):
    out = []
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in ("thread", "jthread") and i >= 2 \
                and toks[i - 1].text == "::" and toks[i - 2].text == "std":
            nxt = toks[i + 1].text if i + 1 < n else ""
            if nxt == "::":
                continue  # std::thread::id / ::hardware_concurrency — a read
            out.append(finding(
                "raw-thread", rel, toks[i - 2],
                f"raw std::{t.text} outside util::ThreadPool: ad-hoc "
                "threads have no deterministic join/rethrow and are "
                "invisible to the pool's annotations — fan out through "
                "util::ThreadPool", lines))
        elif t.text == "async" and i >= 2 and toks[i - 1].text == "::" \
                and toks[i - 2].text == "std":
            out.append(finding(
                "raw-thread", rel, toks[i - 2],
                "std::async launches unmanaged threads with "
                "implementation-defined policy — fan out through "
                "util::ThreadPool", lines))
        elif t.text == "pthread_create":
            out.append(finding(
                "raw-thread", rel, t,
                "pthread_create outside util::ThreadPool", lines))
        elif t.text == "detach" and i >= 1 and toks[i - 1].text in (".", "->") \
                and i + 1 < n and toks[i + 1].text == "(":
            out.append(finding(
                "raw-thread", rel, t,
                "detached thread: nothing can join it, so completion "
                "ordering is unobservable and shutdown races are "
                "guaranteed — keep threads joinable inside "
                "util::ThreadPool", lines))
    return out


def check_hot_path_locks(toks, match, rel, lines, hot_specs):
    out = []
    specs = [fn for (glob, fn) in hot_specs
             if fnmatch.fnmatch(rel, glob) or rel.endswith(glob)]
    if not specs:
        return out
    n = len(toks)
    for name, b0, b1 in find_functions(toks, match):
        if not any(name == s or name.endswith("::" + s) for s in specs):
            continue
        for (l0, l1) in loop_body_ranges(toks, match, b0 + 1, b1):
            for j in range(l0, l1):
                tx = toks[j]
                # a guard type either declares a named local
                # (`MutexGuard lock(mu)`), is templated
                # (`unique_lock<std::mutex> l(mu)`), or is a temporary
                # (`MutexGuard(mu)`).
                if tx.kind == "id" and tx.text in LOCK_TYPES \
                        and j + 1 < l1 \
                        and (toks[j + 1].text in ("(", "<")
                             or toks[j + 1].kind == "id") \
                        and (j == 0 or toks[j - 1].text != "::"
                             or (j >= 2 and toks[j - 2].text in ("util", "std"))):
                    out.append(finding(
                        "hot-path-lock", rel, tx,
                        f"lock acquisition ({tx.text}) inside the "
                        f"event-loop hot path ({name}): per-event locking "
                        "serializes sharded simulation — hoist the lock "
                        "out of the loop or restructure to per-shard "
                        "state", lines))
                elif tx.text in (".", "->") and j + 2 < l1 \
                        and toks[j + 1].kind == "id" \
                        and toks[j + 1].text in ("lock", "try_lock") \
                        and toks[j + 2].text == "(":
                    out.append(finding(
                        "hot-path-lock", rel, toks[j + 1],
                        f"explicit .{toks[j + 1].text}() inside the "
                        f"event-loop hot path ({name})", lines))
                elif tx.text in (".", "->") and j + 3 < l1 \
                        and toks[j + 1].kind == "id" \
                        and toks[j + 1].text in ("counter", "gauge", "histogram") \
                        and toks[j + 2].text == "(" \
                        and toks[j + 3].kind == "str":
                    out.append(finding(
                        "hot-path-lock", rel, toks[j + 1],
                        f"by-name registry lookup .{toks[j + 1].text}(...) "
                        f"inside the event-loop hot path ({name}): it takes "
                        "the registry-wide map lock per event — resolve "
                        "the handle once at setup (see SimObs)", lines))
    return out


def analyze_file_builtin(path: Path, rel: str, hot_specs) -> list[dict]:
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    toks = tokenize(text)
    match = build_match(toks)
    findings = []
    findings += check_unordered_loops(toks, match, rel, lines)
    findings += check_mutable_static(toks, match, rel, lines)
    findings += check_raw_thread(toks, match, rel, lines)
    findings += check_hot_path_locks(toks, match, rel, lines, hot_specs)
    return findings


# ---------------------------------------------------------------------------
# libclang engine (declaration-level cross-validation)
# ---------------------------------------------------------------------------


def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except Exception:
        return False


def analyze_file_libclang(path: Path, rel: str, args: list[str],
                          lines: list[str]) -> list[dict] | None:
    """mutable-static + raw-thread on a real clang AST. Returns None when
    the TU fails to parse (caller falls back to builtin for this file)."""
    import clang.cindex as ci

    try:
        index = ci.Index.create()
        tu = index.parse(str(path), args=args)
    except Exception as err:
        print(f"aeva_check: libclang parse failed for {rel}: {err}",
              file=sys.stderr)
        return None

    def tok_at(cursor):
        loc = cursor.location
        return Tok("id", cursor.spelling or "?", loc.line or 1,
                   loc.column or 1)

    out = []
    for cur in tu.cursor.walk_preorder():
        loc = cur.location
        if loc.file is None or Path(str(loc.file)).resolve() != path.resolve():
            continue
        if cur.kind == ci.CursorKind.VAR_DECL:
            static = cur.storage_class == ci.StorageClass.STATIC
            tls = getattr(cur, "tls_kind", None)
            tls = tls is not None and tls != ci.TLSKind.NONE
            if static or tls:
                qtype = cur.type.get_canonical()
                if not qtype.is_const_qualified():
                    out.append(finding(
                        "mutable-static", rel, tok_at(cur),
                        "mutable static state (libclang): inject it via "
                        "config/members, or document the safety argument "
                        "in the aeva_check allowlist", lines))
            canonical = cur.type.get_canonical().spelling
            if re.search(r"\bstd::(thread|jthread)\b", canonical):
                out.append(finding(
                    "raw-thread", rel, tok_at(cur),
                    "raw std::thread outside util::ThreadPool "
                    "(libclang)", lines))
        elif cur.kind == ci.CursorKind.CALL_EXPR:
            if cur.spelling == "detach":
                out.append(finding(
                    "raw-thread", rel, tok_at(cur),
                    "detached thread (libclang)", lines))
            elif cur.spelling == "async":
                ref = cur.referenced
                if ref is not None and "std" in (
                        ref.semantic_parent.spelling
                        if ref.semantic_parent else ""):
                    out.append(finding(
                        "raw-thread", rel, tok_at(cur),
                        "std::async outside util::ThreadPool "
                        "(libclang)", lines))
    return out


def clang_args_from_command(entry: dict) -> list[str]:
    """Extracts -I/-D/-std flags from a compile_commands entry."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = entry.get("command", "").split()
    keep, i = [], 0
    while i < len(argv):
        a = argv[i]
        if a.startswith(("-I", "-D", "-std=")):
            keep.append(a)
        elif a in ("-I", "-D", "-isystem", "-include") and i + 1 < len(argv):
            keep.extend([a, argv[i + 1]])
            i += 1
        i += 1
    if not any(a.startswith("-std=") for a in keep):
        keep.append("-std=c++20")
    return keep


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_allowlist(path: Path) -> dict[str, dict[str, str]]:
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        print(f"aeva_check: malformed allowlist {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    data.pop("_comment", None)
    for check, entries in data.items():
        if check not in CHECKS:
            print(f"aeva_check: allowlist names unknown check {check!r}",
                  file=sys.stderr)
            sys.exit(2)
        if not isinstance(entries, dict) or not all(
                isinstance(v, str) and v.strip() for v in entries.values()):
            print(f"aeva_check: allowlist for {check!r} must map "
                  "path-glob -> non-empty reason", file=sys.stderr)
            sys.exit(2)
    return data


def is_exempt(check: str, rel: str, allowlist) -> bool:
    globs = list(BUILTIN_EXEMPT.get(check, []))
    globs += list(allowlist.get(check, {}).keys())
    return any(fnmatch.fnmatch(rel, g) for g in globs)


def rel_to_repo(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def collect_inputs(args) -> list[tuple[Path, dict | None]]:
    """(file, compile_commands entry or None) for every file to analyze."""
    inputs: dict[Path, dict | None] = {}
    if args.files:
        for f in args.files:
            p = Path(f).resolve()
            if not p.is_file():
                print(f"aeva_check: no such file: {f}", file=sys.stderr)
                sys.exit(2)
            inputs[p] = None
    if args.compile_commands:
        cc_path = Path(args.compile_commands)
        if not cc_path.is_file():
            print(f"aeva_check: compile_commands not found: {cc_path} "
                  "(configure with CMake first; CMAKE_EXPORT_COMPILE_COMMANDS "
                  "is on by default)", file=sys.stderr)
            sys.exit(2)
        try:
            entries = json.loads(cc_path.read_text())
        except json.JSONDecodeError as err:
            print(f"aeva_check: malformed {cc_path}: {err}", file=sys.stderr)
            sys.exit(2)
        roots = [Path(p) if Path(p).is_absolute() else REPO_ROOT / p
                 for p in args.paths]
        for entry in entries:
            f = Path(entry.get("file", ""))
            if not f.is_absolute():
                f = Path(entry.get("directory", ".")) / f
            f = f.resolve()
            if f.suffix not in SOURCE_SUFFIXES or not f.is_file():
                continue
            if not any(str(f).startswith(str(r.resolve()) + "/")
                       for r in roots):
                continue
            inputs.setdefault(f, entry)
        # headers are not TUs; pick them up from the same roots
        for r in roots:
            if r.is_dir():
                for h in sorted(r.rglob("*")):
                    if h.suffix in HEADER_SUFFIXES:
                        inputs.setdefault(h.resolve(), None)
    if not inputs:
        print("aeva_check: nothing to analyze (pass --compile-commands "
              "or --files)", file=sys.stderr)
        sys.exit(2)
    return sorted(inputs.items(), key=lambda kv: str(kv[0]))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="compilation database (e.g. "
                             "build/compile_commands.json)")
    parser.add_argument("--files", nargs="*", default=[],
                        help="analyze exactly these files (fixture mode)")
    parser.add_argument("--paths", nargs="*", default=["src"],
                        help="repo-relative roots to scope the database "
                             "to (default: src)")
    parser.add_argument("--json", metavar="FILE", help="write a JSON report")
    parser.add_argument("--allowlist", default=str(ALLOWLIST_PATH),
                        help="allowlist JSON (default: "
                             "tools/analyze/aeva_check_allowlist.json)")
    parser.add_argument("--engine", choices=["auto", "builtin", "libclang"],
                        default="builtin",
                        help="analysis engine (default: builtin, the "
                             "fixture-pinned reference)")
    parser.add_argument("--hot", action="append", default=[],
                        metavar="FILE:FUNCTION",
                        help="add a hot-path spec for hot-path-lock "
                             "(repeatable); replaces the default "
                             "src/datacenter/simulator.cpp:Simulator::run "
                             "when given")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check catalog and exit")
    args = parser.parse_args()

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0

    engine = args.engine
    if engine == "auto":
        engine = "libclang" if libclang_available() else "builtin"
    if engine == "libclang" and not libclang_available():
        print("aeva_check: --engine libclang requires the clang.cindex "
              "python bindings (python3-clang)", file=sys.stderr)
        return 2

    hot_specs = []
    for spec in args.hot:
        f, sep, fn = spec.partition(":")
        if not sep or not fn:
            print(f"aeva_check: bad --hot spec {spec!r} "
                  "(want FILE:FUNCTION)", file=sys.stderr)
            return 2
        hot_specs.append((f, fn))
    if not hot_specs:
        hot_specs = DEFAULT_HOT_PATHS

    allowlist = load_allowlist(Path(args.allowlist))
    inputs = collect_inputs(args)

    findings: list[dict] = []
    for path, entry in inputs:
        rel = rel_to_repo(path)
        file_findings = analyze_file_builtin(path, rel, hot_specs)
        if engine == "libclang" and path.suffix in SOURCE_SUFFIXES:
            # cross-validate declaration-level checks on the real AST;
            # AST results replace the token-engine ones for those checks.
            clang_args = clang_args_from_command(entry or {})
            lines = path.read_text(
                encoding="utf-8", errors="replace").splitlines()
            ast = analyze_file_libclang(path, rel, clang_args, lines)
            if ast is not None:
                file_findings = [
                    f for f in file_findings
                    if f["check"] not in ("mutable-static", "raw-thread")
                ] + ast
        findings.extend(
            f for f in file_findings
            if not is_exempt(f["check"], f["path"], allowlist))

    findings.sort(key=lambda f: (f["path"], f["line"], f["col"], f["check"]))
    for f in findings:
        print(f"{f['path']}:{f['line']}:{f['col']}: [{f['check']}] "
              f"{f['message']}\n    {f['excerpt']}")

    report = {
        "version": 1,
        "engine": engine,
        "compile_commands": args.compile_commands,
        "checked_files": len(inputs),
        "finding_count": len(findings),
        "findings": findings,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")

    if findings:
        print(f"aeva_check: {len(findings)} finding(s) in "
              f"{len(inputs)} files", file=sys.stderr)
        return 1
    print(f"aeva_check: clean ({len(inputs)} files, engine={engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
