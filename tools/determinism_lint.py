#!/usr/bin/env python3
"""AST-free determinism and trace-cost lint for the simulator core.

The repository's central guarantee is byte-identical replay: same (seed,
plan) => identical traces (tests/test_determinism.cpp).  That guarantee is
only as strong as the absence of nondeterminism *sources* in the simulated
paths, so this checker mechanically bans them in src/sim, src/net,
src/bcsmpi and src/storm (the strobe-sender tree lives there) — and
src/verify, which observes those paths (rules 1-3; rule 4 covers all of
src/):

  1. Wall-clock / host-entropy / host-environment calls: rand(), srand(),
     std::random_device, getenv, system_clock, steady_clock,
     high_resolution_clock, gettimeofday, clock_gettime, random_shuffle.
     Simulated time comes from the event engine; randomness comes from the
     seeded xoshiro streams in sim/rng.hpp.  No exceptions.

  2. Hash-ordered containers: every textual use of std::unordered_map /
     unordered_set (and the multi variants) must carry an audited
     annotation of the form

         // det-ok: <one-line justification>

     on the same line or within the three lines above it, explaining why
     hash order cannot leak into traces, events or RNG draws (e.g.
     "lookup-only", "iteration is order-normalized by the caller's sort").
     An empty justification is an error — the annotation is an audit trail,
     not an escape hatch.  Code that cannot justify itself converts to
     ordered iteration instead: sim::FlatMap (sim/flat_map.hpp) is the
     flat, key-ordered table the CPU model's tasks, the request tables and
     the MSM match indexes use.

  3. Stale annotations: a det-ok whose reach (its own line plus the three
     lines below) contains no unordered container is an audit trail
     pointing at nothing — usually left behind by a refactor.  Left in
     place it would silently bless the next unordered container someone
     adds nearby, so it is an error too: drop the marker or move it next
     to the container it audits.

  4. Eager trace messages: simulator code writes trace records only through
     sim::traceRecord (src/sim/trace.hpp), which takes the message as a
     callable and renders it only when the trace is enabled.  A direct
     Trace::record call builds its std::string whether or not anyone is
     tracing — the per-message host cost the helper exists to remove — so
     any such call in src/ outside src/sim/trace.* is an error.  Detected as
     `Trace::record`, a `record(` call on a receiver named like a trace
     (`trace_->record(`, `cluster_.trace().record(`), or a `record(` call
     whose arguments name a TraceCategory.

Zero third-party dependencies; line/regex based by design so it runs
anywhere a Python interpreter exists, with no compiler involvement.

Usage: tools/determinism_lint.py [paths...]   (default: rules 1-3 over
src/sim src/net src/bcsmpi src/storm src/verify src/snapshot src/codec
src/apps src/bcs, rule 4 over src/, relative to the repository root, which
is inferred from this file's location; explicit paths get all four rules)
"""

import re
import sys
from pathlib import Path

DEFAULT_SCOPE = ["src/sim", "src/net", "src/bcsmpi", "src/storm",
                 "src/verify", "src/snapshot", "src/codec", "src/apps",
                 "src/bcs"]
EXTENSIONS = {".hpp", ".cpp", ".h", ".cc"}

BANNED = [
    (re.compile(r"\brand\s*\("), "rand() — use sim/rng.hpp streams"),
    (re.compile(r"\bsrand\s*\("), "srand() — use sim/rng.hpp streams"),
    (re.compile(r"\brandom_device\b"), "std::random_device — host entropy"),
    (re.compile(r"\brandom_shuffle\b"), "random_shuffle — unseeded order"),
    (re.compile(r"\bgetenv\b"), "getenv — host environment in sim path"),
    (re.compile(r"\bsystem_clock\b"), "system_clock — wall clock"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock — wall clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "high_resolution_clock — wall clock"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday — wall clock"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime — wall clock"),
]

UNORDERED = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
DET_OK = re.compile(r"//\s*det-ok:(.*)$")
# det-ok must be on the flagged line or within this many lines above it.
DET_OK_REACH = 3

# Rule 4: direct Trace::record calls (the lazy helper lives in trace.*).
TRACE_RECORD_QUALIFIED = re.compile(r"\bTrace::record\b")
TRACE_RECORD_RECEIVER = re.compile(
    r"\w*[Tt]race\w*\s*(?:\(\s*\))?\s*(?:\.|->)\s*record\s*\(")
RECORD_CALL = re.compile(r"\brecord\s*\(")
TRACE_HOME = "trace"  # src/sim/trace.hpp and trace.cpp may call record()


def strip_comments(lines):
    """Returns (code_lines, raw_lines): code_lines have // and /* */ comment
    text removed (string literals are not parsed — good enough for this
    codebase, which keeps banned tokens out of strings)."""
    code = []
    in_block = False
    for raw in lines:
        line = raw
        out = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    i = end + 2
                    in_block = False
            else:
                slash = line.find("//", i)
                block = line.find("/*", i)
                if slash >= 0 and (block < 0 or slash < block):
                    out.append(line[i:slash])
                    i = len(line)
                elif block >= 0:
                    out.append(line[i:block])
                    i = block + 2
                    in_block = True
                else:
                    out.append(line[i:])
                    i = len(line)
        code.append("".join(out))
    return code


def lint_file(path: Path):
    findings = []
    raw = path.read_text().splitlines()
    code = strip_comments(raw)

    def det_ok_near(idx):
        """A well-formed det-ok annotation on the line or just above it.
        Returns (found, error) — an empty justification is its own error."""
        for k in range(idx, max(-1, idx - DET_OK_REACH - 1), -1):
            m = DET_OK.search(raw[k])
            if m:
                if not m.group(1).strip():
                    return True, f"{path}:{k + 1}: det-ok with empty " \
                                 "justification (the annotation is an " \
                                 "audit trail, not an escape hatch)"
                return True, None
        return False, None

    for idx, line in enumerate(code):
        for pattern, why in BANNED:
            if pattern.search(line):
                findings.append(
                    f"{path}:{idx + 1}: banned nondeterminism source: {why}")
        if UNORDERED.search(line) and "#include" not in line:
            found, err = det_ok_near(idx)
            if err:
                findings.append(err)
            elif not found:
                findings.append(
                    f"{path}:{idx + 1}: unordered container without a "
                    "// det-ok: justification (convert to ordered "
                    "iteration or document why hash order cannot leak)")

    # Orphaned / malformed / stale annotations anywhere in the file.
    for idx, rawline in enumerate(raw):
        m = DET_OK.search(rawline)
        if not m:
            continue
        if not m.group(1).strip():
            msg = f"{path}:{idx + 1}: det-ok with empty justification " \
                  "(the annotation is an audit trail, not an escape hatch)"
            if msg not in findings:
                findings.append(msg)
            continue
        # A det-ok blesses its own line and the DET_OK_REACH lines below
        # (det_ok_near scans that far up from a flagged container).  If no
        # unordered container lives in that reach, the annotation audits
        # nothing — and would silently bless whatever container gets added
        # near it next.
        reach = code[idx:idx + DET_OK_REACH + 1]
        if not any(UNORDERED.search(l) and "#include" not in l
                   for l in reach):
            findings.append(
                f"{path}:{idx + 1}: stale det-ok annotation: no unordered "
                f"container on this line or the {DET_OK_REACH} lines below "
                "(drop the marker or move it next to the container it "
                "audits)")
    return findings


def call_arguments(text, open_paren):
    """The text between the parenthesis at `open_paren` and its match."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return text[open_paren + 1:]


def lint_trace_records(path):
    """Rule 4: eager Trace::record calls outside src/sim/trace.*."""
    if path.parent.name == "sim" and path.stem == TRACE_HOME:
        return []
    text = "\n".join(strip_comments(path.read_text().splitlines()))
    flagged = set()
    for m in TRACE_RECORD_QUALIFIED.finditer(text):
        flagged.add(text.count("\n", 0, m.start()))
    for m in TRACE_RECORD_RECEIVER.finditer(text):
        flagged.add(text.count("\n", 0, m.start()))
    for m in RECORD_CALL.finditer(text):
        if "TraceCategory" in call_arguments(text, m.end() - 1):
            flagged.add(text.count("\n", 0, m.start()))
    return [f"{path}:{idx + 1}: direct Trace::record call builds its "
            "message even when tracing is off (use sim::traceRecord with a "
            "message callable)" for idx in sorted(flagged)]


def source_files(scope):
    files = []
    for entry in scope:
        if entry.is_file():
            files.append(entry)
        else:
            files.extend(p for p in sorted(entry.rglob("*"))
                         if p.suffix in EXTENSIONS)
    return files


def main(argv):
    repo_root = Path(__file__).resolve().parent.parent
    explicit = [Path(p) for p in argv[1:]]
    files = source_files(explicit or [repo_root / p for p in DEFAULT_SCOPE])
    trace_files = source_files(explicit or [repo_root / "src"])
    findings = []
    for f in files:
        findings.extend(lint_file(f))
    for f in trace_files:
        findings.extend(lint_trace_records(f))
    if findings:
        print(f"determinism_lint: {len(findings)} finding(s):")
        for f in findings:
            print("  " + f)
        return 1
    print(f"determinism_lint: clean ({len(set(files + trace_files))} "
          "file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
