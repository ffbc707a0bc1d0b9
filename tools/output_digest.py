#!/usr/bin/env python3
"""Digests what a build's paper benches and examples print and write.

Runs every executable in BUILD_DIR/bench except bench_engine and
bench_micro (they report host time) and every executable in
BUILD_DIR/examples, one at a time, each in a fresh temporary directory.
Prints one `sha256  name` line for each binary's stdout, for its exit
code, and for every file it leaves behind in its directory (bench_rma's
BENCH_rma.json, checkpoint_fault_tolerance's .bcss snapshot), and for a
.bcss snapshot one more line per section, over the section's stored
payload (the header is parsed by snapshot_inspect.read_header):

    <sha256>  bench_rma/stdout
    <sha256>  bench_rma/exit
    <sha256>  bench_rma/BENCH_rma.json
    <sha256>  checkpoint_fault_tolerance/checkpoint_fault_tolerance.bcss
    <sha256>  checkpoint_fault_tolerance/checkpoint_fault_tolerance.bcss:engine

Nothing host-dependent is hashed, so the listings of two builds diff clean
when no simulated output moved, and a diff names the snapshot sections
that did:

    tools/output_digest.py build > change.txt
    tools/output_digest.py ../parent/build > parent.txt
    diff parent.txt change.txt

With --check, compares the listing with the one in LISTING instead of
printing it, prints a unified diff if they differ and exits 1 then.  The
tier-1 ctest entry `output_digest` checks a build against
tests/golden/output_digest.txt; a change that moves simulated output
regenerates that file with the first form and says so in CHANGES.md.

Pure stdlib.  Exits 1 if BUILD_DIR holds no bench or example binary.

Usage:
    tools/output_digest.py BUILD_DIR
    tools/output_digest.py --check LISTING BUILD_DIR
"""

import difflib
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from snapshot_inspect import read_header  # noqa: E402

HOST_TIMED = {"bench_engine", "bench_micro"}


def binaries(build: pathlib.Path):
    found = []
    for sub in ("bench", "examples"):
        d = build / sub
        if not d.is_dir():
            continue
        for p in sorted(d.iterdir()):
            if (p.is_file() and os.access(p, os.X_OK)
                    and p.name not in HOST_TIMED):
                found.append(p.resolve())
    return found


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def section_digests(blob: bytes, name: str):
    """One (sha256, "name:section") per section of a .bcss snapshot."""
    try:
        _, _, table, off = read_header(blob)
    except ValueError as e:
        return [(sha256(str(e).encode()), f"{name}:unreadable")]
    lines = []
    for section, _, comp_size, _ in table:
        lines.append((sha256(blob[off:off + comp_size]), f"{name}:{section}"))
        off += comp_size
    return lines


def digest(binary: pathlib.Path):
    with tempfile.TemporaryDirectory(prefix="output_digest_") as tmp:
        proc = subprocess.run([str(binary)], cwd=tmp, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
        lines = [(sha256(proc.stdout), "stdout"),
                 (sha256(str(proc.returncode).encode()), "exit")]
        root = pathlib.Path(tmp)
        for p in sorted(root.rglob("*")):
            if p.is_file():
                data = p.read_bytes()
                name = p.relative_to(root).as_posix()
                lines.append((sha256(data), name))
                if p.suffix == ".bcss":
                    lines.extend(section_digests(data, name))
    return lines


def listing(found):
    for binary in found:
        for hexdigest, what in digest(binary):
            yield f"{hexdigest}  {binary.name}/{what}"


def main(argv) -> int:
    check = len(argv) == 4 and argv[1] == "--check"
    if len(argv) != 2 and not check:
        usage = __doc__.strip().splitlines()[-2:]
        print("\n".join(line.strip() for line in usage), file=sys.stderr)
        return 2
    found = binaries(pathlib.Path(argv[-1]))
    if not found:
        print(f"{argv[-1]}: no bench or example binaries", file=sys.stderr)
        return 1
    if not check:
        for line in listing(found):
            print(line, flush=True)
        return 0
    want = pathlib.Path(argv[2]).read_text().splitlines()
    got = list(listing(found))
    if got == want:
        print(f"{len(got)} digests match {argv[2]}")
        return 0
    for line in difflib.unified_diff(want, got, argv[2], argv[-1],
                                     lineterm=""):
        print(line)
    print("simulated output moved: if that is intended, regenerate the "
          f"listing with `{argv[0]} {argv[-1]} > {argv[2]}` and say so in "
          "CHANGES.md")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
