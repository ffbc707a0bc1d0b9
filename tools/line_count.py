#!/usr/bin/env python3
"""Counts the lines of the C++ sources under each PATH.

For each PATH, a directory or a file, prints how many C++ sources
(.cpp, .hpp, .h, ...) are under it, their physical lines and their code
lines: lines that are not blank, not only a // comment and not inside a
/* */ comment.  Without --rev it counts the working tree: the tracked
files and the untracked ones git does not ignore.  With --rev it counts
the files committed at REV too and prints the net change, so a change's
net lines are one command:

    tools/line_count.py --rev HEAD~1 src/bcsmpi src

prints three rows per PATH, `HEAD~1`, `worktree` and `net` (the working
tree minus REV), each with the file count, physical lines and code lines.

Paths are relative to the current directory, inside one git repository.
Pure stdlib.

Usage:
    tools/line_count.py [--rev REV] PATH...
"""

import argparse
import os
import pathlib
import subprocess
import sys

SUFFIXES = {".cpp", ".cc", ".cxx", ".c", ".hpp", ".hh", ".hxx", ".h",
            ".ipp", ".inl"}
RAW_PREFIXES = {"R", "u8R", "uR", "UR", "LR"}


def git(root: pathlib.Path, *args: str, data: bytes = b"") -> bytes:
    return subprocess.run(["git", *args], cwd=root, input=data,
                          capture_output=True, check=True).stdout


def code_lines(text: str) -> int:
    """Lines holding something other than blanks and comments."""
    code = 0
    block = False   # inside /* */
    raw_end = None  # the )delim" closing the raw string we are inside
    for line in text.splitlines():
        seen = False
        i, n = 0, len(line)
        while i < n:
            if block:
                end = line.find("*/", i)
                if end < 0:
                    break
                block, i = False, end + 2
            elif raw_end is not None:
                end = line.find(raw_end, i)
                seen = seen or bool(line[i:n if end < 0 else end].strip())
                if end < 0:
                    break
                raw_end, i, seen = None, end + len(raw_end), True
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                block, i = True, i + 2
            elif line[i] == '"' or (line[i] == "'" and
                                    not (i and line[i - 1].isalnum())):
                # A string or character literal; a quote after a digit is a
                # digit separator, which the last branch takes.
                seen = True
                j = i
                while j and (line[j - 1].isalnum() or line[j - 1] == "_"):
                    j -= 1
                if line[i] == '"' and line[j:i] in RAW_PREFIXES:
                    open_at = line.find("(", i)
                    raw_end = ")" + line[i + 1:open_at] + '"'
                    i = open_at + 1
                    continue
                quote, i = line[i], i + 1
                while i < n and line[i] != quote:
                    i += 2 if line[i] == "\\" else 1
                i += 1
            else:
                seen = seen or not line[i].isspace()
                i += 1
        code += seen
    return code


def worktree_sources(root: pathlib.Path, path: str):
    names = git(root, "ls-files", "-z", "--cached", "--others",
                "--exclude-standard", "--", path).decode().split("\0")
    for name in sorted(set(filter(None, names))):
        p = root / name
        if pathlib.PurePath(name).suffix in SUFFIXES and p.is_file():
            yield p.read_text(encoding="utf-8", errors="replace")


def revision_sources(root: pathlib.Path, rev: str, path: str):
    names = git(root, "ls-tree", "-r", "-z", "--name-only", rev, "--",
                path).decode().split("\0")
    names = [n for n in names if pathlib.PurePath(n).suffix in SUFFIXES]
    if not names:
        return
    out = git(root, "cat-file", "--batch",
              data="".join(f"{rev}:{n}\n" for n in names).encode())
    at = 0
    for _ in names:
        header_end = out.index(b"\n", at)
        size = int(out[at:header_end].split()[2])
        start = header_end + 1
        yield out[start:start + size].decode("utf-8", errors="replace")
        at = start + size + 1


def tally(sources):
    files = lines = code = 0
    for text in sources:
        files += 1
        lines += len(text.splitlines())
        code += code_lines(text)
    return files, lines, code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="also count this git revision and "
                        "print the net change")
    parser.add_argument("paths", nargs="+", metavar="PATH")
    args = parser.parse_args()
    root = pathlib.Path(
        git(pathlib.Path.cwd(), "rev-parse", "--show-toplevel")
        .decode().strip())
    rows = []
    for path in args.paths:
        rel = os.path.relpath(os.path.abspath(path), root)
        now = tally(worktree_sources(root, rel))
        if args.rev:
            then = tally(revision_sources(root, args.rev, rel))
            rows.append((path, args.rev, *then))
            rows.append((path, "worktree", *now))
            rows.append((path, "net", *(b - a for a, b in zip(then, now))))
        else:
            rows.append((path, "worktree", *now))
    width = max(len("path"), *(len(r[0]) for r in rows))
    at_width = max(len("at"), *(len(r[1]) for r in rows))
    print(f"{'path':<{width}}  {'at':<{at_width}}  "
          f"{'files':>6}  {'lines':>7}  {'code':>7}")
    for path, at, files, lines, code in rows:
        print(f"{path:<{width}}  {at:<{at_width}}  "
              f"{files:>6}  {lines:>7}  {code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
