#!/usr/bin/env python3
"""Dumps the section table of a BCSS snapshot (src/snapshot, DESIGN.md §8).

Shows the format version, config fingerprint and, per section, the raw and
compressed sizes plus the stored CRC-32 — and whether that CRC matches the
payload actually present in the file.  Pure stdlib; reads the container
header only (it does not decompress payloads, so it works on any version
whose header layout matches v1).

Usage:
    tools/snapshot_inspect.py SNAPSHOT.bcss [...]
"""

import pathlib
import struct
import sys
import zlib

MAGIC = b"BCSS"


def need(blob: bytes, off: int, n: int, what: str) -> bytes:
    """blob[off:off + n], or ValueError naming `what` if it is cut short."""
    if off + n > len(blob):
        raise ValueError(f"truncated in {what} "
                         f"(need {off + n} bytes, have {len(blob)})")
    return blob[off:off + n]


def read_header(blob: bytes):
    """Parses the container header.

    Returns (version, fingerprint, table, offset): the section table as
    (name, raw size, compressed size, CRC-32) tuples, in file order, and
    the offset of the first payload; the payloads follow one another in
    table order.  Raises ValueError on a bad magic or a cut-short header.
    """
    if need(blob, 0, 4, "magic") != MAGIC:
        raise ValueError("bad magic (not a BCSS snapshot)")
    version, = struct.unpack_from("<I", need(blob, 4, 4, "version"), 0)
    fingerprint, = struct.unpack_from("<Q", need(blob, 8, 8, "fingerprint"),
                                      0)
    count, = struct.unpack_from("<I", need(blob, 16, 4, "section count"), 0)
    off = 20
    table = []
    for _ in range(count):
        name_len, = struct.unpack_from(
            "<H", need(blob, off, 2, "name length"), 0)
        off += 2
        name = need(blob, off, name_len, "section name").decode("utf-8")
        off += name_len
        raw_size, comp_size, crc = struct.unpack_from(
            "<QQI", need(blob, off, 20, f"table entry for {name!r}"), 0)
        off += 20
        table.append((name, raw_size, comp_size, crc))
    return version, fingerprint, table, off


def inspect(path: pathlib.Path) -> int:
    blob = path.read_bytes()
    version, fingerprint, table, off = read_header(blob)
    print(f"{path}: BCSS v{version}  fingerprint {fingerprint:#018x}  "
          f"{len(table)} sections  {len(blob)} bytes")

    status = 0
    print(f"  {'section':<16} {'raw':>10} {'compressed':>10} "
          f"{'crc32':>10}  payload")
    for name, raw_size, comp_size, crc in table:
        try:
            payload = need(blob, off, comp_size, f"payload of {name!r}")
        except ValueError as e:
            print(f"  {name:<16} {raw_size:>10} {comp_size:>10} "
                  f"{crc:>10x}  MISSING ({e})")
            status = 1
            break
        off += comp_size
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        ok = "ok" if actual == crc else f"CRC MISMATCH (payload {actual:08x})"
        if actual != crc:
            status = 1
        print(f"  {name:<16} {raw_size:>10} {comp_size:>10} {crc:>10x}  "
              f"{ok}")
    if off != len(blob) and status == 0:
        print(f"  warning: {len(blob) - off} trailing bytes after payloads")
        status = 1
    return status


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for arg in sys.argv[1:]:
        try:
            status |= inspect(pathlib.Path(arg))
        except (OSError, ValueError) as e:
            print(f"{arg}: {e}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
