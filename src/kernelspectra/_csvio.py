"""The package's one CSV and sidecar reader/writer.

Rows hold Python floats, whose str() is the shortest round-tripping repr,
so equal values print to equal bytes. A table's metadata lives in
<path>.meta, one key=value line per entry.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence], meta: Iterable[tuple] | None = None
                ) -> None:
    """Write header and rows to ``path``, ``meta`` (key, value) pairs to .meta."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    if meta is not None:
        sidecar = path.with_name(path.name + ".meta")
        sidecar.write_text("".join(f"{k}={v}\n" for k, v in meta))


def read_table(path: str | Path, header: Sequence[str]
               ) -> tuple[list[list[str]], dict[str, str]]:
    """Rows below the expected header, and the .meta entries ({} if absent)."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or [cell.strip() for cell in rows[0]] != list(header):
        raise ValueError(f"{path} lacks the {','.join(header)} header")
    sidecar = path.with_name(path.name + ".meta")
    lines = sidecar.read_text().splitlines() if sidecar.exists() else []
    meta = dict(line.partition("=")[::2] for line in lines if line.strip())
    return rows[1:], meta
