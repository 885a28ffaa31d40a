"""Shared helpers for the per-figure/per-table benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (see docs/paper_to_code.md for the index).  The workloads are
scaled down relative to the paper (fewer seeds, shorter horizons) so that
the full harness runs in minutes on a laptop; the *shape* of each result —
orderings, crossovers, scaling trends — is what is being reproduced, and
each module asserts that shape where it is deterministic enough to check.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: Every table printed by a benchmark is also appended here, so the
#: regenerated rows survive pytest's output capturing.
RESULTS_FILE = Path(__file__).parent / "results_latest.txt"


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print a small aligned table (the rows/series the paper reports).

    The table goes to stdout (visible with ``pytest -s``) and is appended to
    ``benchmarks/results_latest.txt`` so results persist across runs.
    """
    widths = [
        max(len(str(headers[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    with RESULTS_FILE.open("a", encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.fixture
def table_printer():
    return print_table
