"""Artifact checks shared by all workloads.

A failed check never raises: it returns a list of problems, and each entry
with a problem counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import TRACE_HEADER


def _null_to_nan(rows):
    """``trace.json`` writes unmeasured values as bare NaN today; accept null too."""
    return [{k: (math.nan if v is None else v) for k, v in row.items()} for row in rows]


def read_entry(outdir: Path) -> tuple[dict | None, list[str]]:
    """Parse one entry's ``summary.json``, ``trace.csv`` and ``trace.json``."""
    try:
        summary = json.loads((outdir / "summary.json").read_text())
        with open(outdir / "trace.csv", newline="") as fh:
            header = fh.readline().strip()
            rows = list(csv.reader(fh))
        json_rows = _null_to_nan(json.loads((outdir / "trace.json").read_text()))
    except (OSError, ValueError, AttributeError) as exc:
        return None, [f"{outdir.name}: unreadable artifacts: {exc}"]
    if not isinstance(summary, dict):
        return None, [f"{outdir.name}: summary.json is not an object"]
    problems = []
    if header != TRACE_HEADER:
        problems.append(f"trace.csv header {header!r}")
    iterations = summary.get("iterations")
    if len(rows) != iterations or len(json_rows) != iterations:
        problems.append(f"{len(rows)} csv / {len(json_rows)} json rows for "
                        f"{iterations} iterations")
    if any(row[-1] != summary.get("reason") for row in rows):
        problems.append("trace.csv reason column disagrees with summary.json")
    return summary, problems


def read_sweep_tables(out: Path, entries: int) -> list[str]:
    """The comparison tables a sweep writes next to its entry directories."""
    try:
        with open(out / "comparison_rates.csv", newline="") as fh:
            rates = list(csv.DictReader(fh))
        with open(out / "comparison.csv", newline="") as fh:
            header = fh.readline().strip()
    except OSError as exc:
        return [f"sweep tables unreadable: {exc}"]
    problems = []
    if len(rates) != entries:
        problems.append(f"comparison_rates.csv has {len(rates)} rows for {entries} entries")
    if header != "run,k,step_norm":
        problems.append(f"comparison.csv header {header!r}")
    return problems
