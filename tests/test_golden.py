"""Golden summaries: ``regap run`` on small configs against recorded artifacts.

Each config in ``CONFIGS`` runs through the CLI, and every field of each
entry's ``summary.json`` and every column of its ``trace.csv`` is compared
with ``tests/data/golden.json``.  Strings, ints, bools and nulls (NaN cells
read as null) must be equal; floats must agree within ``REL`` relatively,
or within ``ABS`` where both are at rounding level, such as the KL residual
of an anchor.  A change that moves these numbers on purpose regenerates the
file with::

    PYTHONPATH=src python tests/test_golden.py

and says which fields moved, and by how much.
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from regap import cli
from regap.core import SetOracle

GOLDEN = Path(__file__).parent / "data" / "golden.json"
REL = 1e-9
ABS = 1e-12

_PHASE_16 = """\
problem = phase_retrieval
algorithm = regularized_extrapolated
object = smooth
shape = 16, 16
photon_scale = 1e3
"""

CONFIGS = {
    "phase_surface_gamma": _PHASE_16 + """\
lambda_schedule = surface
epsilon_kappa = 1
measure_gamma = true
max_iter = 60
""",
    "phase_constant_one": _PHASE_16 + """\
lambda_schedule = constant_one
epsilon_kappa = 1
measure_gamma = false
max_iter = 60
""",
    "phase_exact_data_set": _PHASE_16 + """\
lambda_schedule = surface
epsilon = 0
measure_gamma = true
max_iter = 30
""",
    "lines_inexact_sweep": """\
problem = two_subspaces
algorithm = inexact_ap
theta = pi/8
phi = pi/16
seed = 1, 2, 3
""",
    "box_affine_sweep": """\
problem = box_affine
algorithm = regularized_extrapolated
lambda_schedule = surface
n = 40
m = 20
epsilon_kappa = 1
seed = 1, 2, 3
""",
    "two_subspaces_regularized": """\
problem = two_subspaces
algorithm = regularized_extrapolated
theta = pi/8
epsilon = 0.01, 0.1
seed = 1
""",
    "parallel_lines_regularized": """\
problem = parallel_lines
algorithm = regularized_extrapolated
gap = 1
epsilon = 0.1, 1
seed = 1
""",
}


def _cell(column: str, text: str):
    """A ``trace.csv`` cell as its JSON value: NaN is ``None``."""
    if column == "reason":
        return text
    if column == "k":
        return int(text)
    value = float(text)
    return None if math.isnan(value) else value


def run_config(name: str, work: Path) -> dict:
    """One ``regap run``: its count of generic segment searches, and each entry's artifacts.

    ``searches`` counts the calls of :meth:`SetOracle.segment_entry`, the
    reference every fast boundary solve falls back on when its answer is
    refused; ``entries`` maps each entry to its ``summary`` and its
    ``trace`` columns.
    """
    config = work / f"{name}.cfg"
    config.write_text(CONFIGS[name])
    out = work / name
    reference = SetOracle.segment_entry
    with mock.patch.object(SetOracle, "segment_entry", autospec=True,
                           side_effect=reference) as search:
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    entries = {}
    for summary in sorted(out.rglob("summary.json")):
        entry = summary.parent
        with open(entry / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        trace = {column: [_cell(column, row[j]) for row in rows[1:]]
                 for j, column in enumerate(rows[0])}
        entries[entry.relative_to(out).as_posix()] = {
            "summary": json.loads(summary.read_text()), "trace": trace}
    return {"searches": search.call_count, "entries": entries}


def _mismatches(where: str, want, got) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in _mismatches(f"{where}.{key}", want[key], got[key])]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for j, (w, g) in enumerate(zip(want, got))
                for m in _mismatches(f"{where}[{j}]", w, g)]
    if type(want) is float and type(got) is float:
        if abs(got - want) <= max(REL * abs(want), ABS):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_the_golden_artifacts(tmp_path, capsys, name):
    want = json.loads(GOLDEN.read_text())[name]
    got = run_config(name, tmp_path)
    capsys.readouterr()
    problems = _mismatches(name, want, got)
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        golden = {name: run_config(name, Path(work)) for name in CONFIGS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
