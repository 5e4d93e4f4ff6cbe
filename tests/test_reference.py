"""The whole run against its slow reference.

Each phase config of the golden check runs twice through ``regap run``:
once as users run it, with ``bregman_line_boundary``'s fast boundary solve,
and once with :meth:`SetOracle.segment_entry`, the generic 64-cell scan on
the residual of each built point, in its place.  The two runs must agree
on every ``summary.json`` field and ``trace.csv`` column within the golden
tolerance, and the fast runs must make no generic search: a fast solve
whose answer the ``contains`` re-check refuses falls back on that search,
which hides a wrong fast excess from the values.  These tests import no
scipy, so the numpy-only CI job runs them too.
"""

from unittest import mock

import pytest

from regap import algorithms
from regap.core import SetOracle
from test_golden import _mismatches, run_config

# constant_one with measure_gamma off takes no boundary solve: both runs are
# the fast one, and the config checks that the swap leaves such runs alone
PHASE_CONFIGS = ("phase_surface_gamma", "phase_constant_one", "phase_exact_data_set")


def _reference_boundary(m, x, x0):
    return SetOracle.segment_entry(m, x, x0)


@pytest.mark.parametrize("name", PHASE_CONFIGS)
def test_fast_phase_run_matches_its_slow_reference(tmp_path, capsys, name):
    (tmp_path / "fast").mkdir()
    (tmp_path / "slow").mkdir()
    fast = run_config(name, tmp_path / "fast")
    with mock.patch.object(algorithms, "bregman_line_boundary", _reference_boundary):
        slow = run_config(name, tmp_path / "slow")
    capsys.readouterr()
    assert fast["searches"] == 0
    solves = sum(1 for entry in slow["entries"].values()
                 for lam in entry["trace"]["lambda"] if lam is not None and lam > 0.0)
    assert slow["searches"] == (0 if name == "phase_constant_one" else solves)
    problems = _mismatches(name, slow["entries"], fast["entries"])
    assert not problems, "\n".join(problems[:20])
