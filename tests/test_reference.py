"""The whole run against its slow reference.

Each config of the golden check runs twice through ``regap run``: once as
users run it, and once with its fast segment search swapped for the slow
code it stands in for.  Phase and box runs put
:meth:`SetOracle.segment_entry`, the generic 64-cell scan on the residual
of each built point, in place of ``bregman_line_boundary``; the lines sweep
puts it in place of ``AffineSet.segment_entry``.  The two ``LinearMap``
configs take ``bregman_line_boundary``'s closed form, which solves
``residual = epsilon``: their slow twin scans ``residual - epsilon`` on
built points.  The two runs must agree on every ``summary.json`` field and
``trace.csv`` column within the golden tolerance, and the fast runs must
make no generic search: a fast solve whose answer the ``contains`` re-check
refuses falls back on that search, which hides a wrong fast excess from
the values.  These tests import no scipy, so the numpy-only CI job runs
them too.
"""

from unittest import mock

import pytest

import test_golden
from regap import algorithms
from regap.core import SetOracle, first_crossing, lerp
from regap.projectors import AffineSet
from test_golden import _mismatches, run_config


def _generic_entry(m, x, x0):
    # looked up at call time, so that the run's spy on it counts the search
    return SetOracle.segment_entry(m, x, x0)


def _closed_form_twin(m, x, x0):
    """The scan on ``residual - epsilon`` of built points, the closed form's target."""
    t = first_crossing(lambda t: m.residual(lerp(x, x0, t)) - m.epsilon)
    return t, lerp(x, x0, t)


# Each config's fast search, by its owner and name, and its slow stand-in.
# constant_one with measure_gamma off takes no boundary solve: both runs are
# the fast one, and the config checks that the swap leaves such runs alone.
SLOW = {
    "phase_surface_gamma": (algorithms, "bregman_line_boundary", _generic_entry),
    "phase_constant_one": (algorithms, "bregman_line_boundary", _generic_entry),
    "phase_exact_data_set": (algorithms, "bregman_line_boundary", _generic_entry),
    "box_affine_sweep": (algorithms, "bregman_line_boundary", _generic_entry),
    "lines_inexact_sweep": (AffineSet, "segment_entry", _generic_entry),
    "two_subspaces_regularized": (algorithms, "bregman_line_boundary", _closed_form_twin),
    "parallel_lines_regularized": (algorithms, "bregman_line_boundary", _closed_form_twin),
}

# On two_subspaces_regularized gamma sits at rounding level (gamma_max reads
# about 2.5e-10), and the closed form and its twin enter the ball at points
# whose gammas round apart by up to 1.75e-9: there gamma and gamma_max are
# compared at 1e-8 absolute, and every other field at the golden tolerance.
GAMMA_ABS = {"two_subspaces_regularized": 1e-8}


def _pop_gammas(entries: dict) -> dict:
    return {key: {"gamma_max": entry["summary"].pop("gamma_max"),
                  "gamma": entry["trace"].pop("gamma")} for key, entry in entries.items()}


@pytest.mark.parametrize("name", sorted(SLOW))
def test_fast_run_matches_its_slow_reference(tmp_path, capsys, name):
    owner, attr, slow_search = SLOW[name]
    (tmp_path / "fast").mkdir()
    (tmp_path / "slow").mkdir()
    with mock.patch.object(owner, attr, autospec=True,
                           side_effect=getattr(owner, attr)) as fast_search:
        fast = run_config(name, tmp_path / "fast")
    with mock.patch.object(owner, attr, slow_search):
        slow = run_config(name, tmp_path / "slow")
    capsys.readouterr()
    solves = fast_search.call_count
    assert fast["searches"] == 0
    assert (solves == 0) == (name == "phase_constant_one")
    assert slow["searches"] == (solves if slow_search is _generic_entry else 0)
    problems = []
    if name in GAMMA_ABS:
        with mock.patch.object(test_golden, "ABS", GAMMA_ABS[name]):
            problems = _mismatches(name, _pop_gammas(slow["entries"]),
                                   _pop_gammas(fast["entries"]))
    problems += _mismatches(name, slow["entries"], fast["entries"])
    assert not problems, "\n".join(problems[:20])
