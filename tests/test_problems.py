"""Benchmark problem constructors."""

import math

import numpy as np
import pytest

from regap.core import Point
from regap.problems import (PerturbedLineOracle, box_affine,
                            box_affine_regularized, parallel_lines,
                            perturbed_line, slab_problem, two_lines,
                            two_subspaces)


def test_two_lines_geometry():
    theta = 0.9
    C, M = two_lines(theta)
    # e1 lies on the first line, the rotated direction on the second
    assert C.membership_residual(Point(np.array([3.0, 0.0]))) < 1e-12
    u = np.array([math.cos(theta), math.sin(theta)])
    assert M.membership_residual(Point(2.0 * u)) < 1e-12
    origin = Point(np.zeros(2))
    assert C.contains(origin) and M.contains(origin)
    with pytest.raises(ValueError):
        two_lines(0.0)
    with pytest.raises(ValueError):
        two_lines(math.pi / 2)


def test_two_subspaces_dimensions_and_validation():
    C, M = two_subspaces(6, 2, 3, seed=1)
    # constraint counts are the codimensions
    assert C.matrix.shape == (4, 6)
    assert M.matrix.shape == (3, 6)
    assert C.contains(Point(np.zeros(6))) and M.contains(Point(np.zeros(6)))
    with pytest.raises(ValueError):
        two_subspaces(4, 0, 2)
    with pytest.raises(ValueError):
        two_subspaces(4, 4, 2)


def test_two_subspaces_seeded_reproducibility():
    a1, b1 = two_subspaces(5, 2, 2, seed=3)
    a2, b2 = two_subspaces(5, 2, 2, seed=3)
    a3, _ = two_subspaces(5, 2, 2, seed=4)
    assert np.array_equal(a1.matrix, a2.matrix)
    assert np.array_equal(b1.matrix, b2.matrix)
    assert not np.array_equal(a1.matrix, a3.matrix)


def test_parallel_lines_offsets():
    C, M = parallel_lines(2.5)
    assert C.membership_residual(Point(np.array([7.0, 0.0]))) < 1e-12
    assert M.membership_residual(Point(np.array([-1.0, 2.5]))) < 1e-12
    with pytest.raises(ValueError):
        parallel_lines(-1.0)


def test_slab_problem_consistency_threshold():
    gap = 1.0
    # epsilon above gap^2/2 makes the x-axis a subset of the slab
    C, ball, line = slab_problem(gap, epsilon=0.6)
    on_axis = Point(np.array([4.0, 0.0]))
    assert C.contains(on_axis)
    assert ball.residual(on_axis) == pytest.approx(0.5)
    assert ball.contains(on_axis)
    # below the threshold the axis stays outside
    _, tight, _ = slab_problem(gap, epsilon=0.2)
    assert not tight.contains(on_axis)
    assert line.membership_residual(Point(np.array([0.0, gap]))) < 1e-12


def test_perturbed_oracle_reduces_to_exact_projection_at_zero_slide():
    theta = 0.8
    C, oracle, exact = perturbed_line(theta, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = Point(rng.standard_normal(2) * 3)
        a = oracle.project(x)[0]
        b = exact.project(x)[0]
        assert np.allclose(a.data, b.data, atol=1e-12)


def test_perturbed_oracle_slide_length_and_membership():
    theta, phi = 0.9, 0.4
    C, oracle, exact = perturbed_line(theta, phi)
    x = Point(np.array([2.0, -1.0]))
    slid = oracle.project(x)[0]
    straight = exact.project(x)[0]
    assert exact.membership_residual(slid) < 1e-12  # still on the line
    dist = x.distance(straight)
    assert slid.distance(straight) == pytest.approx(math.tan(phi) * dist, rel=1e-12)
    # slid point sits at angle phi from the foot, seen from x
    assert x.distance(slid) == pytest.approx(dist / math.cos(phi), rel=1e-12)


def test_perturbed_line_validation():
    with pytest.raises(ValueError):
        perturbed_line(0.5, -0.1)
    with pytest.raises(ValueError):
        perturbed_line(0.5, math.pi / 2)


def test_box_affine_planted_solution_is_feasible():
    affine, box, xbar = box_affine(8, 3, seed=2)
    assert affine.membership_residual(xbar) < 1e-10
    assert box.membership_residual(xbar) < 1e-12
    again = box_affine(8, 3, seed=2)[2]
    assert np.array_equal(xbar.data, again.data)
    with pytest.raises(ValueError):
        box_affine(4, 4)


def test_box_affine_regularized_consistency():
    affine, fat, anchor, xbar, epsilon = box_affine_regularized(
        8, 3, noise=0.05, kappa=1.5, seed=2)
    assert affine.membership_residual(xbar) < 1e-10
    # the fattening is calibrated to the planted point's own divergence
    assert fat.residual(xbar) == pytest.approx(epsilon / 1.5, rel=1e-12)
    assert fat.contains(xbar)
    # anchor members sit at the observed magnitudes: zero residual
    member = anchor.project(xbar)[0]
    assert fat.residual(member) == pytest.approx(0.0, abs=1e-12)
    # kappa below one excludes the planted point
    _, tight, _, _, eps_tight = box_affine_regularized(8, 3, noise=0.05,
                                                       kappa=0.5, seed=2)
    assert not tight.contains(xbar)
    assert eps_tight == pytest.approx(epsilon / 3.0, rel=1e-12)
