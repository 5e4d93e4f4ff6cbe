"""Regularity constants: spectral subspace estimator and cone sampling."""

import math

import numpy as np
import pytest

from regap.core import Point, RayCone, SubspaceCone, ZeroCone
from regap.divergences import EuclideanKernel, IdentityMap, RegularizedSet
from regap.problems import two_lines, two_subspaces
from regap.projectors import HalfspaceSet, SupportNonnegSet
from regap.regularity import (RegularityEstimate, cbar_sampled, cbar_subspaces)


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


# ---------------------------------------------------------------------------
# Spectral estimator

def test_two_lines_at_sixty_degrees():
    e1 = np.array([[1.0], [0.0]])
    u = np.array([[math.cos(math.pi / 3)], [math.sin(math.pi / 3)]])
    est = cbar_subspaces(e1, u)
    assert abs(est.c_bar - 0.5) <= 1e-12


@pytest.mark.parametrize("theta", [0.1, math.pi / 6, math.pi / 4, 1.3])
def test_two_lines_general_angle(theta):
    e1 = np.array([[1.0], [0.0]])
    u = np.array([[math.cos(theta)], [math.sin(theta)]])
    assert cbar_subspaces(e1, u).c_bar == pytest.approx(math.cos(theta), abs=1e-12)


def test_orthogonal_subspaces_give_zero():
    assert cbar_subspaces(np.array([[1.0], [0.0]]),
                          np.array([[0.0], [1.0]])).c_bar == 0.0
    # two orthogonal planes in R^4
    u = np.eye(4)[:, :2]
    v = np.eye(4)[:, 2:]
    assert cbar_subspaces(u, v).c_bar == pytest.approx(0.0, abs=1e-12)


def test_identical_and_nested_subspaces_give_zero():
    u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # xy-plane in R^3
    line = np.array([[1.0], [0.0], [0.0]])              # x-axis inside it
    assert cbar_subspaces(u, u).c_bar == 0.0
    assert cbar_subspaces(line, u).c_bar == 0.0
    assert cbar_subspaces(u, line).c_bar == 0.0


def test_full_space_has_no_normals():
    assert cbar_subspaces(np.eye(3), np.array([[1.0], [0.0], [0.0]])).c_bar == 0.0


def test_planes_sharing_a_line_in_r3():
    # Two planes in R^3 intersecting along the z-axis at dihedral angle t:
    # the constant is cos t even though both contain a whole common line.
    theta = 0.7
    p1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])  # xz-plane
    p2 = np.column_stack([np.array([math.cos(theta), math.sin(theta), 0.0]),
                          np.array([0.0, 0.0, 1.0])])
    assert cbar_subspaces(p1, p2).c_bar == pytest.approx(math.cos(theta), abs=1e-12)


def test_subspace_estimator_input_validation():
    with pytest.raises(ValueError, match="ambient"):
        cbar_subspaces(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="degenerate"):
        cbar_subspaces(np.array([[1.0, 2.0], [0.0, 0.0]]), np.eye(2))


def test_non_orthonormal_spanning_columns_are_accepted():
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    skewed = q @ np.array([[3.0, 1.0], [0.0, 0.2]])  # same span, bad conditioning
    v = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    a = cbar_subspaces(q, v).c_bar
    b = cbar_subspaces(skewed, v).c_bar
    assert a == pytest.approx(b, abs=1e-10)


def test_from_c_bar_clamps():
    assert RegularityEstimate(1.7).c_bar == 1.0
    assert RegularityEstimate(-0.2).c_bar == 0.0
    assert RegularityEstimate(0.25).c_bar == 0.25


# ---------------------------------------------------------------------------
# Sampled estimator

def test_sampled_matches_subspaces_for_crossing_lines():
    theta = math.pi / 3
    C, M = two_lines(theta)
    origin = Point(np.zeros(2))
    est = cbar_sampled(C, M, origin, n_samples=100_000, seed=1)
    # lines have symmetric +/- normals, so sampling attains cos(theta) itself
    assert est.c_bar == pytest.approx(math.cos(theta), abs=1e-3)
    assert est.c_bar <= math.cos(theta) + 1e-12  # never exceeds the truth


def test_sampled_interior_point_is_exactly_zero():
    ball = RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.5)
    half = HalfspaceSet(np.array([1.0, 0.0]), 5.0)
    x = Point(np.zeros(2))  # interior to both
    assert cbar_sampled(ball, half, x, n_samples=100, seed=0).c_bar == 0.0


def test_sampled_tangent_ball_and_halfspace_reach_one():
    # Unit ball touching the halfspace x1 >= 1 externally at (1, 0): there
    # the outward normals oppose exactly.
    ball = RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.5)
    half = HalfspaceSet(np.array([-1.0, 0.0]), -1.0)
    contact = Point(np.array([1.0, 0.0]))
    est = cbar_sampled(ball, half, contact, n_samples=50, seed=0)
    assert est.c_bar == pytest.approx(1.0, abs=1e-12)


def test_sampled_halfspaces_at_angle():
    theta = 2.0  # obtuse opening: the halfspaces cross transversally
    h1 = HalfspaceSet(np.array([0.0, -1.0]), 0.0)            # x2 >= 0
    n2 = rotation(theta) @ np.array([0.0, -1.0])
    h2 = HalfspaceSet(n2, 0.0)
    origin = Point(np.zeros(2))
    est = cbar_sampled(h1, h2, origin, n_samples=200, seed=3)
    # single-ray normal cones: the unique product is -n1 . (-(-n2)) = -cos t
    assert est.c_bar == pytest.approx(max(-math.cos(theta), 0.0), abs=1e-12)


def test_sampled_nonneg_orthant_against_line():
    # Normals of the orthant at the origin are the nonpositive orthant
    # directions; against the slanted line both signs are available, so the
    # best alignment approaches the better of the two line normals.
    orthant = SupportNonnegSet(forced_zero=[], n=2)
    theta = math.pi / 3
    _, line = two_lines(theta)
    origin = Point(np.zeros(2))
    est = cbar_sampled(orthant, line, origin, n_samples=100_000, seed=4)
    normal = np.array([-math.sin(theta), math.cos(theta)])
    best = max(abs(normal[0]), abs(normal[1]))  # orthant-feasible alignments
    assert est.c_bar == pytest.approx(best, abs=2e-3)
    assert est.c_bar <= best + 1e-12


def test_sampled_convergence_with_sample_count():
    theta = 1.0
    C, M = two_lines(theta)
    origin = Point(np.zeros(2))
    coarse = cbar_sampled(C, M, origin, n_samples=50, seed=5).c_bar
    fine = cbar_sampled(C, M, origin, n_samples=100_000, seed=5).c_bar
    truth = math.cos(theta)
    assert abs(fine - truth) <= abs(coarse - truth) + 1e-6
    assert abs(fine - truth) <= 1e-3


def test_sampled_validation():
    C, M = two_lines(1.0)
    with pytest.raises(ValueError):
        cbar_sampled(C, M, Point(np.zeros(2)), n_samples=0)


def unit_sample(cone, rng):
    """One unit direction in ``cone`` per call, rejecting draws of norm <= 1e-12."""
    if isinstance(cone, ZeroCone):
        return None
    if isinstance(cone, RayCone):
        return cone.direction.copy()
    if isinstance(cone, SubspaceCone):
        def draw():
            return cone.basis @ rng.standard_normal(cone.basis.shape[1])
    elif cone.free.any() or cone.nonpos.any():  # SignedProductCone
        def draw():
            g = rng.standard_normal(cone.free.size)
            w = np.zeros(cone.free.size)
            w[cone.free] = g[cone.free]
            w[cone.nonpos] = -np.abs(g[cone.nonpos])
            return w
    else:
        return None
    while True:
        w = draw()
        nrm = np.linalg.norm(w)
        if nrm > 1e-12:
            return w / nrm


def cbar_per_sample(setC, setM, xbar, n_samples, seed):
    """Reference estimator: ``cbar_sampled`` with one Python call per cone sample."""
    cone_c, cone_m = setC.normal_cone_at(xbar), setM.normal_cone_at(xbar)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    probe_c, probe_m = unit_sample(cone_c, rng), unit_sample(cone_m, rng)
    if probe_c is None or probe_m is None:
        return 0.0
    best, drawn = 0.0, 0
    while drawn < n_samples:
        take = min(4096, n_samples - drawn)
        us = np.stack([unit_sample(cone_c, rng) for _ in range(take)])
        vs = np.stack([-unit_sample(cone_m, rng) for _ in range(take)])
        best = max(best, float(np.max(np.einsum("ij,ij->i", us, vs))))
        drawn += take
    return min(max(best, 0.0), 1.0)


def _unit_ball():
    return RegularizedSet(IdentityMap(2), np.zeros(2), EuclideanKernel(), 0.5)


@pytest.mark.parametrize("build, seed", [
    (lambda: (*two_lines(math.pi / 3), Point(np.zeros(2))), 1),
    (lambda: (SupportNonnegSet(forced_zero=[], n=2), two_lines(math.pi / 3)[1],
              Point(np.zeros(2))), 4),
    (lambda: (*two_subspaces(6, 2, 3, seed=3), Point(np.zeros(6))), 2),
    (lambda: (SupportNonnegSet(forced_zero=[0], n=4), HalfspaceSet(np.ones(4), 1.0),
              Point(np.array([0.0, 0.0, 0.0, 1.0]))), 5),
    (lambda: (HalfspaceSet(np.array([0.0, -1.0]), 0.0),
              HalfspaceSet(rotation(2.0) @ np.array([0.0, -1.0]), 0.0), Point(np.zeros(2))), 3),
    (lambda: (_unit_ball(), HalfspaceSet(np.array([-1.0, 0.0]), -1.0),
              Point(np.array([1.0, 0.0]))), 0),
], ids=["lines", "orthant-line", "subspaces-6d", "support-halfspace", "halfspaces",
        "ball-halfspace"])
def test_sampled_matches_per_sample_reference(build, seed):
    # 10,000 samples: two full batches of 4096 and a partial one
    setC, setM, xbar = build()
    est = cbar_sampled(setC, setM, xbar, n_samples=10_000, seed=seed).c_bar
    assert abs(est - cbar_per_sample(setC, setM, xbar, 10_000, seed)) <= 1e-15
