"""Ready-made feasibility instances shared by the CLI, scripts, and tests.

Everything here returns plain set oracles from :mod:`regap.projectors` (or
regularized sets from :mod:`regap.divergences`), so the builders compose
directly with the drivers in :mod:`regap.algorithms`.
"""

from __future__ import annotations

import numpy as np

from .core import Point, SetOracle, canonical_point, null_space
from .divergences import EuclideanKernel, LinearMap, RegularizedSet, SquareMap
from .projectors import AffineSet, BoxMagnitudeSet


def _line(direction: np.ndarray) -> AffineSet:
    """Line through the origin spanned by ``direction`` as an affine set."""
    direction = np.asarray(direction, dtype=np.float64)
    normals = null_space(direction.reshape(1, -1)).T
    return AffineSet(normals, np.zeros(len(normals)))


def two_lines(theta: float, dim: int = 2) -> tuple[AffineSet, AffineSet]:
    """Two lines through the origin meeting at angle ``theta``.

    The first is the ``e1`` axis; the second lies in the (e1, e2) plane.
    Exact alternating projections contract the distance to the intersection
    by cos(theta) per projection, so the pair is the canonical instance with
    a planted regularity constant cos(theta).
    """
    if not 0 < theta < np.pi / 2:
        raise ValueError("theta must lie strictly between 0 and pi/2")
    if dim < 2:
        raise ValueError("need an ambient dimension of at least 2")
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[0], v[1] = np.cos(theta), np.sin(theta)
    return _line(u), _line(v)


def two_subspaces(dim: int, dim_u: int, dim_v: int, seed: int = 0) -> tuple[AffineSet, AffineSet]:
    """Random subspaces of the given dimensions drawn from a seeded rotation."""
    if not (0 < dim_u < dim and 0 < dim_v < dim):
        raise ValueError("subspace dimensions must be strictly between 0 and dim")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    qu, _ = np.linalg.qr(rng.standard_normal((dim, dim_u)))
    qv, _ = np.linalg.qr(rng.standard_normal((dim, dim_v)))
    su = null_space(qu.T).T
    sv = null_space(qv.T).T
    return AffineSet(su, np.zeros(len(su))), AffineSet(sv, np.zeros(len(sv)))


def parallel_lines(gap: float) -> tuple[AffineSet, AffineSet]:
    """Two parallel horizontal lines in the plane separated by ``gap``.

    The feasibility problem is inconsistent for ``gap > 0``: alternating
    projections bounce between the lines with a constant gap.
    """
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    a = np.array([[0.0, 1.0]])
    return AffineSet(a, np.zeros(1)), AffineSet(a, np.array([float(gap)]))


def slab_problem(gap: float, epsilon: float) -> tuple[AffineSet, RegularizedSet, AffineSet]:
    """The parallel-lines instance with the second line fattened into a slab.

    Returns ``(C, M_eps, M_0)`` where ``M_eps = {x : (x_2 - gap)^2 / 2 <= eps}``
    is the Euclidean fattening of the line ``x_2 = gap``.  The pair becomes
    consistent exactly when ``eps >= gap^2 / 2``, with nonempty interior
    intersection for strict inequality.
    """
    setC, line_m = parallel_lines(gap)
    fat = RegularizedSet(LinearMap(np.array([[0.0, 1.0]])), np.array([float(gap)]),
                         EuclideanKernel(), float(epsilon))
    return setC, fat, line_m


class PerturbedLineOracle(SetOracle):
    """Inexact projector onto a line: project exactly, then slide along it.

    The slide distance is ``tan(phi)`` times the distance of the input to
    the line, so the returned point is the exact projection rotated by the
    angle ``phi`` as seen from the input.  The output still lies on the
    line, which makes this a controlled model of systematic projection
    error with normal-alignment residual ``sin(phi)``.
    """

    def __init__(self, line: AffineSet, phi: float):
        if not 0 <= phi < np.pi / 2:
            raise ValueError("phi must lie in [0, pi/2)")
        if line.dim - len(line.matrix) != 1:
            raise ValueError("the underlying set must be one-dimensional")
        super().__init__(line.dim)
        self.line = line
        self.phi = float(phi)
        self.direction = null_space(line.matrix).ravel()
        self.direction /= np.linalg.norm(self.direction)

    def project(self, x: Point) -> list[Point]:
        self._check_point(x)
        exact = canonical_point(self.line.project(x))
        offset = np.tan(self.phi) * x.distance(exact)
        return [Point(exact.data + offset * self.direction)]

    def membership_residual(self, x: Point) -> float:
        return self.line.membership_residual(x)

    def normal_cone_at(self, x: Point):
        return self.line.normal_cone_at(x)


def perturbed_line(theta: float, phi: float, dim: int = 2) -> tuple[AffineSet, PerturbedLineOracle, AffineSet]:
    """Two-line instance where the second projector slides by angle ``phi``.

    Returns ``(C, inexact M oracle, exact M)``.  Step monotonicity of the
    resulting inexact iteration requires ``phi < theta``.
    """
    setC, setM = two_lines(theta, dim)
    return setC, PerturbedLineOracle(setM, phi), setM


def box_affine(n: int, m: int, seed: int = 0) -> tuple[AffineSet, BoxMagnitudeSet, Point]:
    """Componentwise-magnitude constraints intersected with a random affine set.

    A planted solution with the prescribed magnitudes and random signs makes
    the instance consistent; the affine set has ``m`` rows, so ``m < n``
    leaves slack while ``m`` close to ``n`` pins the solution down.
    Returns ``(affine, box, planted_solution)``.
    """
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    magnitudes = rng.uniform(0.5, 1.5, n)
    xbar = magnitudes * rng.choice([-1.0, 1.0], n)
    a = rng.standard_normal((m, n))
    return AffineSet(a, a @ xbar), BoxMagnitudeSet(magnitudes), Point(xbar)


def box_affine_regularized(n: int, m: int, noise: float, kappa: float,
                           seed: int = 0) -> tuple[AffineSet, RegularizedSet, BoxMagnitudeSet, Point, float]:
    """Noisy variant of :func:`box_affine` with the box fattened accordingly.

    Gaussian noise of scale ``noise`` corrupts the squared magnitudes; the
    fattened set keeps the squared-magnitude residual within ``kappa`` times
    the divergence the planted solution itself incurs, so ``kappa >= 1``
    guarantees consistency.  Returns ``(affine, fattened box, anchor box,
    planted_solution, epsilon)``.
    """
    affine, box, xbar = box_affine(n, m, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    true_sq = box.magnitudes**2
    observed = np.maximum(true_sq + noise * rng.standard_normal(n), 0.0)
    kernel = EuclideanKernel()
    achieved = kernel.evaluate(true_sq, observed)
    epsilon = float(kappa * achieved) if achieved > 0 else float(kappa)
    fat = RegularizedSet(SquareMap(n), observed, kernel, epsilon)
    anchor = BoxMagnitudeSet.from_intensity(observed)
    return affine, fat, anchor, xbar, epsilon
