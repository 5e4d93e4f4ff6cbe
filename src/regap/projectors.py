"""Projection oracles for the sets used throughout the solver.

Exact projectors exist for affine subspaces, halfspaces, componentwise
magnitude ("box corner") sets, Fourier-magnitude sets, and the nonnegative
support cone.  A divergence ball projects itself exactly, by the small-scale
KKT Newton solve of :mod:`regap.divergences`, whose names this module
re-exports; ``project_regularized_approx`` walks the segment toward a
projection onto the data set {x : g(x) = b} until the ball boundary is hit.
"""

from __future__ import annotations

import numpy as np

from .core import (
    COMPLEX,
    MEMBERSHIP_TOL,
    REAL,
    DimensionMismatchError,
    Point,
    RayCone,
    SetOracle,
    SignedProductCone,
    SubspaceCone,
    ZeroCone,
    _svd_rank,
    canonical_point,
    first_crossing,
    lerp,
)
from .divergences import (NEWTON_MAX_DIM, FourierIntensityMap, NewtonConvergenceError,
                          RegularizedSet, bregman_line_boundary, project_regularized_exact)


class AffineSet(SetOracle):
    """Affine subspace {x : A x = b} with full row rank A.

    With the thin QR factorization A^T = Q R, the set is {x : Q^T x = c},
    c = R^-T b, so the projection is ``x - Q (Q^T x - c)``; Q and c are
    computed once.
    """

    convex = True

    def __init__(self, matrix, rhs):
        a = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        b = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if a.shape[0] != b.size:
            raise DimensionMismatchError("rhs length does not match the row count")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        super().__init__(a.shape[1])
        self.matrix = a
        self.rhs = b
        # The SVD rank rule of core.null_space, then a Cholesky of A A^T that
        # refuses A too ill-conditioned for it; Cholesky alone accepts an
        # exactly rank-deficient A whose last pivot rounds to a tiny positive.
        if _svd_rank(np.linalg.svd(a, compute_uv=False), a.shape) < a.shape[0]:
            raise ValueError("matrix must have full row rank")
        try:
            np.linalg.cholesky(a @ a.T)
        except np.linalg.LinAlgError as exc:
            raise ValueError("matrix must have full row rank") from exc
        q, r = np.linalg.qr(a.T)
        self._normal_basis, self._offset = q, np.linalg.solve(r.T, b)

    def project(self, x: Point) -> list[Point]:
        self._check_point(x)
        q = self._normal_basis
        return [Point(x.data - q @ (q.T @ x.data - self._offset))]

    def membership_residual(self, x: Point) -> float:
        self._check_point(x)
        return float(np.linalg.norm(self.matrix @ x.data - self.rhs))

    def _residual_along(self, x: Point, y: Point):
        """``s -> ||r0 + s d||`` with ``r0 = A x - b``, ``d = A y - b - r0``, formed once."""
        self._check_point(x)
        self._check_point(y)
        r0 = self.matrix @ x.data - self.rhs
        d = self.matrix @ y.data - self.rhs - r0
        return lambda s: float(np.linalg.norm(r0 + s * d))

    def segment_entry(self, x: Point, y: Point) -> tuple[float, Point]:
        """The default's search on the closed-form residual: only the entry point is built.

        Should the closed form's rounding put ``y`` outside, or disagree with
        ``contains`` on the entry point, the default answers instead.
        """
        residual = self._residual_along(x, y)
        try:
            s = first_crossing(lambda s: residual(s) - MEMBERSHIP_TOL, scan=1)
        except ValueError:
            return super().segment_entry(x, y)
        point = lerp(x, y, s)
        return (s, point) if self.contains(point) else super().segment_entry(x, y)

    def normal_cone_at(self, x: Point) -> SubspaceCone:
        if not self.contains(x):
            raise ValueError("base point is not a member of the set")
        return SubspaceCone(self._normal_basis)


class HalfspaceSet(SetOracle):
    """Halfspace {x : <a, x> <= beta}."""

    convex = True

    def __init__(self, normal, offset: float):
        a = np.atleast_1d(np.asarray(normal, dtype=np.float64))
        if np.linalg.norm(a) == 0:
            raise ValueError("normal must be nonzero")
        super().__init__(a.size)
        self.normal = a
        self.offset = float(offset)
        self._sq = float(a @ a)

    def _violation(self, x: Point) -> float:
        return float(self.normal @ x.data - self.offset)

    def project(self, x: Point) -> list[Point]:
        self._check_point(x)
        v = self._violation(x)
        if v <= 0:
            return [x]
        return [Point(x.data - (v / self._sq) * self.normal)]

    def membership_residual(self, x: Point) -> float:
        self._check_point(x)
        return max(self._violation(x), 0.0) / np.sqrt(self._sq)

    def normal_cone_at(self, x: Point):
        self._check_point(x)
        v = self._violation(x)
        if v > MEMBERSHIP_TOL * np.sqrt(self._sq):
            raise ValueError("base point is not a member of the set")
        if abs(v) <= MEMBERSHIP_TOL * np.sqrt(self._sq):
            return RayCone(self.normal)
        return ZeroCone(self.dim)


class SupportNonnegSet(SetOracle):
    """Real nonnegative vectors vanishing on a forced-zero index set.

    The set is a coordinate cone of the storage: the mask ``zero`` holds the
    forced-zero real parts and, for complex storage, every imaginary part;
    the other coordinates are nonnegative.
    """

    convex = True

    def __init__(self, forced_zero, n: int, kind: str = REAL):
        self.kind = kind
        self.n_logical = int(n)
        stride = 2 if kind == COMPLEX else 1
        super().__init__(stride * self.n_logical)
        mask = np.zeros(self.n_logical, dtype=bool)
        idx = np.asarray(forced_zero, dtype=int)  # repeated indices are harmless
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_logical):
            raise ValueError("forced-zero index out of range")
        mask[idx] = True
        self.forced_zero = mask
        self.zero = np.ones(self.dim, dtype=bool)  # every imaginary part is zero
        self.zero[::stride] = mask
        self.zero.setflags(write=False)  # every normal cone shares it as its free mask

    def project(self, x: Point) -> list[Point]:
        self._check_point(x)
        return [Point(np.where(self.zero, 0.0, np.maximum(x.data, 0.0)), self.kind)]

    def membership_residual(self, x: Point) -> float:
        self._check_point(x)
        worst = float(np.max(np.where(self.zero, np.abs(x.data), -x.data)))
        return max(0.0, worst)  # max keeps the first of equals, so -0.0 reads +0.0

    def normal_cone_at(self, x: Point) -> SignedProductCone:
        if not self.contains(x):
            raise ValueError("base point is not a member of the set")
        return SignedProductCone(self.zero, ~self.zero & (x.data <= MEMBERSHIP_TOL))


class BoxMagnitudeSet(SetOracle):
    """Real vectors with prescribed componentwise magnitudes |x_j| = r_j.

    This is the (finite) corner set of the box with half lengths r.
    Components of x at zero make the projection multivalued; to keep the
    candidate set finite only the two candidates obtained by fixing the
    positive branch everywhere and additionally flipping the first ambiguous
    component are enumerated.
    """

    def __init__(self, magnitudes):
        r = np.atleast_1d(np.asarray(magnitudes, dtype=np.float64))
        if np.any(r < 0):
            raise ValueError("magnitudes must be nonnegative")
        self.magnitudes = r
        super().__init__(r.size)

    @classmethod
    def from_intensity(cls, intensity) -> "BoxMagnitudeSet":
        b = np.atleast_1d(np.asarray(intensity, dtype=np.float64))
        if np.any(b < 0):
            raise ValueError("intensities must be nonnegative")
        return cls(np.sqrt(b))

    def project(self, x: Point) -> list[Point]:
        self._check_point(x)
        base = np.where(x.data < 0, -self.magnitudes, self.magnitudes)
        candidates = [Point(base)]
        ambiguous = np.flatnonzero((x.data == 0) & (self.magnitudes > 0))
        if ambiguous.size:
            base[ambiguous[0]] = -self.magnitudes[ambiguous[0]]
            candidates.append(Point(base))
        return candidates

    def membership_residual(self, x: Point) -> float:
        self._check_point(x)
        return float(np.max(np.abs(np.abs(x.data) - self.magnitudes)))

    def normal_cone_at(self, x: Point) -> SubspaceCone:
        if not self.contains(x):
            raise ValueError("base point is not a member of the set")
        # members are isolated, so every direction is a proximal normal
        return SubspaceCone(np.eye(self.dim))


def project_affine(s: AffineSet, x: Point) -> Point:
    """Projection onto an affine subspace."""
    return s.project(x)[0]


def project_fourier_magnitude(intensity, x: Point, shape) -> Point:
    """Projection onto {x : |F x|^2 = b} for the unitary DFT F on ``shape`` grids."""
    return FourierMagnitudeSet(intensity, FourierIntensityMap(shape)).project(x)[0]


class FourierMagnitudeSet(SetOracle):
    """Set {x : |F x|^2 = b} of complex grids with prescribed DFT intensities.

    ``project`` replaces each DFT coefficient's modulus by sqrt(b_k), taken
    once at construction, while keeping its phase; coefficients at exactly
    zero get phase 1.  Because F is unitary this is an exact Euclidean
    projection.  ``forward_map`` fixes the grid shape and does the
    transforms: the projection reads ``spectrum(x)`` and returns
    ``from_spectrum(Y)``, so the map remembers the projection's spectrum
    ``Y`` with it.  Passing a divergence ball's map shares its memo, and
    the ball then reads the anchor's spectrum without a forward FFT.
    """

    kind = COMPLEX

    def __init__(self, intensity, forward_map: FourierIntensityMap):
        b = np.atleast_1d(np.asarray(intensity, dtype=np.float64))
        if np.any(b < 0):
            raise ValueError("intensities must be nonnegative")
        if b.size != forward_map.out_dim:
            raise DimensionMismatchError(
                f"intensity length {b.size} does not match the map range {forward_map.out_dim}")
        self.intensity = b
        super().__init__(forward_map.in_dim)
        self._magnitude = np.sqrt(b).reshape(forward_map.shape)
        self._map = forward_map

    def project(self, x: Point) -> list[Point]:
        X = self._map.spectrum(x)
        mag = np.abs(X)
        phase = np.divide(X, mag, out=np.ones_like(X), where=mag > 0)
        return [self._map.from_spectrum(self._magnitude * phase)]

    def membership_residual(self, x: Point) -> float:
        return float(np.max(np.abs(self._map.value(x) - self.intensity)))


def RegularizedSetOracle(m: RegularizedSet) -> RegularizedSet:
    """The divergence ball ``m`` itself, already a set oracle; kept for the acceptance tests."""
    return m


def project_regularized_approx(m: RegularizedSet, data_set: SetOracle,
                               x: Point) -> tuple[Point, float]:
    """Segment-based approximate projection onto a divergence ball.

    Projects ``x`` onto ``data_set``, the ball at epsilon = 0, then returns
    the first point of the connecting segment that enters the ball, together
    with the relaxation ``tau`` used.  Exact for Euclidean balls around
    affine sets.  A member ``x`` raises ``ValueError``.
    """
    anchor = canonical_point(data_set.project(x))
    tau, point = bregman_line_boundary(m, x, anchor)
    return point, tau
