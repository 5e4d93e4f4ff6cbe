"""Bregman divergences, forward maps, and divergence-ball feasibility sets.

A feasibility constraint ``g(x) = b`` is relaxed to the sublevel set
``{x : d(g(x), b) <= eps}`` of a Bregman divergence ``d``.  The module ships
the Euclidean and Kullback-Leibler kernels and the forward maps needed by the
experiments (identity, linear, componentwise squared modulus, and DFT
intensity).  A ball is a set oracle that projects exactly by a small-scale
KKT Newton solve; the 1-d boundary solve along a segment powers the
approximate projections.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import (COMPLEX, MEMBERSHIP_TOL, REAL, SCAN_GRID, DimensionMismatchError,
                   NormalCone, NormalConeUnavailableError, Point, RayCone, SetOracle, SolverError,
                   ZeroCone, first_crossing, lerp)

CLIP_FLOOR = 1e-300
NEWTON_MAX_DIM = 50  # largest ambient dimension project_regularized_exact accepts


class KernelDomainError(ValueError):
    """Argument outside the kernel's domain."""


def _as_array(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


class EuclideanKernel:
    """Half squared Euclidean distance, the Bregman distance of 0.5*||.||^2."""

    def evaluate(self, z, y) -> float:
        return self.against(y)(z)

    def against(self, y) -> Callable[[np.ndarray], float]:
        """Prepared ``z -> d(z, y)`` for repeated evaluation against fixed data,
        with ``gradient`` and ``segment_excess`` as for KL.  Here the excess is
        a quartic, and it carries its ``coefficients`` ``(c0, ..., c4)``,
        lowest degree first, for the boundary solve."""
        y = _as_array(y)

        def distance(z) -> float:
            d = _as_array(z) - y
            return 0.5 * float(d @ d)

        def segment_excess(p, bound: float) -> Callable[[float], float]:
            # ½‖P0 + P1 t + P2 t²‖² − bound for P = (p0 − y, p1, p2), a quartic in t
            # whose coefficients come from one Gram product P Pᵀ
            gram = np.array((p[0] - y, p[1], p[2]))
            (g00, g01, g02), (_, g11, g12), (_, _, g22) = (gram @ gram.T).tolist()
            c0, c1, c2, c3, c4 = 0.5 * g00 - bound, g01, 0.5 * g11 + g02, g12, 0.5 * g22
            excess = lambda t: c0 + t * (c1 + t * (c2 + t * (c3 + t * c4)))  # noqa: E731
            excess.coefficients = (c0, c1, c2, c3, c4)
            return excess

        distance.gradient, distance.segment_excess = lambda z: _as_array(z) - y, segment_excess
        return distance


class KullbackLeiblerKernel:
    """Kullback-Leibler divergence, the Bregman distance of t*log(t) - t.

    ``evaluate`` accepts nonnegative data in both slots.  The first argument
    ``z`` follows the ``0*log(0) = 0`` convention: its zeros are neither
    clipped nor counted.  Entries of the second argument ``y`` below
    ``CLIP_FLOOR`` are clipped to it before the logarithm, and each clipped
    entry adds one to ``clip_count`` per evaluation; stored data is never
    modified.  Negative entries in either argument are a hard domain error.
    The gradient also clips and counts zeros of ``z``, where ``log(z)`` has
    no such convention.
    """

    def __init__(self):
        self.clip_count = 0

    def _check_nonneg(self, v: np.ndarray, slot: str) -> None:
        if (v < 0).any():
            raise KernelDomainError(f"negative component in the {slot} argument")

    def evaluate(self, z, y) -> float:
        return self.against(y)(z)

    def against(self, y) -> Callable[[np.ndarray], float]:
        """Prepared ``z -> d(z, y)`` for repeated evaluation against fixed data.

        ``y`` is checked, clipped and logged once; each call checks ``z`` and
        adds the clipped entries of ``y`` to ``clip_count``, as ``evaluate``
        does per call.  So do the callable's ``gradient(z)`` and each probe
        of its ``segment_excess(p, bound)``, ``t -> d(z(t), y) - bound`` on
        ``z(t) = p0 + p1 t + p2 t^2``, clamped at 0 as it may round below.
        A probe takes only ``sum z log z``: ``sum z (log y + 1)`` is three
        moments taken once per segment, and ``sum y`` is taken once here.
        The excess remembers its latest probe, so asking again at the same
        ``t`` takes no pass (it still counts its clipped entries).  It
        carries ``cell()``, which probes the scan's cell ends ``1/64, 2/64,
        ...`` and returns the first cell whose right end is a member, or the
        last cell once ``t = 1`` is probed; and ``slope(t)``, its derivative
        ``sum (p1 + 2 t p2)(log z - log y)``, which reuses the logarithm of
        a probe at the same ``t``.
        """
        y = _as_array(y)
        self._check_nonneg(y, "second")
        small = y < CLIP_FLOOR
        n_small = int(np.count_nonzero(small))
        log_y = np.log(np.where(small, CLIP_FLOOR, y))
        weight, total, buffer = log_y + 1.0, float(y.sum()), np.empty_like(y)

        def divergence(z) -> float:
            z = _as_array(z)
            self._check_nonneg(z, "first")
            self.clip_count += n_small
            # z*log(z/y) as z*log(z) - z*log(yc).  The log is taken at z floored
            # at the smallest subnormal 5e-324: exact for z > 0, 0*log(0) = -0.0.
            terms = np.log(np.maximum(z, 5e-324, out=buffer), out=buffer)
            terms *= z
            terms -= z * log_y
            terms += y
            terms -= z
            return float(terms.sum())

        def gradient(z) -> np.ndarray:
            z = _as_array(z)
            self._check_nonneg(z, "first")
            self.clip_count += n_small + int(np.count_nonzero(z < CLIP_FLOOR))
            return np.log(np.maximum(z, CLIP_FLOOR)) - log_y

        def segment_excess(p, bound: float) -> Callable[[float], float]:
            p0, p1, p2 = p
            k0, k1, k2 = (float(weight @ pj) for pj in p)
            l1, l2 = float(log_y @ p1), float(log_y @ p2)
            c0 = total - k0 - bound
            z, log_z = np.empty_like(p0), np.empty_like(p0)
            last = [None, 0.0]  # the latest probe's t and excess; z and log_z hold its z(t)

            def fill(t: float) -> float:
                if t != last[0]:
                    np.multiply(p2, t, out=z)
                    np.add(z, p1, out=z)
                    np.multiply(z, t, out=z)
                    np.add(z, p0, out=z)
                    np.maximum(z, 0.0, out=z)
                    # log at max(z, CLIP_FLOOR): 0*log(0) = 0, and < 1e-297 off below
                    np.log(np.maximum(z, CLIP_FLOOR, out=log_z), out=log_z)
                    last[:] = t, float(z @ log_z) + c0 - t * (k1 + t * k2)
                return last[1]

            def excess(t: float) -> float:
                self.clip_count += n_small
                return fill(t)

            # cell and slope call fill, not excess: an attribute of the excess
            # that refers to it makes a reference cycle, freed only by the gc
            def cell() -> tuple[float, float]:
                for k in range(1, 65):
                    self.clip_count += n_small
                    if fill(SCAN_GRID[k]) <= 0.0:
                        break
                return SCAN_GRID[k - 1], SCAN_GRID[k]

            def slope(t: float) -> float:
                fill(t)
                return float(log_z @ p1) - l1 + 2.0 * t * (float(log_z @ p2) - l2)

            excess.cell, excess.slope = cell, slope
            return excess

        divergence.gradient, divergence.segment_excess = gradient, segment_excess
        return divergence


# ---------------------------------------------------------------------------
# Forward maps


class ForwardMap:
    """Differentiable map g from the ambient space into the data space.

    ``value`` evaluates g and ``pullback`` applies the Jacobian adjoint
    Dg(x)^T w in real-storage coordinates.  ``segment_polynomial(x, a)``
    gives ``(p0, p1, p2)`` with ``g((1 - t) x + t a) = p0 + p1 t + p2 t^2``,
    which the boundary solve hands to the kernel's prepared divergence.
    """

    in_dim: int
    out_dim: int
    in_kind: str = REAL

    def value(self, x: Point) -> np.ndarray:
        raise NotImplementedError

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segment_point(self, x: Point, a: Point, t: float) -> Point:
        """The point ``(1 - t) x + t a``; a map may keep its image with the point."""
        return lerp(x, a, t)

    def segment_polynomial(self, x: Point, a: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError(f"{type(self).__name__} has no segment polynomial")

    def _check(self, x: Point) -> None:
        if x.dim != self.in_dim or x.kind != self.in_kind:
            raise DimensionMismatchError(
                f"point ({x.kind}/{x.dim}) does not match the map domain "
                f"({self.in_kind}/{self.in_dim})"
            )


class LinearMap(ForwardMap):
    def __init__(self, matrix):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        self.out_dim, self.in_dim = self.matrix.shape

    def value(self, x: Point) -> np.ndarray:
        self._check(x)
        return self.matrix @ x.data

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        return self.matrix.T @ np.asarray(w, dtype=np.float64)

    def segment_polynomial(self, x: Point, a: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients ``(A x, A a − A x, 0)`` of ``t -> g((1 - t) x + t a)``."""
        gx = self.value(x)
        return gx, self.value(a) - gx, np.zeros_like(gx)


class IdentityMap(LinearMap):
    def __init__(self, n: int):
        super().__init__(np.eye(int(n)))


class SquareMap(ForwardMap):
    """Componentwise square x_j^2 of a real vector."""

    def __init__(self, n: int):
        self.in_dim = self.out_dim = int(n)

    def value(self, x: Point) -> np.ndarray:
        self._check(x)
        return x.data ** 2

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        return 2.0 * x.data * np.asarray(w, dtype=np.float64)

    def segment_polynomial(self, x: Point, a: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients ``(x², 2·x·d, d²)``, ``d = a − x``, of ``t -> g((1 - t) x + t a)``."""
        self._check(x)
        self._check(a)
        d = a.data - x.data
        return x.data ** 2, 2.0 * x.data * d, d * d


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class FourierIntensityMap(ForwardMap):
    """Squared modulus of the unitary DFT of a complex grid.

    The map owns every transform: ``spectrum(x)`` is ``F x``,
    ``from_spectrum(Y)`` builds the point ``F^-1 Y``, and
    ``segment_point(x, a, t)`` builds ``(1 - t) x + t a`` with the spectrum
    ``(1 - t) F x + t F a`` by linearity.  The spectrum is a value derived
    on the point (:meth:`~regap.core.Point.derived`), owned by the map: the
    first ``spectrum(x)`` takes the FFT, and the two builders keep the
    spectrum they already hold with the point they build.  So a phase ball
    and the anchor set on its map share each point's spectrum, and the
    anchor and the boundary point take no forward FFT; a spectrum no FFT
    took differs from ``F`` of its point by rounding only.  Spectra are
    read-only, so no caller can change a kept value.
    """

    in_kind = COMPLEX

    def __init__(self, shape: Sequence[int]):
        self.shape = tuple(int(s) for s in shape)
        n = int(np.prod(self.shape))
        self.out_dim = n
        self.in_dim = 2 * n

    def spectrum(self, x: Point) -> np.ndarray:
        """The unitary DFT ``F x`` on the grid, read-only, taken once per point."""
        self._check(x)
        return x.derived(self, lambda: _read_only(
            np.fft.fftn(x.as_complex().reshape(self.shape), norm="ortho")))

    def from_spectrum(self, spectrum: np.ndarray) -> Point:
        """The point ``F^-1 Y`` of the spectrum ``Y``, which keeps a read-only copy of ``Y``."""
        spectrum = _read_only(np.array(spectrum, dtype=np.complex128).reshape(self.shape))
        point = Point._fresh(self._inverse_transform(spectrum).view(np.float64), COMPLEX)
        point.derived(self, lambda: spectrum)
        return point

    def segment_point(self, x: Point, a: Point, t: float) -> Point:
        X, A, t = self.spectrum(x), self.spectrum(a), float(t)
        point = lerp(x, a, t)
        point.derived(self, lambda: _read_only((1.0 - t) * X + t * A))
        return point

    def _inverse_transform(self, spectrum: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(spectrum, norm="ortho").ravel()

    def value(self, x: Point) -> np.ndarray:
        X = self.spectrum(x)
        return np.abs(X).ravel() ** 2

    def pullback(self, x: Point, w: np.ndarray) -> np.ndarray:
        X = self.spectrum(x)
        w = np.asarray(w, dtype=np.float64).reshape(self.shape)
        grad = self._inverse_transform(2.0 * w * X)
        return np.ascontiguousarray(grad).view(np.float64).copy()

    def segment_polynomial(self, x: Point, a: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients ``(|X|², 2·Re(X·conj D), |D|²)`` of ``t -> g((1 - t) x + t a)``.

        The DFT is linear, ``F((1 - t) x + t a) = X + t D`` with ``X = F x``
        and ``D = F a − X``, so the spectra of the two ends serve the segment.
        """
        X = self.spectrum(x).ravel()
        D = self.spectrum(a).ravel() - X
        xr, xi, dr, di = X.real, X.imag, D.real, D.imag
        return xr * xr + xi * xi, 2.0 * (xr * dr + xi * di), dr * dr + di * di


# ---------------------------------------------------------------------------
# Regularized sets


class NewtonConvergenceError(SolverError):
    """The KKT Newton solve did not converge within the iteration cap."""


class RegularizedSet(SetOracle):
    """Divergence ball {x : d(g(x), b) <= epsilon} around the data b.

    At epsilon = 0 it is the data set {x : g(x) = b}.  Whether the
    divergence grows fast enough at infinity for projections to exist is a
    property of (g, d, b) that the caller must ensure; it is not checked.
    It is a set oracle: ``project`` keeps a member and otherwise returns the
    KKT Newton point of :func:`project_regularized_exact` (small instances).

    ``forward``, ``data``, ``kernel`` and ``epsilon`` are fixed after
    construction: the kernel's divergence against ``data`` is prepared once,
    as ``divergence``, when the ball is built.  ``residual`` is a value
    derived on the point and owned by the ball, so asking again for the
    same ``Point`` costs nothing, while another ball on the same map keeps
    its own residual and shares the map's spectrum.  ``band`` is
    ``max(MEMBERSHIP_TOL, 1e-6 * epsilon)``: a point whose residual is below
    ``epsilon - band`` is interior, and the normal cone there is {0}.
    """

    def __init__(self, forward: ForwardMap, data, kernel, epsilon: float):
        super().__init__(forward.in_dim)
        self.kind = forward.in_kind
        self.forward, self.kernel, self.epsilon = forward, kernel, epsilon
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 1 or self.data.size != forward.out_dim:
            raise DimensionMismatchError(
                f"data length {self.data.size} does not match the map range "
                f"{forward.out_dim}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data entries must be finite")
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        self.band = max(MEMBERSHIP_TOL, 1e-6 * epsilon)
        self.divergence = kernel.against(self.data)

    def project(self, x: Point) -> list[Point]:
        self._check_point(x)
        return [x if self.contains(x) else project_regularized_exact(self, x)]

    def residual(self, x: Point) -> float:
        return x.derived(self, lambda: self.divergence(self.forward.value(x)))

    def residual_gradient(self, x: Point) -> Point:
        w = self.divergence.gradient(self.forward.value(x))
        return Point(self.forward.pullback(x, w), self.kind)

    def membership_residual(self, x: Point) -> float:
        """Excess of the residual over ``epsilon``, zero exactly on the ball."""
        return max(self.residual(x) - self.epsilon, 0.0)

    def normal_cone_at(self, x: Point) -> NormalCone:
        """Normal cone at the member ``x``.

        Within ``band`` of the boundary value it is the ray of the residual
        gradient; deeper inside it is {0}.
        """
        r = self.residual(x)
        if r > self.epsilon + self.band:
            raise ValueError("base point is not a member of the set")
        if r < self.epsilon - self.band:
            return ZeroCone(self.dim)
        grad = self.residual_gradient(x)
        if grad.norm() <= 1e-14:
            raise NormalConeUnavailableError("zero residual gradient at the boundary")
        return RayCone(grad.data)


# t⁰, ..., t⁴ at the scan's cell ends 1/64, ..., 1: a quartic's values there in one product
_CELL_POWERS = np.power.outer(SCAN_GRID[1:], np.arange(5.0))


def _quartic_search(c: tuple[float, float, float, float, float]) -> dict:
    """Keyword arguments for :func:`~regap.core.first_crossing` on a quartic.

    ``c`` are its coefficients, lowest degree first.  The quartic is taken
    at the scan's 64 cell ends in one product, and ``bracket`` is the first
    cell whose right end is a member there; ``slope`` is the exact cubic
    ``q'``.  The product can round to the other side of zero than the
    scalar Horner value at a cell end within rounding of zero: then
    ``first_crossing`` refuses the bracket's member end or, where no end is
    a member, gets no keywords and scans.
    """
    members = _CELL_POWERS.dot(c) <= 0.0
    k = int(members.argmax())  # the first member end, or 0 where there is none
    if not members[k]:
        return {}
    _, c1, c2, c3, c4 = c
    d2, d3, d4 = 2.0 * c2, 3.0 * c3, 4.0 * c4
    return {"bracket": (SCAN_GRID[k], SCAN_GRID[k + 1]),
            "slope": lambda t: c1 + t * (d2 + t * (d3 + t * d4))}


def bregman_line_boundary(m: RegularizedSet, x: Point, x0: Point) -> tuple[float, Point]:
    """``m.segment_entry(x, x0)``, the first member of the segment from ``x`` to ``x0``, fast.

    Returns ``(tau, point)``.  Euclidean kernels with a :class:`LinearMap`
    solve a closed-form quadratic.  Otherwise the prepared divergence's
    ``segment_excess`` on the map's ``segment_polynomial`` (a map with none
    raises ``NotImplementedError``) stands in for the residual at every
    probe of :func:`~regap.core.first_crossing`, with the bound ``epsilon +
    MEMBERSHIP_TOL``, and only the returned point is built.  A Euclidean
    excess is a quartic: :func:`_quartic_search` finds from its
    coefficients the scan cell that holds the first member.  A KL excess
    finds that cell with its own ``cell()``, which probes the cell ends from
    ``1/64`` upward and reaches the anchor end ``t = 1`` only when no
    earlier end is a member.  Either way the search refines the cell with
    Newton steps on the excess's exact slope, and the entry is found on
    the cells :meth:`SetOracle.segment_entry` scans.  The returned point is
    re-checked with ``contains`` by :meth:`SetOracle._checked_entry`, which
    searches once more, on the same polynomial, where the excess's rounding
    alone made the re-check fail, and lets :meth:`SetOracle.segment_entry`
    answer where the excess puts ``x0`` outside or the retry fails too.  A
    member ``x`` raises ``ValueError``, as does a non-member ``x0`` in the
    segment search.
    """
    if m.contains(x):
        raise ValueError("x is already a member; no boundary crossing to find")

    if isinstance(m.kernel, EuclideanKernel) and isinstance(m.forward, LinearMap):
        u = m.forward.value(x) - m.data
        d = m.forward.value(x0) - m.data - u
        a, b, c = 0.5 * float(d @ d), float(u @ d), 0.5 * float(u @ u) - m.epsilon
        disc = b * b - 4.0 * a * c
        if a > 0 and disc >= 0:
            for tau in ((-b - np.sqrt(disc)) / (2.0 * a), (-b + np.sqrt(disc)) / (2.0 * a)):
                if 0.0 < tau <= 1.0:
                    return float(tau), lerp(x, x0, float(tau))
        # fall through to the segment search on degenerate geometry

    p = m.forward.segment_polynomial(x, x0)

    def solve(margin: float) -> tuple[float, Callable[[float], float]]:
        fast = m.divergence.segment_excess(p, m.epsilon + MEMBERSHIP_TOL - margin)
        quartic = getattr(fast, "coefficients", None)
        search = {"bracket": fast.cell(), "slope": fast.slope} if quartic is None \
            else _quartic_search(quartic)
        return first_crossing(fast, **search), fast

    return m._checked_entry(x, x0, solve, lambda tau: m.forward.segment_point(x, x0, tau))


def project_regularized_exact(m: RegularizedSet, x: Point) -> Point:
    """Euclidean projection onto a divergence ball via its KKT system.

    Solves ``(y - x) + eta * grad_r(y) = 0`` and ``r(y) = epsilon`` for the
    boundary residual ``r`` with a damped Newton method (initial multiplier
    1, step halving, at most 100 steps to a KKT residual of 1e-11, measured
    with exact gradients).  The Newton matrix takes central differences of
    ``residual_gradient``, step ``1e-6 * (1 + |y_j|)`` per coordinate, and
    symmetrizes them: each step costs ``2 * dim`` gradients, and any map
    with a ``pullback`` serves.  A small-scale reference oracle: ambient
    dimension is capped at ``NEWTON_MAX_DIM``.  On a nonconvex ball
    (``SquareMap``, Fourier intensity) it returns a KKT point, which need
    not be the nearest.  Refuses ``epsilon = 0``, where the multiplier
    blows up because the constraint gradient vanishes on the data set
    {x : g(x) = b}.
    """
    if m.epsilon <= 0:
        raise ValueError("exact projection requires epsilon > 0")
    if m.dim > NEWTON_MAX_DIM:
        raise ValueError(f"ambient dimension {m.dim} exceeds {NEWTON_MAX_DIM}")
    if m.contains(x):
        raise ValueError("x is already a member; the projection is x itself")

    dim = m.dim
    target = x.data
    max_iter, tol = 100, 1e-11

    def kkt(z: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
        p = Point(z, m.kind)
        grad = m.residual_gradient(p).data
        top = z - target + eta * grad
        bottom = m.residual(p) - m.epsilon
        return np.concatenate([top, [bottom]]), grad

    def curvature(z: np.ndarray) -> np.ndarray:
        h = 1e-6 * (1.0 + np.abs(z))
        diffs = [m.residual_gradient(Point(z + e, m.kind)).data
                 - m.residual_gradient(Point(z - e, m.kind)).data for e in np.diag(h)]
        hess = np.column_stack(diffs) / (2.0 * h)
        return 0.5 * (hess + hess.T)

    z = target.copy()
    eta = 1.0
    f, grad = kkt(z, eta)
    fnorm = np.linalg.norm(f)
    for _ in range(max_iter):
        if np.max(np.abs(f)) <= tol and eta >= -1e-10:
            return Point(z, m.kind)
        jac = np.zeros((dim + 1, dim + 1))
        jac[:dim, :dim] = np.eye(dim) + eta * curvature(z)
        jac[:dim, dim] = grad
        jac[dim, :dim] = grad
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        t = 1.0
        while t >= 2.0 ** -30:
            z_new = z + t * step[:dim]
            eta_new = eta + t * step[dim]
            f_new, grad_new = kkt(z_new, eta_new)
            fnorm_new = np.linalg.norm(f_new)
            if fnorm_new <= (1.0 - 1e-4 * t) * fnorm:
                break
            t *= 0.5
        else:
            raise NewtonConvergenceError("line search failed to reduce the KKT residual")
        z, eta, f, grad, fnorm = z_new, eta_new, f_new, grad_new, fnorm_new
    if np.max(np.abs(f)) <= tol and eta >= -1e-10:
        return Point(z, m.kind)
    raise NewtonConvergenceError(
        f"KKT residual {np.max(np.abs(f)):.3e} after {max_iter} iterations"
    )
