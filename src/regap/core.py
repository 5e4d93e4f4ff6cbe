"""Vectors, set oracles, normal cones, and iteration traces.

Everything downstream works with :class:`Point` values.  A complex vector of
logical length ``n`` is stored as ``2n`` interleaved real entries
``[re_0, im_0, re_1, im_1, ...]`` together with a scalar-kind flag, so every
norm, inner product, and lexicographic comparison is the plain Euclidean one
on ``R^{2n}``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

MEMBERSHIP_TOL = 1e-9

REAL = "real"
COMPLEX = "complex"

FIXED_POINT = "fixed_point"
MAX_ITER = "max_iter"
STALLED_GAP = "stalled_gap"
TOLERANCE_MET = "tolerance_met"
TERMINATION_REASONS = frozenset({FIXED_POINT, MAX_ITER, STALLED_GAP, TOLERANCE_MET})

TRACE_COLUMNS = ("k", "step_norm", "gap", "residual", "gamma", "lambda", "reason")


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces or have different scalar kinds."""


class NormalConeUnavailableError(RuntimeError):
    """The set does not expose an analytic normal cone at the queried point."""


class Point:
    """Immutable finite vector, real or complex-as-interleaved-real storage."""

    __slots__ = ("_data", "_kind")

    def __init__(self, data, kind: str = REAL):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("point storage must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point entries must be finite")
        if kind not in (REAL, COMPLEX):
            raise ValueError(f"unknown scalar kind {kind!r}")
        if kind == COMPLEX and arr.size % 2:
            raise ValueError("complex storage must have even length")
        arr.setflags(write=False)
        self._data = arr
        self._kind = kind

    @classmethod
    def from_complex(cls, values) -> "Point":
        c = np.ascontiguousarray(values, dtype=np.complex128)
        if c.ndim != 1:
            c = c.ravel()
        return cls(c.view(np.float64), COMPLEX)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def dim(self) -> int:
        """Length of the real storage."""
        return self._data.size

    @property
    def n(self) -> int:
        """Logical length: number of scalar (possibly complex) components."""
        return self._data.size // 2 if self._kind == COMPLEX else self._data.size

    def as_complex(self) -> np.ndarray:
        if self._kind != COMPLEX:
            raise ValueError("point is not complex")
        return self._data.view(np.complex128)

    def norm(self) -> float:
        return float(np.linalg.norm(self._data))

    def inner(self, other: "Point") -> float:
        self._check_compatible(other)
        return float(self._data @ other._data)

    def distance(self, other: "Point") -> float:
        self._check_compatible(other)
        return float(np.linalg.norm(self._data - other._data))

    def lex_key(self) -> tuple:
        return tuple(self._data.tolist())

    def _check_compatible(self, other: "Point") -> None:
        if self._kind != other._kind or self._data.size != other._data.size:
            raise DimensionMismatchError(
                f"incompatible points: {self._kind}/{self._data.size} vs "
                f"{other._kind}/{other._data.size}"
            )

    def __add__(self, other: "Point") -> "Point":
        self._check_compatible(other)
        return Point(self._data + other._data, self._kind)

    def __sub__(self, other: "Point") -> "Point":
        self._check_compatible(other)
        return Point(self._data - other._data, self._kind)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self._data * float(scalar), self._kind)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Point({np.array2string(self._data, threshold=8)}, kind={self._kind!r})"


def lerp(x: Point, y: Point, t: float) -> Point:
    """Point ``(1 - t) x + t y`` on the segment from x to y."""
    x._check_compatible(y)
    t = float(t)
    return Point((1.0 - t) * x.data + t * y.data, x.kind)


def canonical_point(candidates: Sequence[Point]) -> Point:
    """First candidate by lexicographic order of the storage entries.

    This is the deterministic tie-break used whenever a multivalued
    projection feeds a single-point step.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=Point.lex_key)


def first_crossing(pred: Callable[[float], bool], lo: float = 0.0, hi: float = 1.0,
                   scan: int = 64, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Smallest ``t`` in ``(lo, hi]`` with ``pred(t)`` true.

    Brackets by a forward scan from ``lo`` (so on non-monotone predicates the
    first crossing is returned), then bisects the bracket down to ``tol`` or
    ``max_iter`` halvings.  ``pred(hi)`` must hold.  The returned value always
    satisfies the predicate.
    """
    if not pred(hi):
        raise ValueError("predicate does not hold at the upper endpoint")
    grid = np.linspace(lo, hi, scan + 1)
    bracket_lo, bracket_hi = lo, hi
    for t in grid[1:]:
        if pred(float(t)):
            bracket_hi = float(t)
            break
        bracket_lo = float(t)
    it = 0
    while bracket_hi - bracket_lo > tol and it < max_iter:
        mid = 0.5 * (bracket_lo + bracket_hi)
        if pred(mid):
            bracket_hi = mid
        else:
            bracket_lo = mid
        it += 1
    return bracket_hi


# ---------------------------------------------------------------------------
# Normal cones


class NormalCone:
    """Closed convex cone of (proximal) normal directions at a point."""

    def distance(self, v: np.ndarray) -> float:
        raise NotImplementedError

    def sample_unit(self, rng: np.random.Generator) -> np.ndarray | None:
        """A unit direction in the cone, or None if the cone is {0}."""
        raise NotImplementedError


class ZeroCone(NormalCone):
    """Normal cone at an interior point."""

    def __init__(self, dim: int):
        self.dim = dim

    def distance(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v))

    def sample_unit(self, rng: np.random.Generator) -> np.ndarray | None:
        return None


class RayCone(NormalCone):
    """Cone spanned by nonnegative multiples of a single direction."""

    def __init__(self, direction: np.ndarray):
        d = np.asarray(direction, dtype=np.float64)
        nrm = np.linalg.norm(d)
        if nrm == 0.0 or not np.all(np.isfinite(d)):
            raise ValueError("ray direction must be nonzero and finite")
        self.direction = d / nrm

    def distance(self, v: np.ndarray) -> float:
        t = max(float(v @ self.direction), 0.0)
        return float(np.linalg.norm(v - t * self.direction))

    def sample_unit(self, rng: np.random.Generator) -> np.ndarray | None:
        return self.direction.copy()


class SubspaceCone(NormalCone):
    """Cone that is a full linear subspace, given by an orthonormal basis."""

    def __init__(self, basis: np.ndarray):
        q = np.atleast_2d(np.asarray(basis, dtype=np.float64))
        if q.shape[1] == 0:
            raise ValueError("use ZeroCone for the trivial subspace")
        self.basis = q  # columns orthonormal

    def distance(self, v: np.ndarray) -> float:
        coeff = self.basis.T @ v
        return float(np.linalg.norm(v - self.basis @ coeff))

    def sample_unit(self, rng: np.random.Generator) -> np.ndarray | None:
        while True:
            w = self.basis @ rng.standard_normal(self.basis.shape[1])
            nrm = np.linalg.norm(w)
            if nrm > 1e-12:
                return w / nrm


class SignedProductCone(NormalCone):
    """Coordinate product of free lines, {0} factors, and nonpositive rays.

    Coordinates not listed in ``free`` or ``nonpos`` are constrained to zero.
    """

    def __init__(self, dim: int, free: Iterable[int] = (), nonpos: Iterable[int] = ()):
        self.dim = dim
        free_idx = np.asarray(sorted({int(i) for i in free}), dtype=int)
        nonpos_idx = np.asarray(sorted({int(i) for i in nonpos}), dtype=int)
        self.free = np.zeros(dim, dtype=bool)
        self.nonpos = np.zeros(dim, dtype=bool)
        if free_idx.size:
            self.free[free_idx] = True
        if nonpos_idx.size:
            self.nonpos[nonpos_idx] = True
        if np.any(self.free & self.nonpos):
            raise ValueError("a coordinate cannot be both free and sign-constrained")

    def distance(self, v: np.ndarray) -> float:
        proj = np.zeros_like(v)
        proj[self.free] = v[self.free]
        proj[self.nonpos] = np.minimum(v[self.nonpos], 0.0)
        return float(np.linalg.norm(v - proj))

    def sample_unit(self, rng: np.random.Generator) -> np.ndarray | None:
        if not (np.any(self.free) or np.any(self.nonpos)):
            return None
        while True:
            g = rng.standard_normal(self.dim)
            w = np.zeros(self.dim)
            w[self.free] = g[self.free]
            w[self.nonpos] = -np.abs(g[self.nonpos])
            nrm = np.linalg.norm(w)
            if nrm > 1e-12:
                return w / nrm


# ---------------------------------------------------------------------------
# Set oracles


class SetOracle:
    """A closed set queried through projections and membership tests.

    Subclasses must set ``dim`` (real storage length) and ``kind`` and
    implement :meth:`project` and :meth:`membership_residual`.  ``project``
    returns the full finite candidate set; use :func:`canonical_point` to pick
    the deterministic representative.  ``prox_regular`` is metadata consumed
    by the rate predictions.
    """

    kind = REAL
    prox_regular = False

    def __init__(self, dim: int):
        self.dim = int(dim)

    def project(self, x: Point) -> list[Point]:
        raise NotImplementedError

    def membership_residual(self, x: Point) -> float:
        """Nonnegative defining residual, zero exactly on the set."""
        raise NotImplementedError

    def contains(self, x: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.membership_residual(x) <= tol

    def normal_cone_at(self, x: Point) -> NormalCone:
        raise NormalConeUnavailableError(
            f"{type(self).__name__} exposes no analytic normal cone"
        )

    def project_one(self, x: Point) -> Point:
        return canonical_point(self.project(x))

    def _check_point(self, x: Point) -> None:
        if x.dim != self.dim or x.kind != self.kind:
            raise DimensionMismatchError(
                f"point ({x.kind}/{x.dim}) does not match the set's ambient "
                f"space ({self.kind}/{self.dim})"
            )


def distance(x: Point, s: SetOracle) -> float:
    """Euclidean distance from x to the set; exactly 0 for members."""
    if s.contains(x):
        return 0.0
    return x.distance(s.project(x)[0])


def proximal_normal_residual(s: SetOracle, base: Point, direction: Point) -> float:
    """Distance from a unit direction to the set's normal cone at ``base``.

    ``direction`` must be a unit vector or zero (zero returns 0).  ``base``
    must be a member of the set.
    """
    nrm = direction.norm()
    if nrm == 0.0:
        return 0.0
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector or zero")
    if not s.contains(base):
        raise ValueError("base point is not a member of the set")
    cone = s.normal_cone_at(base)
    return cone.distance(direction.data)


# ---------------------------------------------------------------------------
# Iteration traces


@dataclass
class TraceRecord:
    """One projection cycle: even iterate, odd iterate, and diagnostics.

    ``step_norm`` is the even half-step into this cycle's even iterate (NaN
    at k = 0), ``gap`` the odd half-step out of it.  ``gamma`` is the measured
    normal-alignment residual (NaN when unverified), ``lam`` the relaxation
    used for the odd step (NaN when not applicable), and ``accepted`` records
    the per-iteration step-monotonicity check gap <= step_norm.
    """

    k: int
    even: Point
    odd: Point
    step_norm: float
    gap: float
    residual: float
    gamma: float
    lam: float
    accepted: bool = True


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


class IterationTrace:
    """Strictly ordered sequence of cycle records plus a termination reason."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self._reason: str | None = None

    def append(self, record: TraceRecord) -> None:
        if self._reason is not None:
            raise ValueError("trace already finished")
        if record.k != len(self.records):
            raise ValueError(
                f"records must be contiguous: expected k={len(self.records)}, "
                f"got k={record.k}"
            )
        self.records.append(record)

    def finish(self, reason: str) -> "IterationTrace":
        if reason not in TERMINATION_REASONS:
            raise ValueError(f"unknown termination reason {reason!r}")
        if self._reason is not None:
            raise ValueError("trace already finished")
        self._reason = reason
        return self

    @property
    def reason(self) -> str:
        if self._reason is None:
            raise ValueError("trace not finished")
        return self._reason

    @property
    def final_even(self) -> Point:
        return self.records[-1].even

    @property
    def final_odd(self) -> Point:
        return self.records[-1].odd

    def __len__(self) -> int:
        return len(self.records)

    def step_sequence(self) -> np.ndarray:
        """Chronological half-step norms: gap_0, step_1, gap_1, step_2, ..."""
        out = []
        for r in self.records:
            if r.k > 0 and math.isfinite(r.step_norm):
                out.append(r.step_norm)
            if math.isfinite(r.gap):
                out.append(r.gap)
        return np.asarray(out, dtype=np.float64)

    def rows(self) -> list[dict]:
        reason = self.reason
        return [
            {
                "k": r.k,
                "step_norm": r.step_norm,
                "gap": r.gap,
                "residual": r.residual,
                "gamma": r.gamma,
                "lambda": r.lam,
                "reason": reason,
            }
            for r in self.records
        ]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(TRACE_COLUMNS)
            for row in self.rows():
                w.writerow(
                    [row["k"]]
                    + [_fmt(row[c]) for c in ("step_norm", "gap", "residual", "gamma", "lambda")]
                    + [row["reason"]]
                )

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.rows(), fh, indent=1)
            fh.write("\n")
