"""Alternating-projection loops, rate prediction, and rate measurement.

Three drivers share one cycle loop and one trace format; only the odd step
differs.  Plain alternating projections project onto the second set; an
inexact variant accepts externally produced odd iterates subject to
step-monotonicity and normal-alignment checks; and the relaxed scheme for
divergence balls mixes the current iterate with a projection onto the
data set that the ball fattens.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    FIXED_POINT,
    MAX_ITER,
    MEMBERSHIP_TOL,
    STALLED_GAP,
    TOLERANCE_MET,
    IterationTrace,
    NormalConeUnavailableError,
    Point,
    SetOracle,
    SolverError,
    TraceRecord,
    canonical_point,
    lerp,
)
from .divergences import RegularizedSet, bregman_line_boundary

SURFACE = "surface"
CONSTANT_ONE = "constant_one"
CUSTOM = "custom"
LAMBDA_SCHEDULES = (SURFACE, CONSTANT_ONE, CUSTOM)

# A gap counts as flat when its relative change over the stall window stays
# below GAP_STALL_REL_CHANGE, and as bounded away from zero above
# GAP_STALL_FACTOR times the fixed-point tolerance.
GAP_STALL_REL_CHANGE = 1e-6
GAP_STALL_FACTOR = 10.0

# An odd step's result: (odd iterate, its residual, gamma, lambda).
_OddResult = tuple[Point, float, float, float]


class StepConditionError(SolverError):
    """No candidate odd iterate satisfied the step-monotonicity condition."""


class GammaConditionError(SolverError):
    """Strict verification of the normal-alignment residual failed."""


class FixedPointError(SolverError):
    """A ``fixed_point`` run ended on an iterate outside one of the sets."""


class RateMeasurementError(RuntimeError):
    """The trace does not support a tail rate fit."""


@dataclass
class InexactAPConfig:
    """Knobs shared by the iteration drivers.

    ``gamma`` bounds the admissible normal-alignment residual of inexact odd
    steps.  A run stops with reason ``fixed_point`` once both half-steps of a
    cycle fall below ``fixed_point_tolerance``; with ``stalled_gap`` when the
    even-iterate change falls below that tolerance while the even-odd gap
    exceeds ``GAP_STALL_FACTOR`` (10) times it and has been flat (relative
    change below ``GAP_STALL_REL_CHANGE``, 1e-6) over the last
    ``gap_stall_window`` cycles; with ``tolerance_met`` when
    ``membership_tolerance`` is set and the even iterate lies in both sets
    within it; and with ``max_iter`` otherwise.  ``strict_gamma`` makes every
    driver check each odd step it computes: a residual above ``gamma``, or
    one that was not measured (NaN: ``measure_gamma`` off, no normal cone,
    or the exact driver, which records none), raises
    :class:`GammaConditionError` instead of being a trace annotation.
    """

    gamma: float = 0.0
    max_iterations: int = 1000
    fixed_point_tolerance: float = 1e-9
    gap_stall_window: int = 50
    lambda_schedule: str = SURFACE
    lambda_sequence: Sequence[float] | None = None
    membership_tolerance: float | None = None
    strict_gamma: bool = False
    measure_gamma: bool = True

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.fixed_point_tolerance <= 0:
            raise ValueError("fixed_point_tolerance must be positive")
        if self.gap_stall_window < 1:
            raise ValueError("gap_stall_window must be positive")
        if self.lambda_schedule not in LAMBDA_SCHEDULES:
            raise ValueError(f"unknown lambda schedule {self.lambda_schedule!r}")
        if self.lambda_schedule == CONSTANT_ONE:
            self.lambda_sequence = (1.0,)
        elif self.lambda_schedule == CUSTOM:
            seq = tuple(float(v) for v in (self.lambda_sequence or ()))
            if not seq or any(not 0.0 < v <= 1.0 for v in seq):
                raise ValueError("lambda values of the custom schedule must lie in (0, 1]")
            self.lambda_sequence = seq
        if self.membership_tolerance is not None and self.membership_tolerance <= 0:
            raise ValueError("membership_tolerance must be positive")


@dataclass
class RatePrediction:
    """Predicted local linear convergence of the even iterates.

    ``eta`` is the one-cycle contraction estimate built from the regularity
    constant ``c`` and the alignment bound ``gamma``; the guaranteed R-linear
    rate is ``eta`` itself when the second set is prox-regular and
    ``sqrt(eta)`` otherwise.
    """

    c: float
    gamma: float
    eta: float
    r_linear_rate: float
    m_prox_regular: bool


def predict_rate(c: float, gamma: float = 0.0, m_prox_regular: bool = True) -> RatePrediction:
    """Contraction estimate eta = c*sqrt(1-gamma^2) + gamma*sqrt(1-c^2).

    Requires ``0 <= c < 1`` and ``0 <= gamma < sqrt(1 - c^2)``, the regime in
    which eta < 1 and linear convergence is certified.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    limit = math.sqrt(1.0 - c * c)
    if not 0.0 <= gamma < limit:
        raise ValueError(f"gamma must lie in [0, {limit:.6g}) for c = {c:.6g}")
    eta = c * math.sqrt(1.0 - gamma * gamma) + gamma * limit
    rate = eta if m_prox_regular else math.sqrt(eta)
    return RatePrediction(c=c, gamma=gamma, eta=eta, r_linear_rate=rate,
                          m_prox_regular=m_prox_regular)


def measure_rate(trace: IterationTrace) -> float:
    """Per-half-step geometric decay fitted on the trailing step norms.

    Least-squares slope of the log half-step norms over the trailing half
    (rounded up) of the chronological step sequence, exponentiated.
    Trailing exact zeros (iterates that arrived on the set and stopped
    moving) are trimmed before fitting.  Raises
    :class:`RateMeasurementError` on stalled traces, on tails shorter than
    10 steps, and on nonpositive tail entries.
    """
    if trace.reason == STALLED_GAP:
        raise RateMeasurementError("nonconvergent tail: trace stalled")
    seq = trace.step_sequence()
    while seq.size and seq[-1] == 0.0:
        seq = seq[:-1]
    tail = seq[len(seq) // 2:]
    if tail.size < 10:
        raise RateMeasurementError(f"tail has {tail.size} steps; need at least 10")
    if np.any(tail <= 0):
        raise RateMeasurementError("nonpositive step norms in the tail")
    slope = np.polyfit(np.arange(tail.size), np.log(tail), 1)[0]
    return float(np.exp(slope))


def _within_step(length: float, step: float) -> bool:
    return length <= step * (1 + 1e-12) + 1e-15


def _terminate(cfg: InexactAPConfig, setC: SetOracle, setM: SetOracle, step: float, gap: float,
               even: Point, even_change: float, gaps: deque[float]) -> str | None:
    if max(step, gap) <= cfg.fixed_point_tolerance:
        return FIXED_POINT
    if cfg.membership_tolerance is not None:
        mtol = cfg.membership_tolerance
        if setC.contains(even, mtol) and setM.contains(even, mtol):
            return TOLERANCE_MET
    gaps.append(gap)
    if len(gaps) <= cfg.gap_stall_window:
        return None
    rel = abs(gap - gaps[0]) / max(abs(gap), 1e-300)
    if (rel < GAP_STALL_REL_CHANGE and gap > GAP_STALL_FACTOR * cfg.fixed_point_tolerance
            and even_change <= cfg.fixed_point_tolerance):
        return STALLED_GAP
    return None


def _iterate(setC: SetOracle, setM: SetOracle, even: Point,
             odd_step: Callable[[Point, int, float], _OddResult],
             cfg: InexactAPConfig, first: _OddResult | None = None) -> IterationTrace:
    """The cycle loop shared by the drivers: project onto C, then take an odd step.

    ``odd_step(even, k, step)`` returns cycle ``k``'s ``(odd, residual,
    gamma, lam)``, given the even half-step ``step`` into it; cycle 0 takes
    it from the even iterate ``even`` unless ``first`` supplies it.  With
    ``strict_gamma`` every gamma ``odd_step`` returns is checked.  ``setM``
    answers the ``tolerance_met`` test.
    """
    def checked_step(even: Point, k: int, step: float) -> _OddResult:
        result = odd_step(even, k, step)
        gamma = result[2]
        if cfg.strict_gamma and math.isnan(gamma):
            raise GammaConditionError(
                f"cycle {k}: strict verification requested but the alignment residual "
                f"was not measured (measure_gamma is off, or the set has no normal cone)"
            )
        if cfg.strict_gamma and gamma > cfg.gamma + 1e-12:
            raise GammaConditionError(
                f"cycle {k}: alignment residual {gamma:.6g} exceeds gamma = {cfg.gamma:.6g}"
            )
        return result

    trace = IterationTrace()
    odd, res, gamma, lam = first or checked_step(even, 0, math.nan)
    trace.append(TraceRecord(0, even, odd, math.nan, even.distance(odd), res, gamma, lam))
    gaps: deque[float] = deque(maxlen=cfg.gap_stall_window + 1)
    for k in range(1, cfg.max_iterations + 1):
        prev_even = even
        even = canonical_point(setC.project(odd))
        step = even.distance(odd)
        odd, res, gamma, lam = checked_step(even, k, step)
        gap = even.distance(odd)
        trace.append(TraceRecord(k, even, odd, step, gap, res, gamma, lam))
        reason = _terminate(cfg, setC, setM, step, gap, even, even.distance(prev_even), gaps)
        if reason:
            return trace.finish(reason)
    return trace.finish(MAX_ITER)


def exact_alternating_projections(setC: SetOracle, setM: SetOracle, x0: Point,
                                  cfg: InexactAPConfig | None = None) -> IterationTrace:
    """Alternating exact projections starting from P_C(x0).

    Cycle k computes the even iterate by projecting onto the first set and
    the odd iterate by projecting onto the second; multivalued projections
    are resolved lexicographically.  No alignment residual is recorded (NaN),
    so ``strict_gamma`` raises "not measured" at the first step.
    """
    def odd_step(even: Point, k: int, step: float) -> _OddResult:
        odd = canonical_point(setM.project(even))
        return odd, setM.membership_residual(odd), math.nan, math.nan

    even = canonical_point(setC.project(x0))
    return _iterate(setC, setM, even, odd_step, cfg or InexactAPConfig())


def inexact_alternating_projections(setC: SetOracle,
                                    approx_m: Callable[[Point], Sequence[Point]],
                                    m_oracle: SetOracle, x0: Point, x1: Point,
                                    cfg: InexactAPConfig | None = None) -> IterationTrace:
    """Alternating projections with externally supplied odd iterates.

    ``approx_m`` maps an even iterate to candidate odd iterates lying in the
    second set, whose oracle is ``m_oracle``.  The first candidate whose
    step is no longer than the previous half-step is accepted; if none
    qualifies the run fails with :class:`StepConditionError`.  An even
    iterate already in the set maps to itself (the fixed-point rule).  With
    ``measure_gamma`` the driver measures the alignment residual: the
    distance from the normalized step direction to the set's normal cone at
    the first point where the segment from the even iterate to the odd one
    enters the set.  A residual that is not measured is recorded as NaN.
    ``strict_gamma`` checks every odd step but the supplied ``x1``.
    """
    cfg = cfg or InexactAPConfig()

    def odd_step(even: Point, k: int, step: float) -> _OddResult:
        if m_oracle.contains(even):
            odd, gamma_meas = even, 0.0
        else:
            odd = next((c for c in approx_m(even) if _within_step(even.distance(c), step)),
                       None)
            if odd is None:
                raise StepConditionError(
                    f"cycle {k}: no candidate step within the previous half-step "
                    f"{step:.6g}"
                )
            gamma_meas = (_alignment_residual(m_oracle, even, odd) if cfg.measure_gamma
                          else math.nan)
        return odd, m_oracle.membership_residual(odd), gamma_meas, math.nan

    first = (x1, m_oracle.membership_residual(x1), math.nan, math.nan)
    return _iterate(setC, m_oracle, x0, odd_step, cfg, first)


def _alignment_residual(m: SetOracle, even: Point, odd: Point, star: Point | None = None) -> float:
    """Distance of the unit step from ``even`` to ``odd`` to m's normal cone at ``star``.

    NaN when ``m`` has no cone at ``star``.  ``star`` defaults to where the
    segment from ``even``, a non-member, enters the set: ``m.segment_entry``.
    """
    gap = even.distance(odd)
    if gap == 0.0:
        return 0.0
    if star is None:
        star = m.segment_entry(even, odd)[1]
    try:
        cone = m.normal_cone_at(star)
    except NormalConeUnavailableError:
        return math.nan
    return cone.distance((even.data - odd.data) / gap)


def regularized_extrapolated_ap(setC: SetOracle, m: RegularizedSet,
                                data_set: SetOracle, x0: Point,
                                cfg: InexactAPConfig | None = None) -> IterationTrace:
    """Alternating projections against a divergence ball with relaxed odd steps.

    The odd iterate is ``(1 - lam) * even + lam * anchor`` where the anchor
    is a projection onto ``data_set``, the ball at epsilon = 0.  The
    ``surface`` schedule takes ``lam`` just large enough to enter the ball,
    pinning odd iterates to its boundary; ``constant_one`` always jumps to
    the anchor, which is a ball member; a ``custom`` sequence is replayed as
    given (last value repeated).  An even iterate already inside the ball
    makes the odd step the identity, so runs terminate finitely once the
    iterates reach the ball's interior.  On ``fixed_point`` termination the
    final even iterate is verified to lie in both sets.  The alignment
    residual is measured at the boundary point of the segment to the anchor;
    ``strict_gamma`` checks it from cycle 0 on.  A boundary point's residual
    may be taken on a spectrum its map combined (``segment_point``); an even
    iterate's never is.
    """
    cfg = cfg or InexactAPConfig()

    def odd_step(even: Point, k: int, step: float) -> _OddResult:
        if m.contains(even):
            return even, m.residual(even), 0.0, 0.0
        anchor = canonical_point(data_set.project(even))
        if cfg.lambda_schedule == SURFACE or cfg.measure_gamma:
            tau, boundary = bregman_line_boundary(m, even, anchor)
        if cfg.lambda_schedule == SURFACE:
            lam, odd = tau, boundary
        else:
            seq = cfg.lambda_sequence
            lam = seq[min(k, len(seq) - 1)]
            odd = lerp(even, anchor, lam)
        gamma_meas = (_alignment_residual(m, even, odd, boundary) if cfg.measure_gamma
                      else math.nan)
        return odd, m.residual(odd), gamma_meas, lam

    trace = _iterate(setC, m, canonical_point(setC.project(x0)), odd_step, cfg)
    if trace.reason == FIXED_POINT:
        _verify_fixed_point(setC, m, trace.final_even, cfg)
    return trace


def _verify_fixed_point(setC: SetOracle, m: RegularizedSet, even: Point,
                        cfg: InexactAPConfig) -> None:
    grad_scale = 1.0 + m.residual_gradient(even).norm()
    tol = max(MEMBERSHIP_TOL, 10.0 * cfg.fixed_point_tolerance * grad_scale)
    if not setC.contains(even, tol) or not m.contains(even, tol):
        raise FixedPointError(
            "fixed point verification failed: final iterate is not in both sets"
        )
