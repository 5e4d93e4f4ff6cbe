"""Alternating-projection loops, rate prediction, and rate measurement.

Three drivers share the same trace format: plain alternating projections
between two sets, an inexact variant that accepts externally produced odd
iterates subject to step-monotonicity and normal-alignment checks, and the
relaxed scheme for divergence balls whose odd step mixes the current iterate
with a projection onto the unregularized set.
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
    RayCone,
    SetOracle,
    TraceRecord,
    canonical_point,
    first_crossing,
    lerp,
)
from .divergences import RegularizedSet, bregman_line_boundary

SURFACE = "surface"
CONSTANT_ONE = "constant_one"
CUSTOM = "custom"
LAMBDA_SCHEDULES = (SURFACE, CONSTANT_ONE, CUSTOM)


class StepConditionError(RuntimeError):
    """No candidate odd iterate satisfied the step-monotonicity condition."""


class GammaConditionError(RuntimeError):
    """Strict verification of the normal-alignment residual failed."""


class RateMeasurementError(RuntimeError):
    """The trace does not support a tail rate fit."""


@dataclass
class InexactAPConfig:
    """Knobs shared by the iteration drivers.

    ``gamma`` bounds the admissible normal-alignment residual of inexact odd
    steps.  A run stops with reason ``fixed_point`` once both half-steps of a
    cycle fall below ``fixed_point_tolerance``; with ``stalled_gap`` when the
    even-iterate change falls below that tolerance while the even-odd gap
    exceeds ``gap_stall_factor`` times it and has been flat (relative change
    below ``gap_stall_rel_change``) over the last ``gap_stall_window``
    cycles; with ``tolerance_met`` when ``membership_tolerance`` is set and
    the even iterate lies in both sets within it; and with ``max_iter``
    otherwise.  ``strict_gamma`` turns a failed (or unverifiable) alignment
    check into an error instead of a trace annotation.
    """

    gamma: float = 0.0
    max_iterations: int = 1000
    fixed_point_tolerance: float = 1e-9
    gap_stall_window: int = 50
    gap_stall_rel_change: float = 1e-6
    gap_stall_factor: float = 10.0
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
        if self.gap_stall_rel_change <= 0 or self.gap_stall_factor <= 0:
            raise ValueError("stall thresholds must be positive")
        if self.lambda_schedule not in LAMBDA_SCHEDULES:
            raise ValueError(f"unknown lambda schedule {self.lambda_schedule!r}")
        if self.lambda_schedule == CUSTOM:
            seq = tuple(float(v) for v in (self.lambda_sequence or ()))
            if not seq or any(not 0.0 < v <= 1.0 for v in seq):
                raise ValueError("custom schedule needs relaxations in (0, 1]")
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


def measure_rate(trace: IterationTrace, tail_fraction: float = 0.5) -> float:
    """Per-half-step geometric decay fitted on the trailing step norms.

    Least-squares slope of the log half-step norms over the trailing
    ``tail_fraction`` of the chronological step sequence, exponentiated.
    Trailing exact zeros (iterates that arrived on the set and stopped
    moving) are trimmed before fitting.  Raises
    :class:`RateMeasurementError` on stalled traces, on tails shorter than
    10 steps, and on nonpositive tail entries.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if trace.reason == STALLED_GAP:
        raise RateMeasurementError("nonconvergent tail: trace stalled")
    seq = trace.step_sequence()
    while seq.size and seq[-1] == 0.0:
        seq = seq[:-1]
    tail = seq[len(seq) - int(math.ceil(tail_fraction * len(seq))):]
    if tail.size < 10:
        raise RateMeasurementError(f"tail has {tail.size} steps; need at least 10")
    if np.any(tail <= 0):
        raise RateMeasurementError("nonpositive step norms in the tail")
    slope = np.polyfit(np.arange(tail.size), np.log(tail), 1)[0]
    return float(np.exp(slope))


class _StallDetector:
    def __init__(self, cfg: InexactAPConfig):
        self.window = cfg.gap_stall_window
        self.rel_change = cfg.gap_stall_rel_change
        self.floor = cfg.gap_stall_factor * cfg.fixed_point_tolerance
        self.even_tol = cfg.fixed_point_tolerance
        self.gaps: deque[float] = deque(maxlen=cfg.gap_stall_window + 1)

    def update(self, gap: float, even_change: float) -> bool:
        self.gaps.append(gap)
        if len(self.gaps) <= self.window:
            return False
        rel = abs(gap - self.gaps[0]) / max(abs(gap), 1e-300)
        return rel < self.rel_change and gap > self.floor and even_change <= self.even_tol


def _terminate(trace: IterationTrace, cfg: InexactAPConfig, setC: SetOracle,
               setM_contains: Callable[[Point, float], bool] | None,
               step: float, gap: float, even: Point, even_change: float,
               stall: _StallDetector) -> str | None:
    if max(step, gap) <= cfg.fixed_point_tolerance:
        return FIXED_POINT
    if cfg.membership_tolerance is not None and setM_contains is not None:
        mtol = cfg.membership_tolerance
        if setC.contains(even, mtol) and setM_contains(even, mtol):
            return TOLERANCE_MET
    if stall.update(gap, even_change):
        return STALLED_GAP
    return None


def exact_alternating_projections(setC: SetOracle, setM: SetOracle, x0: Point,
                                  cfg: InexactAPConfig | None = None) -> IterationTrace:
    """Alternating exact projections starting from P_C(x0).

    Cycle k computes the even iterate by projecting onto the first set and
    the odd iterate by projecting onto the second; multivalued projections
    are resolved lexicographically.
    """
    cfg = cfg or InexactAPConfig()
    trace = IterationTrace()
    stall = _StallDetector(cfg)

    even = canonical_point(setC.project(x0))
    odd = canonical_point(setM.project(even))
    gap = even.distance(odd)
    trace.append(TraceRecord(0, even, odd, math.nan, gap,
                             setM.membership_residual(odd), math.nan, math.nan))
    prev_even, prev_odd = even, odd

    for k in range(1, cfg.max_iterations + 1):
        even = canonical_point(setC.project(prev_odd))
        step = even.distance(prev_odd)
        odd = canonical_point(setM.project(even))
        gap = even.distance(odd)
        even_change = even.distance(prev_even)
        trace.append(TraceRecord(k, even, odd, step, gap,
                                 setM.membership_residual(odd), math.nan, math.nan,
                                 accepted=gap <= step * (1 + 1e-12) + 1e-15))
        reason = _terminate(trace, cfg, setC, setM.contains, step, gap, even,
                            even_change, stall)
        if reason:
            return trace.finish(reason)
        prev_even, prev_odd = even, odd
    return trace.finish(MAX_ITER)


def _segment_entry(contains: Callable[[Point], bool], start: Point, end: Point) -> Point:
    """First member of the segment from start to end; end must be a member."""
    if contains(start):
        return start
    t = first_crossing(lambda s: contains(lerp(start, end, s)))
    return lerp(start, end, t)


def inexact_alternating_projections(setC: SetOracle,
                                    approx_m: Callable[[Point], Point | Sequence[Point]],
                                    m_oracle: SetOracle | None,
                                    x0: Point, x1: Point,
                                    cfg: InexactAPConfig | None = None) -> IterationTrace:
    """Alternating projections with externally supplied odd iterates.

    ``approx_m`` maps an even iterate to one or more candidate odd iterates
    lying in the second set.  The first candidate whose step is no longer
    than the previous half-step is accepted; if none qualifies the run fails
    with :class:`StepConditionError`.  When ``m_oracle`` is supplied the
    driver also enforces the fixed-point rule (an even iterate already in the
    set maps to itself) and measures the alignment residual: the distance
    from the normalized step direction to the set's normal cone at the first
    point where the ray from the even iterate through the odd one enters the
    set.  Without an oracle those checks are recorded as unverified (NaN)
    unless ``strict_gamma`` demands them.
    """
    cfg = cfg or InexactAPConfig()
    trace = IterationTrace()
    stall = _StallDetector(cfg)

    even, odd = x0, x1
    gap = even.distance(odd)
    res = m_oracle.membership_residual(odd) if m_oracle is not None else math.nan
    trace.append(TraceRecord(0, even, odd, math.nan, gap, res, math.nan, math.nan))
    prev_even, prev_odd = even, odd

    contains = m_oracle.contains if m_oracle is not None else None

    for k in range(1, cfg.max_iterations + 1):
        even = canonical_point(setC.project(prev_odd))
        step = even.distance(prev_odd)

        gamma_meas = math.nan
        if m_oracle is not None and m_oracle.contains(even):
            odd = even
            gamma_meas = 0.0
        else:
            cands = approx_m(even)
            if isinstance(cands, Point):
                cands = [cands]
            odd = None
            for cand in cands:
                if even.distance(cand) <= step * (1 + 1e-12) + 1e-15:
                    odd = cand
                    break
            if odd is None:
                raise StepConditionError(
                    f"cycle {k}: no candidate step within the previous half-step "
                    f"{step:.6g}"
                )
            if m_oracle is not None and cfg.measure_gamma:
                gamma_meas = _alignment_residual(m_oracle, even, odd)
        if cfg.strict_gamma:
            if math.isnan(gamma_meas):
                raise GammaConditionError(
                    "strict verification requested but no normal-cone oracle is available"
                )
            if gamma_meas > cfg.gamma + 1e-12:
                raise GammaConditionError(
                    f"cycle {k}: alignment residual {gamma_meas:.6g} exceeds "
                    f"gamma = {cfg.gamma:.6g}"
                )

        gap = even.distance(odd)
        res = m_oracle.membership_residual(odd) if m_oracle is not None else math.nan
        even_change = even.distance(prev_even)
        trace.append(TraceRecord(k, even, odd, step, gap, res, gamma_meas, math.nan,
                                 accepted=gap <= step * (1 + 1e-12) + 1e-15))
        reason = _terminate(trace, cfg, setC, contains, step, gap, even,
                            even_change, stall)
        if reason:
            return trace.finish(reason)
        prev_even, prev_odd = even, odd
    return trace.finish(MAX_ITER)


def _alignment_residual(m_oracle: SetOracle, even: Point, odd: Point) -> float:
    gap = even.distance(odd)
    if gap == 0.0:
        return 0.0
    zhat = Point((even.data - odd.data) / gap, even.kind)
    star = _segment_entry(lambda p: m_oracle.contains(p), even, odd)
    try:
        cone = m_oracle.normal_cone_at(star)
    except NormalConeUnavailableError:
        return math.nan
    return cone.distance(zhat.data)


def regularized_extrapolated_ap(setC: SetOracle, m: RegularizedSet,
                                unregularized: SetOracle, x0: Point,
                                cfg: InexactAPConfig | None = None) -> IterationTrace:
    """Alternating projections against a divergence ball with relaxed odd steps.

    The odd iterate is ``(1 - lam) * even + lam * anchor`` where the anchor
    is a projection onto the unregularized set.  The ``surface`` schedule
    takes ``lam`` just large enough to enter the ball, pinning odd iterates
    to its boundary; ``constant_one`` always jumps to the anchor, which is a
    ball member; a ``custom`` sequence is replayed as given (last value
    repeated).  An even iterate already inside the ball makes the odd step
    the identity, so runs terminate finitely once the iterates reach the
    ball's interior.  On ``fixed_point`` termination the final even iterate
    is verified to lie in both sets.
    """
    cfg = cfg or InexactAPConfig()
    trace = IterationTrace()
    stall = _StallDetector(cfg)

    def odd_step(even: Point, k: int) -> tuple[Point, float, float, float]:
        res_even = m.residual(even)
        if res_even <= m.epsilon + MEMBERSHIP_TOL:
            return even, 0.0, 0.0, res_even
        anchor = canonical_point(unregularized.project(even))
        boundary = None
        if cfg.lambda_schedule == SURFACE:
            tau, boundary = bregman_line_boundary(m, even, anchor)
            lam, odd = tau, boundary
        else:
            if cfg.lambda_schedule == CONSTANT_ONE:
                lam = 1.0
            else:
                seq = cfg.lambda_sequence
                lam = seq[min(k, len(seq) - 1)]
            odd = lerp(even, anchor, lam)
        gamma_meas = math.nan
        if cfg.measure_gamma:
            if boundary is None:
                _, boundary = bregman_line_boundary(m, even, anchor)
            gamma_meas = _ball_alignment(m, even, odd, boundary)
        return odd, lam, gamma_meas, m.residual(odd)

    even = canonical_point(setC.project(x0))
    odd, lam, gamma_meas, res = odd_step(even, 0)
    gap = even.distance(odd)
    trace.append(TraceRecord(0, even, odd, math.nan, gap, res, gamma_meas, lam))
    prev_even, prev_odd = even, odd

    m_contains = lambda p, tol: m.contains(p, tol)
    for k in range(1, cfg.max_iterations + 1):
        even = canonical_point(setC.project(prev_odd))
        step = even.distance(prev_odd)
        odd, lam, gamma_meas, res = odd_step(even, k)
        gap = even.distance(odd)
        even_change = even.distance(prev_even)
        trace.append(TraceRecord(k, even, odd, step, gap, res, gamma_meas, lam,
                                 accepted=gap <= step * (1 + 1e-12) + 1e-15))
        reason = _terminate(trace, cfg, setC, m_contains, step, gap, even,
                            even_change, stall)
        if reason:
            if reason == FIXED_POINT:
                _verify_fixed_point(setC, m, even, cfg)
            return trace.finish(reason)
        prev_even, prev_odd = even, odd
    return trace.finish(MAX_ITER)


def _ball_alignment(m: RegularizedSet, even: Point, odd: Point, boundary: Point) -> float:
    gap = even.distance(odd)
    if gap == 0.0:
        return 0.0
    zhat = (even.data - odd.data) / gap
    grad = m.residual_gradient(boundary)
    if grad.norm() <= 1e-14:
        return math.nan
    return RayCone(grad.data).distance(zhat)


def _verify_fixed_point(setC: SetOracle, m: RegularizedSet, even: Point,
                        cfg: InexactAPConfig) -> None:
    grad_scale = 1.0 + m.residual_gradient(even).norm()
    tol = max(MEMBERSHIP_TOL, 10.0 * cfg.fixed_point_tolerance * grad_scale)
    if not setC.contains(even, tol) or not m.contains(even, tol):
        raise RuntimeError(
            "fixed point verification failed: final iterate is not in both sets"
        )
