"""The four benchmark workloads: generated inputs and per-entry output checks.

Every workload is a list of jobs.  A job is one ``regap run`` call on a
config generated here from the workload seed; a sweep job holds several
entries (one per instance seed), a single-seed job holds one.  ``regap``
receives only the generated config text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

TRACE_HEADER = "k,step_norm,gap,residual,gamma,lambda,reason"
CONVERGED_REASONS = ("fixed_point", "tolerance_met")
# Absolute floor of regap's membership tests (core.MEMBERSHIP_TOL).
MEMBERSHIP_TOL = 1e-9
# Slack for comparisons that hold exactly in real arithmetic.
ROUNDOFF = 1e-12

PHASE_64 = """\
problem = phase_retrieval
algorithm = regularized_extrapolated
object = smooth
shape = 64, 64
photon_scale = 1e3
epsilon_kappa = 1
measure_gamma = false
max_iter = 300
jobs = 1
"""

LINES = """\
problem = two_subspaces
algorithm = inexact_ap
theta = pi/8
phi = pi/16
jobs = 1
"""

BOX = """\
problem = box_affine
algorithm = regularized_extrapolated
lambda_schedule = surface
n = 40
m = 20
epsilon_kappa = 1
jobs = 1
"""


@dataclass(frozen=True)
class Job:
    """One ``regap run`` call: its config text and the seeds of its entries."""

    name: str
    config: str
    seeds: tuple[int, ...]

    def entry_dirs(self, out):
        """Output directory of each entry, in seed order."""
        if len(self.seeds) == 1:
            return [out]
        return [out / f"seed{s}" for s in self.seeds]


def _check_phase_surface(s: dict) -> list[str]:
    # A few instances in a hundred need more than max_iter = 300 cycles; like the
    # box workload's stalled_gap, that outcome is recorded (converged_frac), not
    # failed.  A claimed fixed point must lie in the ball.
    problems = []
    if s.get("reason") not in ("fixed_point", "max_iter"):
        problems.append(f"reason {s.get('reason')!r}, expected fixed_point or max_iter")
    # regap's own boundary band for KL balls: max(MEMBERSHIP_TOL, 1e-6 * epsilon)
    tol = max(MEMBERSHIP_TOL, 1e-6 * float(s.get("epsilon") or 0.0))
    if s.get("reason") == "fixed_point" and not float(s.get("residual_data", math.inf)) <= tol:
        problems.append(f"residual_data {s.get('residual_data')} above {tol:.3g}")
    if not math.isfinite(float(s.get("aligned_error") or math.nan)):
        problems.append("aligned_error missing")
    return problems


def _check_phase_extrap(s: dict) -> list[str]:
    problems = []
    if s.get("reason") != "fixed_point":
        problems.append(f"reason {s.get('reason')!r}, expected fixed_point")
    if s.get("interior") is not True:
        problems.append("final iterate not interior")
    if not math.isfinite(float(s.get("aligned_error") or math.nan)):
        problems.append("aligned_error missing")
    return problems


def _check_lines(s: dict) -> list[str]:
    measured, predicted = s.get("measured_rate"), s.get("predicted_rate")
    if measured is None or predicted is None:
        return [f"rates missing (measured {measured}, predicted {predicted})"]
    problems = []
    if not measured <= predicted + ROUNDOFF:
        problems.append(f"measured rate {measured} exceeds predicted {predicted}")
    gamma_max, bound = s.get("gamma_max"), math.sin(math.pi / 16)
    if gamma_max is None or not gamma_max <= bound + ROUNDOFF:
        problems.append(f"gamma_max {gamma_max} exceeds sin(phi) = {bound}")
    return problems


def _check_box(s: dict) -> list[str]:
    # Every entry currently ends stalled_gap; that outcome is recorded, not checked.
    if not abs(float(s.get("residual_constraint", math.inf))) <= MEMBERSHIP_TOL:
        return [f"residual_constraint {s.get('residual_constraint')} above tolerance"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: Callable[[int], list[Job]]
    check: Callable[[dict], list[str]]
    # Unit of work of the gated throughput: "cycles" (summary iterations) where
    # cost follows the cycle count, "entries" where per-entry work dominates.
    work: str
    # per-layer metrics that must be non-zero / zero in a traced run
    fires: tuple[str, ...] = ()
    silent: tuple[str, ...] = ()


def instance_seeds(seed: int, count: int) -> tuple[int, ...]:
    """Distinct instance seeds drawn from the workload seed.

    All workloads draw from the same stream, so the surface and the
    extrapolated phase workloads of one seed share their first instances.
    """
    return tuple(random.Random(seed).sample(range(1_000_000), count))


SURFACE_INSTANCES = 8
SWEEP_ENTRIES = 8


def _phase_surface_jobs(seed: int) -> list[Job]:
    return [Job(f"seed{s}", PHASE_64 + "lambda_schedule = surface\n" + f"seed = {s}\n", (s,))
            for s in instance_seeds(seed, SURFACE_INSTANCES)]


def _sweep(base: str, count: int) -> Callable[[int], list[Job]]:
    def make(seed: int) -> list[Job]:
        seeds = instance_seeds(seed, count)
        return [Job("sweep", base + "seed = " + ", ".join(map(str, seeds)) + "\n", seeds)]
    return make


_PHASE_LAYERS = (
    "divergences.residual.calls", "divergences.kernel.s", "divergences.forward.calls",
    "divergences.fft.calls", "divergences.fft.bytes_computed",
    "projectors.fourier_magnitude.calls", "projectors.support_nonneg.calls",
    "projectors.membership.calls", "algorithms.cycles", "algorithms.driver.self_s",
    "phase.aligned_error.calls", "phase.aligned_error.s", "phase.synthesize.s",
    "phase.interiority.s", "phase.export.s", "phase.export.bytes",
    "core.point.count", "core.trace.records", "core.trace.write_s", "core.trace.bytes",
    "cli.self_s",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        "phase_surface_64",
        "64x64 phase retrieval, surface schedule, 8 single-seed runs: one boundary solve "
        "per cycle, the FFT and KL hot path",
        _phase_surface_jobs, _check_phase_surface, "cycles",
        fires=_PHASE_LAYERS + (
            "divergences.boundary.calls", "divergences.boundary.s",
            "divergences.boundary.self_s", "core.first_crossing.calls",
            "core.first_crossing.evals", "core.first_crossing.self_s", "core.lerp.count",
            "algorithms.measure_rate.s", "divergences.residual_gradient.calls"),
    ),
    Workload(
        "phase_extrap_sweep_64",
        "same phase family, constant_one sweep: 5-7 cycles per entry, boundary solve "
        "bypassed (control); aligned_error and artifacts dominate",
        _sweep(PHASE_64 + "lambda_schedule = constant_one\n", SWEEP_ENTRIES), _check_phase_extrap,
        "entries",
        fires=_PHASE_LAYERS + ("cli.comparison.s",),
        silent=("divergences.boundary.calls", "core.first_crossing.calls"),
    ),
    Workload(
        "lines_inexact_sweep",
        "planted two-line pair, inexact AP sweep with the rate-law check: no FFT, "
        "per-cycle Python overhead of core and the driver",
        _sweep(LINES, SWEEP_ENTRIES), _check_lines, "cycles",
        fires=("core.first_crossing.calls", "core.first_crossing.evals",
               "core.first_crossing.self_s", "core.point.count", "core.lerp.count",
               "projectors.affine.calls", "projectors.membership.calls",
               "projectors.normal_cone.calls", "algorithms.cycles", "algorithms.driver.self_s",
               "algorithms.measure_rate.s", "regularity.cbar.s", "problems.build.s",
               "core.trace.records", "cli.self_s", "cli.comparison.s"),
        silent=("divergences.fft.calls", "divergences.boundary.calls"),
    ),
    Workload(
        "box_affine_sweep",
        "box-affine surface sweep: generic scan+bisection boundary solve with a cheap "
        "SquareMap/Euclidean residual, stall-detector exit",
        _sweep(BOX, SWEEP_ENTRIES), _check_box, "cycles",
        fires=("divergences.boundary.calls", "divergences.boundary.self_s",
               "divergences.residual.calls", "divergences.kernel.s",
               "divergences.forward.calls", "divergences.residual_gradient.calls",
               "core.first_crossing.calls", "core.first_crossing.evals", "core.point.count",
               "core.lerp.count", "projectors.affine.calls", "projectors.box_magnitude.calls",
               "projectors.membership.calls", "algorithms.cycles", "algorithms.driver.self_s",
               "problems.build.s", "phase.interiority.s", "cli.comparison.s"),
        silent=("divergences.fft.calls",),
    ),
)}
