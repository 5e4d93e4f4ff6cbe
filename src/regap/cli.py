"""Command-line front end: configure, run, and compare experiments.

Verbs
-----
``regap run --config FILE``
    Execute one experiment (or a sweep) and write traces plus summaries.
``regap report RUNDIR [RUNDIR ...]``
    Collect completed runs into a long-format comparison table.
``regap synth --out FILE``
    Generate and save a synthetic phase-retrieval instance.

Config files are plain ``key = value`` text: ``#`` starts a comment, keys are
case-insensitive, and commas turn the sweepable keys (``epsilon``,
``epsilon_kappa``, ``seed``) into sweep lists.  Angle-valued keys accept
``pi`` expressions such as ``pi/3`` or ``0.4*pi``.  Command-line flags
override file keys.  Exit codes: 0 success, 2 invalid configuration or
usage, 3 solver failure, 4 input/output failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from . import problems
from .algorithms import (CONSTANT_ONE, CUSTOM, SURFACE, InexactAPConfig,
                         RateMeasurementError, exact_alternating_projections,
                         inexact_alternating_projections, measure_rate, predict_rate,
                         regularized_extrapolated_ap)
from .core import (COMPLEX, FIXED_POINT, TOLERANCE_MET, IterationTrace, Point, SolverError,
                   atomic_open, null_space)
from .divergences import EuclideanKernel, LinearMap, RegularizedSet
from .phase import (PhaseInstance, aligned_error, box_support, cup_object,
                    divergence_ball, export_grid, interiority_check, load_instance,
                    loose_support, reconstruct, save_instance, smooth_object,
                    synthesize)
from .projectors import FourierMagnitudeSet, SupportNonnegSet
from .regularity import cbar_subspaces

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

PROBLEMS = ("two_subspaces", "parallel_lines", "box_affine", "phase_retrieval", "custom")
ALGORITHMS = ("exact_ap", "inexact_ap", "regularized_extrapolated")
SUPPORTED = {
    ("two_subspaces", "exact_ap"),
    ("two_subspaces", "inexact_ap"),
    ("two_subspaces", "regularized_extrapolated"),
    ("parallel_lines", "exact_ap"),
    ("parallel_lines", "regularized_extrapolated"),
    ("box_affine", "exact_ap"),
    ("box_affine", "regularized_extrapolated"),
    ("phase_retrieval", "exact_ap"),
    ("phase_retrieval", "regularized_extrapolated"),
    ("custom", "exact_ap"),
    ("custom", "regularized_extrapolated"),
}
SCHEDULES = (SURFACE, CONSTANT_ONE, CUSTOM)
OBJECTS = ("cup", "random", "smooth")
CONVERGED_REASONS = (FIXED_POINT, TOLERANCE_MET)


class ConfigError(Exception):
    """Invalid configuration: bad grammar, unknown key, or bad combination."""


class IOFailure(Exception):
    """Unreadable, missing, or corrupt input/output artifact."""


# ---------------------------------------------------------------------------
# Config parsing

def parse_scalar(text: str) -> float:
    """Parse a float, allowing products with ``pi`` and a single division."""
    t = text.strip().lower()
    try:
        if "pi" not in t:
            return float(t)
        num, _, den = t.partition("/")
        value = 1.0
        for factor in num.split("*"):
            factor = factor.strip()
            value *= math.pi if factor == "pi" else float(factor)
        if den:
            den = den.strip()
            value /= math.pi if den == "pi" else float(den)
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse number {text!r}: {exc}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"cannot parse integer {text!r}") from None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def _parse_choice(text: str, options: tuple[str, ...], key: str) -> str:
    t = text.strip().lower()
    if t not in options:
        raise ConfigError(f"{key} must be one of {', '.join(options)}; got {text!r}")
    return t


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ConfigError(f"empty value list {text!r}")
    return tuple(parse_scalar(p) for p in parts)


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ConfigError(f"empty value list {text!r}")
    return tuple(_parse_int(p) for p in parts)


def _parse_shape(text: str) -> tuple[int, int]:
    values = _parse_int_list(text)
    if len(values) != 2 or min(values) < 2:
        raise ConfigError(f"shape must be two integers >= 2, got {text!r}")
    return values


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a string mapping."""
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in data:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        data[key] = value
    return data


@dataclass
class ExperimentConfig:
    """Validated experiment description; sweepable keys hold value lists."""

    problem: str
    algorithm: str
    out: str = "runs"
    seeds: tuple[int, ...] = (0,)
    epsilons: tuple[float, ...] | None = None
    epsilon_kappas: tuple[float, ...] | None = None
    gamma: float = 0.0
    theta: float | None = None
    phi: float | None = None
    dim: int = 2
    dim_u: int | None = None
    dim_v: int | None = None
    gap: float = 1.0
    n: int = 12
    m: int = 8
    noise: float = 0.05
    shape: tuple[int, int] = (32, 32)
    photon_scale: float = 1e4
    margin: int = 2
    object_kind: str = "cup"
    n_restarts: int = 1
    lambda_schedule: str = SURFACE
    lambda_values: tuple[float, ...] | None = None
    max_iter: int = 1000
    fixed_point_tolerance: float = 1e-7
    membership_tolerance: float | None = None
    measure_gamma: bool = True
    jobs: int = 1
    instance: str | None = None
    provided: frozenset = field(default_factory=frozenset, compare=False)

    def _forbid(self, key: str, why: str) -> None:
        if key in self.provided:
            raise ConfigError(f"key {key!r} is only meaningful {why}")

    def validate(self) -> None:
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem must be one of {', '.join(PROBLEMS)}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {', '.join(ALGORITHMS)}")
        if (self.problem, self.algorithm) not in SUPPORTED:
            raise ConfigError(
                f"algorithm {self.algorithm!r} is not supported for problem {self.problem!r}")
        if self.max_iter < 1 or self.jobs < 1 or self.n_restarts < 1:
            raise ConfigError("max_iter, jobs, and n_restarts must be positive")
        if self.fixed_point_tolerance <= 0:
            raise ConfigError("fixed_point_tolerance must be positive")
        if self.membership_tolerance is not None and self.membership_tolerance <= 0:
            raise ConfigError("membership_tolerance must be positive")
        if not 0 <= self.gamma < 1:
            raise ConfigError("gamma must lie in [0, 1)")

        regularized = self.algorithm == "regularized_extrapolated"
        if not regularized:
            for key in ("epsilon", "epsilon_kappa", "lambda_schedule", "lambda_values"):
                self._forbid(key, "for algorithm regularized_extrapolated")
        else:
            if self.lambda_schedule not in SCHEDULES:
                raise ConfigError(f"lambda_schedule must be one of {', '.join(SCHEDULES)}")
            if self.lambda_schedule == CUSTOM and not self.lambda_values:
                raise ConfigError("lambda_schedule custom requires lambda_values")
            if self.lambda_schedule != CUSTOM and self.lambda_values:
                raise ConfigError("lambda_values requires lambda_schedule = custom")
            if self.lambda_values is not None and any(
                    not 0 < v <= 1 for v in self.lambda_values):
                raise ConfigError("lambda_values must lie in (0, 1]")
            self._check_epsilon_keys()

        if self.problem != "two_subspaces":
            for key in ("theta", "dim", "dim_u", "dim_v"):
                self._forbid(key, "for problem two_subspaces")
        else:
            self._validate_two_subspaces()
        if self.algorithm != "inexact_ap":
            self._forbid("phi", "for algorithm inexact_ap")
        if self.problem != "parallel_lines":
            self._forbid("gap", "for problem parallel_lines")
        elif self.gap < 0:
            raise ConfigError("gap must be nonnegative")
        if self.problem != "box_affine":
            for key in ("n", "m", "noise"):
                self._forbid(key, "for problem box_affine")
        elif not 0 < self.m < self.n:
            raise ConfigError("box_affine needs 0 < m < n")
        if self.problem != "phase_retrieval":
            for key in ("shape", "photon_scale", "margin", "object"):
                self._forbid(key, "for problem phase_retrieval")
        elif self.photon_scale <= 0:
            raise ConfigError("photon_scale must be positive")
        if self.problem != "custom":
            self._forbid("instance", "for problem custom")
        elif not self.instance:
            raise ConfigError("problem custom requires an instance file path")
        if self.problem not in ("phase_retrieval", "custom"):
            self._forbid("n_restarts", "for phase problems")

    def _check_epsilon_keys(self) -> None:
        has_eps = self.epsilons is not None
        has_kappa = self.epsilon_kappas is not None
        if self.problem in ("two_subspaces", "parallel_lines"):
            if has_kappa:
                raise ConfigError(
                    f"epsilon_kappa is not defined for problem {self.problem!r}; use epsilon")
            if not has_eps:
                raise ConfigError("regularized_extrapolated requires epsilon")
            if any(e <= 0 for e in self.epsilons):
                raise ConfigError("epsilon must be positive for this problem")
        elif self.problem == "box_affine":
            if has_eps:
                raise ConfigError("box_affine derives epsilon from the noise level; "
                                  "use epsilon_kappa")
            if not has_kappa:
                raise ConfigError("box_affine regularized runs require epsilon_kappa")
            if any(k <= 0 for k in self.epsilon_kappas):
                raise ConfigError("epsilon_kappa must be positive")
        else:  # phase_retrieval, custom
            if has_eps == has_kappa:
                raise ConfigError("phase runs require exactly one of epsilon or epsilon_kappa")
            values = self.epsilons if has_eps else self.epsilon_kappas
            if any(v < 0 for v in values):
                raise ConfigError("epsilon and epsilon_kappa must be nonnegative")

    def _validate_two_subspaces(self) -> None:
        random_pair = self.dim_u is not None or self.dim_v is not None
        if random_pair:
            if self.dim_u is None or self.dim_v is None:
                raise ConfigError("give both dim_u and dim_v for random subspaces")
            if "theta" in self.provided:
                raise ConfigError("theta and dim_u/dim_v are mutually exclusive")
            if not (0 < self.dim_u < self.dim and 0 < self.dim_v < self.dim):
                raise ConfigError("need 0 < dim_u, dim_v < dim")
            if self.algorithm == "inexact_ap":
                raise ConfigError("inexact_ap needs the planted-angle instance (theta)")
        else:
            theta = self.theta if self.theta is not None else math.pi / 3
            if not 0 < theta < math.pi / 2:
                raise ConfigError("theta must lie strictly between 0 and pi/2")
            if self.algorithm == "inexact_ap":
                if self.phi is None:
                    raise ConfigError("inexact_ap requires phi (projection slide angle)")
                if not 0 <= self.phi < theta:
                    raise ConfigError("phi must satisfy 0 <= phi < theta")
        if self.dim < 2:
            raise ConfigError("dim must be at least 2")


_KEY_PARSERS = {
    "problem": lambda t: _parse_choice(t, PROBLEMS, "problem"),
    "algorithm": lambda t: _parse_choice(t, ALGORITHMS, "algorithm"),
    "out": lambda t: t,
    "seed": _parse_int_list,
    "epsilon": _parse_float_list,
    "epsilon_kappa": _parse_float_list,
    "gamma": parse_scalar,
    "theta": parse_scalar,
    "phi": parse_scalar,
    "dim": _parse_int,
    "dim_u": _parse_int,
    "dim_v": _parse_int,
    "gap": parse_scalar,
    "n": _parse_int,
    "m": _parse_int,
    "noise": parse_scalar,
    "shape": _parse_shape,
    "photon_scale": parse_scalar,
    "margin": _parse_int,
    "object": lambda t: _parse_choice(t, OBJECTS, "object"),
    "n_restarts": _parse_int,
    "lambda_schedule": lambda t: _parse_choice(t, SCHEDULES, "lambda_schedule"),
    "lambda_values": _parse_float_list,
    "max_iter": _parse_int,
    "fixed_point_tolerance": parse_scalar,
    "membership_tolerance": parse_scalar,
    "measure_gamma": _parse_bool,
    "jobs": _parse_int,
    "instance": lambda t: t,
}
_FIELD_NAMES = {
    "seed": "seeds",
    "epsilon": "epsilons",
    "epsilon_kappa": "epsilon_kappas",
    "object": "object_kind",
}


def config_from_mapping(data: dict[str, str]) -> ExperimentConfig:
    """Type-check a raw key mapping and build a validated config."""
    unknown = sorted(set(data) - set(_KEY_PARSERS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}; "
                          f"valid keys: {', '.join(sorted(_KEY_PARSERS))}")
    for required in ("problem", "algorithm"):
        if required not in data:
            raise ConfigError(f"missing required key {required!r}")
    kwargs = {}
    for key, raw in data.items():
        kwargs[_FIELD_NAMES.get(key, key)] = _KEY_PARSERS[key](raw)
    cfg = ExperimentConfig(**kwargs, provided=frozenset(data))
    cfg.validate()
    return cfg


def load_config(path, overrides: dict[str, str]) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IOFailure(f"cannot read config file {path}: {exc}") from None
    data = parse_config_text(text, source=str(path))
    data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_mapping(data)


# ---------------------------------------------------------------------------
# Run execution

def _label_num(v) -> str:
    return format(v, "g")


@dataclass
class RunEntry:
    label: str | None
    epsilon: float | None
    epsilon_kappa: float | None
    seed: int


def sweep_entries(cfg: ExperimentConfig) -> list[RunEntry]:
    eps_values = cfg.epsilons if cfg.epsilons is not None else (None,)
    kappa_values = cfg.epsilon_kappas if cfg.epsilon_kappas is not None else (None,)
    combos = list(product(eps_values, kappa_values, cfg.seeds))
    sweeping = len(combos) > 1
    entries = []
    for eps, kappa, seed in combos:
        parts = []
        if eps is not None and len(eps_values) > 1:
            parts.append(f"eps{_label_num(eps)}")
        if kappa is not None and len(kappa_values) > 1:
            parts.append(f"kap{_label_num(kappa)}")
        if len(cfg.seeds) > 1:
            parts.append(f"seed{seed}")
        label = "_".join(parts) if sweeping else None
        entries.append(RunEntry(label=label, epsilon=eps, epsilon_kappa=kappa, seed=seed))
    return entries


def _algorithm_config(cfg: ExperimentConfig) -> InexactAPConfig:
    return InexactAPConfig(
        gamma=cfg.gamma,
        max_iterations=cfg.max_iter,
        fixed_point_tolerance=cfg.fixed_point_tolerance,
        membership_tolerance=cfg.membership_tolerance,
        lambda_schedule=cfg.lambda_schedule,
        lambda_sequence=list(cfg.lambda_values) if cfg.lambda_values else None,
        measure_gamma=cfg.measure_gamma,
    )


def _philox(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _max_measured_gamma(trace: IterationTrace) -> float | None:
    values = [r.gamma for r in trace.records if math.isfinite(r.gamma)]
    return max(values) if values else None


def _try_measure_rate(trace: IterationTrace) -> float | None:
    try:
        return measure_rate(trace)
    except RateMeasurementError:
        return None


def _try_predict(c_bar: float | None, gamma: float, prox_regular: bool = True):
    if c_bar is None:
        return None, None
    try:
        pred = predict_rate(c_bar, gamma, m_prox_regular=prox_regular)
    except ValueError:
        return None, None
    return pred.eta, pred.r_linear_rate


def _run_two_subspaces(cfg: ExperimentConfig, entry: RunEntry, acfg: InexactAPConfig,
                       rng: np.random.Generator) -> tuple[IterationTrace, dict]:
    if cfg.dim_u is not None:
        setC, setM = problems.two_subspaces(cfg.dim, cfg.dim_u, cfg.dim_v, entry.seed)
    else:
        theta = cfg.theta if cfg.theta is not None else math.pi / 3
        setC, setM = problems.two_lines(theta, cfg.dim)
    estimate = cbar_subspaces(null_space(setC.matrix), null_space(setM.matrix))
    start = Point(rng.standard_normal(setC.dim))
    gamma_pred = cfg.gamma

    m = None
    if cfg.algorithm == "exact_ap":
        trace = exact_alternating_projections(setC, setM, start, acfg)
    elif cfg.algorithm == "inexact_ap":
        oracle = problems.PerturbedLineOracle(setM, cfg.phi)
        even = setC.project_one(start)
        odd = oracle.project(even)[0]
        trace = inexact_alternating_projections(setC, oracle.project, setM, even, odd, acfg)
        gamma_pred = max(cfg.gamma, math.sin(cfg.phi))
    else:
        m = RegularizedSet(LinearMap(setM.matrix), np.zeros(len(setM.matrix)),
                           EuclideanKernel(), entry.epsilon)
        trace = regularized_extrapolated_ap(setC, m, setM, start, acfg)
    eta, rate = _try_predict(estimate.c_bar, gamma_pred)
    extras = {
        "c_bar": estimate.c_bar,
        "eta": eta,
        "predicted_rate": rate,
        "residual_constraint": setC.membership_residual(trace.final_even),
        "residual_data": setM.membership_residual(trace.final_even),
    }
    if m is not None:
        extras["residual_data"] = max(m.residual(trace.final_even) - entry.epsilon, 0.0)
        extras["interior"] = interiority_check(m, trace.final_even)
    return trace, extras


def _run_parallel_lines(cfg: ExperimentConfig, entry: RunEntry, acfg: InexactAPConfig,
                        rng: np.random.Generator) -> tuple[IterationTrace, dict]:
    start = Point(rng.standard_normal(2))
    if cfg.algorithm == "exact_ap":
        setC, setM = problems.parallel_lines(cfg.gap)
        trace = exact_alternating_projections(setC, setM, start, acfg)
        data_res = setM.membership_residual(trace.final_even)
        extras = {}
    else:
        setC, fat, line = problems.slab_problem(cfg.gap, entry.epsilon)
        trace = regularized_extrapolated_ap(setC, fat, line, start, acfg)
        data_res = max(fat.residual(trace.final_even) - entry.epsilon, 0.0)
        extras = {"interior": interiority_check(fat, trace.final_even)}
    extras.update({
        "c_bar": None,
        "predicted_rate": None,
        "residual_constraint": setC.membership_residual(trace.final_even),
        "residual_data": data_res,
    })
    return trace, extras


def _run_box_affine(cfg: ExperimentConfig, entry: RunEntry, acfg: InexactAPConfig,
                    rng: np.random.Generator) -> tuple[IterationTrace, dict]:
    if cfg.algorithm == "exact_ap":
        affine, box, xbar = problems.box_affine(cfg.n, cfg.m, entry.seed)
        start = Point(rng.standard_normal(cfg.n))
        trace = exact_alternating_projections(affine, box, start, acfg)
        data_res = box.membership_residual(trace.final_even)
        epsilon = None
        extras = {}
    else:
        affine, fat, anchor, xbar, epsilon = problems.box_affine_regularized(
            cfg.n, cfg.m, cfg.noise, entry.epsilon_kappa, entry.seed)
        start = Point(rng.standard_normal(cfg.n))
        trace = regularized_extrapolated_ap(affine, fat, anchor, start, acfg)
        data_res = max(fat.residual(trace.final_even) - epsilon, 0.0)
        extras = {"interior": interiority_check(fat, trace.final_even)}
    extras.update({
        "c_bar": None,
        "predicted_rate": None,
        "epsilon": epsilon,
        "residual_constraint": affine.membership_residual(trace.final_even),
        "residual_data": data_res,
        "solution_error": trace.final_even.distance(xbar) / max(xbar.norm(), 1e-300),
    })
    return trace, extras


def _phase_instance(cfg: ExperimentConfig, seed: int) -> PhaseInstance:
    if cfg.problem == "custom":
        try:
            return load_instance(cfg.instance)
        except OSError as exc:
            raise IOFailure(f"cannot read instance file {cfg.instance}: {exc}") from None
        except ValueError as exc:
            raise IOFailure(str(exc)) from None
    return _synthesize_kind(cfg.object_kind, cfg.shape, cfg.margin, cfg.photon_scale, seed)


def _synthesize_kind(object_kind: str, shape: tuple[int, int], margin: int,
                     photon_scale: float, seed: int) -> PhaseInstance:
    if object_kind == "smooth":
        support = box_support(shape, max(2, 3 * min(shape) // 16))
        image = smooth_object(support, seed)
    else:
        image = cup_object(shape) if object_kind == "cup" else None
        support = loose_support(cup_object(shape), margin)
    return synthesize(shape, support, photon_scale, seed, object_image=image)


def _run_phase(cfg: ExperimentConfig, entry: RunEntry, acfg: InexactAPConfig,
               outdir: Path) -> tuple[IterationTrace, dict]:
    inst = _phase_instance(cfg, entry.seed)
    n = inst.shape[0] * inst.shape[1]
    noise_level = inst.kl_noise_level()
    extras: dict = {"kl_noise_level": noise_level}
    setC = SupportNonnegSet(inst.forced_zero, n, kind=COMPLEX)

    if cfg.algorithm == "exact_ap":
        setM = FourierMagnitudeSet(inst.observed.ravel(), inst.shape)
        rng = _philox(np.random.SeedSequence(entry.seed).spawn(2)[1])
        start_img = np.zeros(inst.shape)
        start_img[inst.support] = rng.uniform(0.0, 1.0, size=int(inst.support.sum()))
        x0 = Point.from_complex(start_img.ravel().astype(np.complex128))
        trace = exact_alternating_projections(setC, setM, x0, acfg)
        recon = trace.final_even.as_complex().real.reshape(inst.shape)
        extras.update({
            "epsilon": None,
            "residual_data": setM.membership_residual(trace.final_even),
            "aligned_error": aligned_error(recon, inst.object_image),
        })
    else:
        epsilon = (entry.epsilon if entry.epsilon is not None
                   else entry.epsilon_kappa * noise_level)
        result = reconstruct(inst, epsilon, acfg, seed=entry.seed,
                             n_restarts=cfg.n_restarts)
        trace = result.trace
        recon = result.reconstruction
        ball = divergence_ball(inst, epsilon)
        extras.update({
            "epsilon": epsilon,
            "restarts": result.restarts,
            # computed by reconstruct for this very reconstruction
            "aligned_error": result.aligned_error,
            "residual_data": max(ball.residual(trace.final_even) - epsilon, 0.0),
            "interior": (interiority_check(ball, trace.final_even)
                         if epsilon > 0 else False),
        })

    extras.update({
        "c_bar": None,
        "predicted_rate": None,
        "residual_constraint": setC.membership_residual(trace.final_even),
    })
    export_grid(recon, outdir / "reconstruction")
    export_grid(inst.object_image, outdir / "truth")
    return trace, extras


def _execute_entry(cfg: ExperimentConfig, entry: RunEntry, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    acfg = _algorithm_config(cfg)
    rng = _philox(np.random.SeedSequence(entry.seed).spawn(2)[0])

    if cfg.problem == "two_subspaces":
        trace, extras = _run_two_subspaces(cfg, entry, acfg, rng)
    elif cfg.problem == "parallel_lines":
        trace, extras = _run_parallel_lines(cfg, entry, acfg, rng)
    elif cfg.problem == "box_affine":
        trace, extras = _run_box_affine(cfg, entry, acfg, rng)
    else:
        trace, extras = _run_phase(cfg, entry, acfg, outdir)

    summary = {
        "run": entry.label or "run",
        "problem": cfg.problem,
        "algorithm": cfg.algorithm,
        "seed": entry.seed,
        "epsilon": entry.epsilon,
        "epsilon_kappa": entry.epsilon_kappa,
        "gamma_bound": cfg.gamma,
        "gamma_max": _max_measured_gamma(trace),
        "lambda_schedule": (cfg.lambda_schedule
                            if cfg.algorithm == "regularized_extrapolated" else None),
        "iterations": len(trace),
        "reason": trace.reason,
        "converged": trace.reason in CONVERGED_REASONS,
        "measured_rate": _try_measure_rate(trace),
        "c_bar": None,
        "eta": None,
        "predicted_rate": None,
        "interior": None,
        "aligned_error": None,
    }
    summary.update(extras)
    for key, value in summary.items():
        if isinstance(value, (np.floating, np.integer)):
            summary[key] = value.item()
    trace.to_csv(outdir / "trace.csv")
    trace.to_json(outdir / "trace.json")
    with atomic_open(outdir / "summary.json") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary


def _entry_worker(payload) -> dict:
    cfg, entry, outdir = payload
    return _execute_entry(cfg, entry, Path(outdir))


# ---------------------------------------------------------------------------
# Comparison tables

def _read_run_dir(run_dir: Path) -> tuple[list[tuple[int, float]], dict]:
    trace_path = run_dir / "trace.csv"
    summary_path = run_dir / "summary.json"
    try:
        with open(trace_path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "k" not in reader.fieldnames \
                    or "step_norm" not in reader.fieldnames:
                raise IOFailure(f"corrupt trace file {trace_path}: missing columns")
            series = []
            for row in reader:
                step = float(row["step_norm"])
                if math.isfinite(step):
                    series.append((int(row["k"]), step))
        with open(summary_path) as fh:
            summary = json.load(fh)
    except OSError as exc:
        raise IOFailure(f"cannot read run directory {run_dir}: {exc}") from None
    except (ValueError, KeyError) as exc:
        raise IOFailure(f"corrupt run artifacts in {run_dir}: {exc}") from None
    return series, summary


def write_comparison(run_dirs: list[Path], table_path: Path) -> Path:
    """Collect runs into a long-format series table and a rates summary.

    Returns the path of the rates file (the table path gains ``_rates``
    before its extension).
    """
    rows = []
    rates = []
    for run_dir in run_dirs:
        series, summary = _read_run_dir(run_dir)
        run_id = summary.get("run") or run_dir.name
        if run_id == "run":
            run_id = run_dir.name
        rows.extend((run_id, k, step) for k, step in series)
        rates.append({
            "run": run_id,
            "reason": summary.get("reason", "unknown"),
            "converged": int(bool(summary.get("converged"))),
            "iterations": summary.get("iterations", len(series)),
            "measured_rate": summary.get("measured_rate"),
        })
    table_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(table_path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "k", "step_norm"])
        for run_id, k, step in rows:
            w.writerow([run_id, k, format(step, ".17g")])
    rates_path = table_path.with_name(table_path.stem + "_rates" + table_path.suffix)
    with atomic_open(rates_path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "reason", "converged", "iterations", "measured_rate"])
        for row in rates:
            rate = row["measured_rate"]
            w.writerow([row["run"], row["reason"], row["converged"], row["iterations"],
                        "" if rate is None else format(rate, ".17g")])
    return rates_path


# ---------------------------------------------------------------------------
# Verbs

def cmd_run(args) -> int:
    overrides = {
        "out": args.out,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "gamma": args.gamma,
        "lambda_schedule": args.lambda_schedule,
        "max_iter": args.max_iter,
        "jobs": args.jobs,
    }
    cfg = load_config(args.config, overrides)
    entries = sweep_entries(cfg)
    out_root = Path(cfg.out)
    run_dirs = [out_root / entry.label if entry.label else out_root for entry in entries]
    payloads = [(cfg, entry, str(outdir)) for entry, outdir in zip(entries, run_dirs)]
    # The directories this run creates, parents first; a failed run removes
    # those that are still empty.
    fresh = [d for d in (*reversed(out_root.parents), out_root, *run_dirs) if not d.exists()]
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {out_root}: {exc}") from None

    try:
        if cfg.jobs > 1 and len(payloads) > 1:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                summaries = list(pool.map(_entry_worker, payloads))
        else:
            summaries = [_entry_worker(p) for p in payloads]
    except BaseException:
        for d in reversed(fresh):
            with contextlib.suppress(OSError):
                d.rmdir()
        raise

    for summary in summaries:
        rate = summary.get("measured_rate")
        rate_text = "n/a" if rate is None else format(rate, ".4f")
        print(f"{summary['run']}: reason={summary['reason']} "
              f"iterations={summary['iterations']} measured_rate={rate_text}")
    if len(run_dirs) > 1:
        rates_path = write_comparison(run_dirs, out_root / "comparison.csv")
        print(f"comparison table: {out_root / 'comparison.csv'}")
        print(f"rates summary: {rates_path}")
    print(f"artifacts written under {out_root}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dirs = [Path(p) for p in args.runs]
    for run_dir in run_dirs:
        if not run_dir.is_dir():
            raise IOFailure(f"run directory {run_dir} does not exist")
    table_path = Path(args.out) if args.out else Path("comparison.csv")
    rates_path = write_comparison(run_dirs, table_path)
    print(f"comparison table: {table_path}")
    print(f"rates summary: {rates_path}")
    return EXIT_OK


_SYNTH_KEYS = ("shape", "photon_scale", "margin", "object", "seed")


def cmd_synth(args) -> int:
    data: dict[str, str] = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise IOFailure(f"cannot read config file {args.config}: {exc}") from None
        data = parse_config_text(text, source=str(args.config))
        unknown = sorted(set(data) - set(_SYNTH_KEYS))
        if unknown:
            raise ConfigError(f"synth accepts only {', '.join(_SYNTH_KEYS)}; "
                              f"got {', '.join(unknown)}")
    if args.seed is not None:
        data["seed"] = args.seed
    shape = _parse_shape(data["shape"]) if "shape" in data else (32, 32)
    photon_scale = parse_scalar(data["photon_scale"]) if "photon_scale" in data else 1e4
    margin = _parse_int(data["margin"]) if "margin" in data else 2
    object_kind = (_parse_choice(data["object"], OBJECTS, "object")
                   if "object" in data else "cup")
    seeds = _parse_int_list(data["seed"]) if "seed" in data else (0,)
    if len(seeds) != 1:
        raise ConfigError("synth takes a single seed")
    if photon_scale <= 0:
        raise ConfigError("photon_scale must be positive")

    instance = _synthesize_kind(object_kind, shape, margin, photon_scale, seeds[0])
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        save_instance(instance, out)
    except OSError as exc:
        raise IOFailure(f"cannot write instance file {out}: {exc}") from None
    print(f"instance written to {out} (sidecar {out}.json)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regap",
        description="Regularized inexact alternating projections for feasibility problems.",
        epilog="Exit codes: 0 success, 2 invalid configuration or usage, "
               "3 solver failure, 4 input/output failure.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment described by a config file")
    run_p.add_argument("--config", required=True, help="key=value experiment file")
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.add_argument("--seed", help="seed or comma list (overrides the config)")
    run_p.add_argument("--epsilon", help="epsilon or comma list (overrides the config)")
    run_p.add_argument("--gamma", help="alignment-residual bound")
    run_p.add_argument("--lambda-schedule", dest="lambda_schedule",
                       help="surface | constant_one | custom")
    run_p.add_argument("--max-iter", dest="max_iter", help="iteration cap")
    run_p.add_argument("--jobs", help="worker processes for sweeps")

    rep_p = sub.add_parser("report", help="tabulate completed runs for plotting")
    rep_p.add_argument("runs", nargs="+", help="run directories")
    rep_p.add_argument("--out", help="comparison CSV path (default comparison.csv)")

    syn_p = sub.add_parser("synth", help="generate a synthetic phase instance file")
    syn_p.add_argument("--out", required=True, help="instance file path")
    syn_p.add_argument("--config", help="optional key=value file (shape, photon_scale, "
                                        "margin, object, seed)")
    syn_p.add_argument("--seed", help="seed (overrides the config)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "report": cmd_report, "synth": cmd_synth}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, RuntimeError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
