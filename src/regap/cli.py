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
``pi`` expressions such as ``pi/3`` or ``0.4*pi``; non-finite numbers are
rejected.  Command-line flags override file keys.  The problem table
``PROBLEMS`` says which keys each (problem, algorithm) pair reads; any other
key is an error.  Exit codes: 0 success, 2 invalid configuration or usage,
3 solver failure (a ``SolverError``, or another ``ValueError`` or
``RuntimeError`` raised during the run), 4 input/output failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import problems
from .algorithms import (CUSTOM, LAMBDA_SCHEDULES, SURFACE, InexactAPConfig,
                         RateMeasurementError, exact_alternating_projections,
                         inexact_alternating_projections, measure_rate, predict_rate,
                         regularized_extrapolated_ap)
from .core import (COMPLEX, FIXED_POINT, TOLERANCE_MET, IterationTrace, Point, SolverError,
                   canonical_point, null_space, write_csv, write_json)
from .divergences import EuclideanKernel, FourierIntensityMap, LinearMap, RegularizedSet
from .phase import (PhaseInstance, aligned_error, box_support, cup_object, export_grid,
                    interiority_check, load_instance, loose_support, reconstruct,
                    save_instance, smooth_object, synthesize)
from .projectors import FourierMagnitudeSet, SupportNonnegSet
from .regularity import cbar_subspaces

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

CONVERGED_REASONS = (FIXED_POINT, TOLERANCE_MET)


class ConfigError(Exception):
    """Invalid configuration: bad grammar, unknown key, or bad combination."""


class IOFailure(Exception):
    """Unreadable, missing, or corrupt input/output artifact."""


# ---------------------------------------------------------------------------
# Config parsing

def parse_scalar(text: str) -> float:
    """Parse a finite float, allowing products with ``pi`` and a single division."""
    t = text.strip().lower()
    try:
        if "pi" not in t:
            value = float(t)
        else:
            num, _, den = t.partition("/")
            value = 1.0
            for factor in num.split("*"):
                factor = factor.strip()
                value *= math.pi if factor == "pi" else float(factor)
            if den:
                den = den.strip()
                value /= math.pi if den == "pi" else float(den)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse number {text!r}: {exc}") from None
    if not math.isfinite(value):
        raise ConfigError(f"number {text!r} is not finite")
    return value


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


def _choice(options, key: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        t = text.strip().lower()
        if t not in options:
            raise ConfigError(f"{key} must be one of {', '.join(options)}; got {text!r}")
        return t
    return parse


def _list_of(parse: Callable) -> Callable[[str], tuple]:
    def parse_list(text: str) -> tuple:
        parts = [p for p in (s.strip() for s in text.split(",")) if p]
        if not parts:
            raise ConfigError(f"empty value list {text!r}")
        return tuple(parse(p) for p in parts)
    return parse_list


def _parse_shape(text: str) -> tuple[int, int]:
    values = _list_of(_parse_int)(text)
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


# Keys every (problem, algorithm) pair reads, and the keys each algorithm adds.
_COMMON_KEYS = ("problem", "algorithm", "out", "seed", "gamma", "max_iter",
                "fixed_point_tolerance", "membership_tolerance", "measure_gamma", "jobs")
_EPSILON_KEYS = ("epsilon", "epsilon_kappa")
ALGORITHMS = {
    "exact_ap": (),
    "inexact_ap": ("phi",),
    "regularized_extrapolated": ("lambda_schedule", "lambda_values"),
}


def _key(parse: Callable, default=MISSING):
    """A config key's field: ``parse`` reads its text; no default makes it required."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class ExperimentConfig:
    """Validated experiment: one ``_key`` field (parser, default) per config key."""

    problem: str = _key(lambda t: _choice(PROBLEMS, "problem")(t))  # PROBLEMS comes below
    algorithm: str = _key(_choice(ALGORITHMS, "algorithm"))
    out: str = _key(str, "runs")
    seed: tuple[int, ...] = _key(_list_of(_parse_int), (0,))
    epsilon: tuple[float, ...] | None = _key(_list_of(parse_scalar), None)
    epsilon_kappa: tuple[float, ...] | None = _key(_list_of(parse_scalar), None)
    gamma: float = _key(parse_scalar, 0.0)
    theta: float = _key(parse_scalar, math.pi / 3)
    phi: float | None = _key(parse_scalar, None)
    dim: int = _key(_parse_int, 2)
    dim_u: int | None = _key(_parse_int, None)
    dim_v: int | None = _key(_parse_int, None)
    gap: float = _key(parse_scalar, 1.0)
    n: int = _key(_parse_int, 12)
    m: int = _key(_parse_int, 8)
    noise: float = _key(parse_scalar, 0.05)
    shape: tuple[int, int] = _key(_parse_shape, (32, 32))
    photon_scale: float = _key(parse_scalar, 1e4)
    margin: int = _key(_parse_int, 2)
    object: str = _key(_choice(("cup", "random", "smooth"), "object"), "cup")
    n_restarts: int = _key(_parse_int, 1)
    lambda_schedule: str = _key(_choice(LAMBDA_SCHEDULES, "lambda_schedule"), SURFACE)
    lambda_values: tuple[float, ...] | None = _key(_list_of(parse_scalar), None)
    max_iter: int = _key(_parse_int, 1000)
    fixed_point_tolerance: float = _key(parse_scalar, 1e-7)
    membership_tolerance: float | None = _key(parse_scalar, None)
    measure_gamma: bool = _key(_parse_bool, True)
    jobs: int = _key(_parse_int, 1)
    instance: str | None = _key(str, None)
    provided: frozenset = field(default_factory=frozenset, compare=False)

    def validate(self) -> None:
        spec = PROBLEMS[self.problem]
        if self.algorithm not in spec.algorithms:
            raise ConfigError(
                f"algorithm {self.algorithm!r} is not supported for problem {self.problem!r}")
        if self.algorithm == "regularized_extrapolated":
            either = len(spec.epsilon_keys) == 2
            given = [k for k in _EPSILON_KEYS if k in self.provided]
            if len(given) != 1 or given[0] not in spec.epsilon_keys:
                need = "exactly one of epsilon or epsilon_kappa" if either else spec.epsilon_keys[0]
                raise ConfigError(f"problem {self.problem!r} requires {need} for regularized "
                                  f"runs; use {' or '.join(spec.epsilon_keys)}")
            # a zero phase ball is the exact data set
            if any(v < 0 or (v == 0 and not either) for v in getattr(self, given[0])):
                raise ConfigError(f"{given[0]} must be {'nonnegative' if either else 'positive'}")
        unread = sorted(self.provided - spec.reads(self.algorithm))
        if unread:
            raise ConfigError(f"key {unread[0]!r} is not read by problem {self.problem!r} "
                              f"with algorithm {self.algorithm!r}")

        # Every key now belongs to this pair, and every default passes these.
        if self.jobs < 1 or self.n_restarts < 1:
            raise ConfigError("jobs and n_restarts must be positive")
        if not all(0 <= seed < 2**64 for seed in self.seed):  # instance files store a uint64
            raise ConfigError("seed must satisfy 0 <= seed < 2**64")
        if self.lambda_schedule == CUSTOM and not self.lambda_values:
            raise ConfigError("lambda_schedule custom requires lambda_values")
        if self.lambda_schedule != CUSTOM and self.lambda_values:
            raise ConfigError("lambda_values requires lambda_schedule = custom")
        try:  # the driver's own knobs: gamma, max_iter, tolerances and lambda_values
            _algorithm_config(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.dim_u is not None or self.dim_v is not None:
            if self.dim_u is None or self.dim_v is None:
                raise ConfigError("give both dim_u and dim_v for random subspaces")
            if "theta" in self.provided:
                raise ConfigError("theta and dim_u/dim_v are mutually exclusive")
            if not (0 < self.dim_u < self.dim and 0 < self.dim_v < self.dim):
                raise ConfigError("need 0 < dim_u, dim_v < dim")
            if self.algorithm == "inexact_ap":
                raise ConfigError("inexact_ap needs the planted-angle instance (theta)")
        elif not 0 < self.theta < math.pi / 2:
            raise ConfigError("theta must lie strictly between 0 and pi/2")
        elif self.algorithm == "inexact_ap" and self.phi is None:
            raise ConfigError("inexact_ap requires phi (projection slide angle)")
        elif self.algorithm == "inexact_ap" and not 0 <= self.phi < self.theta:
            raise ConfigError("phi must satisfy 0 <= phi < theta")
        if self.dim < 2:
            raise ConfigError("dim must be at least 2")
        if self.gap < 0:
            raise ConfigError("gap must be nonnegative")
        if not 0 < self.m < self.n:
            raise ConfigError("box_affine needs 0 < m < n")
        if self.photon_scale <= 0:
            raise ConfigError("photon_scale must be positive")
        # The Poisson means reach photon_scale * n * max|object|^2 with objects
        # <= 1.5, and numpy's sampler refuses means above about 9.2e18.
        limit = 1e18 / (2.25 * self.shape[0] * self.shape[1])
        if self.photon_scale > limit:
            raise ConfigError(f"photon_scale must be at most {limit:.3g} on a "
                              f"{self.shape[0]} x {self.shape[1]} grid")
        if self.margin < 0:
            raise ConfigError("margin must be nonnegative")
        if self.object == "smooth" and min(self.shape) < 4:
            # the smooth object's support box needs max(2, 3*min//16) <= min//2
            raise ConfigError("object smooth needs a shape of at least 4 x 4")
        if self.problem == "custom" and not self.instance:
            raise ConfigError("problem custom requires an instance file path")


_KEY_PARSERS = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)
                if "parse" in f.metadata}


def config_from_mapping(data: dict[str, str]) -> ExperimentConfig:
    """Type-check a raw key mapping and build a validated config."""
    unknown = sorted(set(data) - set(_KEY_PARSERS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}; "
                          f"valid keys: {', '.join(sorted(_KEY_PARSERS))}")
    for required in ("problem", "algorithm"):
        if required not in data:
            raise ConfigError(f"missing required key {required!r}")
    kwargs = {key: _KEY_PARSERS[key](raw) for key, raw in data.items()}
    cfg = ExperimentConfig(**kwargs, provided=frozenset(data))
    cfg.validate()
    return cfg


def _read_config(path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFailure(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def load_config(path, overrides: dict[str, str]) -> ExperimentConfig:
    data = _read_config(path)
    data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_mapping(data)


# ---------------------------------------------------------------------------
# Run execution

@dataclass
class RunEntry:
    label: str | None
    epsilon: float | None
    epsilon_kappa: float | None
    seed: int


def sweep_entries(cfg: ExperimentConfig) -> list[RunEntry]:
    """One entry per combination of the swept values.  Each key given more
    than one value adds a part to the label, which names the entry's
    directory; two values of one key with the same part are a ``ConfigError``."""
    axes = []
    for key, fmt in (("epsilon", "eps{:g}"), ("epsilon_kappa", "kap{:g}"), ("seed", "seed{}")):
        values = getattr(cfg, key) or (None,)
        parts = [fmt.format(v) for v in values] if len(values) > 1 else [""]
        for j, part in enumerate(parts):
            if part in parts[:j]:
                raise ConfigError(f"{key} values {values[parts.index(part)]!r} and "
                                  f"{values[j]!r} share the run label {part!r}")
        axes.append(zip(values, parts))
    return [RunEntry("_".join(p for p in (e, k, s) if p) or None, eps, kappa, seed)
            for (eps, e), (kappa, k), (seed, s) in product(*axes)]


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


def _stream(seed: int, index: int) -> np.random.Generator:
    """Stream ``index`` of the two an entry's seed spawns (0: start point, 1: phase)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(2)[index]))


def _random_start(seed: int, dim: int) -> Point:
    return Point(_stream(seed, 0).standard_normal(dim))


# A runner's (trace, first set, odd iterates' set, the problem's own summary fields).
RunResult = tuple[IterationTrace, object, object, dict]


def _run_two_subspaces(cfg: ExperimentConfig, entry: RunEntry, acfg: InexactAPConfig,
                       outdir: Path) -> RunResult:
    if cfg.dim_u is not None:
        setC, setM = problems.two_subspaces(cfg.dim, cfg.dim_u, cfg.dim_v, entry.seed)
    else:
        setC, setM = problems.two_lines(cfg.theta, cfg.dim)
    estimate = cbar_subspaces(null_space(setC.matrix), null_space(setM.matrix))
    start = _random_start(entry.seed, setC.dim)
    gamma_pred = cfg.gamma
    extras = {"c_bar": estimate.c_bar}
    odd_set = setM
    if cfg.algorithm == "exact_ap":
        trace = exact_alternating_projections(setC, setM, start, acfg)
    elif cfg.algorithm == "inexact_ap":
        oracle = problems.PerturbedLineOracle(setM, cfg.phi)
        even = canonical_point(setC.project(start))
        odd = oracle.project(even)[0]
        trace = inexact_alternating_projections(setC, oracle.project, setM, even, odd, acfg)
        gamma_pred = max(cfg.gamma, math.sin(cfg.phi))
    else:
        odd_set = RegularizedSet(LinearMap(setM.matrix), np.zeros(len(setM.matrix)),
                                 EuclideanKernel(), entry.epsilon)
        trace = regularized_extrapolated_ap(setC, odd_set, setM, start, acfg)
    with contextlib.suppress(ValueError):  # no certified rate: eta stays null
        pred = predict_rate(estimate.c_bar, gamma_pred)
        extras.update(eta=pred.eta, predicted_rate=pred.r_linear_rate)
    return trace, setC, odd_set, extras


def _run_parallel_lines(cfg: ExperimentConfig, entry: RunEntry, acfg: InexactAPConfig,
                        outdir: Path) -> RunResult:
    start = _random_start(entry.seed, 2)
    if cfg.algorithm == "exact_ap":
        setC, setM = problems.parallel_lines(cfg.gap)
        trace = exact_alternating_projections(setC, setM, start, acfg)
    else:
        setC, setM, line = problems.slab_problem(cfg.gap, entry.epsilon)
        trace = regularized_extrapolated_ap(setC, setM, line, start, acfg)
    return trace, setC, setM, {}


def _run_box_affine(cfg: ExperimentConfig, entry: RunEntry, acfg: InexactAPConfig,
                    outdir: Path) -> RunResult:
    start = _random_start(entry.seed, cfg.n)
    if cfg.algorithm == "exact_ap":
        affine, box, xbar = problems.box_affine(cfg.n, cfg.m, entry.seed)
        trace = exact_alternating_projections(affine, box, start, acfg)
        extras = {}
    else:
        affine, box, anchor, xbar, epsilon = problems.box_affine_regularized(
            cfg.n, cfg.m, cfg.noise, entry.epsilon_kappa, entry.seed)
        trace = regularized_extrapolated_ap(affine, box, anchor, start, acfg)
        extras = {"epsilon": epsilon}
    extras["solution_error"] = trace.final_even.distance(xbar) / max(xbar.norm(), 1e-300)
    return trace, affine, box, extras


def _phase_instance(cfg: ExperimentConfig, seed: int) -> PhaseInstance:
    if cfg.problem == "custom":
        try:
            return load_instance(cfg.instance)
        except OSError as exc:
            raise IOFailure(f"cannot read instance file {cfg.instance}: {exc}") from None
        except ValueError as exc:
            raise IOFailure(str(exc)) from None
    return _synthesize(cfg, seed)


def _synthesize(cfg: ExperimentConfig, seed: int) -> PhaseInstance:
    if cfg.object == "smooth":
        support = box_support(cfg.shape, max(2, 3 * min(cfg.shape) // 16))
        image = smooth_object(support, seed)
    else:
        image = cup_object(cfg.shape) if cfg.object == "cup" else None
        support = loose_support(cup_object(cfg.shape), cfg.margin)
    return synthesize(cfg.shape, support, cfg.photon_scale, seed, object_image=image)


def _run_phase(cfg: ExperimentConfig, entry: RunEntry, acfg: InexactAPConfig,
               outdir: Path) -> RunResult:
    inst = _phase_instance(cfg, entry.seed)
    n = inst.shape[0] * inst.shape[1]
    noise_level = inst.kl_noise_level()
    extras: dict = {"kl_noise_level": noise_level}
    setC = SupportNonnegSet(inst.forced_zero, n, kind=COMPLEX)

    if cfg.algorithm == "exact_ap":
        setM = FourierMagnitudeSet(inst.observed.ravel(), FourierIntensityMap(inst.shape))
        rng = _stream(entry.seed, 1)
        start_img = np.zeros(inst.shape)
        start_img[inst.support] = rng.uniform(0.0, 1.0, size=int(inst.support.sum()))
        x0 = Point.from_complex(start_img.ravel().astype(np.complex128))
        trace = exact_alternating_projections(setC, setM, x0, acfg)
        recon = trace.final_even.as_complex().real.reshape(inst.shape)
        extras["aligned_error"] = aligned_error(recon, inst.object_image)
    else:
        epsilon = (entry.epsilon if entry.epsilon is not None
                   else entry.epsilon_kappa * noise_level)
        result = reconstruct(inst, epsilon, acfg, seed=entry.seed,
                             n_restarts=cfg.n_restarts)
        trace, recon, setM = result.trace, result.reconstruction, result.ball
        # reconstruct computed aligned_error for this very reconstruction
        extras.update(epsilon=epsilon, restarts=result.restarts,
                      aligned_error=result.aligned_error)
    export_grid(recon, outdir / "reconstruction")
    export_grid(inst.object_image, outdir / "truth")
    return trace, setC, setM, extras


@dataclass(frozen=True)
class ProblemSpec:
    """One problem's row of the config table.

    ``keys`` are read under every algorithm, ``regularized_keys`` only by
    regularized runs, which need exactly one of ``epsilon_keys`` (positive if
    only one is allowed, else nonnegative).
    """

    algorithms: tuple[str, ...]
    keys: tuple[str, ...]
    regularized_keys: tuple[str, ...]
    epsilon_keys: tuple[str, ...]
    runner: Callable[..., RunResult]

    def reads(self, algorithm: str) -> set[str]:
        """The config keys a run of this problem with ``algorithm`` reads."""
        regularized = algorithm == "regularized_extrapolated"
        return {*_COMMON_KEYS, *ALGORITHMS[algorithm], *self.keys,
                *(self.regularized_keys + self.epsilon_keys if regularized else ())}


_EXACT_AND_REGULARIZED = ("exact_ap", "regularized_extrapolated")
_PHASE_KEYS = ("shape", "photon_scale", "margin", "object")
PROBLEMS: dict[str, ProblemSpec] = {
    "two_subspaces": ProblemSpec(tuple(ALGORITHMS), ("theta", "dim", "dim_u", "dim_v"), (),
                                 ("epsilon",), _run_two_subspaces),
    "parallel_lines": ProblemSpec(_EXACT_AND_REGULARIZED, ("gap",), (),
                                  ("epsilon",), _run_parallel_lines),
    "box_affine": ProblemSpec(_EXACT_AND_REGULARIZED, ("n", "m"), ("noise",),
                              ("epsilon_kappa",), _run_box_affine),
    "phase_retrieval": ProblemSpec(_EXACT_AND_REGULARIZED, _PHASE_KEYS, ("n_restarts",),
                                   _EPSILON_KEYS, _run_phase),
    "custom": ProblemSpec(_EXACT_AND_REGULARIZED, ("instance",), ("n_restarts",),
                          _EPSILON_KEYS, _run_phase),
}


# A run's finite ``(k, step_norm)`` pairs, as its ``trace.csv`` holds them.
Series = list[tuple[int, float]]


def _execute_entry(cfg: ExperimentConfig, entry: RunEntry, outdir: Path) -> tuple[Series, dict]:
    """Run one entry into ``outdir``; returns its step series and summary for the tables."""
    outdir.mkdir(parents=True, exist_ok=True)
    trace, setC, odd_set, extras = PROBLEMS[cfg.problem].runner(
        cfg, entry, _algorithm_config(cfg), outdir)
    final = trace.final_even
    extras["residual_data"] = odd_set.membership_residual(final)
    extras["residual_constraint"] = setC.membership_residual(final)
    if cfg.algorithm == "regularized_extrapolated":
        extras["interior"] = interiority_check(odd_set, final)
    try:
        measured_rate = measure_rate(trace)
    except RateMeasurementError:
        measured_rate = None
    summary = {
        "run": entry.label or "run",
        "problem": cfg.problem,
        "algorithm": cfg.algorithm,
        "seed": entry.seed,
        "epsilon": entry.epsilon,
        "epsilon_kappa": entry.epsilon_kappa,
        "gamma_bound": cfg.gamma,
        "gamma_max": max((r.gamma for r in trace.records if math.isfinite(r.gamma)),
                         default=None),
        "lambda_schedule": (cfg.lambda_schedule
                            if cfg.algorithm == "regularized_extrapolated" else None),
        "iterations": len(trace),
        "reason": trace.reason,
        "converged": trace.reason in CONVERGED_REASONS,
        "measured_rate": measured_rate,
        "c_bar": None,
        "eta": None,
        "predicted_rate": None,
        "interior": None,
        "aligned_error": None,
    }
    summary.update(extras)
    trace.to_csv(outdir / "trace.csv")
    trace.to_json(outdir / "trace.json")
    write_json(outdir / "summary.json", summary)
    return [(r.k, r.step_norm) for r in trace.records if math.isfinite(r.step_norm)], summary


# ---------------------------------------------------------------------------
# Comparison tables

def _read_run_dir(run_dir: Path) -> tuple[Series, dict]:
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
    except (ValueError, KeyError, TypeError) as exc:  # TypeError: a short trace row
        raise IOFailure(f"corrupt run artifacts in {run_dir}: {exc}") from None
    if not isinstance(summary, dict):
        raise IOFailure(f"corrupt run artifacts in {run_dir}: {summary_path.name} "
                        f"is not a JSON object")
    # the keys a comparison reads, with the JSON types a run writes for them
    for key, types in (("run", (str, type(None))), ("reason", (str,)), ("converged", (bool,)),
                       ("iterations", (int,)), ("measured_rate", (int, float, type(None)))):
        if key in summary and type(summary[key]) not in types:
            raise IOFailure(f"corrupt run artifacts in {run_dir}: {summary_path.name} "
                            f"holds a {type(summary[key]).__name__} under {key!r}")
    return series, summary


def write_comparison(runs: Iterable[tuple[Path, Series, dict]], table_path: Path) -> Path:
    """Collect runs into a long-format series table and a rates summary.

    ``runs`` gives each run's directory, step series and summary: ``regap
    run`` passes its own results, ``regap report`` what
    :func:`_read_run_dir` reads back, and both write the same bytes.
    Returns the path of the rates file (the table path gains ``_rates``
    before its extension).  Two directories with one run id are a
    ``ConfigError``, raised before anything is written.
    """
    rows = []
    rates = []
    owners: dict[str, Path] = {}
    for run_dir, series, summary in runs:
        run_id = run_dir.name if summary.get("run") in (None, "", "run") else summary["run"]
        if run_id in owners:
            raise ConfigError(f"{owners[run_id]} and {run_dir} share the run id {run_id!r}")
        owners[run_id] = run_dir
        rows.extend((run_id, k, step) for k, step in series)
        rates.append((run_id, summary.get("reason", "unknown"),
                      int(summary.get("converged", False)),
                      summary.get("iterations", len(series)), summary.get("measured_rate")))
    table_path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(table_path, ("run", "k", "step_norm"), rows)
    rates_path = table_path.with_name(table_path.stem + "_rates" + table_path.suffix)
    write_csv(rates_path, ("run", "reason", "converged", "iterations", "measured_rate"), rates)
    return rates_path


# ---------------------------------------------------------------------------
# Verbs

# ``regap run`` flags (``--max-iter`` for ``max_iter``), each overriding its config key.
_RUN_FLAGS = {
    "out": "output directory (overrides the config)",
    "seed": "seed or comma list (overrides the config)",
    "epsilon": "epsilon or comma list (overrides the config)",
    "gamma": "alignment-residual bound",
    "lambda_schedule": "surface | constant_one | custom",
    "max_iter": "iteration cap",
    "jobs": "worker processes for sweeps",
}


def cmd_run(args) -> int:
    cfg = load_config(args.config, {key: getattr(args, key) for key in _RUN_FLAGS})
    entries = sweep_entries(cfg)
    out_root = Path(cfg.out)
    run_dirs = [out_root / entry.label if entry.label else out_root for entry in entries]
    # The directories this run creates, parents first; a failed run removes
    # those that are still empty.
    fresh = [d for d in (*reversed(out_root.parents), out_root, *run_dirs) if not d.exists()]
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {out_root}: {exc}") from None

    try:
        if cfg.jobs > 1 and len(entries) > 1:
            # imported here, as only these sweeps need it; the pool may start all
            # its workers at once: no more than there are entries
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(entries))) as pool:
                results = list(pool.map(_execute_entry, [cfg] * len(entries), entries,
                                        run_dirs))
        else:
            results = list(map(_execute_entry, [cfg] * len(entries), entries, run_dirs))
    except BaseException:
        for d in reversed(fresh):
            with contextlib.suppress(OSError):
                d.rmdir()
        raise

    for _, summary in results:
        rate = summary.get("measured_rate")
        rate_text = "n/a" if rate is None else format(rate, ".4f")
        print(f"{summary['run']}: reason={summary['reason']} "
              f"iterations={summary['iterations']} measured_rate={rate_text}")
    if len(run_dirs) > 1:
        rates_path = write_comparison([(d, *result) for d, result in zip(run_dirs, results)],
                                      out_root / "comparison.csv")
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
    rates_path = write_comparison(((d, *_read_run_dir(d)) for d in run_dirs), table_path)
    print(f"comparison table: {table_path}")
    print(f"rates summary: {rates_path}")
    return EXIT_OK


_SYNTH_KEYS = (*PROBLEMS["phase_retrieval"].keys, "seed")


def cmd_synth(args) -> int:
    data = _read_config(args.config) if args.config else {}
    unknown = sorted(set(data) - set(_SYNTH_KEYS))
    if unknown:
        raise ConfigError(f"synth accepts only {', '.join(_SYNTH_KEYS)}; "
                          f"got {', '.join(unknown)}")
    if args.seed is not None:
        data["seed"] = args.seed
    # the phase problem's validation checks the instance keys for both verbs
    cfg = config_from_mapping({**data, "problem": "phase_retrieval", "algorithm": "exact_ap"})
    if len(cfg.seed) != 1:
        raise ConfigError("synth takes a single seed")

    instance = _synthesize(cfg, cfg.seed[0])
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
    for key, help_text in _RUN_FLAGS.items():
        run_p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)

    rep_p = sub.add_parser("report", help="tabulate completed runs for plotting")
    rep_p.add_argument("runs", nargs="+", help="run directories")
    rep_p.add_argument("--out", help="comparison CSV path (default comparison.csv)")

    syn_p = sub.add_parser("synth", help="generate a synthetic phase instance file")
    syn_p.add_argument("--out", required=True, help="instance file path")
    syn_p.add_argument("--config", help=f"optional key=value file ({', '.join(_SYNTH_KEYS)})")
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
    except (IOFailure, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, RuntimeError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
