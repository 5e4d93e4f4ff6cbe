"""Command-line interface: config grammar, validation, verbs, exit codes."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_instance
from regap import cli
from regap.algorithms import StepConditionError
from regap.cli import (ConfigError, ExperimentConfig, config_from_mapping,
                       main, parse_config_text, parse_scalar, sweep_entries)
from regap.divergences import KullbackLeiblerKernel
from regap.phase import box_support, save_instance, synthesize


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


TWO_LINES_CFG = """
problem = two_subspaces
algorithm = exact_ap
theta = pi/3
max_iter = 400
fixed_point_tolerance = 1e-12
"""


# ---------------------------------------------------------------------------
# Scalar and config grammar

def test_parse_scalar_plain_and_pi_forms():
    assert parse_scalar("0.25") == 0.25
    assert parse_scalar("1e-3") == 1e-3
    assert parse_scalar("pi") == pytest.approx(math.pi)
    assert parse_scalar("pi/3") == pytest.approx(math.pi / 3)
    assert parse_scalar("2*pi") == pytest.approx(2 * math.pi)
    assert parse_scalar("0.4*pi") == pytest.approx(0.4 * math.pi)
    assert parse_scalar("3*pi/4") == pytest.approx(0.75 * math.pi)
    assert parse_scalar(" PI / 6 ") == pytest.approx(math.pi / 6)


def test_parse_scalar_rejects_garbage():
    for bad in ("pie", "1/0*pi", "", "two", "3/4"):
        with pytest.raises(ConfigError):
            parse_scalar(bad)


def test_parse_config_text_grammar():
    data = parse_config_text(
        "# a comment\n"
        "problem = two_subspaces   # trailing comment\n"
        "\n"
        "Lambda-Schedule = surface\n"
        "max_iter=250\n")
    assert data == {"problem": "two_subspaces",
                    "lambda_schedule": "surface",
                    "max_iter": "250"}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("a =\n")


@pytest.mark.parametrize("text", ["nan", "-inf", "1e400", "pi*1e308*10", "NaN/pi"])
def test_parse_scalar_rejects_non_finite(text):
    with pytest.raises(ConfigError, match=re.escape(repr(text))):
        parse_scalar(text)


@pytest.mark.parametrize("keys, text", [
    ("problem = two_subspaces\nalgorithm = exact_ap\nfixed_point_tolerance = nan\n", "nan"),
    ("problem = phase_retrieval\nalgorithm = regularized_extrapolated\nepsilon = nan\n", "nan"),
    ("problem = parallel_lines\nalgorithm = exact_ap\ngap = nan\n", "nan"),
    ("problem = phase_retrieval\nalgorithm = exact_ap\nphoton_scale = inf\n", "inf"),
    ("problem = box_affine\nalgorithm = regularized_extrapolated\nepsilon_kappa = 1\n"
     "noise = 1e400\n", "1e400"),
])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, keys, text):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, keys + f"out = {out}\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(text) in err
    assert not out.exists()


@pytest.mark.parametrize("keys, message", [
    ("problem = two_subspaces\nalgorithm = exact_ap\njobs = 0\n",
     "jobs and n_restarts must be positive"),
    ("problem = phase_retrieval\nalgorithm = regularized_extrapolated\nepsilon_kappa = 1\n"
     "n_restarts = 0\n", "jobs and n_restarts must be positive"),
    ("problem = two_subspaces\nalgorithm = exact_ap\ndim = 4\ndim_u = 4\ndim_v = 2\n",
     "need 0 < dim_u, dim_v < dim"),
    ("problem = two_subspaces\nalgorithm = exact_ap\ntheta = 2\n",
     "theta must lie strictly between 0 and pi/2"),
    ("problem = two_subspaces\nalgorithm = exact_ap\ndim = 1\n", "dim must be at least 2"),
    ("problem = parallel_lines\nalgorithm = exact_ap\ngap = -1\n", "gap must be nonnegative"),
    ("problem = box_affine\nalgorithm = exact_ap\nn = 4\nm = 4\n", "box_affine needs 0 < m < n"),
    ("problem = phase_retrieval\nalgorithm = exact_ap\nphoton_scale = 0\n",
     "photon_scale must be positive"),
])
def test_run_refuses_values_out_of_range(tmp_path, capsys, keys, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, keys + f"out = {out}\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


# Texts of every kind the parsers meet: finite and non-finite numbers, lists,
# choices, booleans and junk.
_VALUE_TEXT_KINDS = (
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "pi/0", "nan, 1", "0", "-1",
                     "0.5", "2", "3", "1e-9", "pi/3", "16, 16", "3, 3", "4, 4", "0, 1",
                     "custom", "smooth", "cup", "true", "x.phz"]),
    st.floats().map(repr),
    st.integers(-3, 40).map(str),
    st.lists(st.floats().map(repr), min_size=1, max_size=3).map(", ".join),
)
_VALUE_TEXTS = st.one_of(*_VALUE_TEXT_KINDS, st.text(max_size=6))


@settings(max_examples=300, derandomize=True)
@given(problem=st.sampled_from(sorted(cli.PROBLEMS)),
       algorithm=st.sampled_from(sorted(cli.ALGORITHMS)),
       extra=st.dictionaries(st.sampled_from(sorted(cli._KEY_PARSERS)), _VALUE_TEXTS,
                             max_size=3))
def test_config_from_mapping_yields_finite_config_or_config_error(problem, algorithm, extra):
    try:
        cfg = config_from_mapping({"problem": problem, "algorithm": algorithm, **extra})
    except ConfigError:
        return
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            assert not isinstance(v, float) or math.isfinite(v), (f.name, value)


# Config files run through ``main``: lines of keys the (problem, algorithm) pair
# reads, of any key or of a sound value, and maybe one malformed line.  problem,
# algorithm, out, max_iter and jobs are pinned (no worker pool starts), and junk
# values hold no digits, so no size key asks for a huge run.
_PINNED_KEYS = {"problem", "algorithm", "out", "max_iter", "jobs"}
_RUN_VALUE_TEXTS = st.one_of(*_VALUE_TEXT_KINDS,
                             st.text(st.characters(blacklist_categories=("Nd",)), max_size=6))
_MALFORMED_LINES = st.sampled_from(["just words", "= 1", "gamma =", "# a comment", "",
                                    "seed = 1, 1", "max_iter = 3", "Lambda-Schedule = custom",
                                    "stepsize = 0.1"])

# lines that let regularized, inexact and sweep runs through validation
_SOUND_LINES = st.sampled_from(["epsilon = 0.5", "epsilon = 0, 0.1", "epsilon_kappa = 1",
                                "phi = 0.2", "shape = 8, 8", "seed = 0, 1"])


def _key_lines(keys):
    return st.builds("{} = {}".format, st.sampled_from(sorted(set(keys) - _PINNED_KEYS)),
                     _RUN_VALUE_TEXTS)


@st.composite
def _config_texts(draw):
    problem = draw(st.sampled_from(sorted(cli.PROBLEMS)))
    algorithm = draw(st.sampled_from(cli.PROBLEMS[problem].algorithms)
                     | st.sampled_from(sorted(cli.ALGORITHMS)))
    reads = cli.PROBLEMS[problem].reads(algorithm)
    lines = draw(st.lists(st.one_of(_key_lines(reads), _key_lines(cli._KEY_PARSERS),
                                    _SOUND_LINES),
                          max_size=3, unique_by=lambda line: line.partition(" =")[0]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_MALFORMED_LINES))
    return "\n".join([f"problem = {problem}", f"algorithm = {algorithm}", *lines,
                      "max_iter = 2", ""])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(text=_config_texts())
def test_config_text_through_main_exits_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text(text + f"out = {out}\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out.exists()


def test_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"problem": "two_subspaces", "algorithm": "exact_ap",
                             "stepsize": "0.1"})
    with pytest.raises(ConfigError, match="missing required key"):
        config_from_mapping({"problem": "two_subspaces"})


# ---------------------------------------------------------------------------
# Combination validation

def cfg_of(**kv):
    return config_from_mapping({k: str(v) for k, v in kv.items()})


def test_supported_combination_matrix():
    # inexact_ap exists only for the planted-angle subspace instance
    for problem in ("parallel_lines", "box_affine", "phase_retrieval"):
        with pytest.raises(ConfigError, match="not supported"):
            cfg_of(problem=problem, algorithm="inexact_ap")


def test_regularized_keys_forbidden_elsewhere():
    with pytest.raises(ConfigError, match="epsilon"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap", epsilon="0.1")
    with pytest.raises(ConfigError, match="lambda_schedule"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap",
               lambda_schedule="surface")


def test_epsilon_key_matrix():
    with pytest.raises(ConfigError, match="requires epsilon"):
        cfg_of(problem="two_subspaces", algorithm="regularized_extrapolated")
    with pytest.raises(ConfigError, match="use epsilon"):
        cfg_of(problem="parallel_lines", algorithm="regularized_extrapolated",
               epsilon_kappa="1.0")
    with pytest.raises(ConfigError, match="use epsilon_kappa"):
        cfg_of(problem="box_affine", algorithm="regularized_extrapolated",
               epsilon="0.1")
    with pytest.raises(ConfigError, match="exactly one"):
        cfg_of(problem="phase_retrieval", algorithm="regularized_extrapolated")
    with pytest.raises(ConfigError, match="exactly one"):
        cfg_of(problem="phase_retrieval", algorithm="regularized_extrapolated",
               epsilon="0.1", epsilon_kappa="1.0")


def test_problem_specific_keys_forbidden_elsewhere():
    with pytest.raises(ConfigError, match="gap"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap", gap="1.0")
    with pytest.raises(ConfigError, match="theta"):
        cfg_of(problem="parallel_lines", algorithm="exact_ap", theta="0.5")
    with pytest.raises(ConfigError, match="phi"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap", phi="0.1")
    with pytest.raises(ConfigError, match="noise"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap", noise="0.1")
    with pytest.raises(ConfigError, match="shape"):
        cfg_of(problem="box_affine", algorithm="exact_ap", shape="8,8")
    with pytest.raises(ConfigError, match="instance"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap", instance="x.phz")
    # keys that only regularized runs read
    with pytest.raises(ConfigError, match="n_restarts"):
        cfg_of(problem="phase_retrieval", algorithm="exact_ap", n_restarts="2")
    with pytest.raises(ConfigError, match="n_restarts"):
        cfg_of(problem="custom", algorithm="exact_ap", instance="x.phz", n_restarts="2")
    with pytest.raises(ConfigError, match="noise"):
        cfg_of(problem="box_affine", algorithm="exact_ap", noise="0.1")


def test_two_subspaces_angle_rules():
    with pytest.raises(ConfigError, match="phi"):
        cfg_of(problem="two_subspaces", algorithm="inexact_ap", theta="pi/4")
    with pytest.raises(ConfigError, match="phi must satisfy"):
        cfg_of(problem="two_subspaces", algorithm="inexact_ap",
               theta="pi/6", phi="pi/4")
    with pytest.raises(ConfigError, match="mutually exclusive"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap",
               theta="pi/4", dim="5", dim_u="2", dim_v="2")
    with pytest.raises(ConfigError, match="both dim_u and dim_v"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap", dim="5", dim_u="2")
    with pytest.raises(ConfigError, match="planted-angle"):
        cfg_of(problem="two_subspaces", algorithm="inexact_ap",
               dim="5", dim_u="2", dim_v="2", phi="0.1")
    ok = cfg_of(problem="two_subspaces", algorithm="inexact_ap",
                theta="pi/4", phi="0.2")
    assert ok.phi == pytest.approx(0.2)


def test_custom_requires_instance_and_schedule_rules():
    with pytest.raises(ConfigError, match="instance file"):
        cfg_of(problem="custom", algorithm="regularized_extrapolated",
               epsilon="0.1")
    with pytest.raises(ConfigError, match="requires lambda_values"):
        cfg_of(problem="two_subspaces", algorithm="regularized_extrapolated",
               epsilon="0.1", lambda_schedule="custom")
    with pytest.raises(ConfigError, match="lambda_schedule = custom"):
        cfg_of(problem="two_subspaces", algorithm="regularized_extrapolated",
               epsilon="0.1", lambda_values="0.5")
    with pytest.raises(ConfigError, match="membership_tolerance"):
        cfg_of(problem="two_subspaces", algorithm="exact_ap",
               membership_tolerance="0")


def _readme_key_table():
    """(keys, readers) of each row of the README's config-key table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config grammar", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return [(re.findall(r"`(\w+)`", keys), re.findall(r"`(\w+)`", readers))
            for keys, readers in rows]


def test_readme_key_table_matches_the_problem_table():
    table = _readme_key_table()
    assert sorted(k for keys, _ in table for k in keys) == sorted(cli._KEY_PARSERS)
    # "read by" names problems and/or algorithms; none named means all of them
    for keys, readers in table:
        problems = set(readers) & set(cli.PROBLEMS) or set(cli.PROBLEMS)
        algorithms = set(readers) & set(cli.ALGORITHMS) or set(cli.ALGORITHMS)
        assert set(readers) <= problems | algorithms, readers
        for problem, spec in cli.PROBLEMS.items():
            for algorithm in spec.algorithms:
                expected = problem in problems and algorithm in algorithms
                for key in keys:
                    assert (key in spec.reads(algorithm)) == expected, (key, problem, algorithm)


# ---------------------------------------------------------------------------
# Sweeps

def test_sweep_entries_labels():
    single = cfg_of(problem="two_subspaces", algorithm="exact_ap")
    assert [e.label for e in sweep_entries(single)] == [None]

    swept = cfg_of(problem="two_subspaces", algorithm="regularized_extrapolated",
                   epsilon="0.1, 0.2", seed="0, 1")
    labels = [e.label for e in sweep_entries(swept)]
    assert labels == ["eps0.1_seed0", "eps0.1_seed1", "eps0.2_seed0", "eps0.2_seed1"]

    seeds_only = cfg_of(problem="two_subspaces", algorithm="exact_ap", seed="4, 7")
    assert [e.label for e in sweep_entries(seeds_only)] == ["seed4", "seed7"]

    kappas = cfg_of(problem="box_affine", algorithm="regularized_extrapolated",
                    epsilon_kappa="0.5, 1.5")
    assert [e.label for e in sweep_entries(kappas)] == ["kap0.5", "kap1.5"]


@pytest.mark.parametrize("sweep, message", [
    ("epsilon = 0.5000001, 0.5000002", "epsilon values 0.5000001 and 0.5000002 share the run "
                                       "label 'eps0.5'"),
    ("epsilon = 0.5, 0.25, 0.5", "epsilon values 0.5 and 0.5 share the run label 'eps0.5'"),
    ("epsilon = 0.5\nseed = 1, 1", "seed values 1 and 1 share the run label 'seed1'"),
])
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_values_with_one_label_are_a_config_error(tmp_path, capsys, sweep, message, jobs):
    # two entries with one label would write one directory
    out = tmp_path / "sweep"
    cfg = write_config(tmp_path, "problem = parallel_lines\nalgorithm = regularized_extrapolated\n"
                                 f"{sweep}\njobs = {jobs}\nout = {out}\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# run verb

def test_run_two_lines_summary_and_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_LINES_CFG + f"out = {tmp_path / 'out'}\n")
    assert run_cli("run", "--config", str(cfg)) == 0
    out = tmp_path / "out"
    assert (out / "trace.csv").exists()
    assert (out / "trace.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "two_subspaces"
    assert summary["reason"] == "fixed_point"
    assert summary["converged"] is True
    assert summary["c_bar"] == pytest.approx(0.5, abs=1e-12)
    assert summary["predicted_rate"] == pytest.approx(0.5, abs=1e-12)
    assert summary["measured_rate"] == pytest.approx(0.5, abs=0.02)
    stdout = capsys.readouterr().out
    assert "reason=fixed_point" in stdout

    with open(out / "trace.csv") as fh:
        header = fh.readline().strip()
    assert header == "k,step_norm,gap,residual,gamma,lambda,reason"


def test_run_summary_writer_that_fails_halfway_leaves_no_partial_file(tmp_path, monkeypatch):
    dump = json.dump

    def failing_dump(obj, fh, **kwargs):
        if isinstance(obj, dict):  # the summary; trace.json holds a list
            fh.write(json.dumps(obj, **kwargs)[:40])
            raise OSError("device full")
        return dump(obj, fh, **kwargs)
    monkeypatch.setattr(json, "dump", failing_dump)
    cfg = write_config(tmp_path, TWO_LINES_CFG + f"out = {tmp_path / 'out'}\n")
    assert run_cli("run", "--config", str(cfg)) == cli.EXIT_IO
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["trace.csv", "trace.json"]


def test_run_is_deterministic(tmp_path):
    cfg_a = write_config(tmp_path, TWO_LINES_CFG + f"out = {tmp_path / 'a'}\n", "a.cfg")
    cfg_b = write_config(tmp_path, TWO_LINES_CFG + f"out = {tmp_path / 'b'}\n", "b.cfg")
    assert run_cli("run", "--config", str(cfg_a)) == 0
    assert run_cli("run", "--config", str(cfg_b)) == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
           (tmp_path / "b" / "trace.csv").read_bytes()


def test_run_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, TWO_LINES_CFG)
    out = tmp_path / "flagged"
    assert run_cli("run", "--config", str(cfg), "--out", str(out),
                   "--seed", "3,4", "--max-iter", "12") == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["seed3", "seed4"]
    for seed in (3, 4):
        summary = json.loads((out / f"seed{seed}" / "summary.json").read_text())
        assert summary["seed"] == seed
        assert summary["iterations"] <= 13
        assert summary["reason"] == "max_iter"
    # sweeps produce comparison tables next to the run directories
    assert (out / "comparison.csv").exists()
    assert (out / "comparison_rates.csv").exists()


def test_run_epsilon_sweep_with_jobs(tmp_path):
    text = (
        "problem = two_subspaces\n"
        "algorithm = regularized_extrapolated\n"
        "theta = pi/3\n"
        "epsilon = 0.02, 0.08\n"
        "max_iter = 200\n"
        f"out = {tmp_path / 'sweep'}\n"
        "jobs = 2\n")
    cfg = write_config(tmp_path, text)
    assert run_cli("run", "--config", str(cfg)) == 0
    out = tmp_path / "sweep"
    assert (out / "eps0.02" / "summary.json").exists()
    assert (out / "eps0.08" / "summary.json").exists()
    with open(out / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    runs = {r["run"] for r in rows}
    assert runs == {"eps0.02", "eps0.08"}
    with open(out / "comparison_rates.csv") as fh:
        rates = {r["run"]: r for r in csv.DictReader(fh)}
    assert set(rates) == {"eps0.02", "eps0.08"}
    for row in rates.values():
        assert row["reason"] == "fixed_point"
        assert row["converged"] == "1"
    # a larger ball is entered no later than a smaller one
    assert int(rates["eps0.08"]["iterations"]) <= int(rates["eps0.02"]["iterations"])


def test_run_inexact_records_alignment(tmp_path):
    text = (
        "problem = two_subspaces\n"
        "algorithm = inexact_ap\n"
        "theta = pi/4\n"
        "phi = 0.3\n"
        "gamma = 0.4\n"
        "max_iter = 300\n"
        "fixed_point_tolerance = 1e-11\n"
        f"out = {tmp_path / 'inexact'}\n")
    cfg = write_config(tmp_path, text)
    assert run_cli("run", "--config", str(cfg)) == 0
    summary = json.loads((tmp_path / "inexact" / "summary.json").read_text())
    assert summary["reason"] == "fixed_point"
    assert summary["gamma_max"] == pytest.approx(math.sin(0.3), abs=1e-6)
    # prediction uses the worse of the configured bound and the slide angle
    eta = (math.cos(math.pi / 4) * math.sqrt(1 - 0.4 ** 2)
           + 0.4 * math.sin(math.pi / 4))
    assert summary["predicted_rate"] == pytest.approx(eta, abs=1e-12)
    assert summary["measured_rate"] <= eta + 0.02


def test_run_parallel_lines_stall_summary(tmp_path):
    text = (
        "problem = parallel_lines\n"
        "algorithm = exact_ap\n"
        "gap = 1.0\n"
        "max_iter = 300\n"
        f"out = {tmp_path / 'stall'}\n")
    cfg = write_config(tmp_path, text)
    assert run_cli("run", "--config", str(cfg)) == 0
    summary = json.loads((tmp_path / "stall" / "summary.json").read_text())
    assert summary["reason"] == "stalled_gap"
    assert summary["converged"] is False
    assert summary["measured_rate"] is None
    assert summary["residual_data"] == pytest.approx(1.0)


def _run_summary(tmp_path, text):
    cfg = write_config(tmp_path, text + f"out = {tmp_path / 'run'}\n")
    assert run_cli("run", "--config", str(cfg)) == 0
    return json.loads((tmp_path / "run" / "summary.json").read_text())


def test_run_readme_quick_start_on_the_euclidean_ball(tmp_path):
    # the README quick start: regularized two_subspaces runs on a LinearMap ball
    summary = _run_summary(tmp_path, (
        "problem = two_subspaces\n"
        "algorithm = regularized_extrapolated\n"
        "theta = pi/3\n"
        "epsilon = 0.05\n"
        "max_iter = 200\n"))
    assert summary["reason"] == "fixed_point"
    assert summary["c_bar"] == pytest.approx(math.cos(math.pi / 3), abs=1e-12)
    assert summary["measured_rate"] == pytest.approx(summary["c_bar"], abs=0.02)
    assert summary["measured_rate"] <= summary["predicted_rate"] + 1e-12


def test_run_random_subspaces_exact_ap(tmp_path):
    summary = _run_summary(tmp_path, (
        "problem = two_subspaces\n"
        "algorithm = exact_ap\n"
        "dim = 6\n"
        "dim_u = 2\n"
        "dim_v = 3\n"
        "seed = 1\n"))
    assert summary["reason"] == "fixed_point"
    assert summary["measured_rate"] <= summary["c_bar"]


def test_run_parallel_lines_inside_a_wide_slab(tmp_path):
    # epsilon = 0.6 > gap²/2: the slab around one line reaches the other
    summary = _run_summary(tmp_path, (
        "problem = parallel_lines\n"
        "algorithm = regularized_extrapolated\n"
        "gap = 1\n"
        "epsilon = 0.6\n"))
    assert summary["reason"] == "fixed_point"
    assert summary["interior"] is True


def test_run_box_affine_regularized(tmp_path):
    text = (
        "problem = box_affine\n"
        "algorithm = regularized_extrapolated\n"
        "n = 10\n"
        "m = 4\n"
        "noise = 0.05\n"
        "epsilon_kappa = 1.5\n"
        "lambda_schedule = constant_one\n"
        "max_iter = 400\n"
        f"out = {tmp_path / 'box'}\n")
    cfg = write_config(tmp_path, text)
    assert run_cli("run", "--config", str(cfg)) == 0
    summary = json.loads((tmp_path / "box" / "summary.json").read_text())
    assert summary["epsilon"] is not None and summary["epsilon"] > 0
    assert summary["epsilon_kappa"] == 1.5
    assert summary["residual_constraint"] <= 1e-6
    assert summary["solution_error"] is not None


def test_run_phase_smoke(tmp_path):
    text = (
        "problem = phase_retrieval\n"
        "algorithm = regularized_extrapolated\n"
        "object = smooth\n"
        "shape = 16, 16\n"
        "photon_scale = 1e3\n"
        "epsilon_kappa = 1.0\n"
        "lambda_schedule = constant_one\n"
        "max_iter = 200\n"
        "measure_gamma = false\n"
        f"out = {tmp_path / 'phase'}\n")
    cfg = write_config(tmp_path, text)
    assert run_cli("run", "--config", str(cfg)) == 0
    out = tmp_path / "phase"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reason"] == "fixed_point"
    assert summary["kl_noise_level"] > 0
    assert summary["epsilon"] == pytest.approx(summary["kl_noise_level"])
    assert summary["aligned_error"] is not None
    assert summary["interior"] is True
    for stem in ("reconstruction", "truth"):
        assert (out / f"{stem}.npy").exists()
        assert (out / f"{stem}.pgm").exists()


def test_run_phase_interior_verdict_near_the_boundary(tmp_path):
    # A constant_one 64x64 entry of the benchmark's sweep family whose fixed
    # point lies only 5e-5·epsilon inside its ball (epsilon = 262.55, margin
    # 0.013).  It is truly interior: with ‖∇r‖ ≈ 845 a 1e-6 step moves the
    # residual by about 8.5e-4, so the verdict is True however it is reached.
    summary = _run_summary(tmp_path, (
        "problem = phase_retrieval\n"
        "algorithm = regularized_extrapolated\n"
        "object = smooth\n"
        "shape = 64, 64\n"
        "photon_scale = 1e3\n"
        "epsilon_kappa = 1\n"
        "lambda_schedule = constant_one\n"
        "measure_gamma = false\n"
        "max_iter = 300\n"
        "seed = 216109\n"))
    assert summary["reason"] == "fixed_point"
    assert summary["interior"] is True


def test_run_phase_on_the_exact_data_set_with_gamma(tmp_path):
    # At epsilon = 0 the ball is the data set, where the boundary solve's
    # prepared excess often disagrees with a fresh residual and the generic
    # search runs; its point must be a member.  The set has no interior.
    summary = _run_summary(tmp_path, (
        "problem = phase_retrieval\n"
        "algorithm = regularized_extrapolated\n"
        "object = smooth\n"
        "shape = 16, 16\n"
        "photon_scale = 1e3\n"
        "epsilon = 0\n"
        "max_iter = 100\n"))
    assert summary["interior"] is False


def test_run_phase_prepares_one_kl_ball(tmp_path, monkeypatch):
    # The summary's residual_data and interior read the ball the
    # reconstruction used; the only other KL divergence is the noise level.
    calls = []
    against = KullbackLeiblerKernel.against

    def counted(kernel, y):
        calls.append(kernel)
        return against(kernel, y)
    monkeypatch.setattr(KullbackLeiblerKernel, "against", counted)
    cfg = write_config(tmp_path, "problem = phase_retrieval\nalgorithm = regularized_extrapolated\n"
                                 "object = smooth\nshape = 16, 16\nphoton_scale = 1e3\n"
                                 "epsilon_kappa = 1.0\nmax_iter = 5\nmeasure_gamma = false\n"
                                 f"out = {tmp_path / 'phase'}\n")
    assert run_cli("run", "--config", str(cfg)) == 0
    summary = json.loads((tmp_path / "phase" / "summary.json").read_text())
    assert summary["residual_data"] is not None and summary["interior"] is not None
    assert len(calls) == 2


def test_jobs_beyond_the_sweep_start_one_worker_per_entry(tmp_path, monkeypatch):
    # A pool may start all its workers up front; this stand-in records how
    # many were asked for and maps in this process.
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = write_config(tmp_path, TWO_LINES_CFG + f"seed = 1, 2\njobs = 1000\n"
                                                 f"out = {tmp_path / 'sweep'}\n")
    assert run_cli("run", "--config", str(cfg)) == 0
    assert asked == [2]
    assert (tmp_path / "sweep" / "seed2" / "summary.json").exists()


@pytest.mark.parametrize("verb, seed", [("run", "-1"), ("run", "1, -1"), ("synth", "-1"),
                                        ("synth", "18446744073709551616"),
                                        ("run", "0, 18446744073709551616")])
def test_negative_seed_is_a_config_error(tmp_path, capsys, verb, seed):
    out = tmp_path / "out"
    if verb == "run":
        cfg = write_config(tmp_path, TWO_LINES_CFG + f"seed = {seed}\nout = {out}\n")
        argv = ("run", "--config", str(cfg))
    else:
        argv = ("synth", "--out", str(out / "i.phz"), "--seed", seed)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
    assert not out.exists()


def test_run_malformed_config_creates_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    cfg = write_config(tmp_path, f"problem = two_subspaces\nout = {out}\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_run_bad_override_value(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_LINES_CFG + f"out = {tmp_path / 'x'}\n")
    assert run_cli("run", "--config", str(cfg), "--max-iter", "soon") == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_missing_config_file(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "absent.cfg")) == 4
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "synth"])
def test_undecodable_config_file_is_an_io_error(tmp_path, capsys, verb):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(TWO_LINES_CFG.encode() + f"out = {tmp_path / 'x'}\n".encode() + b"# \xff\n")
    extra = ["--out", str(tmp_path / "x" / "inst.phz")] if verb == "synth" else []
    assert run_cli(verb, "--config", str(cfg), *extra) == 4
    err = capsys.readouterr().err
    assert "io error" in err and str(cfg) in err
    assert not (tmp_path / "x").exists()


def patch_runner(monkeypatch, problem, runner):
    """Swap the runner of ``problem``'s entry in the problem table."""
    spec = dataclasses.replace(cli.PROBLEMS[problem], runner=runner)
    monkeypatch.setitem(cli.PROBLEMS, problem, spec)


def test_solver_failure_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    def boom(*a, **kw):
        raise StepConditionError("cycle 3: no candidate step within 0.5")
    patch_runner(monkeypatch, "two_subspaces", boom)
    cfg = write_config(tmp_path, TWO_LINES_CFG + f"out = {tmp_path / 'y'}\n")
    assert run_cli("run", "--config", str(cfg)) == 3
    assert "solver error" in capsys.readouterr().err


def test_failed_run_leaves_no_empty_directory(tmp_path, monkeypatch):
    solve = cli.PROBLEMS["two_subspaces"].runner

    def fails_on_seed_two(cfg, entry, *args):
        if entry.seed == 2:
            raise StepConditionError("cycle 3: no candidate step within 0.5")
        return solve(cfg, entry, *args)
    patch_runner(monkeypatch, "two_subspaces", fails_on_seed_two)

    fresh = tmp_path / "runs" / "y"
    cfg = write_config(tmp_path, TWO_LINES_CFG + f"seed = 2, 3\nout = {fresh}\n")
    assert run_cli("run", "--config", str(cfg)) == 3
    assert not (tmp_path / "runs").exists()

    # finished entries and directories that existed before the run stay
    existing = tmp_path / "z"
    (existing / "seed2").mkdir(parents=True)
    cfg = write_config(tmp_path, TWO_LINES_CFG + f"seed = 1, 2, 3\nout = {existing}\n")
    assert run_cli("run", "--config", str(cfg)) == 3
    assert sorted(p.name for p in existing.iterdir()) == ["seed1", "seed2"]
    assert (existing / "seed1" / "summary.json").exists()
    assert not any((existing / "seed2").iterdir())


# ---------------------------------------------------------------------------
# report verb

def make_run(tmp_path, name, text):
    out = tmp_path / name
    cfg = write_config(tmp_path, text + f"out = {out}\n", f"{name}.cfg")
    assert run_cli("run", "--config", str(cfg)) == 0
    return out


def test_report_tabulates_convergent_and_stalled_runs(tmp_path, capsys):
    lines = make_run(tmp_path, "lines", TWO_LINES_CFG)
    stall = make_run(tmp_path, "stall",
                     "problem = parallel_lines\nalgorithm = exact_ap\n"
                     "gap = 1.0\nmax_iter = 300\n")
    table = tmp_path / "cmp.csv"
    assert run_cli("report", str(lines), str(stall), "--out", str(table)) == 0
    rates_path = tmp_path / "cmp_rates.csv"
    assert rates_path.exists()
    with open(rates_path) as fh:
        rows = {r["run"]: r for r in csv.DictReader(fh)}
    # unlabeled runs are identified by their directory names
    assert set(rows) == {"lines", "stall"}
    assert rows["lines"]["converged"] == "1"
    assert rows["stall"]["converged"] == "0"
    assert rows["stall"]["measured_rate"] == ""
    assert float(rows["lines"]["measured_rate"]) == pytest.approx(0.5, abs=0.02)
    with open(table) as fh:
        long_rows = list(csv.DictReader(fh))
    assert {r["run"] for r in long_rows} == {"lines", "stall"}
    ks = [int(r["k"]) for r in long_rows if r["run"] == "lines"]
    assert ks == sorted(ks) and ks[0] == 1  # k = 0 has no incoming step


def test_report_missing_directory(tmp_path, capsys):
    assert run_cli("report", str(tmp_path / "ghost")) == 4
    assert "io error" in capsys.readouterr().err


def test_report_corrupt_trace(tmp_path, capsys):
    run = make_run(tmp_path, "ok", TWO_LINES_CFG)
    intact = {name: (run / name).read_text() for name in ("trace.csv", "summary.json")}

    def summary_with(key, value):
        summary = {**json.loads(intact["summary.json"]), key: value}
        return ("summary.json", json.dumps(summary),
                f"summary.json holds a {type(value).__name__} under {key!r}")
    for name, text, message in [("trace.csv", "wrong,columns\n1,2\n", "missing columns"),
                                # a row shorter than the header
                                ("trace.csv",
                                 "k,step_norm,gap,residual,gamma,lambda,reason\n0\n", ""),
                                # valid JSON, but not an object
                                ("summary.json", "[]\n", "summary.json is not a JSON object"),
                                # an object, but a key the tables read has the wrong type
                                summary_with("measured_rate", "0.5"),
                                summary_with("iterations", "many"),
                                summary_with("converged", "yes"),
                                summary_with("run", ["x"]),
                                # a bool is not a count
                                summary_with("iterations", True)]:
        capsys.readouterr()
        (run / name).write_text(text)
        assert run_cli("report", str(run), "--out", str(tmp_path / "t.csv")) == 4, text
        err = capsys.readouterr().err
        assert "corrupt" in err and str(run) in err and message in err
        assert not (tmp_path / "t.csv").exists()
        assert not (tmp_path / "t_rates.csv").exists()
        (run / name).write_text(intact[name])


def test_report_refuses_runs_that_share_a_run_id(tmp_path, capsys):
    sweep = "problem = parallel_lines\nalgorithm = exact_ap\ngap = 1.0\nmax_iter = 50\n"
    a = make_run(tmp_path, "a", sweep + "seed = 1, 2\n")
    b = make_run(tmp_path, "b", sweep + "seed = 1, 3\n")
    table = tmp_path / "cmp.csv"
    for first, second in [(a / "seed1", b / "seed1"), (a / "seed1", a / "seed1")]:
        capsys.readouterr()
        assert run_cli("report", str(first), str(second), "--out", str(table)) == 2
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err and "'seed1'" in err
        assert not table.exists() and not (tmp_path / "cmp_rates.csv").exists()
    assert run_cli("report", str(a / "seed1"), str(b / "seed3"), "--out", str(table)) == 0


REPORT_SWEEPS = {
    "lines": "problem = two_subspaces\nalgorithm = inexact_ap\ntheta = pi/8\nphi = pi/16\n"
             "seed = 1, 2, 3\n",
    # 16 x 16 constant_one entries stop within a few cycles: no measured rate
    "phase": "problem = phase_retrieval\nalgorithm = regularized_extrapolated\n"
             "object = smooth\nshape = 16, 16\nphoton_scale = 1e3\nepsilon_kappa = 1\n"
             "lambda_schedule = constant_one\nmeasure_gamma = false\nmax_iter = 60\n"
             "seed = 1, 2\n",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sweep", sorted(REPORT_SWEEPS))
def test_report_rebuilds_the_sweep_tables_byte_for_byte(tmp_path, sweep, jobs):
    # `regap run` tabulates the results it holds; `regap report` reads the
    # same runs back from disk and must write the same bytes.
    out = make_run(tmp_path, sweep, REPORT_SWEEPS[sweep] + f"jobs = {jobs}\n")
    runs = [str(out / f"seed{s}") for s in (1, 2, 3) if (out / f"seed{s}").is_dir()]
    assert run_cli("report", *runs, "--out", str(tmp_path / "report.csv")) == 0
    for made, rebuilt in (("comparison.csv", "report.csv"),
                          ("comparison_rates.csv", "report_rates.csv")):
        assert (tmp_path / rebuilt).read_bytes() == (out / made).read_bytes()
    with open(out / "comparison_rates.csv", newline="") as fh:
        rates = [row["measured_rate"] for row in csv.DictReader(fh)]
    assert len(rates) == len(runs)
    if sweep == "phase":
        assert rates == [""] * len(runs)
    else:
        assert all(0.0 < float(rate) < 1.0 for rate in rates)


# ---------------------------------------------------------------------------
# synth verb and custom instances

def test_synth_and_custom_run_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.phz"
    syn_cfg = write_config(tmp_path,
                           "shape = 16, 16\nphoton_scale = 1e3\nobject = smooth\n",
                           "synth.cfg")
    assert run_cli("synth", "--out", str(inst_path), "--config", str(syn_cfg),
                   "--seed", "3") == 0
    assert inst_path.exists()
    sidecar = json.loads((tmp_path / "inst.phz.json").read_text())
    assert sidecar["shape"] == [16, 16]
    assert sidecar["seed"] == 3

    run_cfg = write_config(tmp_path, (
        "problem = custom\n"
        "algorithm = regularized_extrapolated\n"
        f"instance = {inst_path}\n"
        "epsilon_kappa = 1.0\n"
        "lambda_schedule = constant_one\n"
        "max_iter = 200\n"
        "measure_gamma = false\n"
        f"out = {tmp_path / 'custom_run'}\n"), "run.cfg")
    assert run_cli("run", "--config", str(run_cfg)) == 0
    summary = json.loads((tmp_path / "custom_run" / "summary.json").read_text())
    assert summary["problem"] == "custom"
    assert summary["reason"] == "fixed_point"
    assert summary["kl_noise_level"] == pytest.approx(sidecar["kl_noise_level"])


def test_synth_rejects_run_only_keys(tmp_path, capsys):
    bad = write_config(tmp_path, "shape = 16, 16\nmax_iter = 10\n", "bad.cfg")
    assert run_cli("synth", "--out", str(tmp_path / "i.phz"),
                   "--config", str(bad)) == 2
    assert "synth accepts only" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "synth"])
@pytest.mark.parametrize("keys, message", [
    ("margin = -40\n", "margin"),
    ("object = smooth\nshape = 3, 16\n", "smooth"),
    ("photon_scale = 1e300\n", "photon_scale"),  # beyond numpy's Poisson sampler
])
def test_phase_geometry_errors_are_config_errors(tmp_path, capsys, verb, keys, message):
    out = tmp_path / "out"
    if verb == "run":
        cfg = write_config(tmp_path, "problem = phase_retrieval\nalgorithm = exact_ap\n"
                                     f"{keys}out = {out}\n")
        argv = ("run", "--config", str(cfg))
    else:
        argv = ("synth", "--out", str(out / "i.phz"), "--config",
                str(write_config(tmp_path, keys)))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_photon_scale_at_its_bound_still_samples(tmp_path):
    # The bound keeps every Poisson mean within numpy's sampler for objects up to 1.5.
    limit = 1e18 / (2.25 * 16 * 16)
    cfg = write_config(tmp_path, f"shape = 16, 16\nobject = random\nphoton_scale = {limit!r}\n")
    assert run_cli("synth", "--out", str(tmp_path / "i.phz"), "--config", str(cfg)) == 0


def test_synth_rejects_seed_lists(tmp_path, capsys):
    assert run_cli("synth", "--out", str(tmp_path / "i.phz"), "--seed", "1,2") == 2
    assert "single seed" in capsys.readouterr().err


def test_custom_run_rejects_corrupt_instance(tmp_path, capsys):
    bogus = tmp_path / "bogus.phz"
    bogus.write_bytes(b"JUNKJUNK" + b"\0" * 32)
    cfg = write_config(tmp_path, (
        "problem = custom\n"
        "algorithm = regularized_extrapolated\n"
        f"instance = {bogus}\n"
        "epsilon = 0.5\n"
        f"out = {tmp_path / 'z'}\n"))
    assert run_cli("run", "--config", str(cfg)) == 4
    assert "io error" in capsys.readouterr().err


def _corrupt_instance_run(tmp_path, corrupt):
    """Save a small instance, apply ``corrupt(raw, offsets)``, run it as custom."""
    inst_path = tmp_path / "inst.phz"
    save_instance(smooth_instance(3, shape=(16, 16)), inst_path)
    raw = bytearray(inst_path.read_bytes())
    n = 16 * 16
    header = 8 + 24
    offsets = {"object": header + n, "noiseless": header + n + 8 * n,
               "observed": header + n + 16 * n}
    inst_path.write_bytes(bytes(corrupt(raw, offsets)))
    cfg = write_config(tmp_path, (
        "problem = custom\n"
        "algorithm = regularized_extrapolated\n"
        f"instance = {inst_path}\n"
        "epsilon_kappa = 1.0\n"
        "max_iter = 5\n"
        f"out = {tmp_path / 'z'}\n"))
    return run_cli("run", "--config", str(cfg))


def _put(raw, offset, value):
    raw[offset:offset + 8] = np.array([value], dtype="<f8").tobytes()
    return raw


def _put_all(raw, offset, value, n=16 * 16):
    raw[offset:offset + 8 * n] = np.full(n, value, dtype="<f8").tobytes()
    return raw


@pytest.mark.parametrize("corrupt, field", [
    (lambda raw, off: _put(raw, off["observed"] + 8 * 5, math.nan), "observed intensity"),
    (lambda raw, off: _put(raw, off["noiseless"], -1.0), "noiseless intensity"),
    (lambda raw, off: _put(raw, off["observed"] + 8 * 7, -0.5), "observed intensity"),
    (lambda raw, off: _put(raw, off["object"] + 8 * 100, math.nan), "object image"),
    (lambda raw, off: raw + b"trailing garbage", "shape"),
    (lambda raw, off: raw[:-3], "shape"),
    # finite but huge: the sum overflows float64
    (lambda raw, off: _put_all(raw, off["observed"], 1e307), "observed intensity"),
    # the header's photon scale, at byte 24
    (lambda raw, off: _put(raw, 24, math.nan), "photon scale"),
    (lambda raw, off: _put(raw, 24, -1.0), "photon scale"),
    (lambda raw, off: _put(raw, 24, 0.0), "photon scale"),
])
def test_custom_run_rejects_bad_instance_data(tmp_path, capsys, corrupt, field):
    assert _corrupt_instance_run(tmp_path, corrupt) == 4
    err = capsys.readouterr().err
    assert "io error" in err and "inst.phz" in err and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "z" / "summary.json").exists()


def _custom_run(tmp_path, inst_path):
    cfg = write_config(tmp_path, "problem = custom\nalgorithm = regularized_extrapolated\n"
                                 f"instance = {inst_path}\nepsilon_kappa = 1.0\nmax_iter = 5\n"
                                 f"out = {tmp_path / 'z'}\n")
    return run_cli("run", "--config", str(cfg))


def test_custom_run_rejects_an_empty_grid(tmp_path, capsys):
    inst_path = tmp_path / "inst.phz"
    inst_path.write_bytes(b"PHZINST1" + struct.pack("<IIQd", 0, 5, 0, 1e3))
    assert _custom_run(tmp_path, inst_path) == 4
    err = capsys.readouterr().err
    assert "io error" in err and "inst.phz: shape" in err and "0x5" in err
    assert not (tmp_path / "z" / "summary.json").exists()


def test_custom_run_rejects_an_identically_zero_object(tmp_path, capsys):
    support = box_support((16, 16), 6)
    inst_path = tmp_path / "inst.phz"
    save_instance(synthesize((16, 16), support, 1e3, 0, object_image=np.zeros((16, 16))),
                  inst_path)
    assert _custom_run(tmp_path, inst_path) == 4
    err = capsys.readouterr().err
    assert "io error" in err and "inst.phz: object image" in err and "all zero" in err
    assert not (tmp_path / "z" / "summary.json").exists()


def test_custom_run_rejects_an_empty_support(tmp_path, capsys):
    inst = smooth_instance(3, shape=(16, 16))
    inst.support = np.zeros((16, 16), dtype=bool)
    save_instance(inst, tmp_path / "inst.phz")
    assert _custom_run(tmp_path, tmp_path / "inst.phz") == 4
    err = capsys.readouterr().err
    assert "io error" in err and "inst.phz: support" in err
    assert not (tmp_path / "z" / "summary.json").exists()


def test_custom_run_rejects_an_object_outside_its_support(tmp_path, capsys):
    inst = smooth_instance(3, shape=(16, 16))
    assert not inst.support[0, 0]
    inst.object_image[0, 0] = 1.0
    save_instance(inst, tmp_path / "inst.phz")
    assert _custom_run(tmp_path, tmp_path / "inst.phz") == 4
    err = capsys.readouterr().err
    assert "io error" in err and "inst.phz: object image" in err and "outside the support" in err
    assert not (tmp_path / "z" / "summary.json").exists()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in strict JSON")
    return json.loads(text, parse_constant=reject)


def test_summary_writes_non_finite_numbers_as_null(tmp_path):
    # a finite but huge object pixel overflows the aligned error
    assert _corrupt_instance_run(
        tmp_path, lambda raw, off: _put(raw, off["object"] + 8 * 100, 1e300)) == 0
    summary = _strict_json((tmp_path / "z" / "summary.json").read_text())
    assert summary["aligned_error"] is None


_INSTANCE_BYTES = []


def _instance_bytes():
    if not _INSTANCE_BYTES:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inst.phz"
            save_instance(smooth_instance(3, shape=(16, 16)), path)
            _INSTANCE_BYTES.append(path.read_bytes())
    return _INSTANCE_BYTES[0]


@settings(max_examples=100, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 8 + 24 + 16 * 16 * 25 - 1), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_corrupt_instance_bytes_exit_zero_or_four(edits):
    raw = bytearray(_instance_bytes())
    for offset, byte in edits:
        raw[offset] = byte
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inst.phz").write_bytes(raw)
        cfg = write_config(tmp, "problem = custom\nalgorithm = regularized_extrapolated\n"
                                f"instance = {tmp / 'inst.phz'}\nepsilon_kappa = 1.0\n"
                                f"max_iter = 5\nout = {tmp / 'z'}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli("run", "--config", str(cfg))
        assert code in (0, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        summary = tmp / "z" / "summary.json"
        if summary.exists():
            _strict_json(summary.read_text())


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("run")  # --config is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("frob")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Runtime dependencies: numpy only

def _python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports regap from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy(tmp_path):
    proc = _python("import sys, regap.cli\n"
                   "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                   "assert not loaded, loaded\n", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_process_pool(tmp_path):
    # only a sweep with jobs > 1 imports the pool, inside cmd_run
    proc = _python("import sys, regap.cli\n"
                   "loaded = sorted(m for m in sys.modules if m == 'concurrent.futures.process'\n"
                   "                or m.split('.')[0] == 'multiprocessing')\n"
                   "assert not loaded, loaded\n", tmp_path)
    assert proc.returncode == 0, proc.stderr


RUNTIME_CONFIGS = {
    "lines.cfg": "problem = two_subspaces\nalgorithm = inexact_ap\n"
                 "theta = pi/8\nphi = pi/16\nseed = 1, 2\nout = lines\n",
    "box.cfg": "problem = box_affine\nalgorithm = regularized_extrapolated\n"
               "n = 10\nm = 4\nepsilon_kappa = 1\nlambda_schedule = surface\n"
               "max_iter = 50\nout = box\n",
    "phase.cfg": "problem = phase_retrieval\nalgorithm = regularized_extrapolated\n"
                 "object = smooth\nshape = 16, 16\nphoton_scale = 1e3\n"
                 "epsilon_kappa = 1\nlambda_schedule = surface\nmax_iter = 60\n"
                 "out = phase\n",
}


def test_runs_with_scipy_unavailable(tmp_path):
    for name, text in RUNTIME_CONFIGS.items():
        write_config(tmp_path, text, name)
    proc = _python("import sys\n"
                   "sys.modules['scipy'] = None  # any scipy import now fails\n"
                   "from regap.cli import main\n"
                   f"codes = [main(['run', '--config', c]) for c in {sorted(RUNTIME_CONFIGS)!r}]\n"
                   "assert codes == [0, 0, 0], codes\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for run in ("lines/seed1", "lines/seed2", "box", "phase"):
        assert json.loads((tmp_path / run / "summary.json").read_text())["iterations"] > 0
