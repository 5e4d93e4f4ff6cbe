"""Benchmark of ``regap run``: end-to-end metrics, or per-layer metrics traced.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Every timed repeat is one
``regap run`` call in a fresh child interpreter (``child.py``), started one
at a time from this process, with one BLAS/OpenMP thread and ``jobs = 1``.
Repeats cycle over the workload's jobs until ``--seconds`` have passed (at
least one full round).  Every entry's artifacts are checked.  With
``--trace 1`` the first half of the time runs untraced, then one traced
round gives the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record with provenance
goes to ``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import read_entry, read_sweep_tables
from tracer import PER_LAYER, layer_metrics
from workloads import CONVERGED_REASONS, WORKLOADS, Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s; no child may start a wait beyond this.
RUN_LIMIT_S = 170.0

# (name, unit, direction); END_TO_END are the gated end_to_end metrics of
# BENCHMARK.json, REPORTED are printed and recorded only (see README.md).
END_TO_END = (("work_per_ref", "work/ref", "higher"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))
REPORTED = (("cycles_per_s", "1/s", "higher"), ("wall_s", "s", "lower"),
            ("ref_s", "s", "lower"), ("converged_frac", "ratio", "higher"),
            ("failed_frac", "ratio", "lower"), ("aligned_error_max", "ratio", "lower"),
            ("rate_slack_min", "ratio", "higher"))
TRACING = (("tracing.wall_s", "s"), ("tracing.overhead_s", "s"))


@dataclass
class Sample:
    """One child run of one job."""

    job: Job
    wall_s: float = math.nan
    ref_s: float = math.nan
    setup_s: float = math.nan
    peak_rss_mb: float = math.nan
    versions: dict = field(default_factory=dict)
    summaries: list = field(default_factory=list)  # per entry, None if unreadable
    problems: list = field(default_factory=list)   # per entry, list of strings
    layers: dict = field(default_factory=dict)


def child_env(tmp: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(tmp))
    env.update(THREAD_ENV)
    return env


def run_child(job: Job, check, workdir: Path, tag: str, traced: bool, deadline: float) -> Sample:
    """Run ``job`` once in a fresh interpreter and check every entry it wrote."""
    sample = Sample(job)
    config, out = workdir / f"{tag}.cfg", workdir / tag
    result_path, spans_path = workdir / f"{tag}.result.json", workdir / f"{tag}.spans.json"
    config.write_text(job.config)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path)]
    if traced:
        cmd += ["--trace", str(spans_path), tag]
    cmd += ["--", "run", "--config", str(config), "--out", str(out)]
    failure = None
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(workdir), capture_output=True,
                              text=True, timeout=max(5.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            failure = f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            result = json.loads(result_path.read_text())
            sample.wall_s, sample.ref_s = result["wall_s"], result["ref_s"]
            sample.setup_s, sample.peak_rss_mb = result["setup_s"], result["peak_rss_mb"]
            sample.versions = result["versions"]
            if not Path(result["regap_file"]).is_relative_to(SRC):
                failure = f"imported regap from {result['regap_file']}, not {SRC}"
            elif result["exit_code"] != 0:
                failure = f"regap run exited {result['exit_code']}"
            elif traced:
                sample.layers = layer_metrics(json.loads(spans_path.read_text()))
    except subprocess.TimeoutExpired:
        failure = "child timed out"
    except (OSError, ValueError, KeyError) as exc:
        failure = f"child result unreadable: {exc}"

    dirs = job.entry_dirs(out)
    if failure is not None:
        sample.summaries = [None] * len(dirs)
        sample.problems = [[failure] for _ in dirs]
    else:
        for d in dirs:
            summary, problems = read_entry(d)
            if summary is not None:
                problems += check(summary)
            sample.summaries.append(summary)
            sample.problems.append(problems)
        if len(dirs) > 1:
            table_problems = read_sweep_tables(out, len(dirs))
            for problems in sample.problems:
                problems += table_problems
    shutil.rmtree(out, ignore_errors=True)
    spans_path.unlink(missing_ok=True)
    return sample


def run_rounds(jobs: list[Job], check, workdir: Path, until: float,
               deadline: float) -> list[Sample]:
    """Untraced repeats, cycling over ``jobs`` until ``until`` (one full round at least)."""
    samples = []
    for round_no in itertools.count():
        for job in jobs:
            if round_no > 0 and time.monotonic() >= until:
                return samples
            samples.append(run_child(job, check, workdir, f"{job.name}-r{round_no}", False,
                                      deadline))


def quartiles(values: list[float]) -> dict:
    values = [v for v in values if math.isfinite(v)]
    if not values:
        return {"n": 0}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def end_to_end(samples: list[Sample], jobs: list[Job], work_unit: str) -> tuple[dict, dict]:
    """End-to-end metrics over the untraced samples, plus their timing statistics."""
    def per_job(value) -> dict:
        return {job: quartiles([value(s) for s in samples if s.job == job]) for job in jobs}

    def round_total(stats: dict) -> float:
        return sum(stats[job].get("median", math.nan) for job in jobs)

    job_walls = per_job(lambda s: s.wall_s)
    job_refs = per_job(lambda s: s.wall_s / s.ref_s)
    wall, refs = round_total(job_walls), round_total(job_refs)
    cycles = 0
    for job in jobs:
        first = next((s for s in samples if s.job == job and all(s.summaries)), None)
        if first is not None:
            cycles += sum(summary["iterations"] for summary in first.summaries)
    units = cycles if work_unit == "cycles" else sum(len(job.seeds) for job in jobs)
    summaries = [x for s in samples for x in s.summaries if x is not None]
    attempted = sum(len(s.problems) for s in samples)
    failed = sum(1 for s in samples for p in s.problems if p)
    errors = [x["aligned_error"] for x in summaries if x.get("aligned_error") is not None]
    slack = [x["predicted_rate"] - x["measured_rate"] for x in summaries
             if x.get("predicted_rate") is not None and x.get("measured_rate") is not None]
    stats = {
        "setup_s": quartiles([s.setup_s for s in samples]),
        "peak_rss_mb": quartiles([s.peak_rss_mb for s in samples]),
        "ref_s": quartiles([s.ref_s for s in samples]),
        "wall_s_per_job": {job.name: job_walls[job] for job in jobs},
        "wall_ref_per_job": {job.name: job_refs[job] for job in jobs},
    }
    metrics = {
        "work_per_ref": units / refs if refs > 0 else math.nan,
        "cycles_per_s": cycles / wall if wall > 0 else math.nan,
        "ref_s": stats["ref_s"].get("median", math.nan),
        "setup_s": stats["setup_s"].get("median", math.nan),
        "peak_rss_mb": stats["peak_rss_mb"].get("median", math.nan),
        "wall_s": wall,
        "converged_frac": sum(x.get("reason") in CONVERGED_REASONS for x in summaries)
        / max(attempted, 1),
        "failed_frac": failed / max(attempted, 1),
        "aligned_error_max": max(errors) if errors else None,
        "rate_slack_min": min(slack) if slack else None,
    }
    return metrics, stats


def _numbers(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def compare_traced(traced: list[Sample], untraced: list[Sample]) -> None:
    """Tracing must not change results: flag entries whose summaries differ."""
    for sample in traced:
        reference = next((s for s in reversed(untraced) if s.job == sample.job), None)
        if reference is None:
            continue
        for i, (mine, theirs) in enumerate(zip(sample.summaries, reference.summaries)):
            if mine is not None and theirs is not None and _numbers(mine) != _numbers(theirs):
                sample.problems[i].append("traced summary.json differs from untraced")


def provenance(versions: dict) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "regap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "versions": versions,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _number(value) -> float:
    """JSON-safe value: a run whose every child failed reports 0, not NaN."""
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "regap" / "cli.py").is_file():
        print(f"bench: regap sources not found under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    jobs = workload.make_jobs(args.seed)
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # Warm-up: fails fast if regap cannot be imported, and fills the bytecode cache.
    warm = subprocess.run([sys.executable, "-c", "import regap.cli"], cwd=workdir,
                          env=child_env(workdir), capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"bench: cannot import regap.cli:\n{warm.stderr}", file=sys.stderr)
        return 2

    untraced_until = started + (args.seconds / 2 if args.trace else args.seconds)
    samples = run_rounds(jobs, workload.check, workdir, untraced_until, deadline)
    traced = []
    if args.trace:
        traced = [run_child(job, workload.check, workdir, f"{job.name}-traced", True, deadline)
                  for job in jobs]
        compare_traced(traced, samples)

    metrics, stats = end_to_end(samples, jobs, workload.work)
    everything = samples + traced
    attempted = sum(len(s.problems) for s in everything)
    failed = sum(1 for s in everything for p in s.problems if p)
    print(f"regap bench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  {len(jobs)} regap run call(s) per round, {len(samples)} untraced runs, "
          f"{attempted} entries checked, {failed} failed")
    for name, unit, direction in END_TO_END + REPORTED:
        print(f"  {name:<18} {_fmt(metrics[name]):>12} {unit:<6} ({direction} is better)")
    for sample in everything:
        for problems in sample.problems:
            for problem in problems:
                print(f"  FAILED {sample.job.name}: {problem}")

    if args.trace:
        layers = {name: sum(s.layers.get(name, 0) for s in traced) for name, *_ in PER_LAYER}
        layers["tracing.wall_s"] = sum(s.wall_s for s in traced)
        layers["tracing.overhead_s"] = layers["tracing.wall_s"] - metrics["wall_s"]
        units = {name: unit for name, unit, *_ in PER_LAYER} | dict(TRACING)
        print("  per-layer (traced round):")
        for name, value in layers.items():
            print(f"    {name:<38} {_fmt(value):>12} {units[name]}")
        out_metrics = {n: {"value": _number(v), "unit": units[n]} for n, v in layers.items()}
    else:
        out_metrics = {n: {"value": _number(metrics[n]), "unit": u} for n, u, _ in END_TO_END}

    versions = next((s.versions for s in everything if s.versions), {})
    origin = provenance(versions)
    print(f"  provenance: git {origin['git_sha'][:12]}, src {origin['src_sha256'][:12]}, "
          + ", ".join(f"{k} {v}" for k, v in versions.items())
          + f", nproc {origin['nproc']}, " + ", ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "configs": {job.name: job.config for job in jobs},
        "provenance": origin, "timings": stats,
        "metrics": metrics, "result": out_metrics,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
