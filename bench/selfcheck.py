"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selfcheck.py [--seed N]

Checks that ``BENCHMARK.json`` names the metrics and workloads this code
emits; runs one short traced run of every workload and checks that each
per-layer metric expected to fire there is non-zero (and the bypassed ones
zero), that all outputs pass their checks, and that traced and untraced
runs wrote identical ``summary.json`` numbers (``run.py`` fails an entry
otherwise); finally checks that the benchmark refuses to run, printing no
result, in a directory holding only ``BENCHMARK.json`` and ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

from run import BENCH, END_TO_END, ROOT, TRACING, WORK
from tracer import PER_LAYER
from workloads import WORKLOADS


def check_declarations(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = [
        ("workloads", [(w["name"], w["why"]) for w in spec["workloads"]],
         [(w.name, w.why) for w in WORKLOADS.values()]),
        ("end_to_end", [m["name"] for m in spec["end_to_end"]], [n for n, *_ in END_TO_END]),
        ("per_layer", [m["name"] for m in spec["per_layer"]],
         [n for n, *_ in PER_LAYER] + [n for n, _ in TRACING]),
    ]
    for key, declared, emitted in pairs:
        if declared != emitted:
            failures.append(f"BENCHMARK.json {key} {declared} != emitted {emitted}")


def bench(args: list[str], cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_workload(name: str, seed: int, failures: list[str]) -> None:
    proc = bench(["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                 ROOT)
    if proc.returncode != 0:
        failures.append(f"{name}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not result["correct"] or result["failed"]:
        failures.append(f"{name}: {result['failed']} of {result['attempted']} entries failed\n"
                        + proc.stdout)
    workload = WORKLOADS[name]
    failures += [f"{name}: {m} is 0" for m in workload.fires if not metrics[m] > 0]
    failures += [f"{name}: {m} is {metrics[m]}, expected 0"
                 for m in workload.silent if metrics[m] != 0]
    print(f"{name}: {result['attempted']} entries, "
          f"boundary calls {metrics['divergences.boundary.calls']}, "
          f"fft calls {metrics['divergences.fft.calls']}, "
          f"tracing overhead {metrics['tracing.overhead_s']:.3f} s")


def check_bare_directory(failures: list[str]) -> None:
    bare = WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    name = next(iter(WORKLOADS))
    proc = bench(["--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    failures: list[str] = []
    check_declarations(failures)
    for name in WORKLOADS:
        check_workload(name, args.seed, failures)
    check_bare_directory(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
