"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in fresh child processes (``worker.py``), one at a
time, checks the simulated outputs and prints one JSON object as the
last line of standard output.

``--trace 0`` reports the end-to-end metrics: several set-up-only
children give a median ``setup_s``, then one child measures untraced for
``--seconds``.  ``--trace 1`` reports the per-layer metrics: one
untraced and one traced child, ``--seconds / 2`` each, so the traced
run's digest and host time can be compared with the untraced run's.

Exit status is non-zero, with no result printed, when the benchmark
cannot run: the layer map no longer matches ``src/repro``, a child
fails, or the metrics measured are not those ``BENCHMARK.json`` lists.
Simulated outputs that differ between runs, or jobs and launches that
do not add up, are reported as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: Set-up-only children per untraced run; with the measuring child's
#: own set-up that makes five samples for the median.
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child(mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Run one ``worker.py`` to completion; its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
           repr(seconds), repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ref_seconds(rep) -> float:
    """A repetition's host seconds on the reference host (see worker.py)."""
    return rep["host_s"] / rep["slowdown"]


def check_outputs(runs, problems) -> None:
    """Every repetition of every run simulated the same thing."""
    reps = [rep for run in runs for rep in run["reps"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"simulated outputs differ between runs: {sorted(digests)}")
    for rep in reps:
        if rep["completed"] + rep["failed"] != rep["attempted"]:
            problems.append(f"{rep['attempted']} jobs attempted but "
                            f"{rep['completed']} completed and {rep['failed']} failed")
        issued = rep["launches_issued"]
        if issued is not None and rep["launches"] != issued:
            problems.append(f"{issued} kernel launches issued "
                            f"but {rep['launches']} executed")


def untraced(workload: str, seed: int, seconds: float, problems):
    setups = [child("setup", workload, seed, 0) for _ in range(SETUP_SAMPLES)]
    run = child("measure", workload, seed, seconds)
    check_outputs([run], problems)
    setups.append(run)
    metrics = {
        "jobs_per_host_s": statistics.median(
            rep["completed"] / ref_seconds(rep) for rep in run["reps"]),
        "setup_s": statistics.median(
            r["setup_s"] / r["setup_slowdown"] for r in setups),
        "peak_rss_mb": run["peak_rss_mb"],
        **run["sim"],
    }
    return [run], metrics


def traced(workload: str, seed: int, seconds: float, problems):
    plain = child("measure", workload, seed, seconds / 2)
    spans = child("trace", workload, seed, seconds / 2)
    check_outputs([plain, spans], problems)
    if spans["leftover_wrappers"]:
        problems.append(f"span wrappers left installed: {spans['leftover_wrappers']}")
    if not spans["counts_repeat"]:
        problems.append("per-layer call counts differ between traced runs")
    metrics = dict(spans["per_layer"])
    metrics["trace_overhead"] = (
        statistics.median(ref_seconds(rep) for rep in spans["reps"])
        / statistics.median(ref_seconds(rep) for rep in plain["reps"]))
    table = ["layer            self ms/job   calls/job"]
    for layer in layers.LAYERS:
        table.append(f"{layer:<16} {metrics[layer + '.self_ms_per_job']:>11.3f}"
                     f" {metrics[layer + '.calls_per_job']:>11.1f}")
    print("\n".join(table))
    return [plain, spans], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "repro").is_dir():
            raise BenchError(f"no program source at {SRC / 'repro'}")
        problems = layers.self_check(SRC)
        if problems:
            raise BenchError("layer map out of date:\n" + "\n".join(problems))
        units = {m["name"]: m["unit"]
                 for m in SPEC["per_layer" if args.trace else "end_to_end"]}
        problems = []
        measure = traced if args.trace else untraced
        runs, metrics = measure(args.workload, args.seed, args.seconds, problems)
        if metrics.keys() != units.keys():
            raise BenchError("measured metrics differ from BENCHMARK.json: "
                             f"{sorted(metrics.keys() ^ units.keys())}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    reps = [rep for run in runs for rep in run["reps"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
