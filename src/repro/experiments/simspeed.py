"""Simulator-throughput measurement: one runner for bench, CLI and CI.

Measures how fast the simulator itself runs — events per wall second and
simulated seconds per wall second — on the canonical overcommitted job
mix, untraced and traced.  ``benchmarks/test_simspeed.py`` asserts the
regression gates over a :func:`measure` result, ``repro bench simspeed``
prints the scorecard interactively, and ``--pin-baseline`` regenerates
``benchmarks/simspeed_baseline.json`` so the CI ratchet can move upward
after a perf win lands on the machine class that records it.

Two kinds of gate live in the baseline JSON:

- machine-pinned: ``events_per_second`` (the untraced figure on the
  recording machine) with ``min_speedup`` sized to absorb CI-machine
  variance;
- machine-independent: ``max_events``, a ceiling on the deterministic
  heap-event count of the mix — it rises several-fold if the kernel's
  fast paths (greedy resume, immediate grants, one-event delivery) stop
  firing, on any machine; and ``max_traced_call_ratio``, a ceiling on
  traced/untraced Python calls (:func:`traced_call_ratio`) — the cost
  of tracing as a deterministic count.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pathlib
import pstats
from typing import Optional

from repro.core.config import RuntimeConfig
from repro.obs import ObsCollector
from repro.sim import SimProfiler
from repro.simcuda.device import TESLA_C2050

__all__ = [
    "JOB_COUNT",
    "VGPUS",
    "REPEATS",
    "BASELINE_PATH",
    "run_once",
    "best_of",
    "measure",
    "python_calls",
    "traced_call_ratio",
    "pin_baseline",
]

#: Canonical overcommit mix: the CLI's default memory-heavy MM-L/BS-L
#: alternation, enough jobs to oversubscribe a C2050 and swap.
JOB_COUNT = 8
VGPUS = 4
#: Wall-clock figures take the best of this many runs (sim results are
#: deterministic; only the wall side is noisy).
REPEATS = 3

#: Pinned simulated results, recorded events/sec and both gates.
BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "simspeed_baseline.json"
)


def run_once(*, tracing: bool):
    """One run of the canonical mix; returns ``(BatchResult, report)``."""
    from repro.cli import _parse_jobs
    from repro.experiments.harness import run_node_batch

    profiler = SimProfiler()
    jobs = _parse_jobs([str(JOB_COUNT)], 0.0)
    config = RuntimeConfig(vgpus_per_device=VGPUS, tracing=tracing)
    collector = ObsCollector() if tracing else None
    result = run_node_batch(jobs, [TESLA_C2050], config, label="simspeed",
                            collector=collector, profiler=profiler)
    assert result.errors == 0
    return result, profiler.report()


def best_of(repeats: int, *, tracing: bool):
    """Fastest of ``repeats`` runs (sim side is identical across them)."""
    runs = [run_once(tracing=tracing) for _ in range(max(1, repeats))]
    result = runs[0][0]
    report = max((rep for _, rep in runs),
                 key=lambda r: r["events_per_second"])
    return result, report


def measure(repeats: int = REPEATS) -> dict:
    """The measurement the bench and CLI share.

    Returns ``{"untraced": (result, report), "traced": (result, report)}``.
    """
    return {
        "untraced": best_of(repeats, tracing=False),
        "traced": best_of(repeats, tracing=True),
    }


def python_calls(*, tracing: bool) -> int:
    """Python function calls cProfile counts in one run of the mix.

    A warm-up run goes first, so imports and first-use caches are not
    counted, and the collector stays off while counting, so finalizers
    of earlier runs' garbage are not counted either: the count is then
    deterministic for a given interpreter.
    """
    run_once(tracing=tracing)
    gc.collect()
    gc.disable()
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        run_once(tracing=tracing)
    finally:
        profile.disable()
        gc.enable()
    return pstats.Stats(profile).total_calls


def traced_call_ratio() -> float:
    """Traced over untraced Python calls on the mix: what tracing costs,
    counted rather than timed."""
    return python_calls(tracing=True) / python_calls(tracing=False)


def load_baseline(path: Optional[pathlib.Path] = None) -> dict:
    return json.loads((path or BASELINE_PATH).read_text())


def pin_baseline(measurement: dict,
                 path: Optional[pathlib.Path] = None) -> dict:
    """Write a fresh ``simspeed_baseline.json`` from ``measurement``.

    Preserves the gate sizes (``min_speedup``/``max_events``/
    ``max_traced_call_ratio``) from the existing baseline when present —
    pinning refreshes the recorded figures, it does not loosen or
    tighten the ratchets.
    """
    path = path or BASELINE_PATH
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        old = {}
    result, report = measurement["untraced"]
    baseline = {
        "comment": (
            "simspeed baseline pinned by `repro bench simspeed "
            "--pin-baseline`. sim_* values pin the canonical 8-job/"
            "4-vGPU overcommit mix's simulated results bit-for-bit. "
            "events_per_second is the untraced figure on the recording "
            "machine with min_speedup as the machine-variance-tolerant "
            "CI ratchet; max_events is a machine-independent ceiling on "
            "the mix's deterministic heap-event count and "
            "max_traced_call_ratio one on its traced/untraced Python "
            "call ratio. See "
            "docs/simulator.md for the honest-throughput scorecard."
        ),
        "workload": {"jobs": JOB_COUNT, "vgpus": VGPUS,
                     "gpu": TESLA_C2050.name},
        "sim_total_time": result.total_time,
        "sim_job_times": list(result.job_times),
        "events_per_second": report["events_per_second"],
        "min_speedup": old.get("min_speedup", 0.7),
        "max_events": old.get("max_events", report["events"]),
    }
    if "max_traced_call_ratio" in old:
        baseline["max_traced_call_ratio"] = old["max_traced_call_ratio"]
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


def scorecard(measurement: dict, baseline: Optional[dict] = None) -> str:
    """Human-readable table for the CLI and the bench's -s output."""
    from repro.experiments.report import format_table

    rows = []
    for mode in ("untraced", "traced"):
        _, rep = measurement[mode]
        rows.append([
            mode,
            str(rep["events"]),
            f"{rep['events_per_second']:.0f}",
            f"{rep['sim_seconds_per_wall_second']:.1f}",
            f"{rep['queue_depth_mean']:.1f}",
            str(rep["queue_depth_peak"]),
        ])
    out = format_table(
        ["mode", "events", "events/s", "sim s / wall s",
         "queue mean", "queue peak"],
        rows,
    )
    untraced = measurement["untraced"][1]
    traced = measurement["traced"][1]
    overhead = untraced["events_per_second"] / traced["events_per_second"]
    out += f"\ntracing overhead: {overhead:.3f}x"
    if baseline is not None:
        speedup = (untraced["events_per_second"]
                   / baseline["events_per_second"])
        out += (
            f"\nheap events vs ceiling: {untraced['events']} "
            f"(max {baseline['max_events']})"
            f"\nevents/s vs recorded baseline: "
            f"{baseline['events_per_second']:.0f} -> "
            f"{untraced['events_per_second']:.0f} ({speedup:.3f}x, "
            f"ratchet {baseline['min_speedup']}x)"
        )
    return out
