"""Simulator self-profiling: how fast does the simulation itself run?

Every other benchmark reports *simulated* seconds; this one reports the
simulator's own speed — events processed per wall-clock second, simulated
seconds advanced per wall second, event-queue depth and the per-handler
hotspot breakdown — for the canonical overcommitted job mix, untraced
and traced.  The measurement itself lives in
:mod:`repro.experiments.simspeed` (one runner shared with
``repro bench simspeed`` and CI).

Gates asserted here:

* **Sim-time identity**: the untraced run reproduces the pinned
  simulated results (``simspeed_baseline.json``) bit-for-bit — total
  time and every per-job completion time.
* **Zero simulated cost of tracing**: traced and untraced runs advance
  simulated time identically, process identical event counts, and
  tracing costs at most ``MAX_TRACING_OVERHEAD`` in events/sec.
* **Heap-event ceiling (machine-independent)**: both runs process at
  most ``max_events`` heap events.  The count is deterministic; it
  rises several-fold if the kernel's fast paths (heap-head greedy
  resume, immediate grants, one-event delivery) stop firing.
* **Throughput ratchet (machine-pinned)**: untraced events/sec must stay
  above ``min_speedup`` x the baseline's recorded figure; the failure
  message prints old -> new.

Writes ``BENCH_simspeed.json`` and ``BENCH_simspeed_hotspots.txt``
(the SimProfiler hotspot artifact CI uploads).
"""

import json

from repro.experiments import simspeed
from repro.experiments.report import format_table

MAX_TRACING_OVERHEAD = 1.6
REPEATS = 3

#: One full measurement shared by the gate tests (any may run
#: standalone; whichever runs first pays for the measurement).
_CACHE = {}


def _measurement(once):
    def get():
        if "m" not in _CACHE:
            _CACHE["m"] = simspeed.measure(REPEATS)
        return _CACHE["m"]

    return once(get)


def test_identity_and_event_ceiling(once):
    m = _measurement(once)
    res_off, rep_off = m["untraced"]
    res_on, rep_on = m["traced"]
    baseline = simspeed.load_baseline()
    _write_bench(m, baseline)

    # Sim-time identity against the pinned baseline: no rework may move
    # a single simulated timestamp.
    assert res_off.total_time == baseline["sim_total_time"], (
        f"simulated total time diverged from the pinned baseline: "
        f"{res_off.total_time!r} != {baseline['sim_total_time']!r}"
    )
    assert list(res_off.job_times) == baseline["sim_job_times"], (
        "per-job completion times diverged from the pinned baseline"
    )

    # Tracing is observation only: identical simulated outcome.
    assert res_on.total_time == res_off.total_time
    assert res_on.job_times == res_off.job_times
    assert res_on.stats == res_off.stats
    assert rep_on["events"] == rep_off["events"]
    assert rep_on["sim_seconds"] == rep_off["sim_seconds"]

    # Machine-independent: the deterministic heap-event count.
    for mode, rep in (("untraced", rep_off), ("traced", rep_on)):
        assert rep["events"] <= baseline["max_events"], (
            f"{mode} run processed {rep['events']} heap events "
            f"(ceiling {baseline['max_events']}): a kernel fast path "
            f"stopped firing"
        )


def test_tracing_overhead(once):
    m = _measurement(once)
    _, rep_off = m["untraced"]
    _, rep_on = m["traced"]

    # A same-run wall-clock ratio: kept apart from the deterministic
    # gates above so machine noise cannot mask an identity failure.
    overhead = rep_off["events_per_second"] / rep_on["events_per_second"]
    assert overhead <= MAX_TRACING_OVERHEAD, (
        f"tracing costs {overhead:.2f}x in events/sec "
        f"(bound {MAX_TRACING_OVERHEAD}x)"
    )


def test_events_per_second_ratchet(once):
    m = _measurement(once)
    _, rep_off = m["untraced"]
    baseline = simspeed.load_baseline()

    # Machine-pinned throughput ratchet; the message prints old -> new
    # so a CI failure shows the regression magnitude at a glance.
    speedup = rep_off["events_per_second"] / baseline["events_per_second"]
    assert speedup >= baseline["min_speedup"], (
        f"events/sec regressed: baseline "
        f"{baseline['events_per_second']:.0f} -> measured "
        f"{rep_off['events_per_second']:.0f} ({speedup:.2f}x, ratchet "
        f"{baseline['min_speedup']}x)"
    )


def _write_bench(m, baseline):
    res_off, rep_off = m["untraced"]
    _, rep_on = m["traced"]

    print("\n== simulator speed: "
          f"{simspeed.JOB_COUNT}-job overcommit mix, {simspeed.VGPUS} "
          f"vGPUs (best of {REPEATS}) ==\n"
          + simspeed.scorecard(m, baseline))

    with open("BENCH_simspeed.json", "w") as fh:
        json.dump(
            {
                "workload": {
                    "jobs": simspeed.JOB_COUNT,
                    "vgpus": simspeed.VGPUS,
                    "repeats": REPEATS,
                },
                "untraced": rep_off,
                "traced": rep_on,
                "tracing_overhead_ratio": (
                    rep_off["events_per_second"] / rep_on["events_per_second"]
                ),
                "events": rep_off["events"],
                "max_events": baseline["max_events"],
                "events_within_ceiling": (
                    max(rep_off["events"], rep_on["events"])
                    <= baseline["max_events"]
                ),
                "baseline_events_per_second": baseline["events_per_second"],
                "speedup_vs_baseline": (
                    rep_off["events_per_second"]
                    / baseline["events_per_second"]
                ),
                "min_speedup": baseline["min_speedup"],
                "sim_time_matches_pinned_baseline": (
                    res_off.total_time == baseline["sim_total_time"]
                    and list(res_off.job_times) == baseline["sim_job_times"]
                ),
            },
            fh,
            indent=2,
        )
        fh.write("\n")

    # The SimProfiler hotspot artifact CI uploads: where the remaining
    # wall time goes.
    with open("BENCH_simspeed_hotspots.txt", "w") as fh:
        fh.write("hotspots (untraced):\n")
        fh.write(format_table(
            ["handler", "events"],
            [[h["handler"], str(h["events"])] for h in rep_off["hotspots"]],
        ))
        fh.write("\n\n")
