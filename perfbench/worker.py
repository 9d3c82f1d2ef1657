"""One fresh benchmark process: set up, then measure one way.

Run by ``run.py``, one child at a time::

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SPAWNED_AT

``SPAWNED_AT`` is the parent's ``CLOCK_MONOTONIC`` reading just before
it started this process, so set-up time includes interpreter start and
imports.  MODE is one of

``setup``
    make the inputs, build and boot the simulated node or cluster, and
    stop as the first job is submitted;
``measure``
    run the workload from scratch again and again, untraced, until
    SECONDS have passed (at least twice);
``trace``
    the same with every layer entry point wrapped in spans.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import signal
import statistics
import sys
import time


class SpeedGauge:
    """How fast this host runs right now, sampled while the benchmark runs.

    Other tenants of a shared machine slow it down by tens of percent for
    seconds at a time.  Every ``PERIOD_S`` of wall time a timer signal
    runs a fixed pure-Python loop (no program code) and records its
    duration.  :meth:`stop` returns the slowdown, the median sample over
    the loop's time on the reference host, so ``host_s / slowdown``
    estimates what the same work takes there.  The handler touches
    nothing the simulation reads.
    """

    PERIOD_S = 0.01
    #: median loop time on the reference host, a 2-vCPU x86-64 VM
    #: running CPython 3.11 while uncontended
    REFERENCE_S = 50e-6

    def __init__(self):
        self.samples = []
        self.running = False

    @staticmethod
    def _loop() -> None:
        table = {}
        for i in range(400):
            table[i & 127] = (i, i & 63)

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        self._loop()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        self.samples.clear()
        self.running = True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; returns the slowdown over the sampled span."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False
        return statistics.median(self.samples) / self.REFERENCE_S


GAUGE = SpeedGauge()

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

MIN_REPS = 2


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(Exception):
    """Raised at the first job submission in ``setup`` mode."""


class Probe:
    """The harness's ``profiler``: marks where the measured phase runs.

    Both harnesses boot with ``env.run(until=...)``, submit jobs, then
    drain with a second ``env.run()``; the second call is the measured
    phase, timed and sampled by :data:`GAUGE`.  Events are counted only
    when ``count_events`` is set (traced runs), so untraced runs pay no
    per-event hook.
    """

    def __init__(self, stop_at_submit=False, on_submit=None, count_events=False):
        self.stop_at_submit = stop_at_submit
        self.on_submit = on_submit
        self.count_events = count_events
        self.t_submit = self.t_end = None
        self.setup_slowdown = self.slowdown = None
        self.events = 0

    def attach(self, env) -> None:
        run = type(env).run
        calls = 0

        def probed_run(until=None):
            nonlocal calls
            calls += 1
            if calls != 2:
                return run(env, until)
            self.t_submit = now()
            if GAUGE.running:  # set-up of the process's first repetition
                self.setup_slowdown = GAUGE.stop()
            if self.stop_at_submit:
                raise SetupDone
            if self.on_submit is not None:
                self.on_submit()
            if self.count_events:
                env.profiler = self
            GAUGE.start()
            try:
                return run(env, until)
            finally:
                self.t_end = now()
                self.slowdown = GAUGE.stop()
                env.profiler = None

        env.run = probed_run

    def on_event(self, event, depth) -> None:
        self.events += 1

    def detach(self) -> None:
        pass

    @property
    def host_s(self) -> float:
        return self.t_end - self.t_submit


def outcome_record(outcome, probe: Probe) -> dict:
    return {
        "digest": outcome.digest,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "failed": outcome.failed,
        "launches": outcome.stats["kernels_launched"],
        "launches_issued": outcome.launches_issued,
        "host_s": probe.host_s,
        "slowdown": probe.slowdown,
    }


def sim_metrics(outcome) -> dict:
    return {
        "sim_makespan_s": outcome.makespan,
        "sim_mean_jct_s": outcome.mean_jct,
        "sim_p99_jct_s": outcome.p99,
        "sim_jain_fairness": outcome.jain,
    }


def layer_metrics(tracer: layers.SpanTracer, probe: Probe, outcome) -> dict:
    """Per-layer figures of one traced repetition (see README.md)."""
    jobs = outcome.attempted
    stats = outcome.stats
    launches = stats["kernels_launched"]
    out = {}
    counts = {layer: sum(tracer.calls[s] for s in specs)
              for layer, specs in layers.ENTRY_POINTS.items()}
    for layer in layers.LAYERS:
        out[f"{layer}.self_ms_per_job"] = tracer.self_s[layer] * 1e3 / jobs
        out[f"{layer}.calls_per_job"] = counts[layer] / jobs

    out["sim.events_per_job"] = probe.events / jobs

    channels = tracer.captured["repro.net.channel:Channel.send"].values()
    sends = sum(ch.messages_sent for ch in channels)
    out["net.sends_per_job"] = tracer.calls["repro.net.channel:Channel.send"] / jobs
    out["net.bytes_per_send"] = (sum(ch.bytes_sent for ch in channels) / sends
                                 if sends else 0.0)

    picks = (tracer.calls["repro.core.policies:FcfsPolicy.pick_next"]
             + tracer.calls["repro.core.policies:FairSharePolicy.pick_next"])
    out["core.scheduler.picks_per_job"] = picks / jobs
    out["core.scheduler.self_us_per_pick"] = (
        tracer.self_s["core.scheduler"] * 1e6 / picks if picks else 0.0)
    runtimes = tracer.captured["repro.core.runtime:NodeRuntime.start"].values()
    waits = [rt.metrics.get("queue_wait_seconds") for rt in runtimes]
    n_waits = sum(h.count for h in waits)
    out["core.scheduler.sim_queue_wait_s"] = (
        sum(h.sum for h in waits) / n_waits if n_waits else 0.0)

    out["core.memory.self_ms_per_launch"] = tracer.self_s["core.memory"] * 1e3 / launches
    out["core.memory.calls_per_launch"] = counts["core.memory"] / launches
    out["core.memory.swap_mb_per_launch"] = (
        (stats["swap_bytes_in"] + stats["swap_bytes_out"]) / 2**20 / launches)
    out["core.memory.retry_ratio"] = stats["swap_retries"] / launches
    freed = stats["eviction_bytes_freed"]
    out["core.memory.writeback_ratio"] = (
        stats["eviction_writeback_bytes"] / freed if freed else 0.0)

    driver_specs = [s for s in layers.ENTRY_POINTS["simcuda"]
                    if ":CudaDriver." in s]
    out["simcuda.driver_calls_per_job"] = (
        sum(tracer.calls[s] for s in driver_specs) / jobs)
    devices = [d for rt in runtimes for d in rt.driver.devices]
    out["simcuda.gpu_busy_frac"] = (
        sum(d.busy_seconds for d in devices) / (len(devices) * outcome.makespan))

    placement = tracer.durations["repro.core.runtime:NodeRuntime.load_per_vgpu"]
    out["core.runtime.placement_calls_per_job"] = len(placement) / jobs
    out["core.runtime.placement_us_per_call"] = (
        sum(placement) * 1e6 / len(placement) if placement else 0.0)
    quarter = len(placement) // 4
    out["core.runtime.placement_growth"] = (
        sum(placement[-quarter:]) / sum(placement[:quarter]) if quarter else 0.0)
    return out


def main(argv) -> int:
    # Sample the host's speed over set-up from here to the first job
    # submission; the program's imports are most of it.
    GAUGE.start()
    import workloads

    mode, name, seed, seconds, spawned_at = argv
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    make_inputs, run = workloads.WORKLOADS[name]
    inputs = make_inputs(seed)

    if mode == "setup":
        probe = Probe(stop_at_submit=True)
        try:
            run(inputs, probe)
        except SetupDone:
            pass
        print(json.dumps({"setup_s": probe.t_submit - spawned_at,
                          "setup_slowdown": probe.setup_slowdown}))
        return 0

    tracer = None
    if mode == "trace":
        tracer = layers.SpanTracer()
        tracer.install()
    reps, per_layer, counts = [], [], []
    start = None
    try:
        while len(reps) < MIN_REPS or now() - start < seconds:
            on_submit = None
            if tracer is not None:
                tracer.reset()
                on_submit = tracer.restart
            probe = Probe(on_submit=on_submit, count_events=tracer is not None)
            outcome = run(inputs, probe)
            if start is None:
                start = probe.t_submit
                setup_s = probe.t_submit - spawned_at
                setup_slowdown = probe.setup_slowdown
                sim = sim_metrics(outcome)
            reps.append(outcome_record(outcome, probe))
            if tracer is not None:
                counts.append(dict(tracer.calls, events=probe.events))
                per_layer.append(layer_metrics(tracer, probe, outcome))
            del outcome
            gc.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "setup_slowdown": setup_slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reps": reps,
        "sim": sim,
    }
    if tracer is not None:
        result["leftover_wrappers"] = tracer.leftover_wrappers()
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        result["per_layer"] = {
            key: statistics.median(rep[key] for rep in per_layer)
            for key in per_layer[0]
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
