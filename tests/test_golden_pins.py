"""Golden pins: the simulated outputs behind the BENCH_* scenarios.

Each scenario re-runs the workload of one benchmark
(``benchmarks/test_*.py``) and compares its simulated results bit for
bit against ``tests/golden_pins.json``: makespans, per-job completion
times, copy/exec overlap and every runtime stat counter.  Wall time is
never pinned.  Any change to how the simulator executes must leave
these values untouched; a deliberate model change regenerates the file
with::

    PYTHONPATH=src python -m tests.test_golden_pins --write

and the diff of the JSON is the reviewable record of what moved.

The ``traced`` scenario pins the event bus the same way: for each
traced run, the event count per kind and the sha256 of its JSON-lines
export, so any change to what is emitted, or to a field's value, shows.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from benchmarks import test_ablation_checkpoint as checkpoint_bench
from benchmarks import test_ablation_deferral as deferral_bench
from benchmarks import test_control_plane as batching_bench
from benchmarks import test_locality_binding as locality_bench
from benchmarks import test_overlap_engine as overlap_bench
from benchmarks import test_policy_exploration as policy_bench
from benchmarks import test_qos_isolation as qos_bench
from benchmarks import test_swap_granularity as swap_bench
from benchmarks import test_trace_replay as trace_bench
from repro.core import NodeRuntime, RuntimeConfig
from repro.core.policies import POLICY_NAMES
from repro.experiments import simspeed
from repro.experiments.harness import run_node_batch
from repro.obs import EVENT_TYPES, json_lines
from repro.simcuda import TESLA_C2050
from repro.workloads.generator import make_job
from repro.workloads.trace_replay import replay_trace, synthetic_trace
from tests.core.test_cuda4 import run_p2p_migration
from tests.core.test_offload import TwoNodeHarness
from tests.core.test_overlap_pipeline import run_checkpoint_abort
from tests.qos.test_preemption_torture import run_torture

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_pins.json")


def _batch(result):
    return {
        "total_time": result.total_time,
        "job_times": list(result.job_times),
        # per device, in device order (device names carry a global id)
        "copy_overlap": list(result.copy_overlap.values()),
        "errors": result.errors,
        "stats": result.stats,
    }


def _swap():
    return {
        "context": _batch(swap_bench.run("context")),
        "partial": _batch(swap_bench.run("partial")),
        "chunked+partial": _batch(
            swap_bench.run("partial", chunk_mib=swap_bench.CHUNK_MIB)
        ),
    }


def _overlap():
    return {
        "deferred": _batch(overlap_bench.run(overlap=False)),
        "overlap": _batch(overlap_bench.run(overlap=True)),
    }


def _qos():
    return {
        "solo": _batch(qos_bench.run_solo()),
        "qos_off": _batch(qos_bench.run_corun(qos=False)),
        "qos_on": _batch(qos_bench.run_corun(qos=True)),
    }


def _locality():
    return {
        "fcfs": _batch(locality_bench._run(locality=False)),
        "locality": _batch(locality_bench._run(locality=True)),
    }


def _batching():
    out = {
        label: {tag: _batch(r) for tag, r in per_workload.items()}
        for label, per_workload in batching_bench._run_all().items()
    }
    workloads = batching_bench.WORKLOADS
    shared = run_node_batch(
        [make_job(spec, name=f"{spec.tag}-shared") for spec in workloads],
        [TESLA_C2050],
        batching_bench.config(
            batch=16,
            vgpus_per_device=1,
            qos_enabled=True,
            vgpu_quantum_s=0.005,
            overlap_transfers=True,
        ),
        label="shared",
    )
    default = run_node_batch(
        [make_job(spec, name=f"{spec.tag}-id") for spec in workloads],
        [TESLA_C2050],
        RuntimeConfig(),
        label="identity",
    )
    out["shared"] = _batch(shared)
    out["default_config"] = _batch(default)
    return out


def _transfers():
    """The memory manager's transfer paths the scenarios above miss:
    per-entry eviction and retention unbind under the overlap engine,
    peer-to-peer migration, eager (undeferred) copies, and automatic
    and explicit checkpoints cut short by a device failure."""

    def overlapped_swap(mode, chunk_mib=0):
        config = RuntimeConfig(
            vgpus_per_device=swap_bench.N_TENANTS,
            eviction_mode=mode,
            swap_chunk_bytes=chunk_mib * swap_bench.MIB,
        ).overlapped()
        jobs = [swap_bench.make_tenant(f"swp{i}") for i in range(swap_bench.N_TENANTS)]
        return _batch(run_node_batch(jobs, [swap_bench.BENCH_GPU], config))

    def overlapped_locality(locality):
        jobs = [locality_bench.make_job(i) for i in range(locality_bench.JOBS)]
        return _batch(run_node_batch(
            jobs,
            [locality_bench.BENCH_GPU] * locality_bench.DEVICES,
            locality_bench._config(locality).overlapped(),
        ))

    def node(h, **extra):
        return {"now": h.env.now, "stats": h.stats.as_dict(), **extra}

    env, runtime, _driver, results = run_torture()
    p2p, p2p_results = run_p2p_migration()
    abort, abort_observed = run_checkpoint_abort()
    return {
        "swap_context": overlapped_swap("context"),
        "swap_partial": overlapped_swap("partial"),
        "swap_chunked+partial": overlapped_swap(
            "partial", chunk_mib=swap_bench.CHUNK_MIB
        ),
        "locality_fcfs": overlapped_locality(False),
        "locality": overlapped_locality(True),
        "preemption_torture": {
            "now": env.now,
            "stats": runtime.stats.as_dict(),
            "results": results,
        },
        "checkpoint_failure": checkpoint_bench.run(0.1),
        "checkpoint_failure_overlap": checkpoint_bench.run(0.1, overlap=True),
        "p2p_migration": node(p2p, results=p2p_results),
        "eager_copies": _batch(deferral_bench.run(False)),
        "checkpoint_abort": node(abort, observed=abort_observed),
    }


def _smoke_slice(policy):
    trace = synthetic_trace(
        trace_bench.SMOKE_JOBS,
        seed=trace_bench.SEED,
        arrival_rate_per_s=trace_bench.ARRIVAL_RATE,
    )
    res = replay_trace(trace, nodes=trace_bench.SMOKE_NODES, policy=policy)
    return {
        "metrics": res.metrics(),
        "stats": res.stats,
        "jobs": [
            [r["job_id"], r["node"], r["finished"], r["ok"]]
            for r in res.records
        ],
    }


def _trace_smoke():
    return _smoke_slice("sjf_est")


def _policies():
    """Every registered scheduling policy on two workloads: the trace
    smoke slice, and the node-level policy sweep, whose mixed waiting
    list is where sjf, edf and credit order differently."""
    return {
        name: {"trace_smoke": _smoke_slice(name), "node": policy_bench.run(name)}
        for name in POLICY_NAMES
    }


def _batching_traced(label, make):
    for spec in batching_bench.WORKLOADS:
        run_node_batch([make(spec, f"{spec.tag}-{label}")], [TESLA_C2050],
                       batching_bench.config(batch=16, graph=True), label=label)


def _offload_traced():
    h = TwoNodeHarness(vgpus=1)
    for i in range(6):
        h.job(h.node_b, f"j{i}", {})
    h.env.run()


#: Traced scenarios: together they emit every kind in ``EVENT_TYPES``.
TRACED = {
    "canonical_mix": lambda: simspeed.run_once(tracing=True),
    "swap_partial": lambda: swap_bench.run("partial"),
    "batching_graph": lambda: _batching_traced("graph", make_job),
    "batching_capture": lambda: _batching_traced(
        "capture", batching_bench.make_capture_job
    ),
    "qos_on": lambda: qos_bench.run_corun(qos=True),
    "locality": lambda: locality_bench._run(locality=True),
    "preemption_torture": run_torture,
    "p2p_migration": run_p2p_migration,
    "checkpoint_failure": lambda: checkpoint_bench.run(0.1),
    "offload": _offload_traced,
}


def traced_pin(name):
    """Run ``TRACED[name]`` with tracing on in every runtime it builds;
    returns the event count per kind and the sha256 of the JSON lines
    (runtimes in construction order)."""
    runtimes = []
    init = NodeRuntime.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.obs.enabled = True
        runtimes.append(self)

    NodeRuntime.__init__ = traced_init
    try:
        TRACED[name]()
    finally:
        NodeRuntime.__init__ = init
    events = [e for runtime in runtimes for e in runtime.obs.events]
    counts = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    digest = hashlib.sha256(json_lines(events).encode()).hexdigest()
    return {"counts": counts, "sha256": digest}


def _traced():
    """Each traced scenario runs in a fresh interpreter: device ids,
    request ids and runtime names come from process-wide counters, so
    only a fresh process makes the event stream independent of what
    ran before it."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    out = {}
    for name in TRACED:
        proc = subprocess.run(
            [sys.executable, "-m", "tests.test_golden_pins", "--traced", name],
            cwd=root, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"traced scenario {name}:\n{proc.stderr}"
        out[name] = json.loads(proc.stdout)
    return out


SCENARIOS = {
    "swap": _swap,
    "overlap": _overlap,
    "qos": _qos,
    "locality": _locality,
    "batching": _batching,
    "trace_smoke": _trace_smoke,
    "policies": _policies,
    "transfers": _transfers,
    "traced": _traced,
}


def _normalise(value):
    """JSON round trip: tuples become lists, floats keep every bit."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_pin(golden, name):
    assert _normalise(SCENARIOS[name]()) == golden[name]


def test_traced_pin_covers_every_kind(golden):
    emitted = {kind for pin in golden["traced"].values() for kind in pin["counts"]}
    assert emitted == {cls.kind for cls in EVENT_TYPES}


def write_golden():
    pins = {name: _normalise(build()) for name, build in SCENARIOS.items()}
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--traced"] and len(sys.argv) == 3:
        print(json.dumps(traced_pin(sys.argv[2])))
    elif sys.argv[1:] == ["--write"]:
        write_golden()
    else:
        sys.exit("usage: python -m tests.test_golden_pins --write | --traced NAME")
