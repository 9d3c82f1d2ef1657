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
"""

import json
import pathlib
import sys

import pytest

from benchmarks import test_control_plane as batching_bench
from benchmarks import test_locality_binding as locality_bench
from benchmarks import test_overlap_engine as overlap_bench
from benchmarks import test_qos_isolation as qos_bench
from benchmarks import test_swap_granularity as swap_bench
from benchmarks import test_trace_replay as trace_bench
from repro.core import RuntimeConfig
from repro.experiments.harness import run_node_batch
from repro.simcuda import TESLA_C2050
from repro.workloads.generator import make_job
from repro.workloads.trace_replay import replay_trace, synthetic_trace

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


def _trace_smoke():
    trace = synthetic_trace(
        trace_bench.SMOKE_JOBS,
        seed=trace_bench.SEED,
        arrival_rate_per_s=trace_bench.ARRIVAL_RATE,
    )
    res = replay_trace(trace, nodes=trace_bench.SMOKE_NODES, policy="sjf_est")
    return {
        "metrics": res.metrics(),
        "stats": res.stats,
        "jobs": [
            [r["job_id"], r["node"], r["finished"], r["ok"]]
            for r in res.records
        ],
    }


SCENARIOS = {
    "swap": _swap,
    "overlap": _overlap,
    "qos": _qos,
    "locality": _locality,
    "batching": _batching,
    "trace_smoke": _trace_smoke,
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


def write_golden():
    pins = {name: _normalise(build()) for name, build in SCENARIOS.items()}
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_pins --write")
    write_golden()
