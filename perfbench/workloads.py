"""The benchmark's three workloads, built from a seed.

Each workload is a pair of functions: ``inputs(seed)`` makes the inputs
(same seed, same inputs) and ``run(inputs, probe)`` simulates them once
from scratch through the program's own entry points, passing ``probe``
as the harness's profiler so the caller can see when set-up ends.  A run
returns an :class:`Outcome`.

The seed perturbs each workload around a fixed shape: job order and
per-job size for the node workloads, arrival gaps and durations for the
trace.  It never changes the population (which users, which programs),
so the modeled ``sim_*`` metrics spread across seeds by a few percent
rather than by the tens of percent a fresh trace population gives.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Optional

from repro.cluster.jobs import Job
from repro.core.config import RuntimeConfig
from repro.core.frontend import Frontend
from repro.experiments import harness
from repro.simcuda.device import TESLA_C2050, GPUSpec
from repro.simcuda.fatbin import FatBinary
from repro.simcuda.kernels import KernelDescriptor
from repro.workloads import generator, trace_replay
from repro.workloads.finegrained import AGENT_PIPELINE, GRAPH_TRAVERSAL_FINE

MIB = 1024**2


@dataclasses.dataclass
class Outcome:
    """One simulated run, reduced to what the benchmark reports."""

    attempted: int
    completed: int
    failed: int
    jcts: List[float]
    makespan: float
    jain: float
    stats: Dict[str, int]
    #: canonical JSON of every simulated output (per-job records, job
    #: times, RuntimeStats); equal digests mean identical simulations
    digest: str
    #: kernel launches the jobs' programs issued, where the workload
    #: knows it; the runtime must execute exactly these
    launches_issued: Optional[int] = None

    @property
    def p99(self) -> float:
        return trace_replay.percentile(self.jcts, 99)

    @property
    def mean_jct(self) -> float:
        return sum(self.jcts) / len(self.jcts)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _node_outcome(jobs: List[Job], result: harness.BatchResult,
                  launches_issued: int) -> Outcome:
    payload = dataclasses.asdict(result)
    # Device names carry a process-wide serial number; keep device order.
    for key in ("gpu_utilization", "copy_overlap"):
        payload[key] = list(payload[key].values())
    payload["outcomes"] = sorted(
        (j.name, j.outcome.started_at, j.outcome.finished_at,
         j.outcome.error is None)
        for j in jobs
    )
    failed = sum(1 for j in jobs if j.outcome.error is not None)
    return Outcome(
        attempted=len(jobs),
        completed=sum(1 for j in jobs if j.outcome.error is None),
        failed=failed,
        jcts=list(result.job_times),
        makespan=result.total_time,
        jain=trace_replay.jain_index(result.job_times),
        stats=dict(result.stats),
        digest=_digest(payload),
        launches_issued=launches_issued,
    )


# ----------------------------------------------------------------------
# node-finegrained: control-plane path, every call its own RPC
# ----------------------------------------------------------------------
FINE_JOBS = 8


def finegrained_inputs(seed: int):
    rng = random.Random(seed)
    specs = []
    for i in range(FINE_JOBS):
        base = (GRAPH_TRAVERSAL_FINE, AGENT_PIPELINE)[i % 2]
        scale = rng.uniform(0.95, 1.05)
        calls = round(base.kernel_calls * scale)
        specs.append(dataclasses.replace(
            base,
            kernel_calls=calls,
            gpu_seconds_c2050=base.gpu_seconds_c2050 * calls / base.kernel_calls,
        ))
    rng.shuffle(specs)
    return specs


def finegrained_run(specs, probe) -> Outcome:
    jobs = [generator.make_job(spec, name=f"{spec.tag}#{i}")
            for i, spec in enumerate(specs)]
    config = RuntimeConfig(vgpus_per_device=4, batch_max_calls=1)
    result = harness.run_node_batch(jobs, [TESLA_C2050], config,
                                    label="node-finegrained", profiler=probe)
    return _node_outcome(jobs, result, sum(s.kernel_calls for s in specs))


# ----------------------------------------------------------------------
# node-swap: overcommitted tenants, chunked partial eviction
# ----------------------------------------------------------------------
#: A C2050-class card with 2 GiB.
SWAP_GPU = GPUSpec(name="SwapGPU", sm_count=14, cores_per_sm=32,
                   clock_ghz=1.15, memory_bytes=2048 * MIB)
SWAP_TENANTS = 4
SWAP_ROUNDS = 750
SWAP_CHUNK = 64 * MIB
#: Nominal per-tenant buffers: 4 x (384 + 192) MiB of working sets on
#: 1792 MiB usable, so launches evict each other's chunks yet rarely
#: find nothing evictable (few retries, steady host time).
SWAP_IN_MIB = 384
SWAP_OUT_MIB = 192


def swap_inputs(seed: int):
    rng = random.Random(seed)
    return [
        {
            "name": f"tenant{i}",
            # read-only input: evicted by a clean drop
            "in_bytes": round(SWAP_IN_MIB * rng.uniform(0.97, 1.03)) * MIB,
            # kernel-written output: evicted by a dirty write-back
            "out_bytes": round(SWAP_OUT_MIB * rng.uniform(0.97, 1.03)) * MIB,
            "kernel_s": rng.uniform(0.09, 0.11),
            "cpu_s": rng.uniform(0.18, 0.22),
        }
        for i in range(SWAP_TENANTS)
    ]


def _swap_tenant(t) -> Job:
    def body(node):
        fe = Frontend(node.env, node.runtime.listener, name=t["name"])
        yield from fe.open()
        kernel = KernelDescriptor(
            name="step", flops=t["kernel_s"] * SWAP_GPU.effective_gflops * 1e9)
        handle = yield from fe.register_fat_binary(FatBinary())
        yield from fe.register_function(handle, kernel)
        src = yield from fe.cuda_malloc(t["in_bytes"])
        out = yield from fe.cuda_malloc(t["out_bytes"])
        yield from fe.cuda_memcpy_h2d(src, t["in_bytes"])
        for _ in range(SWAP_ROUNDS):
            yield from fe.launch_kernel(kernel, [src, out], read_only=[src])
            yield from node.cpu_phase(t["cpu_s"])
        yield from fe.cuda_memcpy_d2h(out, t["out_bytes"])
        yield from fe.cuda_free(src)
        yield from fe.cuda_free(out)
        yield from fe.cuda_thread_exit()

    return Job(t["name"], body, tag="SWP")


def swap_run(tenants, probe) -> Outcome:
    jobs = [_swap_tenant(t) for t in tenants]
    config = RuntimeConfig(vgpus_per_device=SWAP_TENANTS,
                           eviction_mode="partial",
                           swap_chunk_bytes=SWAP_CHUNK)
    result = harness.run_node_batch(jobs, [SWAP_GPU], config,
                                    label="node-swap", profiler=probe)
    return _node_outcome(jobs, result, SWAP_ROUNDS * len(tenants))


# ----------------------------------------------------------------------
# cluster-trace: open-loop trace replay on 32 nodes x 2 GPUs
# ----------------------------------------------------------------------
TRACE_JOBS = 1500
TRACE_NODES = 32
TRACE_RATE = 24.0
#: Fixes the user population, group scales and job sequence; the run's
#: seed only jitters arrival gaps and durations around it.
TRACE_SHAPE_SEED = 2020
#: Durations are capped so one straggler arriving near the end of the
#: trace does not set the makespan by itself: uncapped 30 s jobs make
#: it swing by ~30% with the jitter alone.
TRACE_MAX_DURATION_S = 8.0


def trace_inputs(seed: int):
    rng = random.Random(seed)
    base = trace_replay.synthetic_trace(
        TRACE_JOBS, seed=TRACE_SHAPE_SEED, arrival_rate_per_s=TRACE_RATE)
    jobs, prev_base, prev = [], 0.0, 0.0
    for tj in base:
        prev += (tj.submit_time - prev_base) * rng.uniform(0.9, 1.1)
        prev_base = tj.submit_time
        jobs.append(dataclasses.replace(
            tj,
            submit_time=round(prev, 6),
            duration=round(min(tj.duration, TRACE_MAX_DURATION_S)
                           * rng.uniform(0.95, 1.05), 6),
        ))
    return jobs


def trace_run(trace, probe) -> Outcome:
    res = trace_replay.replay_trace(trace, nodes=TRACE_NODES, gpus_per_node=2,
                                    policy="fairshare", profiler=probe)
    payload = {"records": res.records, "stats": res.stats,
               "errors": res.errors, "metrics": res.metrics()}
    ok = [r for r in res.records if r["ok"]]
    return Outcome(
        attempted=len(trace),
        completed=len(ok),
        failed=len(res.records) - len(ok),
        jcts=res.jcts,
        makespan=res.makespan,
        jain=res.jain_fairness,
        stats=dict(res.stats),
        digest=_digest(payload),
    )


#: name -> (inputs, run)
WORKLOADS: Dict[str, tuple] = {
    "node-finegrained": (finegrained_inputs, finegrained_run),
    "node-swap": (swap_inputs, swap_run),
    "cluster-trace": (trace_inputs, trace_run),
}
