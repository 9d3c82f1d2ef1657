"""Table 2: the benchmark programs.

Regenerates the catalog's rows by actually *running* every application
in isolation on a Tesla C2050 (bare CUDA runtime, as the paper measured
them) and reporting its kernel-call count and measured runtime; asserts
the paper's categories: short-running 3–5 s, long-running 30–90 s
(with the paper's injected CPU fraction for MM-S/MM-L).  The
fine-grained variants (GT-F, AP-F) are printed too but not banded: they
are not Table 2 programs.
"""

from repro.cluster.node import ComputeNode
from repro.experiments.report import format_table
from repro.sim import Environment
from repro.simcuda import TESLA_C2050
from repro.workloads import ALL_WORKLOADS, LONG_RUNNING, SHORT_RUNNING, make_job


def run_alone(spec):
    env = Environment()
    node = ComputeNode(env, "bench", [TESLA_C2050])
    # The paper's long-running jobs include injected CPU phases; use a
    # representative fraction of 1 for the matmul probes.
    effective = spec.with_cpu_fraction(1.0) if spec.tag in ("MM-S", "MM-L") else spec
    job = make_job(effective, use_runtime=False)
    p = env.process(job.execute(node, submitted_at=0.0))
    env.run(until=p)
    return job.outcome.execution_time


def _category(spec):
    if spec in SHORT_RUNNING:
        return "short"
    if spec in LONG_RUNNING:
        return "long"
    return "fine (not in Table 2)"


def test_table2_catalog(once):
    def run_all():
        return {spec.tag: run_alone(spec) for spec in ALL_WORKLOADS}

    times = once(run_all)

    rows = []
    for spec in ALL_WORKLOADS:
        rows.append(
            [
                spec.tag,
                spec.name,
                str(spec.kernel_calls),
                f"{times[spec.tag]:.1f}",
                _category(spec),
            ]
        )
    print(
        "\n== Table 2 (measured on simulated Tesla C2050) ==\n"
        + format_table(
            ["Tag", "Program", "Kernel calls", "Runtime (s)", "Class"], rows
        )
    )

    for spec in SHORT_RUNNING + LONG_RUNNING:
        t = times[spec.tag]
        if spec.long_running:
            assert 30.0 <= t <= 90.0, f"{spec.tag}: {t:.1f}s outside 30-90s"
        else:
            assert 3.0 <= t <= 5.5, f"{spec.tag}: {t:.1f}s outside 3-5s"
