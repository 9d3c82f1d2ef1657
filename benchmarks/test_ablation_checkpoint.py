"""Ablation: automatic checkpointing after long kernels (§4.6).

Under failure injection, checkpoints bound the replay penalty (fewer
kernels re-executed) at the cost of extra device→host write-backs during
normal operation.
"""

from repro.core import RuntimeConfig
from repro.core.fault import FailureInjector, HotplugEvent
from repro.experiments.report import format_table
from repro.sim import Environment
from repro.simcuda import TESLA_C1060, TESLA_C2050
from repro.workloads import make_job, workload


def run(checkpoint_threshold, fail_at=40.0, n_jobs=4, overlap=False):
    env = Environment()
    from repro.cluster.node import ComputeNode

    config = RuntimeConfig(
        vgpus_per_device=2,
        checkpoint_kernel_seconds=checkpoint_threshold,
    )
    node = ComputeNode(
        env,
        "bench",
        [TESLA_C2050, TESLA_C1060],
        runtime_config=config.overlapped() if overlap else config,
    )
    runtime = node.runtime
    env.process(node.start())
    env.run(until=5.0)

    finish = []
    spec = workload("MM-S").with_cpu_fraction(0.5)

    def run_job(i):
        job = make_job(spec, name=f"mm{i}")
        yield from job.execute(node, submitted_at=env.now)
        finish.append(env.now)

    t0 = env.now
    for i in range(n_jobs):
        env.process(run_job(i))
    FailureInjector(
        runtime, [HotplugEvent(at_seconds=fail_at, action="fail", device_index=0)]
    ).start()
    env.run()
    return {
        "total": max(finish) - t0,
        "completed": len(finish),
        "replayed": runtime.stats.replayed_kernels,
        "checkpoints": runtime.stats.checkpoints,
        "recovered": runtime.stats.failures_recovered,
        "finish": finish,
        "stats": runtime.stats.as_dict(),
    }


def test_ablation_checkpoint_bounds_replay(once):
    # MM-S kernels run 0.2 s each: a 0.1 s threshold checkpoints after
    # every kernel; None never checkpoints automatically.
    with_ckpt, without_ckpt = once(lambda: (run(0.1), run(None)))

    print(
        "\n== Ablation: automatic checkpoint after long kernels ==\n"
        + format_table(
            ["config", "total (s)", "completed", "recovered", "replayed kernels",
             "checkpoints"],
            [
                [
                    "checkpoint ON",
                    f"{with_ckpt['total']:.1f}",
                    str(with_ckpt["completed"]),
                    str(with_ckpt["recovered"]),
                    str(with_ckpt["replayed"]),
                    str(with_ckpt["checkpoints"]),
                ],
                [
                    "checkpoint OFF",
                    f"{without_ckpt['total']:.1f}",
                    str(without_ckpt["completed"]),
                    str(without_ckpt["recovered"]),
                    str(without_ckpt["replayed"]),
                    str(without_ckpt["checkpoints"]),
                ],
            ],
        )
    )

    # Every job survives the failure either way.
    assert with_ckpt["completed"] == without_ckpt["completed"] == 4
    assert with_ckpt["recovered"] >= 1
    assert without_ckpt["recovered"] >= 1
    # Checkpointing happened and bounded the replay to (near) zero.
    assert with_ckpt["checkpoints"] > 0
    assert with_ckpt["replayed"] <= 1
    # Without checkpoints, recovery replays the journaled kernels.
    assert without_ckpt["replayed"] > with_ckpt["replayed"]
