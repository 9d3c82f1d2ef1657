"""Live-work counts (§4.7 placement and offload metric).

``Dispatcher.live_contexts`` and ``Scheduler.total_vgpus`` are counters
kept at the transitions; placement reads them instead of scanning every
context and vGPU the node has ever had.  After every lifecycle step that
moves them, each must equal the history scan it replaced.
"""

from repro.core.context import ContextState
from repro.obs import ObsCollector
from repro.simcuda import TESLA_C1060, TESLA_C2050
from repro.workloads.trace_replay import replay_trace, synthetic_trace

from tests.core.conftest import Harness


def counts(runtime):
    """(live contexts, usable vGPUs), after checking both counters
    against the scans they replace."""
    live = sum(
        1 for c in runtime.dispatcher.contexts if c.state is not ContextState.DONE
    )
    usable = sum(1 for v in runtime.scheduler.vgpus if not v.retired)
    assert runtime.dispatcher.live_contexts == live
    assert runtime.scheduler.total_vgpus == usable
    return live, usable


def test_accept_and_exit():
    h = Harness()
    h.run(until=1.0)
    assert counts(h.runtime) == (0, 4)
    for name in ("a", "b", "c"):
        h.spawn(h.simple_app(name, kernel_count=2, cpu_phase_s=0.5))
    h.run(until=1.5)
    assert counts(h.runtime) == (3, 4)
    h.run()
    assert counts(h.runtime) == (0, 4)
    assert len(h.runtime.dispatcher.contexts) == 3


def test_device_failure_retires_its_vgpus():
    h = Harness(specs=[TESLA_C2050, TESLA_C1060])
    for name in ("a", "b"):
        h.spawn(h.simple_app(name, kernel_count=4, cpu_phase_s=0.3))
    h.run(until=1.5)
    assert counts(h.runtime) == (2, 8)
    device = h.driver.devices[0]
    h.runtime.fail_device(device)
    assert counts(h.runtime) == (2, 4)
    h.runtime.note_device_failure(device)  # idempotent
    assert counts(h.runtime) == (2, 4)
    h.run()
    assert counts(h.runtime) == (0, 4)


def test_graceful_removal_retires_its_vgpus():
    h = Harness(specs=[TESLA_C2050, TESLA_C2050])
    h.spawn(h.simple_app("a", kernel_count=4, cpu_phase_s=0.3))
    h.run(until=1.5)

    def downgrade():
        yield from h.runtime.remove_device_gracefully(h.driver.devices[1])

    p = h.spawn(downgrade())
    h.run(until=p)
    assert counts(h.runtime) == (1, 4)
    h.run()
    assert counts(h.runtime) == (0, 4)


def test_add_device_spawns_usable_vgpus():
    h = Harness()
    h.run(until=1.0)

    def upgrade():
        yield from h.runtime.add_device(TESLA_C2050)

    p = h.spawn(upgrade())
    h.run(until=p)
    assert counts(h.runtime) == (0, 8)


def test_vgpu_shutdown_goes_through_the_retire_step():
    h = Harness()
    h.run(until=1.0)
    vgpu = h.scheduler.vgpus[0]

    def stop():
        yield from vgpu.shutdown()

    p = h.spawn(stop())
    h.run(until=p)
    assert counts(h.runtime) == (0, 3)
    # Retiring an already shut-down vGPU's device counts it once.
    h.runtime.fail_device(vgpu.device)
    assert counts(h.runtime) == (0, 0)


def test_second_start_does_not_double_count():
    h = Harness()
    h.spawn(h.runtime.start())
    h.run()
    assert counts(h.runtime) == (0, 4)


def test_trace_slice_drains_to_zero_live_contexts():
    collector = ObsCollector()
    trace = synthetic_trace(200, seed=2020, arrival_rate_per_s=8.0)
    result = replay_trace(trace, nodes=4, policy="sjf_est", collector=collector)
    assert result.errors == 0
    assert len(collector.runtimes) == 4
    served = 0
    for runtime in collector.runtimes:
        assert counts(runtime) == (0, runtime.config.vgpus_per_device * 2)
        served += len(runtime.dispatcher.contexts)
    assert served >= 200
