"""Full node-restart flow (paper §4.6: "Our mechanism can be combined
with BLCR in order to enable these mechanisms also after a full restart
of a node").

Sequence: run an application halfway → snapshot its context (the page
table + swap state + replay journal) → "restart": a brand-new
environment, driver and runtime → restore the snapshot → bind → replay →
the device state is reconstructed and the application can continue.
"""

import pytest

from repro.core import NodeRuntime, RuntimeConfig
from repro.core.checkpoint import restore_context, snapshot_context
from repro.core.context import Context, ContextState
from repro.sim import Environment
from repro.simcuda import CudaDriver, KernelDescriptor, KernelLaunch, TESLA_C2050

from tests.core.conftest import Harness, MIB


def make_snapshot(kernels_before_snapshot=3):
    """Run an app halfway on node #1 and capture it."""
    h = Harness()
    box = {}

    def app():
        fe = h.frontend("victim")
        yield from fe.open()
        k = KernelDescriptor(
            name="step", flops=0.3 * TESLA_C2050.effective_gflops * 1e9
        )
        a = yield from fe.cuda_malloc(64 * MIB)
        b = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.cuda_memcpy_h2d(a, 64 * MIB)
        for _ in range(kernels_before_snapshot):
            yield from fe.launch_kernel(k, [a, b])
        ctx = h.runtime.dispatcher.contexts[0]
        box["snapshot"] = snapshot_context(h.memory, ctx)
        # The "node dies" here: no clean exit.

    h.spawn(app())
    h.run()
    return box["snapshot"]


def test_restart_restores_and_replays():
    snap = make_snapshot()
    assert len(snap.journal) == 3  # three un-checkpointed kernels
    assert snap.total_bytes == 96 * MIB

    # --- the restarted node: a completely fresh world -------------------
    env = Environment()
    driver = CudaDriver(env, [TESLA_C2050])
    runtime = NodeRuntime(env, driver, RuntimeConfig(vgpus_per_device=2))
    env.process(runtime.start())
    env.run(until=1.0)

    ctx = Context(env, owner="restored")
    translation = restore_context(runtime.memory, ctx, snap)
    assert len(translation) == 2
    assert runtime.memory.swap.used_bytes == 96 * MIB
    assert len(ctx.replay_journal) == 3

    def resume():
        # The dispatcher would do this on the restored connection's first
        # call: bind, then replay the journal.
        yield from runtime.scheduler.request_binding(ctx)
        yield from runtime.dispatcher.replay_journal(ctx)

    p = env.process(resume())
    env.run(until=p)

    # Device state reconstructed: both buffers resident, kernels re-run.
    assert driver.devices[0].kernels_executed == 3
    assert runtime.stats.replayed_kernels == 3
    entries = runtime.memory.page_table.entries_for(ctx)
    assert len(entries) == 2
    assert all(pte.is_allocated for pte in entries)
    # The journal survives replay: the re-executed effects are still only
    # on the device (a second failure would replay again).
    assert len(ctx.replay_journal) == 3


def test_restart_restores_chunked_snapshot_and_replays():
    """Restoring into a runtime that splits entries into chunks marks
    every chunk of the restored data for transfer, so the replay faults
    all of it back in."""
    snap = make_snapshot()

    env = Environment()
    driver = CudaDriver(env, [TESLA_C2050])
    runtime = NodeRuntime(
        env, driver, RuntimeConfig(vgpus_per_device=2, swap_chunk_bytes=16 * MIB)
    )
    env.process(runtime.start())
    env.run(until=1.0)

    ctx = Context(env, owner="restored")
    restore_context(runtime.memory, ctx, snap)
    entries = runtime.memory.page_table.entries_for(ctx)
    assert sorted(pte.fault_bytes() for pte in entries) == [32 * MIB, 64 * MIB]

    def resume():
        yield from runtime.scheduler.request_binding(ctx)
        yield from runtime.dispatcher.replay_journal(ctx)

    p = env.process(resume())
    env.run(until=p)
    assert driver.devices[0].kernels_executed == 3
    assert runtime.stats.swap_bytes_in == 96 * MIB
    assert all(pte.is_allocated and pte.fault_bytes() == 0 for pte in entries)


def test_restart_then_continue_and_exit_cleanly():
    snap = make_snapshot(kernels_before_snapshot=2)

    env = Environment()
    driver = CudaDriver(env, [TESLA_C2050])
    runtime = NodeRuntime(env, driver, RuntimeConfig(vgpus_per_device=2))
    env.process(runtime.start())
    env.run(until=1.0)

    ctx = Context(env, owner="resumed")
    translation = restore_context(runtime.memory, ctx, snap)
    new_ptrs = list(translation.values())
    k = KernelDescriptor(name="cont", flops=0.2 * TESLA_C2050.effective_gflops * 1e9)

    def resume_and_finish():
        yield from runtime.scheduler.request_binding(ctx)
        yield from runtime.dispatcher.replay_journal(ctx)
        # ...and the application continues past the checkpoint.
        yield from runtime.memory.prepare_and_launch(
            ctx, KernelLaunch(kernel=k, arg_pointers=tuple(new_ptrs))
        )
        yield from runtime.memory.copy_d2h(ctx, new_ptrs[0], 16 * MIB)
        yield from runtime.memory.release_context(ctx)
        runtime.scheduler.release(ctx, "exit")
        ctx.state = ContextState.DONE

    p = env.process(resume_and_finish())
    env.run(until=p)
    assert runtime.memory.swap.used_bytes == 0
    assert driver.devices[0].kernels_executed == 3  # 2 replayed + 1 new
    assert all(v.idle for v in runtime.scheduler.vgpus)


def test_snapshot_after_checkpoint_has_empty_journal():
    h = Harness()
    box = {}

    def app():
        fe = h.frontend("ck")
        yield from fe.open()
        k = KernelDescriptor(name="s", flops=0.2 * TESLA_C2050.effective_gflops * 1e9)
        a = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.launch_kernel(k, [a])
        yield from fe.checkpoint()  # explicit user checkpoint (§4.6)
        ctx = h.runtime.dispatcher.contexts[0]
        box["snap"] = snapshot_context(h.memory, ctx)

    h.spawn(app())
    h.run()
    assert box["snap"].journal == []  # nothing to replay after restore
