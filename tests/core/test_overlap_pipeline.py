"""Overlap engine + swap-accounting/recovery bugfix cluster.

Covers the stream-pipelined transfer paths (async bulk H2D, asynchronous
checkpoint write-backs, CPU-phase prefetch), the unified swap accounting
(stats counter == histogram == trace events, clean entries observe
nothing), the single replay implementation, and scheduler behavior when
devices retire under waiting contexts.
"""

import pytest

from repro.core import RuntimeConfig
from repro.obs import SwapOut
from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050
from repro.simcuda.errors import CudaError, CudaRuntimeError

from tests.core.conftest import Harness, MIB


def assert_swap_accounting_consistent(h):
    """The acceptance invariant: histogram totals equal the counters."""
    assert h.memory._swap_out_bytes.sum == h.stats.swap_bytes_out
    assert h.memory._swap_in_bytes.sum == h.stats.swap_bytes_in


def update_heavy_app(h, name, rounds=4, alloc_mib=512, kernel_seconds=0.3,
                     cpu_phase_s=0.4, results=None):
    """h2d → CPU gap → kernel → CPU gap, each round: the overlap-friendly
    pattern where transfers can hide under the application's CPU phases."""

    def _app():
        fe = h.frontend(name)
        yield from fe.open()
        fatbin = FatBinary()
        k = KernelDescriptor(
            name=f"{name}-k",
            flops=kernel_seconds * TESLA_C2050.effective_gflops * 1e9,
        )
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        size = alloc_mib * MIB
        ptr = yield from fe.cuda_malloc(size)
        start = h.env.now
        for _ in range(rounds):
            yield from fe.cuda_memcpy_h2d(ptr, size)
            yield h.env.timeout(cpu_phase_s)
            yield from fe.launch_kernel(k, [ptr])
            yield h.env.timeout(cpu_phase_s)
        yield from fe.cuda_memcpy_d2h(ptr, size)
        yield from fe.cuda_free(ptr)
        yield from fe.cuda_thread_exit()
        if results is not None:
            results.append(h.env.now - start)

    return _app()


# ----------------------------------------------------------------------
# copy_h2d eager branch (defer_transfers=False)
# ----------------------------------------------------------------------
def test_eager_copy_h2d_transfers_immediately_when_bound():
    """With deferral off, a host write to a resident entry pushes the
    data right away — and only the launch-time bulk path counts swap-in
    bytes, so the byte counters tell eager and deferred apart."""
    size = 64 * MIB

    def run(defer):
        h = Harness(config=RuntimeConfig(defer_transfers=defer))

        def app():
            fe = h.frontend("eager")
            yield from fe.open()
            fatbin = FatBinary()
            k = KernelDescriptor(name="k", flops=1e9)
            handle = yield from fe.register_fat_binary(fatbin)
            yield from fe.register_function(handle, k)
            ptr = yield from fe.cuda_malloc(size)
            yield from fe.cuda_memcpy_h2d(ptr, size)   # unbound: deferred
            yield from fe.launch_kernel(k, [ptr])       # binds + bulk H2D
            yield from fe.cuda_memcpy_h2d(ptr, size)   # bound + resident
            yield from fe.launch_kernel(k, [ptr])
            yield from fe.cuda_thread_exit()

        h.spawn(app())
        h.run()
        return h

    eager = run(defer=False)
    deferred = run(defer=True)
    # Two device transfers either way…
    assert eager.stats.h2d_device_transfers == 2
    assert deferred.stats.h2d_device_transfers == 2
    # …but the eager second copy bypasses the launch-time bulk path.
    assert eager.stats.swap_bytes_in == size
    assert deferred.stats.swap_bytes_in == 2 * size
    assert_swap_accounting_consistent(eager)
    assert_swap_accounting_consistent(deferred)


# ----------------------------------------------------------------------
# bugfix: clean-entry swap-out must observe nothing
# ----------------------------------------------------------------------
def test_clean_entry_swap_out_observes_no_bytes_and_no_event():
    """An inter-application swap of entries the victim's kernels only
    *read* moves no data device→host: the histogram, the counter and the
    trace must all agree on zero."""
    h = Harness(config=RuntimeConfig(vgpus_per_device=2, tracing=True))

    def tenant(name, read_only, cpu_tail_s):
        def _app():
            fe = h.frontend(name)
            yield from fe.open()
            fatbin = FatBinary()
            k = KernelDescriptor(name=f"{name}-k", flops=1e9)
            handle = yield from fe.register_fat_binary(fatbin)
            yield from fe.register_function(handle, k)
            size = 1800 * MIB
            ptr = yield from fe.cuda_malloc(size)
            yield from fe.cuda_memcpy_h2d(ptr, size)
            yield from fe.launch_kernel(
                k, [ptr], read_only=[ptr] if read_only else []
            )
            yield h.env.timeout(cpu_tail_s)
            yield from fe.cuda_thread_exit()

        return _app()

    # The victim launches first and then idles in a CPU phase with a
    # clean (read-only) working set; the second tenant's launch must
    # evict it to fit.
    h.spawn(tenant("victim", read_only=True, cpu_tail_s=30.0))

    def late_tenant():
        yield h.env.timeout(3.0)
        yield from tenant("intruder", read_only=False, cpu_tail_s=0.0)

    h.spawn(late_tenant())
    h.run()
    assert h.stats.swaps_inter >= 1
    assert h.stats.swap_bytes_out == 0
    assert h.memory._swap_out_bytes.count == 0
    assert h.runtime.obs.events_of(SwapOut) == []
    assert_swap_accounting_consistent(h)


# ----------------------------------------------------------------------
# bugfix: copy_d2h write-back is accounted like any other swap-out
# ----------------------------------------------------------------------
def test_copy_d2h_write_back_accounts_bytes_histogram_and_event():
    h = Harness(config=RuntimeConfig(tracing=True))
    size_mib = 96
    h.spawn(h.simple_app("writer", alloc_mib=size_mib))
    h.run()
    # The kernel dirtied the buffer; the final d2h wrote it back.
    assert h.stats.swap_bytes_out == size_mib * MIB
    assert h.memory._swap_out_bytes.count == 1
    assert h.memory._swap_out_bytes.sum == size_mib * MIB
    events = h.runtime.obs.events_of(SwapOut)
    assert len(events) == 1 and events[0].nbytes == size_mib * MIB
    assert_swap_accounting_consistent(h)


# ----------------------------------------------------------------------
# bugfix: device retirement must not strand waiting contexts
# ----------------------------------------------------------------------
def test_retiring_last_device_fails_waiters_instead_of_hanging():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1))
    outcome = {}

    def holder():
        fe = h.frontend("holder")
        yield from fe.open()
        fatbin = FatBinary()
        k = KernelDescriptor(
            name="long-k", flops=20.0 * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        ptr = yield from fe.cuda_malloc(64 * MIB)
        try:
            yield from fe.launch_kernel(k, [ptr])
        except CudaRuntimeError:
            pass  # its device dies mid-kernel

    def waiter():
        fe = h.frontend("waiter")
        yield from fe.open()
        fatbin = FatBinary()
        k = KernelDescriptor(name="w-k", flops=1e9)
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        ptr = yield from fe.cuda_malloc(64 * MIB)
        yield h.env.timeout(8.0)  # the holder is mid-kernel: queue behind it
        try:
            yield from fe.launch_kernel(k, [ptr])
            outcome["result"] = "completed"
        except CudaRuntimeError as exc:
            outcome["result"] = exc.code

    def killer():
        yield h.env.timeout(12.0)
        h.runtime.fail_device(h.driver.devices[0])

    h.spawn(holder())
    h.spawn(waiter())
    h.spawn(killer())
    h.run()
    # Before the fix the waiter slept forever on its binding grant; now
    # it observes devices-unavailable once the rebind attempts run out.
    assert outcome["result"] == CudaError.cudaErrorDevicesUnavailable
    waiting_ctx = next(
        c for c in h.runtime.dispatcher.contexts if c.owner == "waiter"
    )
    assert h.scheduler.waiting_count == 0
    assert waiting_ctx not in h.scheduler._waiting_events


def test_request_binding_fails_fast_with_no_healthy_device():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1))
    h.run(until=1.0)  # let the runtime boot
    h.runtime.fail_device(h.driver.devices[0])
    from repro.core.context import Context

    ctx = Context(h.env, owner="late")

    def try_bind():
        try:
            yield from h.scheduler.request_binding(ctx)
        except CudaRuntimeError as exc:
            return exc.code
        return None

    p = h.spawn(try_bind())
    h.run(until=2.0)
    assert p.value == CudaError.cudaErrorDevicesUnavailable


# ----------------------------------------------------------------------
# the tentpole: pipelined transfers beat the deferred baseline
# ----------------------------------------------------------------------
def test_overlap_mode_reduces_makespan_and_overlaps_engines():
    base = RuntimeConfig(vgpus_per_device=2, checkpoint_kernel_seconds=0.0)

    def run(config):
        h = Harness(config=config)
        times = []
        for i in range(2):
            h.spawn(update_heavy_app(h, f"tenant{i}", results=times))
        h.run()
        return h, max(times)

    h_def, makespan_def = run(base)
    h_ovl, makespan_ovl = run(base.overlapped())

    # Same work, strictly less wall-clock: write-backs and prefetched
    # bulk transfers hid under the CPU phases.
    assert makespan_ovl < makespan_def
    # The copy and exec engines genuinely ran concurrently.
    assert h_ovl.driver.devices[0].copy_exec_overlap_seconds > 0
    # The prefetch hook did real work and the launches consumed it.
    assert h_ovl.stats.prefetch_issued > 0
    assert h_ovl.stats.prefetch_hits > 0
    assert h_ovl.stats.prefetch_bytes > 0
    assert h_def.stats.prefetch_issued == 0
    # Checkpoints still happened (asynchronously) in overlap mode.
    assert h_ovl.stats.checkpoints > 0
    # Accounting stays consistent on both paths.
    assert_swap_accounting_consistent(h_def)
    assert_swap_accounting_consistent(h_ovl)
    assert h_ovl.stats.swap_bytes_out == h_def.stats.swap_bytes_out


def test_overlap_mode_preserves_kernel_and_transfer_counts():
    """Pipelining must not change *what* work happens — only when."""
    base = RuntimeConfig(vgpus_per_device=2, checkpoint_kernel_seconds=0.0)

    def run(config):
        h = Harness(config=config)
        for i in range(2):
            h.spawn(update_heavy_app(h, f"tenant{i}", rounds=3))
        h.run()
        return h

    h_def = run(base)
    h_ovl = run(base.overlapped())
    assert h_ovl.stats.kernels_launched == h_def.stats.kernels_launched
    assert h_ovl.stats.checkpoints == h_def.stats.checkpoints
    # Every entry each launch needed still got exactly one bulk transfer
    # (prefetched or launch-time), so total swap-in traffic is identical.
    assert h_ovl.stats.swap_bytes_in == h_def.stats.swap_bytes_in


# ----------------------------------------------------------------------
# a device failure while asynchronous checkpoint write-backs are in flight
# ----------------------------------------------------------------------
def run_checkpoint_abort():
    """One app on two single-vGPU C2050s (overlap engine on): 1 GiB in,
    one 0.2 s kernel, then an explicit checkpoint, which returns with its
    write-back still queued on the copy stream; device 0 fails 10 ms
    later and the app reads the data back after a 0.7 s CPU phase.
    Returns ``(h, observed)``."""
    h = Harness(
        specs=[TESLA_C2050, TESLA_C2050],
        config=RuntimeConfig(vgpus_per_device=1).overlapped(),
    )
    observed = {}

    def fail_device_later():
        yield h.env.timeout(0.01)
        h.runtime.fail_device(h.driver.devices[0])

    def app():
        fe = h.frontend("ckpt")
        yield from fe.open()
        k = KernelDescriptor(
            name="ckpt-k", flops=0.2 * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(FatBinary())
        yield from fe.register_function(handle, k)
        ptr = yield from fe.cuda_malloc(1024 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 1024 * MIB)
        yield from fe.launch_kernel(k, [ptr])
        yield from fe.checkpoint()
        (ctx,) = h.memory.page_table.contexts()
        observed["checkpoint_returned"] = h.env.now
        observed["pending_at_return"] = len(h.memory._pending_writebacks)
        h.spawn(fail_device_later())
        yield h.env.timeout(0.7)
        observed["journal_after_failure"] = len(ctx.replay_journal)
        yield from fe.cuda_memcpy_d2h(ptr, 1024 * MIB)
        yield from fe.cuda_free(ptr)
        yield from fe.cuda_thread_exit()
        observed["finished"] = h.env.now

    h.spawn(app())
    h.run()
    return h, observed


def test_device_failure_aborts_in_flight_async_checkpoint():
    """The completer gives up on the failed write-back: the checkpoint
    never counts, the journal keeps the kernel, and recovery replays it
    — with the barrier released so the app's next call can proceed."""
    h, observed = run_checkpoint_abort()
    assert observed["checkpoint_returned"] == pytest.approx(0.98, abs=1e-3)
    assert observed["pending_at_return"] == 1
    assert observed["journal_after_failure"] == 1
    assert h.stats.checkpoints == 0
    assert h.stats.replayed_kernels == 1
    assert h.stats.failures_recovered == 1
    assert h.memory._pending_writebacks == {}
    assert observed["finished"] == pytest.approx(2.712, abs=1e-3)


# ----------------------------------------------------------------------
# which write-backs the overlap engine stages on the copy stream
# ----------------------------------------------------------------------
def test_only_whole_context_swap_out_stages_write_backs(monkeypatch):
    """Per-entry eviction, retention unbind and D2H reads write back
    synchronously even with the overlap engine on; only a whole-context
    swap-out (and an asynchronous checkpoint) goes through the stream."""
    from benchmarks import test_swap_granularity as swap_bench
    from repro.core.vgpu import VirtualGPU
    from repro.experiments.harness import run_node_batch

    staged = []
    issue = VirtualGPU.memcpy_d2h_async

    def counting(self, address, nbytes):
        staged.append(nbytes)
        return issue(self, address, nbytes)

    monkeypatch.setattr(VirtualGPU, "memcpy_d2h_async", counting)

    def swap_run(mode):
        staged.clear()
        config = RuntimeConfig(
            vgpus_per_device=swap_bench.N_TENANTS, eviction_mode=mode
        ).overlapped()
        jobs = [swap_bench.make_tenant(f"swp{i}") for i in range(swap_bench.N_TENANTS)]
        return run_node_batch(jobs, [swap_bench.BENCH_GPU], config)

    partial = swap_run("partial")
    assert partial.stats["evictions_partial"] > 0
    assert partial.stats["swap_bytes_out"] > 0
    assert staged == []

    # Two kernel-writing apps churn through one vGPU: every reaped
    # unbind retains dirty data, and every final read writes it back.
    staged.clear()
    h = Harness(config=RuntimeConfig(
        vgpus_per_device=1,
        unbind_on_cpu_phase_s=0.05,
        policy="locality",
        locality_binding=True,
    ).overlapped())
    for i in range(2):
        h.spawn(h.simple_app(f"retain{i}", kernel_count=3, cpu_phase_s=0.2))
    h.run()
    # More than the two final 64 MiB reads: retention wrote back too.
    assert h.stats.swap_bytes_out > 2 * 64 * MIB
    assert staged == []

    context = swap_run("context")
    assert context.stats["swaps_inter"] > 0
    assert 0 < sum(staged) < context.stats["swap_bytes_out"]
