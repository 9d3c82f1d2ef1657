"""Table 1 semantics: actions the runtime performs per intercepted call.

These tests drive the full stack (frontend → dispatcher → memory manager
→ vGPU → simulated CUDA driver) and assert the paper's per-call
behaviour: deferral, coalescing, bad-call detection, write-back rules.
"""

import pytest

from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050

from tests.core.conftest import Harness, MIB


def make_kernel(name="k", seconds=0.1):
    return KernelDescriptor(
        name=name, flops=seconds * TESLA_C2050.effective_gflops * 1e9
    )


def open_frontend(h, name="app"):
    """Helper generator: connected frontend with a registered kernel."""
    fe = h.frontend(name)
    yield from fe.open()
    return fe


# ---------------------------------------------------------------------------
# Malloc: create PTE + allocate swap; NO device interaction
# ---------------------------------------------------------------------------

def test_malloc_defers_device_allocation(harness):
    h = harness
    device = h.driver.devices[0]

    def app():
        fe = yield from open_frontend(h)
        free_before = device.free_memory
        vptr = yield from fe.cuda_malloc(512 * MIB)
        assert vptr != 0
        # No device memory consumed yet (beyond vGPU context reservations).
        assert device.free_memory == free_before
        assert h.memory.swap.used_bytes == 512 * MIB
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_malloc_returns_virtual_not_device_addresses(harness):
    h = harness

    def app():
        fe = yield from open_frontend(h)
        vptr = yield from fe.cuda_malloc(MIB)
        from repro.core.memory.page_table import VIRTUAL_BASE

        assert vptr >= VIRTUAL_BASE  # far from the device address space
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_malloc_swap_exhaustion_error(harness):
    """Table 1: 'Swap memory cannot be allocated'."""
    h = Harness()
    h.runtime.memory.swap.capacity_bytes = 100 * MIB

    def app():
        fe = yield from open_frontend(h)
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_malloc(200 * MIB)
        assert e.value.code == RuntimeErrorCode.SWAP_ALLOCATION_FAILED
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


# ---------------------------------------------------------------------------
# Copy_HD: check PTE, move to swap; deferral + coalescing
# ---------------------------------------------------------------------------

def test_copy_hd_without_pte_is_no_valid_pte(harness):
    h = harness

    def app():
        fe = yield from open_frontend(h)
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_memcpy_h2d(0xBAD, MIB)
        assert e.value.code == RuntimeErrorCode.NO_VALID_PTE
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    assert h.stats.bad_calls_detected == 1


def test_copy_hd_beyond_allocation_detected_before_gpu(harness):
    """Bad memory operations are caught by the memory manager without
    overloading the CUDA runtime (§4.5)."""
    h = harness
    device = h.driver.devices[0]

    def app():
        fe = yield from open_frontend(h)
        vptr = yield from fe.cuda_malloc(MIB)
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_memcpy_h2d(vptr, 2 * MIB)
        assert e.value.code == RuntimeErrorCode.SWAP_SIZE_MISMATCH
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    assert device.bytes_copied == 0  # the GPU never saw the bad call


def test_negative_copy_sizes_rejected_with_typed_error(harness):
    """A negative memcpy size is a bad memory operation like an oversized
    one: the caller gets SWAP_SIZE_MISMATCH and the node keeps running
    (the size never reaches the swap-area timing model)."""
    h = harness
    done = {}

    def app():
        fe = yield from open_frontend(h)
        vptr = yield from fe.cuda_malloc(MIB)
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_memcpy_h2d(vptr, -1)
        assert e.value.code == RuntimeErrorCode.SWAP_SIZE_MISMATCH
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_memcpy_d2h(vptr, -1)
        assert e.value.code == RuntimeErrorCode.SWAP_SIZE_MISMATCH
        yield from fe.cuda_memcpy_h2d(vptr, MIB)
        yield from fe.cuda_thread_exit()
        done["ok"] = True

    h.spawn(app())
    h.run()
    assert done.get("ok")
    assert h.stats.bad_calls_detected == 2


def test_multiple_copies_coalesce_into_one_bulk_transfer(harness):
    """Several copy_HD calls into one allocation → a single device
    transfer at launch (§4.5)."""
    h = harness

    def app():
        fe = yield from open_frontend(h)
        k = make_kernel()
        vptr = yield from fe.cuda_malloc(64 * MIB)
        for _ in range(5):
            yield from fe.cuda_memcpy_h2d(vptr, 64 * MIB)
        yield from fe.launch_kernel(k, [vptr])
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    assert h.stats.h2d_requests == 5
    assert h.stats.h2d_device_transfers == 1


# ---------------------------------------------------------------------------
# Copy_DH: write back only when device copy is authoritative
# ---------------------------------------------------------------------------

def test_copy_dh_before_any_launch_served_from_swap(harness):
    h = harness
    device = h.driver.devices[0]

    def app():
        fe = yield from open_frontend(h)
        vptr = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.cuda_memcpy_h2d(vptr, 32 * MIB)
        copied_before = device.bytes_copied
        yield from fe.cuda_memcpy_d2h(vptr, 32 * MIB)
        assert device.bytes_copied == copied_before  # no device traffic
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_copy_dh_after_kernel_writes_back(harness):
    h = harness
    device = h.driver.devices[0]

    def app():
        fe = yield from open_frontend(h)
        k = make_kernel()
        vptr = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.cuda_memcpy_h2d(vptr, 32 * MIB)
        yield from fe.launch_kernel(k, [vptr])
        before = device.bytes_copied
        yield from fe.cuda_memcpy_d2h(vptr, 32 * MIB)
        assert device.bytes_copied == before + 32 * MIB  # D2H happened
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_copy_dh_invalid_pointer(harness):
    h = harness

    def app():
        fe = yield from open_frontend(h)
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_memcpy_d2h(0x123, MIB)
        assert e.value.code == RuntimeErrorCode.NO_VALID_PTE
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


# ---------------------------------------------------------------------------
# Free
# ---------------------------------------------------------------------------

def test_free_releases_swap_and_device(harness):
    h = harness
    device = h.driver.devices[0]

    def app():
        fe = yield from open_frontend(h)
        k = make_kernel()
        vptr = yield from fe.cuda_malloc(64 * MIB)
        yield from fe.cuda_memcpy_h2d(vptr, 64 * MIB)
        yield from fe.launch_kernel(k, [vptr])
        used_on_device = device.memory_capacity - device.free_memory
        yield from fe.cuda_free(vptr)
        assert h.memory.swap.used_bytes == 0
        assert device.memory_capacity - device.free_memory < used_on_device
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_free_invalid_pointer(harness):
    h = harness

    def app():
        fe = yield from open_frontend(h)
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_free(0x42)
        assert e.value.code == RuntimeErrorCode.NO_VALID_PTE
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_double_free_detected(harness):
    h = harness

    def app():
        fe = yield from open_frontend(h)
        vptr = yield from fe.cuda_malloc(MIB)
        yield from fe.cuda_free(vptr)
        with pytest.raises(RuntimeApiError):
            yield from fe.cuda_free(vptr)
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


# ---------------------------------------------------------------------------
# Launch: allocate-on-demand, transfer-on-demand
# ---------------------------------------------------------------------------

def test_launch_with_unknown_pointer_rejected_in_runtime(harness):
    h = harness
    device = h.driver.devices[0]

    def app():
        fe = yield from open_frontend(h)
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.launch_kernel(make_kernel(), [0xBAD])
        assert e.value.code == RuntimeErrorCode.NO_VALID_PTE
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    assert device.kernels_executed == 0  # never reached the GPU


def test_launch_allocates_and_transfers_on_demand(harness):
    h = harness
    device = h.driver.devices[0]

    def app():
        fe = yield from open_frontend(h)
        k = make_kernel()
        vptr = yield from fe.cuda_malloc(128 * MIB)
        yield from fe.cuda_memcpy_h2d(vptr, 128 * MIB)
        free_before_launch = device.free_memory
        yield from fe.launch_kernel(k, [vptr])
        assert device.free_memory == free_before_launch - 128 * MIB
        assert device.kernels_executed == 1
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    assert h.stats.kernels_launched == 1


def test_read_only_args_do_not_dirty(harness):
    h = harness
    device = h.driver.devices[0]

    def app():
        fe = yield from open_frontend(h)
        k = make_kernel()
        a = yield from fe.cuda_malloc(16 * MIB)
        b = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.cuda_memcpy_h2d(a, 16 * MIB)
        yield from fe.launch_kernel(k, [a, b], read_only=[a])
        before = device.bytes_copied
        # Reading back the read-only input requires no device traffic:
        # its swap copy is still authoritative.
        yield from fe.cuda_memcpy_d2h(a, 16 * MIB)
        assert device.bytes_copied == before
        # The written output does need a write-back.
        yield from fe.cuda_memcpy_d2h(b, 16 * MIB)
        assert device.bytes_copied == before + 16 * MIB
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_launch_without_configure_call_errors(harness):
    h = harness

    def app():
        fe = yield from open_frontend(h)
        vptr = yield from fe.cuda_malloc(MIB)
        from repro.simcuda import CudaRuntimeError

        with pytest.raises(CudaRuntimeError):
            yield from fe.cuda_launch(make_kernel(), [vptr])
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


# ---------------------------------------------------------------------------
# Device management overrides
# ---------------------------------------------------------------------------

def test_set_device_ignored_and_count_is_virtual(harness):
    h = Harness(config=None)

    def app():
        fe = yield from open_frontend(h)
        yield from fe.cuda_set_device(12345)  # ignored, no error
        count = yield from fe.cuda_get_device_count()
        # 1 physical GPU, 4 vGPUs by default → the app sees 4 "devices".
        assert count == 4
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


# ---------------------------------------------------------------------------
# Isolation between applications
# ---------------------------------------------------------------------------

def test_pointer_isolation_across_connections(harness):
    h = harness
    leaked = {}

    def app1():
        fe = yield from open_frontend(h, "app1")
        leaked["vptr"] = yield from fe.cuda_malloc(MIB)
        yield h.env.timeout(0.1)
        yield from fe.cuda_thread_exit()

    def app2():
        fe = yield from open_frontend(h, "app2")
        yield h.env.timeout(0.01)  # let app1 allocate first
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_memcpy_h2d(leaked["vptr"], MIB)
        assert e.value.code == RuntimeErrorCode.NO_VALID_PTE
        yield from fe.cuda_thread_exit()

    p1 = h.spawn(app1())
    p2 = h.spawn(app2())
    h.run(until=p1)
    h.run(until=p2)
