"""Unit + property tests for the page table and the Figure 4 state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.memory.page_table import (
    EntryType,
    PageTable,
    PageTableEntry,
    VIRTUAL_BASE,
)


class Ctx:
    """Stand-in context object (the page table only uses identity)."""

    def __repr__(self):
        return "<ctx>"


def test_create_entry_assigns_distinct_virtual_addresses():
    pt = PageTable()
    ctx = Ctx()
    a = pt.create_entry(ctx, 1000)
    b = pt.create_entry(ctx, 1000)
    assert a.virtual_ptr != b.virtual_ptr
    assert a.virtual_ptr >= VIRTUAL_BASE


def test_lookup_translates_and_isolates():
    pt = PageTable()
    ctx1, ctx2 = Ctx(), Ctx()
    pte = pt.create_entry(ctx1, 100)
    assert pt.lookup(ctx1, pte.virtual_ptr) is pte
    # Isolation: another context cannot resolve the pointer.
    with pytest.raises(RuntimeApiError) as e:
        pt.lookup(ctx2, pte.virtual_ptr)
    assert e.value.code == RuntimeErrorCode.NO_VALID_PTE


def test_lookup_unknown_pointer_fails():
    pt = PageTable()
    with pytest.raises(RuntimeApiError):
        pt.lookup(Ctx(), 0xDEADBEEF)


def test_allocated_bytes_counts_resident_only():
    pt = PageTable()
    ctx = Ctx()
    a = pt.create_entry(ctx, 100)
    b = pt.create_entry(ctx, 200)
    assert pt.allocated_bytes(ctx) == 0
    a.on_device_allocated(0x1000)
    assert pt.allocated_bytes(ctx) == 100
    b.on_device_allocated(0x2000)
    assert pt.allocated_bytes(ctx) == 300
    assert pt.total_bytes(ctx) == 300


def test_drop_context_removes_everything():
    pt = PageTable()
    ctx = Ctx()
    ptes = [pt.create_entry(ctx, 10) for _ in range(3)]
    dropped = pt.drop_context(ctx)
    assert len(dropped) == 3
    for pte in ptes:
        with pytest.raises(RuntimeApiError):
            pt.lookup(ctx, pte.virtual_ptr)


def test_virtual_address_exhaustion_error():
    """Table 1: 'A virtual address cannot be assigned'."""
    pt = PageTable()
    pt.virtual_space_limit = VIRTUAL_BASE + 1024
    ctx = Ctx()
    pt.create_entry(ctx, 1024)
    with pytest.raises(RuntimeApiError) as e:
        pt.create_entry(ctx, 1)
    assert e.value.code == RuntimeErrorCode.VIRTUAL_ADDRESS_EXHAUSTED


# ---------------------------------------------------------------------------
# Figure 4 state machine (a whole allocation is one chunk)
# ---------------------------------------------------------------------------

SIZE = 1024
WHOLE = [(0, SIZE)]


def fresh_pte():
    return PageTableEntry(VIRTUAL_BASE, SIZE, EntryType.LINEAR)


def test_initial_state_fff():
    pte = fresh_pte()
    assert pte.flags == (False, False, False)
    pte.check_invariants()


def test_whole_entry_is_one_valid_chunk():
    """The paper moves a whole allocation whether or not it was written,
    so its single chunk holds data from creation."""
    pte = fresh_pte()
    assert not pte.chunked
    [chunk] = pte.chunks
    assert (chunk.offset, chunk.size) == (0, SIZE)
    assert (chunk.valid, chunk.to_copy_2dev, chunk.to_copy_2swap) == (
        True, False, False
    )
    assert pte.valid_bytes() == SIZE


def test_host_write_moves_to_ftf():
    pte = fresh_pte()
    pte.host_write()
    assert pte.flags == (False, True, False)


def test_partial_host_write_marks_whole_entry():
    pte = fresh_pte()
    pte.host_write(1)
    assert pte.flags == (False, True, False)
    assert pte.fault_runs() == WHOLE


def test_zero_byte_host_write_marks_nothing():
    """An empty copy moves no data, so it leaves nothing to transfer."""
    pte = fresh_pte()
    pte.host_write(0)
    assert pte.flags == (False, False, False)
    assert pte.fault_runs() == []


def test_launch_sequence_reaches_tft():
    """malloc → copyHD → (allocate, transfer, kernel write) = T/F/T."""
    pte = fresh_pte()
    pte.host_write()
    pte.on_device_allocated(0x1000)
    assert pte.flags == (True, True, False)
    pte.complete_fault((0, SIZE))
    assert pte.flags == (True, False, False)
    pte.kernel_write(now=1.0)
    assert pte.flags == (True, False, True)
    assert pte.last_use == 1.0


def _dirty_pte():
    pte = fresh_pte()
    pte.host_write()
    pte.on_device_allocated(0x1000)
    pte.complete_fault((0, SIZE))
    pte.kernel_write(now=0)
    return pte


def test_copy_dh_cleans_dirty_state():
    pte = _dirty_pte()
    pte.complete_writeback((0, SIZE))
    assert pte.flags == (True, False, False)


def test_swap_out_returns_to_host_only_state():
    pte = _dirty_pte()
    pte.complete_writeback((0, SIZE))
    pte.on_device_released()
    assert pte.flags == (False, True, False)
    assert pte.device_ptr is None


def test_release_while_dirty_asserts():
    """Swap must write back before dropping the device copy."""
    pte = _dirty_pte()
    with pytest.raises(AssertionError):
        pte.on_device_released()


def test_kernel_read_does_not_dirty():
    pte = fresh_pte()
    pte.host_write()
    pte.on_device_allocated(0x1000)
    pte.complete_fault((0, SIZE))
    pte.kernel_read(now=2.0)
    assert pte.flags == (True, False, False)
    assert pte.last_use == 2.0


@pytest.mark.parametrize(
    "flags, legal",
    [
        ((False, False, False), True),   # created, nothing anywhere yet
        ((False, True, False), True),    # data in swap only
        ((True, False, False), True),    # resident, device and swap in sync
        ((True, True, False), True),     # resident, swap copy is newer
        ((True, False, True), True),     # resident, device copy is newer
        ((False, False, True), False),   # device-dirty without device memory
        ((False, True, True), False),
        ((True, True, True), False),     # both copies newer
    ],
)
def test_check_invariants_accepts_exactly_the_figure4_states(flags, legal):
    pte = fresh_pte()
    allocated, dev, swap = flags
    if allocated:
        pte.is_allocated, pte.device_ptr = True, 0x1000
    pte._dev_bm, pte._swap_bm = int(dev), int(swap)
    pte._sync_flags()
    if legal:
        pte.check_invariants()
    else:
        with pytest.raises(AssertionError):
            pte.check_invariants()


class PteStateMachine(RuleBasedStateMachine):
    """Random walks over the Figure 4 transitions can only ever visit the
    five legal states, follow the diagram's edges, and answer every
    transfer query with all of the allocation or none of it."""

    def __init__(self):
        super().__init__()
        self.pte = fresh_pte()
        self.clock = 0.0
        # Independent Figure-4 model of the entry: (A, D, S).
        self.model = (False, False, False)

    @rule(nbytes=st.one_of(st.none(), st.integers(0, SIZE)))
    def host_write(self, nbytes):
        self.pte.host_write(nbytes)
        if nbytes != 0:
            self.model = (self.model[0], True, False)

    @precondition(lambda self: not self.pte.is_allocated)
    @rule()
    def allocate(self):
        self.pte.on_device_allocated(0x1000)
        self.model = (True,) + self.model[1:]

    @precondition(lambda self: self.pte.is_allocated and self.pte.to_copy_2dev)
    @rule()
    def transfer_h2d(self):
        for run in self.pte.fault_runs():
            self.pte.complete_fault(run)
        self.model = (True, False, self.model[2])

    @precondition(
        lambda self: self.pte.is_allocated and not self.pte.to_copy_2dev
    )
    @rule(write=st.booleans())
    def kernel(self, write):
        self.clock += 1
        if write:
            self.pte.kernel_write(self.clock)
            self.model = (True, False, True)
        else:
            self.pte.kernel_read(self.clock)

    @precondition(lambda self: self.pte.to_copy_2swap)
    @rule()
    def write_back(self):
        for run in self.pte.writeback_runs():
            self.pte.complete_writeback(run)
        self.model = self.model[:2] + (False,)

    @precondition(
        lambda self: self.pte.is_allocated and not self.pte.to_copy_2swap
    )
    @rule()
    def release(self):
        self.pte.on_device_released()
        self.model = (False, True, False)

    @precondition(lambda self: self.pte.is_allocated)
    @rule()
    def device_lost(self):
        self.pte.drop_device_state()
        self.model = (False, True, False)

    @rule()
    def discard_dirty(self):
        self.pte.discard_device_dirty()
        self.model = self.model[:2] + (False,)

    @invariant()
    def always_legal(self):
        self.pte.check_invariants()

    @invariant()
    def matches_figure4(self):
        pte = self.pte
        allocated, dev, swap = self.model
        assert pte.flags == self.model
        assert pte.fault_runs() == (WHOLE if dev else [])
        assert pte.writeback_runs() == (WHOLE if swap else [])
        assert pte.device_current_runs() == ([] if dev else WHOLE)
        assert pte.fault_bytes() == (SIZE if dev else 0)
        assert pte.dirty_bytes() == (SIZE if swap else 0)
        assert pte.valid_bytes() == SIZE
        [chunk] = pte.chunks
        assert (chunk.valid, chunk.to_copy_2dev, chunk.to_copy_2swap) == (
            True, dev, swap
        )


TestPteStateMachine = PteStateMachine.TestCase
TestPteStateMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


@given(sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_virtual_addresses_never_overlap(sizes):
    pt = PageTable()
    ctx = Ctx()
    spans = []
    for s in sizes:
        pte = pt.create_entry(ctx, s)
        spans.append((pte.virtual_ptr, pte.virtual_ptr + s))
    spans.sort()
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2
