"""Page table and page-table entries (paper §4.5).

Each entry is created on a memory-allocation call and carries three
pointers — the *virtual* pointer returned to the application, the pointer
into the host *swap* area, and (while resident) the *device* pointer —
plus the three flags of the paper's Figure 4:

``isAllocated``
    the entry currently has device memory backing it;
``toCopy2Dev``
    the authoritative data is (only) in the swap area and must be copied
    to the device before the next kernel that references it;
``toCopy2Swap``
    the authoritative data is (only) on the device and must be copied
    back before serving a device→host read or releasing the device copy.

Every entry is a sequence of fixed-size *chunks* (the last may be
short), each obeying the Figure 4 state machine individually, plus a
``valid`` bit: a never-written chunk holds no data and needs no transfer
in either direction.  The entry keeps one device allocation — chunks
refine *transfer* granularity, not device placement — and its
``toCopy2Dev``/``toCopy2Swap`` flags are the OR over its chunks.
:meth:`PageTableEntry.check_invariants` rejects the three per-chunk
states Figure 4 forbids (both copy flags set, or device-dirty without
device memory).

As the paper notes, "page" is a slight misnomer: allocations are not
carved into fixed-size pages.  By default an entry is **one chunk**
covering the whole allocation, valid from creation — the paper moves a
whole allocation whether or not it was written — so its three flags are
exactly Figure 4's.  ``RuntimeConfig.swap_chunk_bytes`` splits entries
larger than one chunk; their chunks start invalid, so a partially
written buffer stages/faults/writes back only the chunks that actually
hold (or dirtied) data.

Chunk state is **interned**: instead of one Python object per chunk
(hundreds of bytes each, tens of thousands of objects for a multi-GiB
entry), an entry holds three packed bit-vectors — ``valid`` /
``to_copy_2dev`` / ``to_copy_2swap``, bit *i* describing chunk *i* —
stored as arbitrary-precision integers (one machine word per 30–64
chunks, no numpy dependency).  Range updates are single mask operations
and run coalescing (:meth:`PageTableEntry.fault_runs` and friends) is a
word-at-a-time scan over set-bit spans rather than a per-chunk Python
loop.  The :attr:`PageTableEntry.chunks` property materializes read-only
:class:`Chunk` snapshots for introspection and tests; mutating a
snapshot does not write through to the entry.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import RuntimeApiError, RuntimeErrorCode

__all__ = ["Chunk", "EntryType", "PageTableEntry", "PageTable", "VIRTUAL_BASE"]

#: Virtual addresses live far away from simulated device addresses so
#: that passing one where the other is expected is caught immediately.
VIRTUAL_BASE = 0x7000_0000_0000
VIRTUAL_ALIGNMENT = 256

try:  # Python >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - 3.9 fallback
    def _popcount(x: int) -> int:
        return bin(x).count("1")


class EntryType(enum.Enum):
    """Kind of allocation behind the entry (paper: ``entry_t type``)."""

    LINEAR = "linear"        # cudaMalloc
    ARRAY = "array"          # cudaMallocArray
    PITCHED = "pitched"      # cudaMallocPitch

_entry_seq = itertools.count(1)


class Chunk:
    """Read-only snapshot of one fixed-size slice of an allocation.

    ``valid``
        the chunk holds application data somewhere (swap or device);
        a never-written chunk needs no transfer in either direction.
    ``to_copy_2dev`` / ``to_copy_2swap``
        the Figure 4 flags, per chunk: at most one may be set, and an
        invalid chunk carries neither.

    The live state lives in the entry's packed bit-vectors; ``chunks``
    materializes these snapshots on demand.  Writing to a snapshot does
    not write through.
    """

    __slots__ = ("offset", "size", "valid", "to_copy_2dev", "to_copy_2swap")

    def __init__(self, offset: int, size: int):
        self.offset = offset
        self.size = size
        self.valid = False
        self.to_copy_2dev = False
        self.to_copy_2swap = False

    def __repr__(self) -> str:
        return (
            f"<Chunk +0x{self.offset:x} size={self.size} V={int(self.valid)} "
            f"D={int(self.to_copy_2dev)} S={int(self.to_copy_2swap)}>"
        )


class PageTableEntry:
    """One allocation's translation + state."""

    __slots__ = (
        "virtual_ptr",
        "swap_ptr",
        "device_ptr",
        "size",
        "is_allocated",
        "to_copy_2dev",
        "to_copy_2swap",
        "entry_type",
        "params",
        "nested",
        "last_use",
        "use_count",
        "referenced",
        "seq",
        "prefetched",
        "_chunk_bytes",
        "_nchunks",
        "_valid_bm",
        "_dev_bm",
        "_swap_bm",
        "device_id",
        "_table",
    )

    def __init__(
        self,
        virtual_ptr: int,
        size: int,
        entry_type: EntryType = EntryType.LINEAR,
        params: Optional[Any] = None,
    ):
        self.virtual_ptr = virtual_ptr
        self.swap_ptr: Optional[int] = None
        self.device_ptr: Optional[int] = None
        self.size = size
        self.is_allocated = False
        self.to_copy_2dev = False
        self.to_copy_2swap = False
        self.entry_type = entry_type
        self.params = params
        #: Nested-structure descriptor (None for flat allocations).
        self.nested = None
        #: Simulated time of the last launch referencing this entry
        #: (victim choice for intra-application swap and LRU eviction).
        self.last_use = 0.0
        #: Launches that referenced this entry (LFU eviction).
        self.use_count = 0
        #: Referenced bit, set on every launch use and cleared by the
        #: second-chance eviction policy's clock sweep.
        self.referenced = False
        self.seq = next(_entry_seq)
        #: Set by the overlap engine when a CPU-phase prefetch staged this
        #: entry; the next launch referencing it counts a prefetch hit.
        self.prefetched = False
        #: Chunk size and the packed per-chunk state: bit i of each
        #: bit-vector is chunk i.  One valid chunk until
        #: :meth:`configure_chunks` splits the entry.
        self._chunk_bytes = size
        self._nchunks = 1
        self._valid_bm = 1
        self._dev_bm = 0
        self._swap_bm = 0
        #: Device holding the current device allocation (None while not
        #: resident).  Per-device residency accounting for the
        #: transfer-cost model (§4.4 locality-aware binding).
        self.device_id: Optional[int] = None
        #: Owning PageTable (set by create_entry; None for standalone
        #: entries in unit tests).  Lets every state transition advance
        #: the table's residency epoch, which invalidates memoized
        #: TransferCostModel evaluations.
        self._table: Optional["PageTable"] = None

    # -- state machine (Figure 4, per chunk) ---------------------------
    @property
    def flags(self):
        return (self.is_allocated, self.to_copy_2dev, self.to_copy_2swap)

    @property
    def chunked(self) -> bool:
        """Split into more than one chunk (``swap_chunk_bytes``)."""
        return self._nchunks > 1

    @property
    def chunks(self) -> List[Chunk]:
        """Materialized snapshot of the per-chunk state.  For
        introspection/tests only: mutations to the snapshot objects do
        not write through to the bit-vectors."""
        cb = self._chunk_bytes
        out: List[Chunk] = []
        valid, dev, swap = self._valid_bm, self._dev_bm, self._swap_bm
        for i in range(self._nchunks):
            offset = i * cb
            c = Chunk(offset, min(cb, self.size - offset))
            bit = 1 << i
            c.valid = bool(valid & bit)
            c.to_copy_2dev = bool(dev & bit)
            c.to_copy_2swap = bool(swap & bit)
            out.append(c)
        return out

    def _bump(self) -> None:
        table = self._table
        if table is not None:
            table.epoch += 1

    def check_invariants(self) -> None:
        """Every chunk individually obeys Figure 4, and the entry flags
        are the OR over the chunks (so a mixed aggregate — one chunk
        host-newer, another device-newer — is legal)."""
        if self.is_allocated and self.device_ptr is None:
            raise AssertionError(f"allocated PTE without device pointer: {self!r}")
        if not self.is_allocated and self.device_ptr is not None:
            raise AssertionError(f"unallocated PTE with device pointer: {self!r}")
        valid, dev, swap = self._valid_bm, self._dev_bm, self._swap_bm
        if dev & swap:
            raise AssertionError(f"illegal chunk state (2dev & 2swap) in {self!r}")
        if (dev | swap) & ~valid:
            raise AssertionError(f"invalid chunk with data flags in {self!r}")
        if swap and not self.is_allocated:
            raise AssertionError(f"device-dirty chunk without device memory {self!r}")
        if self.to_copy_2dev != (dev != 0) or self.to_copy_2swap != (swap != 0):
            raise AssertionError(f"entry flags out of sync with chunks: {self!r}")

    def on_device_allocated(
        self, device_ptr: int, device_id: Optional[int] = None
    ) -> None:
        self._bump()
        self.is_allocated = True
        self.device_ptr = device_ptr
        self.device_id = device_id
        self.check_invariants()

    def on_device_released(self) -> None:
        """Device memory freed (swap-out); swap copy is authoritative."""
        assert not self.to_copy_2swap, "must write back before releasing"
        self._bump()
        self.is_allocated = False
        self.device_ptr = None
        self.device_id = None
        self._dev_bm |= self._valid_bm
        self._sync_flags()
        self.check_invariants()

    def relocate_device(self, device_ptr: int, device_id: int) -> None:
        """The device copy moved (peer-to-peer migration): same data and
        flags, new physical home."""
        assert self.is_allocated
        self._bump()
        self.device_ptr = device_ptr
        self.device_id = device_id
        self.check_invariants()

    def _touch(self, now: float) -> None:
        """Recency/frequency bookkeeping shared by every launch use."""
        self.last_use = now
        self.use_count += 1
        self.referenced = True

    # -- chunk granularity (demand-paged swapping) ---------------------
    def configure_chunks(self, chunk_bytes: int) -> None:
        """Split the entry into fixed-size chunks (the last may be short),
        all initially invalid.

        Must be called before any data movement; entries at or below one
        chunk stay one valid chunk (splitting them would only add
        bookkeeping).
        """
        assert self.swap_ptr is None and self.flags == (False, False, False)
        if chunk_bytes <= 0 or self.size <= chunk_bytes:
            return
        self._chunk_bytes = chunk_bytes
        self._nchunks = -(-self.size // chunk_bytes)
        self._valid_bm = 0

    def _sync_flags(self) -> None:
        self.to_copy_2dev = self._dev_bm != 0
        self.to_copy_2swap = self._swap_bm != 0

    def _runs_from(self, bm: int) -> List[Tuple[int, int]]:
        """Coalesce a bit-vector's set-bit spans into contiguous
        (offset, nbytes) runs — word-at-a-time: each iteration consumes
        one whole span via lowest-set-bit / trailing-ones arithmetic."""
        runs: List[Tuple[int, int]] = []
        cb = self._chunk_bytes
        size = self.size
        x = bm
        while x:
            start = (x & -x).bit_length() - 1
            t = x >> start
            span = ((t + 1) & ~t).bit_length() - 1  # trailing ones
            offset = start * cb
            end = offset + span * cb
            if end > size:
                end = size
            runs.append((offset, end - offset))
            x = (t >> span) << (start + span)
        return runs

    def _mask_for_run(self, run: Tuple[int, int]) -> int:
        """Bit mask of the chunks whose offset falls inside ``run``."""
        offset, nbytes = run
        cb = self._chunk_bytes
        lo = (offset + cb - 1) // cb
        hi = (offset + nbytes + cb - 1) // cb
        if hi > self._nchunks:
            hi = self._nchunks
        if hi <= lo:
            return 0
        return ((1 << (hi - lo)) - 1) << lo

    def _mask_bytes(self, bm: int) -> int:
        """Total bytes covered by a bit-vector's set chunks (the last
        chunk may be short)."""
        cb = self._chunk_bytes
        total = _popcount(bm) * cb
        if (bm >> (self._nchunks - 1)) & 1:
            total -= self._nchunks * cb - self.size  # short tail
        return total

    def host_write(self, nbytes: Optional[int] = None) -> None:
        """copy_HD intercepted for ``[0, nbytes)``: the swap copy of every
        chunk the range touches is now authoritative (a one-chunk entry
        is marked whole, the paper's behavior; an empty range marks
        nothing)."""
        self._bump()
        covered = self.size if nbytes is None else min(nbytes, self.size)
        cb = self._chunk_bytes
        k = (covered + cb - 1) // cb
        if k > self._nchunks:
            k = self._nchunks
        mask = (1 << k) - 1
        self._valid_bm |= mask
        self._dev_bm |= mask
        self._swap_bm &= ~mask
        self._sync_flags()
        self.check_invariants()

    def kernel_write(self, now: float) -> None:
        """A launch referenced this entry as writable.

        The kernel computed on the data the application put there, so
        the *valid* chunks become device-dirty; a buffer with no valid
        chunk is an output buffer the kernel populates entirely.
        """
        self._bump()
        assert self.is_allocated and not self.to_copy_2dev
        if self._valid_bm == 0:
            full = (1 << self._nchunks) - 1
            self._valid_bm = full
            self._swap_bm = full
        else:
            self._swap_bm |= self._valid_bm
        self._touch(now)
        self._sync_flags()
        self.check_invariants()

    def kernel_read(self, now: float) -> None:
        """A launch referenced this entry read-only."""
        assert self.is_allocated and not self.to_copy_2dev
        self._touch(now)
        self.check_invariants()

    def fault_runs(self) -> List[Tuple[int, int]]:
        """Contiguous (offset, nbytes) H2D transfers needed before the
        device copy is current."""
        return self._runs_from(self._dev_bm)

    def complete_fault(self, run: Tuple[int, int]) -> None:
        """One fault run's bulk transfer landed on the device."""
        assert self.is_allocated
        self._bump()
        self._dev_bm &= ~self._mask_for_run(run)
        self._sync_flags()
        self.check_invariants()

    def writeback_runs(self) -> List[Tuple[int, int]]:
        """Contiguous (offset, nbytes) D2H write-backs of device-dirty
        data (eviction, checkpoint, device→host reads)."""
        return self._runs_from(self._swap_bm)

    def complete_writeback(self, run: Tuple[int, int]) -> None:
        """One write-back run landed in the swap area."""
        self._bump()
        self._swap_bm &= ~self._mask_for_run(run)
        self._sync_flags()
        self.check_invariants()

    def device_current_runs(self) -> List[Tuple[int, int]]:
        """Runs whose device copy is current (peer-to-peer migration)."""
        return self._runs_from(self._valid_bm & ~self._dev_bm)

    def discard_device_dirty(self) -> None:
        """Drop device-dirty state without writing back (cudaFree)."""
        self._bump()
        self._swap_bm = 0
        self._sync_flags()

    def drop_device_state(self) -> None:
        """The device copy is lost (device failure): swap-resident data
        becomes authoritative, without any device operation."""
        self._bump()
        self.is_allocated = False
        self.device_ptr = None
        self.device_id = None
        self._swap_bm = 0
        self._dev_bm |= self._valid_bm
        self._sync_flags()
        self.check_invariants()

    def fault_bytes(self) -> int:
        """Bytes a launch must transfer before this entry is current."""
        return self._mask_bytes(self._dev_bm)

    def dirty_bytes(self) -> int:
        """Bytes an eviction of this entry would write back."""
        return self._mask_bytes(self._swap_bm)

    def valid_bytes(self) -> int:
        """Bytes of application data behind the entry."""
        return self._mask_bytes(self._valid_bm)

    def __repr__(self) -> str:
        return (
            f"<PTE v=0x{self.virtual_ptr:x} size={self.size} "
            f"A={int(self.is_allocated)} D={int(self.to_copy_2dev)} "
            f"S={int(self.to_copy_2swap)}>"
        )


class PageTable:
    """All PTEs for all active and pending contexts on a node.

    Mirrors the paper's ``map<Context*, list<PageTableEntry*>*>`` plus an
    index by virtual address for O(1) translation.
    """

    def __init__(self):
        #: Residency epoch: advanced by every PTE state transition and by
        #: entry creation/removal.  Consumers (TransferCostModel) key
        #: memoized whole-table aggregates by it; any change anywhere in
        #: the table invalidates them.
        self.epoch = 0
        self._by_context: Dict[Any, List[PageTableEntry]] = {}
        self._by_vptr: Dict[int, PageTableEntry] = {}
        self._vptr_cursor = VIRTUAL_BASE
        #: Upper bound of the virtual address space (Table 1: "A virtual
        #: address cannot be assigned").
        self.virtual_space_limit = VIRTUAL_BASE + (1 << 44)

    # ------------------------------------------------------------------
    def assign_virtual_address(self, size: int) -> int:
        aligned = (size + VIRTUAL_ALIGNMENT - 1) // VIRTUAL_ALIGNMENT * VIRTUAL_ALIGNMENT
        if self._vptr_cursor + aligned > self.virtual_space_limit:
            raise RuntimeApiError(RuntimeErrorCode.VIRTUAL_ADDRESS_EXHAUSTED)
        vptr = self._vptr_cursor
        self._vptr_cursor += aligned
        return vptr

    def create_entry(
        self,
        ctx: Any,
        size: int,
        entry_type: EntryType = EntryType.LINEAR,
        params: Optional[Any] = None,
    ) -> PageTableEntry:
        vptr = self.assign_virtual_address(size)
        pte = PageTableEntry(vptr, size, entry_type, params)
        pte._table = self
        self.epoch += 1
        self._by_context.setdefault(ctx, []).append(pte)
        self._by_vptr[vptr] = pte
        return pte

    def lookup(self, ctx: Any, vptr: int) -> PageTableEntry:
        """Translate a virtual pointer, enforcing per-context isolation."""
        pte = self._by_vptr.get(vptr)
        if pte is None or pte not in self._by_context.get(ctx, ()):
            raise RuntimeApiError(
                RuntimeErrorCode.NO_VALID_PTE, f"0x{vptr:x} for {ctx!r}"
            )
        return pte

    def entries_for(self, ctx: Any) -> List[PageTableEntry]:
        return list(self._by_context.get(ctx, ()))

    def remove_entry(self, ctx: Any, pte: PageTableEntry) -> None:
        self.epoch += 1
        self._by_context.get(ctx, []).remove(pte)
        del self._by_vptr[pte.virtual_ptr]

    def drop_context(self, ctx: Any) -> List[PageTableEntry]:
        """Remove and return every PTE of ``ctx`` (application exit)."""
        self.epoch += 1
        entries = self._by_context.pop(ctx, [])
        for pte in entries:
            self._by_vptr.pop(pte.virtual_ptr, None)
        return entries

    def contexts(self) -> List[Any]:
        return list(self._by_context)

    def allocated_bytes(self, ctx: Any) -> int:
        """Device-resident bytes of ``ctx`` (the paper's ``MemUsage``)."""
        return sum(p.size for p in self._by_context.get(ctx, ()) if p.is_allocated)

    def total_bytes(self, ctx: Any) -> int:
        return sum(p.size for p in self._by_context.get(ctx, ()))

