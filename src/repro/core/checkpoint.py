"""Checkpoint-restart support (paper §4.6).

The page table plus the swap area *are* the implicit checkpoint: together
they contain the state of the application's device memory.  This module
adds the explicit, serializable snapshot used to combine the runtime with
a node-level checkpointer (BLCR in the paper): enough to resume a context
after a full restart of the node, replaying only the memory operations
required by not-yet-executed kernel calls (the journal).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.simcuda.kernels import KernelLaunch

from repro.core.context import Context
from repro.core.memory.manager import MemoryManager

__all__ = ["ContextSnapshot", "snapshot_context", "restore_context"]


@dataclasses.dataclass
class ContextSnapshot:
    """Serializable image of one context's runtime state."""

    owner: str
    #: virtual_ptr -> (size, has_host_data)
    entries: Dict[int, Tuple[int, bool]]
    #: kernels to replay on restore (device-only state reconstruction)
    journal: List[KernelLaunch]
    kernels_launched: int
    gpu_seconds_used: float

    @property
    def total_bytes(self) -> int:
        return sum(size for size, _ in self.entries.values())


def snapshot_context(memory: MemoryManager, ctx: Context) -> ContextSnapshot:
    """Capture a context.  Device-resident dirty data is *not* copied here
    — call :meth:`MemoryManager.checkpoint` first if the journal must be
    empty (the snapshot stays correct either way: un-checkpointed kernels
    remain in the journal and will be replayed)."""
    entries: Dict[int, Tuple[int, bool]] = {}
    for pte in memory.page_table.entries_for(ctx):
        has_host_data = pte.to_copy_2dev or not pte.to_copy_2swap
        entries[pte.virtual_ptr] = (pte.size, has_host_data)
    return ContextSnapshot(
        owner=ctx.owner,
        entries=dict(entries),
        journal=list(ctx.replay_journal),
        kernels_launched=ctx.kernels_launched,
        gpu_seconds_used=ctx.gpu_seconds_used,
    )


def restore_context(
    memory: MemoryManager, ctx: Context, snap: ContextSnapshot
) -> Dict[int, int]:
    """Rebuild page table + swap backing for ``ctx`` from a snapshot.

    Returns the mapping old-virtual-ptr → new-virtual-ptr (virtual
    addresses are not stable across restarts; the frontend library
    relocates the application's saved pointers with it).

    The caller then binds the context and runs
    :meth:`Dispatcher.replay_journal` (the translated journal is installed
    on ``ctx.replay_journal``) to regenerate device-only state.
    """
    translation: Dict[int, int] = {}
    for old_vptr, (size, _has_data) in snap.entries.items():
        new_vptr = memory.malloc(ctx, size)
        translation[old_vptr] = new_vptr
        pte = memory.page_table.lookup(ctx, new_vptr)
        # Swap holds the restored bytes; they must flow to the device
        # before first use.
        pte.host_write()
    ctx.replay_journal = [
        KernelLaunch(
            kernel=launch.kernel,
            grid=launch.grid,
            block=launch.block,
            arg_pointers=tuple(translation[p] for p in launch.arg_pointers),
            read_only=tuple(translation[p] for p in launch.read_only)
            if launch.read_only
            else None,
        )
        for launch in snap.journal
    ]
    ctx.kernels_launched = snap.kernels_launched
    ctx.gpu_seconds_used = snap.gpu_seconds_used
    return translation
