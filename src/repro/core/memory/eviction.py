"""Pluggable eviction policies for partial (device-wide) swapping.

The paper's inter-application swap always evicts a whole victim context —
simple, but it moves every resident byte of the victim when the requester
may need a fraction of that.  ``RuntimeConfig.eviction_mode="partial"``
replaces it with a device-wide eviction loop that frees *only*
``required_bytes`` worth of entries, picked by one of the policies here
(registered by name, exactly like the scheduler policies in
:mod:`repro.core.policies`).  Whole-context swap-out remains the
correctness path for unbind, migration and checkpointing.

A policy orders *candidates* — ``(context, PageTableEntry)`` pairs of
resident entries belonging to eviction-eligible victim contexts — and the
eviction loop walks that order until enough bytes are free.

``lru``
    Least recently used entry first (the launch-time ``last_use`` stamp).
``lfu``
    Least frequently used entry first (launch reference counts), with
    LRU as the tie-break.
``second_chance``
    Clock-style sweep over the entries in allocation order: an entry
    whose referenced bit is set gets it cleared and one more pass;
    unreferenced entries go first.
``cost_aware``
    Cheapest eviction first: minimize dirty-bytes-to-write-back per byte
    freed (a clean entry frees memory without moving any data), with LRU
    as the tie-break.
``quota_aware``
    Multi-tenant QoS layer over LRU (repro.qos): entries of tenants
    running *over* their device-memory quota are evicted first (most
    overcommitted tenant first), so memory pressure lands on whoever
    exceeded their contract before touching compliant tenants.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.core.memory.page_table import PageTableEntry

__all__ = [
    "EvictionPolicy",
    "LruEviction",
    "LfuEviction",
    "SecondChanceEviction",
    "CostAwareEviction",
    "QuotaAwareEviction",
    "EVICTION_POLICY_NAMES",
    "make_eviction_policy",
]

#: One candidate: (victim context, resident page-table entry).
Candidate = Tuple[Any, PageTableEntry]


class EvictionPolicy:
    """Orders eviction candidates; the loop evicts front-to-back.

    A policy writes :meth:`key`; candidates are evicted smallest key
    first (a stable sort, so equal keys keep candidate order).
    """

    name = "abstract"

    def key(self, cand: Candidate):
        """Sort key of one ``(context, entry)`` candidate."""
        raise NotImplementedError

    def order(self, candidates: List[Candidate]) -> List[Candidate]:
        return sorted(candidates, key=self.key)


class LruEviction(EvictionPolicy):
    """Least-recently-used entry first (allocation order as tie-break)."""

    name = "lru"

    def key(self, cand: Candidate):
        pte = cand[1]
        return (pte.last_use, pte.seq)


class LfuEviction(EvictionPolicy):
    """Least-frequently-used entry first, LRU among equals."""

    name = "lfu"

    def key(self, cand: Candidate):
        pte = cand[1]
        return (pte.use_count, pte.last_use, pte.seq)


class SecondChanceEviction(EvictionPolicy):
    """Clock sweep with a referenced bit.

    Entries are visited in allocation (seq) order starting just past the
    clock hand; a referenced entry gets its bit cleared and is deferred
    behind every unreferenced one.  The hand advances to the first entry
    the sweep would evict, so successive sweeps rotate through the ring.
    """

    name = "second_chance"

    def __init__(self) -> None:
        self._hand = 0

    def order(self, candidates: List[Candidate]) -> List[Candidate]:
        ring = sorted(candidates, key=lambda c: c[1].seq)
        start = next(
            (i for i, c in enumerate(ring) if c[1].seq > self._hand), 0
        )
        ring = ring[start:] + ring[:start]
        first: List[Candidate] = []
        deferred: List[Candidate] = []
        for cand in ring:
            if cand[1].referenced:
                cand[1].referenced = False
                deferred.append(cand)
            else:
                first.append(cand)
        ordered = first + deferred
        if ordered:
            self._hand = ordered[0][1].seq
        return ordered


class CostAwareEviction(EvictionPolicy):
    """Minimize dirty bytes written back per byte freed.

    A clean entry costs nothing to evict (release only); a fully dirty
    chunked entry costs its dirty chunks; an unchunked dirty entry costs
    its whole size.  Ties break LRU-first.

    When the runtime wires ``cost_fn(ctx, pte) -> seconds`` (the
    transfer-cost model, under ``locality_binding``), the ordering uses
    the *modeled* eviction cost instead — write-back seconds now plus
    the recency-discounted re-fault seconds later — so eviction, binding
    and migration all price a byte of data movement consistently.
    """

    name = "cost_aware"

    def __init__(self) -> None:
        self.cost_fn: Optional[Callable[[Any, PageTableEntry], float]] = None

    def key(self, cand: Candidate):
        ctx, pte = cand
        if self.cost_fn is not None:
            return (self.cost_fn(ctx, pte), pte.seq)
        return (pte.dirty_bytes() / pte.size, pte.last_use, pte.seq)


class QuotaAwareEviction(EvictionPolicy):
    """Over-quota tenants' entries first, LRU within a tier.

    ``overage_fn(ctx) -> bytes`` reports how far a candidate context's
    tenant currently sits above its device-memory quota (0 for compliant
    tenants, tenant-less contexts, or when QoS is off); the memory
    manager wires it after construction.  Candidates sort by descending
    overage, then LRU — with everyone compliant the ordering degrades to
    exactly :class:`LruEviction`.
    """

    name = "quota_aware"

    def __init__(self) -> None:
        self.overage_fn: Optional[Callable[[Any], int]] = None

    def key(self, cand: Candidate):
        ctx, pte = cand
        overage = self.overage_fn(ctx) if self.overage_fn is not None else 0
        return (-overage, pte.last_use, pte.seq)


_POLICIES = {
    p.name: p
    for p in (
        LruEviction,
        LfuEviction,
        SecondChanceEviction,
        CostAwareEviction,
        QuotaAwareEviction,
    )
}

EVICTION_POLICY_NAMES: Tuple[str, ...] = tuple(sorted(_POLICIES))


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by its registered name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None
