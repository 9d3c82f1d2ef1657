"""Structured event bus keyed on the simulation clock.

The paper's dispatcher "may expose some information to the cluster-level
scheduler" (§2); this module generalizes that introspection surface into
a zero-dependency tracing bus.  Components emit *typed events* — call
spans, swap traffic, binding changes, migrations, offloads, checkpoints,
recoveries, queue depths — through one method, :meth:`Tracer.record`,
on a tracer owned by the node runtime.  Every emitter guards the call
with ``if obs.enabled:``, so while tracing is disabled (the default) the
hot paths pay one attribute check and nothing else; simulated time is
never affected either way.  Adding an event kind means one dataclass
here and one ``EVENT_TYPES`` entry.

Events are plain frozen dataclasses so exporters (:mod:`repro.obs.export`)
can serialize them without reflection surprises, and tests can assert on
them structurally.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

__all__ = [
    "CallBegin",
    "CallEnd",
    "EngineSpan",
    "SwapOut",
    "SwapIn",
    "Eviction",
    "Bind",
    "Unbind",
    "Migration",
    "Offload",
    "CheckpointTaken",
    "FailureRecovered",
    "TenantAdmission",
    "Preemption",
    "BindingDecision",
    "QueueDepthChanged",
    "PhaseBreakdown",
    "BatchSubmit",
    "GraphInstantiate",
    "GraphReplay",
    "EVENT_TYPES",
    "Tracer",
    "event_to_dict",
]


@dataclasses.dataclass(frozen=True, slots=True)
class CallBegin:
    """An intercepted call entered the dispatcher."""

    kind: ClassVar[str] = "CallBegin"
    at: float
    context: str
    method: str
    device_id: Optional[int] = None
    vgpu: Optional[str] = None
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class CallEnd:
    """The call completed.  Carries its own begin time and duration so a
    span can be reconstructed from this event alone (binding may have
    happened mid-call, so the vGPU here is the one that served it)."""

    kind: ClassVar[str] = "CallEnd"
    at: float
    context: str
    method: str
    begin_at: float = 0.0
    duration: float = 0.0
    device_id: Optional[int] = None
    vgpu: Optional[str] = None
    error: Optional[str] = None
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class EngineSpan:
    """One occupancy of a device engine: a DMA transfer on the copy
    engine or a kernel on the exec engine.  Emitted from the driver at
    operation end (it carries its own begin time), so the span covers
    only actual engine time — queueing for the engine is excluded.
    Concurrent copy/exec spans on one device are the §4.5
    computation/communication overlap, rendered as overlapping rows in
    the Chrome trace."""

    kind: ClassVar[str] = "EngineSpan"
    at: float
    context: str
    engine: str          # "exec" | "copy"
    op: str              # kernel name or memcpy_{h2d,d2h,peer}
    nbytes: int = 0
    begin_at: float = 0.0
    duration: float = 0.0
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class SwapOut:
    """One page-table entry written back / released from device memory."""

    kind: ClassVar[str] = "SwapOut"
    at: float
    context: str
    nbytes: int
    device_id: Optional[int] = None
    vgpu: Optional[str] = None
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class SwapIn:
    """A deferred/bulk host→device transfer faulted data back in."""

    kind: ClassVar[str] = "SwapIn"
    at: float
    context: str
    nbytes: int
    device_id: Optional[int] = None
    vgpu: Optional[str] = None
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Eviction:
    """One device-wide partial eviction resolved a launch's memory
    pressure: the policy freed ``bytes_freed`` across ``victims``
    contexts, writing back ``dirty_bytes`` of device-dirty data."""

    kind: ClassVar[str] = "Eviction"
    at: float
    context: str          # the requester whose launch triggered it
    policy: str
    bytes_freed: int
    dirty_bytes: int
    victims: int = 0
    device_id: Optional[int] = None
    node: str = ""
    tenant: str = ""      # the requester's tenant


@dataclasses.dataclass(frozen=True, slots=True)
class Bind:
    """A context was granted a vGPU."""

    kind: ClassVar[str] = "Bind"
    at: float
    context: str
    vgpu: str
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Unbind:
    """A context released (or was evicted from) its vGPU."""

    kind: ClassVar[str] = "Unbind"
    at: float
    context: str
    vgpu: str
    device_id: Optional[int] = None
    reason: str = ""
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Migration:
    """Dynamic binding moved a job between devices (§5.3.4)."""

    kind: ClassVar[str] = "Migration"
    at: float
    context: str
    src_device: Optional[int] = None
    dst_device: Optional[int] = None
    p2p: bool = False
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Offload:
    """A pending connection was redirected to a peer node (§4.7)."""

    kind: ClassVar[str] = "Offload"
    at: float
    context: str
    dst_node: str = ""
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class CheckpointTaken:
    """Dirty device state was written back to the swap area (§4.6)."""

    kind: ClassVar[str] = "CheckpointTaken"
    at: float
    context: str
    nbytes: int = 0
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class FailureRecovered:
    """A failed context was rebound and its journal replayed (§4.6)."""

    kind: ClassVar[str] = "FailureRecovered"
    at: float
    context: str
    replayed_kernels: int = 0
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class TenantAdmission:
    """Admission control decided on a connection's handshake: admitted
    (possibly after queueing ``waited_s``), queued, or rejected."""

    kind: ClassVar[str] = "TenantAdmission"
    at: float
    context: str
    tenant: str
    decision: str        # "admitted" | "queued" | "rejected"
    waited_s: float = 0.0
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class Preemption:
    """A context exhausted its vGPU quantum while others waited and was
    unbound at a call boundary (repro.qos time-slicing)."""

    kind: ClassVar[str] = "Preemption"
    at: float
    context: str
    vgpu: str
    quantum_s: float
    used_s: float
    tenant: str = ""
    device_id: Optional[int] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class BindingDecision:
    """The transfer-cost model scored the idle vGPUs for a binding
    (§4.4 locality-aware dynamic binding): ``scores`` holds every
    candidate's (vgpu name, modeled time-to-first-kernel seconds) and
    ``chosen`` the winner.  ``resident_bytes`` is the context's
    working-set residency on the chosen device at decision time."""

    kind: ClassVar[str] = "BindingDecision"
    at: float
    context: str
    chosen: str
    device_id: Optional[int] = None
    scores: Tuple[Tuple[str, float], ...] = ()
    resident_bytes: int = 0
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class QueueDepthChanged:
    """A runtime queue (waiting contexts, pending connections, socket
    inbox) changed depth."""

    kind: ClassVar[str] = "QueueDepthChanged"
    at: float
    queue: str
    depth: int
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class PhaseBreakdown:
    """Causal latency attribution for one completed call.

    Emitted by the dispatcher when the response hits the wire, from the
    :class:`repro.obs.span.CallSpan` that travelled with the call.  The
    ``phases`` tuple decomposes ``wall`` (response time as the frontend
    experiences it: wire out, queueing, memory work, execution, wire
    back) into named buckets that sum to it exactly; ``trace_id`` groups
    all calls of one connection and ``span_id`` is the RPC request id.
    """

    kind: ClassVar[str] = "PhaseBreakdown"
    at: float
    context: str
    method: str
    trace_id: Optional[int] = None
    span_id: Optional[int] = None
    begin_at: float = 0.0
    wall: float = 0.0
    phases: Tuple[Tuple[str, float], ...] = ()
    tenant: str = ""
    error: Optional[str] = None
    device_id: Optional[int] = None
    vgpu: Optional[str] = None
    node: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class BatchSubmit:
    """A batch frame arrived at the dispatcher: ``calls`` journaled calls
    executing in one scheduler round-trip (control-plane batching)."""

    kind: ClassVar[str] = "BatchSubmit"
    at: float
    context: str
    calls: int
    wire_bytes: int = 0
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class GraphInstantiate:
    """A launch sequence was instantiated as a replayable graph —
    explicitly (stream capture) or by journal repeat detection."""

    kind: ClassVar[str] = "GraphInstantiate"
    at: float
    context: str
    graph_id: int
    kernels: int
    explicit: bool = False
    node: str = ""
    tenant: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class GraphReplay:
    """An instantiated graph was re-issued whole.  ``invalidated`` marks
    replays whose cached translations had gone stale (a journaled buffer
    was evicted between replays), forcing the full per-launch path."""

    kind: ClassVar[str] = "GraphReplay"
    at: float
    context: str
    graph_id: int
    kernels: int
    invalidated: bool = False
    device_id: Optional[int] = None
    node: str = ""
    tenant: str = ""


EVENT_TYPES: Tuple[type, ...] = (
    CallBegin,
    CallEnd,
    EngineSpan,
    SwapOut,
    SwapIn,
    Eviction,
    Bind,
    Unbind,
    Migration,
    Offload,
    CheckpointTaken,
    FailureRecovered,
    TenantAdmission,
    Preemption,
    BindingDecision,
    QueueDepthChanged,
    PhaseBreakdown,
    BatchSubmit,
    GraphInstantiate,
    GraphReplay,
)


def event_to_dict(event: Any) -> Dict[str, Any]:
    """A JSON-ready dict with the event's ``kind`` folded in."""
    d = dataclasses.asdict(event)
    d["kind"] = event.kind
    return d


#: The context-derived fields each kind declares, filled by
#: :meth:`Tracer.record` from its ``ctx`` argument.
_CTX_FIELDS: Dict[type, Tuple[str, ...]] = {
    kind: tuple(
        name for name in ("context", "device_id", "vgpu", "tenant")
        if name in kind.__dataclass_fields__
    )
    for kind in EVENT_TYPES
}


class Tracer:
    """Per-runtime event sink.

    ``enabled`` gates everything: every emitter checks it before calling
    :meth:`record`, so instrumented hot paths cost one attribute load
    while tracing is off.  Subscribers (live consumers such as a
    streaming exporter) are called synchronously with each event.
    """

    __slots__ = ("env", "enabled", "node", "events", "subscribers")

    def __init__(self, env, enabled: bool = False, node: str = ""):
        self.env = env
        self.enabled = enabled
        self.node = node
        self.events: List[Any] = []
        self.subscribers: List[Callable[[Any], None]] = []

    def record(self, kind: type, ctx=None, **fields: Any) -> Any:
        """Build, store and publish one ``kind`` event; returns it.

        Stamps ``at`` (the simulation clock) and ``node``.  Given a
        runtime context, also fills whichever of ``context``,
        ``device_id``, ``vgpu`` and ``tenant`` the kind declares and the
        caller did not pass: the context's owner, the device and name of
        its bound vGPU (``None`` while unbound) and its tenant's name
        (``""`` before the handshake names one).  No enabled check: the
        caller guards with ``if tracer.enabled:``.
        """
        fields["at"] = self.env.now
        fields["node"] = self.node
        if ctx is not None:
            vgpu = ctx.vgpu
            tenant = ctx.tenant
            from_ctx = {
                "context": ctx.owner,
                "device_id": vgpu.device.device_id if vgpu is not None else None,
                "vgpu": vgpu.name if vgpu is not None else None,
                "tenant": tenant.name if tenant is not None else "",
            }
            for name in _CTX_FIELDS[kind]:
                fields.setdefault(name, from_ctx[name])
        event = kind(**fields)
        self.events.append(event)
        for fn in self.subscribers:
            fn(event)
        return event

    def clear(self) -> None:
        self.events.clear()

    def events_of(self, *kinds: type) -> List[Any]:
        return [e for e in self.events if isinstance(e, kinds)]

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<Tracer {self.node or 'anonymous'} {state} events={len(self.events)}>"
