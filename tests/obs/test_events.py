"""Tracer and typed-event semantics."""

from types import SimpleNamespace

from repro.core.protocol import CallType
from repro.obs import (
    Bind,
    CallBegin,
    CallEnd,
    EVENT_TYPES,
    Eviction,
    Offload,
    QueueDepthChanged,
    SwapOut,
    TenantAdmission,
    Tracer,
    event_to_dict,
)
from repro.sim import Environment
from tests.core.conftest import Harness


def ctx(owner="app0", vgpu=None, tenant=None):
    return SimpleNamespace(owner=owner, vgpu=vgpu, tenant=tenant)


def vgpu(name="vGPU0-1", device_id=0):
    return SimpleNamespace(name=name, device=SimpleNamespace(device_id=device_id))


def test_tracer_has_one_emission_method():
    """Every kind goes through ``record``: no per-kind helpers."""
    emitters = {name for name in dir(Tracer)
                if not name.startswith("_") and callable(getattr(Tracer, name))}
    assert emitters == {"record", "clear", "events_of"}


def test_record_stamps_clock_node_and_context_fields():
    env = Environment()
    tracer = Tracer(env, enabled=True, node="n0")
    tenant = SimpleNamespace(name="alpha")
    event = tracer.record(SwapOut, ctx(vgpu=vgpu(), tenant=tenant), nbytes=64)
    assert tracer.events == [event]
    assert event == SwapOut(at=env.now, context="app0", nbytes=64, device_id=0,
                            vgpu="vGPU0-1", node="n0", tenant="alpha")


def test_record_fills_only_declared_context_fields():
    """Eviction declares no ``vgpu``; Bind declares no ``tenant``."""
    tracer = Tracer(Environment(), enabled=True)
    c = ctx(vgpu=vgpu(device_id=3), tenant=SimpleNamespace(name="beta"))
    eviction = tracer.record(Eviction, c, policy="lru", bytes_freed=8, dirty_bytes=0)
    assert (eviction.device_id, eviction.tenant) == (3, "beta")
    bind = tracer.record(Bind, c, vgpu="vGPU1-0", device_id=1)
    assert (bind.vgpu, bind.device_id) == ("vGPU1-0", 1)  # caller's values win


def test_caller_fields_override_context():
    tracer = Tracer(Environment(), enabled=True)
    c = ctx(tenant=SimpleNamespace(name="from-ctx"))
    event = tracer.record(TenantAdmission, c, tenant="explicit", decision="queued")
    assert event.tenant == "explicit" and event.context == "app0"


def test_record_without_context():
    tracer = Tracer(Environment(), enabled=True, node="n1")
    event = tracer.record(Offload, context="conn", dst_node="n2")
    assert event == Offload(at=0.0, context="conn", dst_node="n2", node="n1")


def test_call_span_emission():
    env = Environment()
    tracer = Tracer(env, enabled=True, node="n0")
    c = ctx(vgpu=vgpu())
    begin_at = tracer.record(CallBegin, c, method="launch_kernel").at
    assert begin_at == env.now
    tracer.record(CallEnd, c, method="launch_kernel", begin_at=begin_at,
                  duration=env.now - begin_at)
    begin, end = tracer.events
    assert isinstance(begin, CallBegin) and isinstance(end, CallEnd)
    assert begin.method == end.method == "launch_kernel"
    assert begin.vgpu == end.vgpu == "vGPU0-1"
    assert end.begin_at == begin_at
    assert end.duration == end.at - begin_at
    assert end.error is None
    assert end.node == "n0"
    assert begin.tenant == end.tenant == ""


def test_unbound_context_has_no_location():
    tracer = Tracer(Environment(), enabled=True)
    tracer.record(SwapOut, ctx(vgpu=None), nbytes=4096)
    (event,) = tracer.events
    assert isinstance(event, SwapOut)
    assert event.device_id is None and event.vgpu is None
    assert event.nbytes == 4096


def test_events_of_and_clear():
    tracer = Tracer(Environment(), enabled=True)
    tracer.record(Bind, ctx(), vgpu="vGPU0-1", device_id=0)
    tracer.record(QueueDepthChanged, queue="waiting_contexts", depth=1)
    tracer.record(QueueDepthChanged, queue="waiting_contexts", depth=0)
    assert len(tracer.events_of(Bind)) == 1
    assert len(tracer.events_of(QueueDepthChanged)) == 2
    assert len(tracer.events_of(Bind, QueueDepthChanged)) == 3
    tracer.clear()
    assert tracer.events == []


def test_subscribers_see_events_synchronously():
    tracer = Tracer(Environment(), enabled=True)
    seen = []
    tracer.subscribers.append(seen.append)
    tracer.record(QueueDepthChanged, queue="pending_connections", depth=2)
    assert len(seen) == 1
    assert seen[0] is tracer.events[0]


def test_event_to_dict_folds_kind_in():
    for cls in EVENT_TYPES:
        assert isinstance(cls.kind, str)
    tracer = Tracer(Environment(), enabled=True, node="n0")
    tracer.record(QueueDepthChanged, queue="q", depth=5)
    d = event_to_dict(tracer.events[0])
    assert d == {"kind": "QueueDepthChanged", "at": 0.0, "queue": "q",
                 "depth": 5, "node": "n0"}


def test_disabled_tracer_records_nothing():
    """Every emitter of a runtime shares the runtime's tracer, so with
    tracing off (the default) each guard holds and a run records
    nothing."""
    h = Harness()
    obs = h.runtime.obs
    assert not obs.enabled
    h.spawn(h.simple_app("app", kernel_seconds=0.1))
    h.run()
    assert h.scheduler.vgpus
    holders = [h.runtime.memory, h.runtime.scheduler, h.runtime.connections,
               h.runtime.admission, h.runtime.dispatcher, *h.scheduler.vgpus]
    assert all(holder.obs is obs for holder in holders)
    assert h.stats.calls_served > 0
    assert obs.events == []


def test_call_end_without_begin_is_noop():
    """A span started while disabled must not produce a dangling end:
    tracing switched on mid-launch records only the calls after it."""
    h = Harness()
    h.spawn(h.simple_app("app", kernel_seconds=2.0))

    def enable_mid_launch():
        yield h.env.timeout(1.0)
        h.runtime.obs.enabled = True

    h.spawn(enable_mid_launch())
    h.run()
    begins = [e.method for e in h.runtime.obs.events_of(CallBegin)]
    ends = [e.method for e in h.runtime.obs.events_of(CallEnd)]
    assert begins == ends == ["cudaMemcpyDtoH", "cudaFree", "cudaThreadExit"]


def test_method_enum_is_stringified():
    h = Harness()
    h.runtime.obs.enabled = True

    def app():
        fe = h.frontend("named")
        yield from fe.open()
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    methods = [e.method for e in h.runtime.obs.events_of(CallBegin)]
    assert methods == ["reproHello", CallType.EXIT.value]
    assert all(type(m) is str for m in methods)
