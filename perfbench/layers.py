"""Layer map and span tracer for the benchmark's traced run.

``LAYER_OF`` assigns every module under ``src/repro`` to exactly one
layer.  ``ENTRY_POINTS`` lists, per layer, the functions through which
control enters that layer: its public API plus the process bodies the
simulation kernel resumes directly (``Dispatcher._serve_connection`` is
where the dispatcher runs, although nothing outside calls it by name).

:class:`SpanTracer` wraps those entry points on their classes (or
modules), keeps a stack of open spans and charges each layer with its
self time: span time minus the part covered by nested spans.  A
generator entry point is timed per resumption, so a span never covers
simulated waiting.  Every wrapped call is counted; counts are a pure
function of the simulated run and repeat exactly.

:func:`self_check` fails when a module has no layer, when an entry point
no longer exists or sits in another layer's module, so a renamed
function cannot silently report zero spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import time
from typing import Dict, List, Tuple

#: Module -> layer.  ``pkg.*`` covers a package whose modules all belong
#: to one layer; other modules are listed by name, so a new module in a
#: mixed package (``repro.core``) has no layer until it is given one.
LAYER_OF: Dict[str, str] = {
    "repro": "experiments",
    "repro.cli": "experiments",
    "repro.experiments.*": "experiments",
    "repro.workloads.*": "workloads",
    "repro.cluster.*": "cluster",
    "repro.core": "core.runtime",
    "repro.core.runtime": "core.runtime",
    "repro.core.config": "core.runtime",
    "repro.core.stats": "core.runtime",
    "repro.core.monitor": "core.runtime",
    "repro.core.migration": "core.runtime",
    "repro.core.offload": "core.runtime",
    "repro.core.checkpoint": "core.runtime",
    "repro.core.fault": "core.runtime",
    "repro.core.errors": "core.runtime",
    "repro.core.frontend": "core.frontend",
    "repro.core.protocol": "core.frontend",
    "repro.core.dispatcher": "core.dispatcher",
    "repro.core.connection": "core.dispatcher",
    "repro.core.context": "core.dispatcher",
    "repro.core.vgpu": "core.dispatcher",
    "repro.core.scheduler": "core.scheduler",
    "repro.core.policies": "core.scheduler",
    "repro.core.estimator": "core.scheduler",
    "repro.core.memory.*": "core.memory",
    "repro.net.*": "net",
    "repro.sim.*": "sim",
    "repro.simcuda.*": "simcuda",
    "repro.qos.*": "qos",
    "repro.obs.*": "obs",
}

#: Layers in report order (model stack top to bottom, then cross-cutting).
LAYERS: Tuple[str, ...] = (
    "experiments", "workloads", "cluster", "core.frontend", "net",
    "core.dispatcher", "core.scheduler", "core.memory", "core.runtime",
    "simcuda", "qos", "obs", "sim",
)

#: layer -> "module:Qualified.name" entry points.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "experiments": (
        "repro.experiments.harness:run_node_batch",
    ),
    "workloads": (
        "repro.workloads.trace_replay:replay_trace",
        "repro.workloads.base:Application.run",
    ),
    "cluster": (
        "repro.cluster.jobs:Job.execute",
        "repro.cluster.node:ComputeNode.start",
        "repro.cluster.node:ComputeNode.cpu_phase",
        "repro.cluster.cluster:Cluster.start",
        "repro.cluster.vmcloud:CloudManager.node_reports",
    ),
    "core.frontend": (
        "repro.core.frontend:Frontend.open",
        "repro.core.frontend:Frontend.flush",
        "repro.core.frontend:Frontend.register_fat_binary",
        "repro.core.frontend:Frontend.register_function",
        "repro.core.frontend:Frontend.cuda_malloc",
        "repro.core.frontend:Frontend.cuda_free",
        "repro.core.frontend:Frontend.cuda_memcpy_h2d",
        "repro.core.frontend:Frontend.cuda_memcpy_d2h",
        "repro.core.frontend:Frontend.cuda_configure_call",
        "repro.core.frontend:Frontend.cuda_launch",
        "repro.core.frontend:Frontend.launch_kernel",
        "repro.core.frontend:Frontend.cuda_thread_synchronize",
        "repro.core.frontend:Frontend.cuda_thread_exit",
    ),
    "net": (
        "repro.net.rpc:RpcClient.call",
        "repro.net.rpc:RpcClient.call_batch",
        "repro.net.socket:Socket.send",
        "repro.net.socket:Socket.recv",
        "repro.net.socket:Listener.accept",
        "repro.net.channel:Channel.send",
        "repro.net.channel:Channel.recv",
    ),
    "core.dispatcher": (
        "repro.core.dispatcher:Dispatcher._dispatch_loop",
        "repro.core.dispatcher:Dispatcher._serve_connection",
        "repro.core.dispatcher:Dispatcher._serve_batch",
        "repro.core.dispatcher:Dispatcher._dispatch",
        "repro.core.dispatcher:Dispatcher.replay_journal",
        "repro.core.connection:ConnectionManager.next_connection",
        "repro.core.vgpu:VirtualGPU.bind",
        "repro.core.vgpu:VirtualGPU.unbind",
        "repro.core.vgpu:VirtualGPU.malloc",
        "repro.core.vgpu:VirtualGPU.free",
        "repro.core.vgpu:VirtualGPU.memcpy_h2d",
        "repro.core.vgpu:VirtualGPU.memcpy_d2h",
        "repro.core.vgpu:VirtualGPU.launch",
    ),
    "core.scheduler": (
        "repro.core.scheduler:Scheduler.request_binding",
        "repro.core.scheduler:Scheduler.release",
        "repro.core.scheduler:Scheduler.cancel_wait",
        "repro.core.scheduler:Scheduler.load_per_vgpu",
        "repro.core.policies:FcfsPolicy.pick_next",
        "repro.core.policies:FairSharePolicy.pick_next",
        "repro.core.estimator:RuntimeEstimator.observe",
        "repro.core.estimator:RuntimeEstimator.predict",
    ),
    "core.memory": (
        "repro.core.memory.manager:MemoryManager.malloc",
        "repro.core.memory.manager:MemoryManager.copy_h2d",
        "repro.core.memory.manager:MemoryManager.copy_d2h",
        "repro.core.memory.manager:MemoryManager.free",
        "repro.core.memory.manager:MemoryManager.prepare_and_launch",
        "repro.core.memory.manager:MemoryManager.find_swap_victim",
        "repro.core.memory.manager:MemoryManager.swap_out_context",
        "repro.core.memory.manager:MemoryManager.unbind_retain",
        "repro.core.memory.manager:MemoryManager.prefetch",
        "repro.core.memory.manager:MemoryManager.release_context",
    ),
    "core.runtime": (
        "repro.core.runtime:NodeRuntime.start",
        "repro.core.runtime:NodeRuntime.load_per_vgpu",
    ),
    "simcuda": (
        "repro.simcuda.driver:CudaDriver.create_context",
        "repro.simcuda.driver:CudaDriver.destroy_context",
        "repro.simcuda.driver:CudaDriver.malloc",
        "repro.simcuda.driver:CudaDriver.free",
        "repro.simcuda.driver:CudaDriver.memcpy_h2d",
        "repro.simcuda.driver:CudaDriver.memcpy_d2h",
        "repro.simcuda.driver:CudaDriver.launch",
        "repro.simcuda.streams:Stream.memcpy_h2d_async",
        "repro.simcuda.streams:Stream.memcpy_d2h_async",
        "repro.simcuda.streams:Stream.synchronize",
        "repro.simcuda.allocator:DeviceAllocator.allocate",
        "repro.simcuda.allocator:DeviceAllocator.free",
    ),
    "qos": (
        "repro.qos.tenant:TenantRegistry.get_or_create",
        "repro.qos.tenant:TenantRegistry.rollup",
        "repro.qos.tenant:Tenant.attach",
        "repro.qos.tenant:Tenant.detach",
        "repro.qos.tenant:Tenant.device_bytes",
        "repro.qos.tenant:Tenant.swap_bytes",
        "repro.qos.tenant:Tenant.normalized_gpu_seconds",
        "repro.qos.admission:AdmissionController.admit",
        "repro.qos.admission:AdmissionController.release",
    ),
    "obs": (
        "repro.obs.slo:SLOMonitor.observe_call",
        "repro.obs.slo:SLOMonitor.observe_queue_wait",
        "repro.obs.span:CallSpan.push",
        "repro.obs.span:CallSpan.pop",
        "repro.obs.span:CallSpan.finish",
        "repro.obs.metrics:Histogram.observe",
    ),
    "sim": (
        "repro.sim.core:Environment.run",
        "repro.sim.core:Environment.timeout",
        "repro.sim.core:Environment.process",
        "repro.sim.core:Event.succeed",
        "repro.sim.sync:Lock.acquire",
        "repro.sim.sync:Lock.release",
        "repro.sim.sync:Condition.wait",
        "repro.sim.sync:Condition.notify_all",
        "repro.sim.resources:Store.put",
        "repro.sim.resources:Store.get",
        "repro.sim.timers:TimerWheel.call_at",
    ),
}

#: Entry points whose receiver objects the tracer keeps, so the run's
#: own counters (channel bytes, scheduler queue-wait histograms, device
#: busy time) can be read after the run.
CAPTURE = frozenset({
    "repro.net.channel:Channel.send",
    "repro.core.runtime:NodeRuntime.start",
})

#: Entry points whose every call duration is kept in order, for
#: growth-over-the-run ratios.
RECORD_DURATIONS = frozenset({
    "repro.core.runtime:NodeRuntime.load_per_vgpu",
})


def layer_of(module: str) -> str:
    """The layer of ``module``, or ``""`` if the map does not cover it."""
    if module in LAYER_OF:
        return LAYER_OF[module]
    parts = module.split(".")
    for cut in range(len(parts), 0, -1):
        layer = LAYER_OF.get(".".join(parts[:cut]) + ".*")
        if layer:
            return layer
    return ""


def src_modules(src: pathlib.Path) -> List[str]:
    """Every module under ``src/repro`` as a dotted name."""
    names = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def _resolve(spec: str):
    """``(owner, attribute name, function)`` for a ``module:Qual.name``."""
    module_name, qual = spec.split(":")
    owner = importlib.import_module(module_name)
    *path, name = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    for klass in (owner.__mro__ if inspect.isclass(owner) else (owner,)):
        raw = vars(klass).get(name)
        if raw is not None:
            break
    else:
        raise LookupError(f"entry point {spec} no longer exists")
    if not inspect.isfunction(raw):
        raise LookupError(f"entry point {spec} is not a plain function")
    return owner, name, raw


def self_check(src: pathlib.Path) -> List[str]:
    """Problems with the layer map against the source tree (empty = ok)."""
    problems = []
    for module in src_modules(src):
        if not layer_of(module):
            problems.append(f"module {module} has no layer")
    for layer, specs in ENTRY_POINTS.items():
        if layer not in LAYERS:
            problems.append(f"entry-point layer {layer} is not in LAYERS")
        for spec in specs:
            module = spec.split(":")[0]
            if layer_of(module) != layer:
                problems.append(f"entry point {spec} is listed under {layer} "
                                f"but its module is in {layer_of(module) or 'no layer'}")
            try:
                _resolve(spec)
            except (ImportError, AttributeError, LookupError) as exc:
                problems.append(f"{spec}: {exc}")
    for spec in CAPTURE | RECORD_DURATIONS:
        if not any(spec in specs for specs in ENTRY_POINTS.values()):
            problems.append(f"{spec} is measured but not an entry point")
    return problems


class SpanTracer:
    """Wraps every entry point while installed; accumulates per layer.

    ``self_s[layer]`` is host seconds of self time, ``calls[spec]`` the
    call count per entry point, ``captured[spec]`` the distinct receivers
    seen (for :data:`CAPTURE`), ``durations[spec]`` per-call inclusive
    seconds in call order (for :data:`RECORD_DURATIONS`).
    """

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {
            spec: 0 for specs in ENTRY_POINTS.values() for spec in specs
        }
        self.captured: Dict[str, Dict[int, object]] = {spec: {} for spec in CAPTURE}
        self.durations: Dict[str, List[float]] = {spec: [] for spec in RECORD_DURATIONS}
        #: open spans: [layer, start, covered-by-children]
        self._stack: List[list] = []

    def reset(self) -> None:
        """Forget everything, captured receivers included (between runs)."""
        for seen in self.captured.values():
            seen.clear()
        self.restart()

    def restart(self) -> None:
        """Zero times, counts and durations from now on.

        Spans already open are rebased to this instant, so only their
        remaining time is charged.  Captured receivers are kept: the
        runtimes a run boots are captured before its measured phase.
        """
        t = time.perf_counter()
        for frame in self._stack:
            frame[1], frame[2] = t, 0.0
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        for spec in self.calls:
            self.calls[spec] = 0
        for recorded in self.durations.values():
            recorded.clear()

    # -- accounting ------------------------------------------------------
    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _leave(self, frame: list) -> float:
        elapsed = time.perf_counter() - frame[1]
        stack = self._stack
        stack.pop()
        self.self_s[frame[0]] += elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed
        return elapsed

    # -- wrapping --------------------------------------------------------
    def _wrap(self, spec: str, layer: str, fn):
        calls = self.calls
        enter, leave = self._enter, self._leave
        captured = self.captured.get(spec)
        durations = self.durations.get(spec)

        if inspect.isgeneratorfunction(fn):
            def drive(gen):
                # Time each resumption of ``gen``; forward send, throw
                # and close exactly as ``yield from`` would.
                value, error = None, None
                while True:
                    frame = enter(layer)
                    try:
                        yielded = gen.send(value) if error is None else gen.throw(error)
                    except StopIteration as stop:
                        leave(frame)
                        return stop.value
                    except BaseException:
                        leave(frame)
                        raise
                    leave(frame)
                    try:
                        value, error = (yield yielded), None
                    except GeneratorExit:
                        frame = enter(layer)
                        try:
                            gen.close()
                        finally:
                            leave(frame)
                        raise
                    except BaseException as exc:  # noqa: BLE001 - thrown into gen
                        value, error = None, exc

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[spec] += 1
                if captured is not None:
                    captured[id(args[0])] = args[0]
                gen = fn(*args, **kwargs)
                driver = drive(gen)
                driver.__name__ = gen.__name__
                driver.__qualname__ = gen.__qualname__
                return driver
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[spec] += 1
                if captured is not None:
                    captured[id(args[0])] = args[0]
                frame = enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = leave(frame)
                    if durations is not None:
                        durations.append(elapsed)
        wrapper.__perfbench_span__ = spec
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span tracer already installed")
        for layer, specs in ENTRY_POINTS.items():
            for spec in specs:
                owner, name, fn = _resolve(spec)
                self._saved.append((owner, name, vars(owner).get(name)))
                setattr(owner, name, self._wrap(spec, layer, fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, in reverse install order."""
        for owner, name, original in reversed(self._saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved.clear()

    def leftover_wrappers(self) -> List[str]:
        """Entry points still wrapped (must be empty after uninstall)."""
        left = []
        for specs in ENTRY_POINTS.values():
            for spec in specs:
                _, _, fn = _resolve(spec)
                if hasattr(fn, "__perfbench_span__"):
                    left.append(spec)
        return left
