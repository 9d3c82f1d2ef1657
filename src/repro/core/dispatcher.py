"""The dispatcher (paper §4.3).

Dispatcher threads dequeue pending connections and serve their calls:

1. registration functions are issued to the CUDA runtime immediately —
   they always precede context creation, so they are safe to service
   before any application-to-GPU binding exists;
2. device-management functions are serviced and typically overridden
   (``cudaSetDevice`` is ignored; ``cudaGetDeviceCount`` returns the
   number of *virtual* GPUs);
3. memory operations are handled entirely in terms of virtual addresses
   by the memory manager — no CUDA runtime interaction;
4. binding to a virtual GPU is delayed until the first kernel launch,
   enabling informed scheduling decisions; if every vGPU is busy the
   context joins the waiting list;
5. failures move the context to the failed list, from which recovery
   rebinds it to a healthy device and replays its journal (§4.6).

The implementation is one handler process per connection — the paper's
"multithreaded dispatcher: each dispatcher thread processes a different
connection".
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Generator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.net.rpc import BatchRequest, BatchResponse, Request, Response
from repro.net.socket import Socket
from repro.simcuda import timing
from repro.simcuda.errors import CudaError, CudaRuntimeError
from repro.simcuda.kernels import KernelLaunch

from repro.obs.events import (
    BatchSubmit,
    CallBegin,
    CallEnd,
    FailureRecovered,
    GraphInstantiate,
    GraphReplay,
    Offload,
    PhaseBreakdown,
    Preemption,
    QueueDepthChanged,
)
from repro.obs.span import CallSpan

from repro.core.context import Context, ContextState
from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.memory.manager import NeedRetry
from repro.core.offload import OFFLOAD_TAG
from repro.core.protocol import CallType, REGISTRATION_CALLS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import NodeRuntime

__all__ = ["Dispatcher", "GraphInstance"]

#: Non-CUDA handshake carrying the application's identity and optional
#: profiling hint (estimated GPU seconds, used by the SJF policy).
HELLO_METHOD = "reproHello"

#: Software cost of interception/dispatch inside the runtime daemon, paid
#: once per frame (one scheduler round trip): a plain call is a frame of
#: one, a batch pays it once for all its calls, and a call retried after
#: a device-failure rebind does not pay it again.
DISPATCHER_OVERHEAD_S = 30e-6

#: How many times an identical launch-only batch signature must be seen
#: before the dispatcher instantiates a graph for it.
GRAPH_MIN_REPEATS = 2

#: Ceiling of the exponential backoff between swap retries (§4.5).
SWAP_RETRY_MAX_BACKOFF_S = 1.0

_graph_ids = itertools.count(1)


def _launch_record(args: dict, grid, block) -> KernelLaunch:
    """The launch record of an intercepted ``cudaLaunch`` (virtual
    pointers), as the journal and graph templates hold it."""
    return KernelLaunch(
        kernel=args["kernel"],
        grid=grid,
        block=block,
        arg_pointers=tuple(args.get("args", ())),
        read_only=tuple(args.get("read_only", ())) or None,
    )


@dataclasses.dataclass
class GraphInstance:
    """An instantiated launch sequence (CUDA-Graph-style replay unit).

    ``template`` holds the captured :class:`KernelLaunch` records with
    *virtual* pointers.  ``epoch``/``device_id`` cache the page-table
    residency epoch and the bound device after the last execution: if the
    epoch is unchanged at the next replay, nothing anywhere in the table
    moved, so the baked translations are still good and the whole graph
    is re-issued for a single control-plane charge.  Validity only
    affects *charging* and stats — execution always runs through
    ``prepare_and_launch``, which re-faults anything missing.
    """

    graph_id: int
    template: Tuple[KernelLaunch, ...]
    epoch: Optional[int] = None
    device_id: Optional[int] = None


class Dispatcher:
    """Schedules intercepted CUDA calls onto virtual GPUs."""

    def __init__(self, runtime: "NodeRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self.config = runtime.config
        self.stats = runtime.stats
        self.memory = runtime.memory
        self.scheduler = runtime.scheduler
        self.obs = runtime.obs
        self._call_latency = runtime.metrics.histogram(
            "call_latency_seconds", "dispatcher time per intercepted call"
        )
        #: Failed contexts awaiting/undergoing recovery (paper Figure 3).
        self.failed_contexts: List[Context] = []
        #: All contexts ever served (experiment bookkeeping).
        self.contexts: List[Context] = []
        #: Contexts in ``contexts`` not yet DONE, kept as a count so the
        #: placement and offload metric (§4.7) never scans history:
        #: :meth:`track` adds one, :meth:`finish` removes one.
        self.live_contexts = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.env.process(self._dispatch_loop(), name="dispatcher")

    def _dispatch_loop(self) -> Generator:
        """Dequeue pending connections; offload or serve locally."""
        while True:
            sock: Socket = yield self.runtime.connections.next_connection()
            self.stats.connections_accepted += 1
            if self.obs.enabled:
                self.obs.record(
                    QueueDepthChanged,
                    queue="pending_connections",
                    depth=self.runtime.connections.pending_count,
                )
                self._observe_socket(sock)
            peer = None
            already_offloaded = sock.peer_name.endswith(OFFLOAD_TAG)
            if (
                self.config.offload_enabled
                and self.runtime.offloader is not None
                and not already_offloaded
            ):
                peer = self.runtime.offloader.choose_peer()
            if peer is not None:
                self.stats.offloads_out += 1
                if self.obs.enabled:
                    self.obs.record(Offload, context=sock.peer_name, dst_node=peer.name)
                self.env.process(
                    self.runtime.offloader.proxy(sock, peer),
                    name=f"offload-proxy-{sock.socket_id}",
                )
            else:
                self.env.process(
                    self._serve_connection(sock), name=f"handler-{sock.socket_id}"
                )

    def _observe_socket(self, sock: Socket) -> None:
        """Tracing only: watch the connection's channels — bytes/messages
        into net counters, receive-queue depth onto the event bus."""
        metrics = self.runtime.metrics
        messages = metrics.counter("net_messages_total", "messages over served sockets")
        nbytes = metrics.counter("net_bytes_total", "payload bytes over served sockets")
        queue = f"sock{sock.socket_id}-rx"

        def on_activity(direction: str, action: str, n: int, pending: int) -> None:
            if action == "send":
                messages.inc()
                nbytes.inc(n)
            elif action == "deliver" and direction == "rx" and self.obs.enabled:
                self.obs.record(QueueDepthChanged, queue=queue, depth=pending)

        sock.attach_observer(on_activity)

    # ------------------------------------------------------------------
    def _serve_connection(self, sock: Socket) -> Generator:
        """Serve one connection frame by frame.

        A plain :class:`Request` is a frame of one call, a
        :class:`BatchRequest` a frame of many.  Each frame holds the
        context lock once, runs through :meth:`_serve_batch` and is
        answered in kind; preemption, migration and prefetch run at
        frame boundaries only.
        """
        # Generator locals persist across yields: bind the per-frame
        # constants once instead of chasing attribute chains on every
        # iteration of the hottest loop in the simulator.
        env = self.env
        obs = self.obs
        stats = self.stats
        recv = sock.recv
        migration = self.runtime.migration
        ctx = Context(env, owner=sock.peer_name)
        ctx.enter_cpu_phase(env.now)
        self.track(ctx)
        lock_acquire = ctx.lock.acquire
        lock_release = ctx.lock.release
        while True:
            frame = yield recv()
            ctx.leave_cpu_phase()
            batched = type(frame) is BatchRequest
            if batched:
                calls = frame.calls
                stats.batches_submitted += 1
                stats.batched_calls += len(calls)
                if obs.enabled:
                    obs.record(BatchSubmit, ctx, calls=len(calls),
                               wire_bytes=frame.wire_bytes)
            else:
                calls = [frame]
            spans = None
            if obs.enabled:
                # Each call's clock starts at its client-side send (or,
                # batched, enqueue) time.  The frame's request wire leg
                # is credited once, to the first call; the others were
                # journaled the whole way (wire_at=now).  Every call
                # then waits for the context lock in "queue_wait".
                spans = []
                for i, req in enumerate(calls):
                    span = CallSpan(
                        env,
                        trace_id=req.trace_id,
                        span_id=req.span_id or req.request_id,
                        begin_at=req.sent_at,
                        wire_at=frame.sent_at if i == 0 else env.now,
                    )
                    span.push("queue_wait")
                    spans.append(span)
                ctx.span = spans[0]
            yield lock_acquire()
            try:
                responses, exited = yield from self._serve_batch(
                    ctx, calls, spans, batched
                )
            finally:
                if spans is not None:
                    # Everything from here until the reply lands is its
                    # wire leg, credited once, to the tail call's span.
                    spans[-1].push("rpc")
                ctx.enter_cpu_phase(env.now)
                lock_release()
            if batched:
                resp = BatchResponse(request_id=frame.request_id, responses=responses)
            else:
                resp = responses[0]
            yield from sock.send(resp, nbytes=resp.wire_bytes)
            if spans is not None:
                ctx.span = None
                self._record_phases(ctx, calls[-1].method, spans[-1],
                                    responses[-1].error)
            if exited:
                return
            if self._quantum_exhausted(ctx):
                # Preemptive time-slicing (repro.qos): the context burned
                # its vGPU quantum while others queue — unbind it at this
                # frame boundary (delayed binding makes that safe, §4.4)
                # and let the policy re-order who goes next.
                yield from self._preempt(ctx)
            # The application is back in a CPU phase: a faster idle GPU
            # may now claim it (dynamic binding, §5.3.4).
            migration.maybe_migrate(ctx)
            self._maybe_prefetch(ctx)

    def _record_phases(
        self, ctx: Context, method, span: CallSpan, error: Optional[BaseException]
    ) -> None:
        """Emit one completed call's phase decomposition from its span."""
        phases = span.finish()
        self.obs.record(
            PhaseBreakdown, ctx,
            method=getattr(method, "value", method),
            trace_id=span.trace_id,
            span_id=span.span_id,
            begin_at=span.begin_at,
            wall=span.wall,
            phases=tuple(sorted(phases.items())),
            error=type(error).__name__ if error is not None else None,
        )

    def _serve_batch(
        self,
        ctx: Context,
        calls: List[Request],
        spans: Optional[List[CallSpan]],
        batched: bool,
    ) -> Generator:
        """Run one frame's calls in order; the context lock is held.

        ``DISPATCHER_OVERHEAD_S`` (one scheduler round trip) is charged
        once per frame, inside the first call's timed window.  A call
        that hits a failed device rebinds the context, replays its
        journal and retries (§4.6).  Once a call fails, the rest of the
        frame is answered with typed ``BATCH_ABORTED`` errors while
        earlier results stand.  A batch frame that matches an
        instantiated graph replays it on its tail call and the other
        calls are absorbed; a replay error is reported by every call.

        Returns ``(responses, exited)``: ``exited`` is True once an EXIT
        call has run, whether or not it errored.
        """
        env = self.env
        obs = self.obs
        stats = self.stats
        latency_observe = self._call_latency.observe
        slo_observe = self.runtime.slo.observe_call
        if batched:
            instance = self._match_graph(ctx, calls)
            last = len(calls) - 1
        else:
            instance, last = None, 0
        responses: List[Response] = []
        exited = False
        first_error: Optional[BaseException] = None
        first_error_at = 0
        for i, req in enumerate(calls):
            span = spans[i] if spans is not None else None
            if span is not None:
                span.pop()  # its queue_wait ends; execution begins
                ctx.span = span
            if obs.enabled:
                method_name = getattr(req.method, "value", req.method)
                begin_at = obs.record(CallBegin, ctx, method=method_name).at
            else:
                begin_at = None
            t0 = env.now
            if i == 0:
                yield env.timeout(DISPATCHER_OVERHEAD_S)
            value, resp_bytes, error = None, 0, None
            if first_error is not None:
                error = RuntimeApiError(
                    RuntimeErrorCode.BATCH_ABORTED,
                    f"call #{i + 1} followed failed call "
                    f"#{first_error_at + 1}: {first_error}",
                )
            elif instance is None or i == last:
                while True:
                    try:
                        if ctx.state is ContextState.FAILED:
                            yield from self._recover(ctx)
                        if instance is None:
                            value, resp_bytes = yield from self._dispatch(ctx, req)
                        else:
                            yield from self._execute_graph(
                                ctx, instance, self._launch_records(calls)
                            )
                        ctx.rebind_attempts = 0
                        break
                    except CudaRuntimeError as exc:
                        if (
                            exc.code == CudaError.cudaErrorDevicesUnavailable
                            and ctx.rebind_attempts
                            < self.config.max_failed_rebind_attempts
                        ):
                            self._mark_failed(ctx, exc)
                            continue
                        error = exc
                        break
                    except RuntimeApiError as exc:
                        error = exc
                        break
                if error is not None:
                    first_error, first_error_at = error, i
                if req.method == CallType.EXIT:
                    exited = True
            elapsed = env.now - t0
            latency_observe(elapsed)
            slo_observe(ctx, elapsed)
            if begin_at is not None:
                obs.record(
                    CallEnd, ctx, method=method_name, begin_at=begin_at,
                    duration=env.now - begin_at,
                    error=type(error).__name__ if error is not None else None,
                )
            responses.append(
                Response(
                    request_id=req.request_id,
                    value=value,
                    error=error,
                    payload_bytes=resp_bytes,
                )
            )
            stats.calls_served += 1
            if span is not None and i < last:
                # Non-tail calls complete here; the reply wire leg is not
                # theirs (it is charged once, to the tail call's span).
                ctx.span = None
                self._record_phases(ctx, req.method, span, error)
        if first_error is None:
            if batched and instance is None:
                self._note_graph_candidate(ctx, calls)
        elif instance is not None:
            # A graph replay is all or nothing: every call reports its error.
            for resp in responses:
                resp.error = first_error
        return responses, exited

    # -- graph detection / replay --------------------------------------
    @staticmethod
    def _batch_signature(calls: List[Request]) -> Optional[tuple]:
        """Shape key of a launch-only frame: methods, kernel names and
        execution configurations — *not* pointer values, so a matching
        frame replays with its own arguments (parameter patching)."""
        sig = []
        has_launch = False
        for req in calls:
            method = req.method
            if method == CallType.CONFIGURE_CALL:
                sig.append(
                    (
                        "cfg",
                        tuple(req.args.get("grid", (1, 1, 1))),
                        tuple(req.args.get("block", (256, 1, 1))),
                    )
                )
            elif method == CallType.LAUNCH:
                kernel = req.args["kernel"]
                sig.append(
                    ("launch", kernel.name, len(tuple(req.args.get("args", ()))))
                )
                has_launch = True
            else:
                return None
        return tuple(sig) if has_launch else None

    @staticmethod
    def _launch_records(calls: List[Request]) -> List[KernelLaunch]:
        """Configure/launch pairs → launch records (the incoming args are
        the graph's "parameter patching")."""
        records: List[KernelLaunch] = []
        grid, block = (1, 1, 1), (256, 1, 1)
        for req in calls:
            if req.method == CallType.CONFIGURE_CALL:
                grid = tuple(req.args.get("grid", (1, 1, 1)))
                block = tuple(req.args.get("block", (256, 1, 1)))
            elif req.method == CallType.LAUNCH:
                records.append(_launch_record(req.args, grid, block))
        return records

    def _match_graph(
        self, ctx: Context, calls: List[Request]
    ) -> Optional[GraphInstance]:
        if not self.config.graph_replay_enabled or not ctx.graph_by_signature:
            return None
        sig = self._batch_signature(calls)
        if sig is None:
            return None
        return ctx.graph_by_signature.get(sig)

    def _note_graph_candidate(self, ctx: Context, calls: List[Request]) -> None:
        """Journal-based detection: after ``GRAPH_MIN_REPEATS`` identical
        launch-only frames, instantiate a graph so the next match
        replays."""
        if not self.config.graph_replay_enabled:
            return
        sig = self._batch_signature(calls)
        if sig is None or sig in ctx.graph_by_signature:
            return
        seen = ctx.graph_candidates.get(sig, 0) + 1
        if seen < GRAPH_MIN_REPEATS:
            ctx.graph_candidates[sig] = seen
            return
        ctx.graph_candidates.pop(sig, None)
        template = tuple(self._launch_records(calls))
        instance = GraphInstance(graph_id=next(_graph_ids), template=template)
        # The instantiating frame just executed, so its working set is
        # resident right now: the next matching frame replays hot.
        instance.epoch = self.memory.page_table.epoch
        instance.device_id = ctx.vgpu.device.device_id if ctx.bound else None
        ctx.graph_by_signature[sig] = instance
        ctx.graphs[instance.graph_id] = instance
        self.stats.graphs_instantiated += 1
        if self.obs.enabled:
            self.obs.record(GraphInstantiate, ctx, graph_id=instance.graph_id,
                            kernels=len(template), explicit=False)

    def _graph_valid(
        self, ctx: Context, instance: GraphInstance, launches: Sequence[KernelLaunch]
    ) -> bool:
        """Are the instance's baked translations still good?  Epoch
        equality is the O(1) fast path; after any table change, a direct
        residency re-check of the graph's working set decides."""
        page_table = self.memory.page_table
        if not ctx.bound or ctx.vgpu.device.device_id != instance.device_id:
            return False
        if instance.epoch == page_table.epoch:
            return True
        for launch in launches:
            for vptr in launch.arg_pointers:
                try:
                    pte = page_table.lookup(ctx, vptr)
                except RuntimeApiError:
                    return False
                if not pte.is_allocated:
                    return False
        return True

    def _execute_graph(
        self, ctx: Context, instance: GraphInstance, launches: Sequence[KernelLaunch]
    ) -> Generator:
        """Re-issue an instantiated graph: one control-plane charge when
        the cached translations are still good, the full per-launch path
        (plus an invalidation count) when a journaled buffer was evicted
        between replays.  Validity only affects *charging* — execution
        always goes through ``prepare_and_launch``, which re-faults
        anything missing, so a misjudged fast path cannot corrupt."""
        if not ctx.bound:
            yield from self.scheduler.request_binding(ctx)
        cold = instance.epoch is None
        valid = not cold and self._graph_valid(ctx, instance, launches)
        if not valid and not cold:
            self.stats.graphs_invalidated += 1
        span = ctx.span
        if span is not None:
            span.push("graph_replay")
        try:
            cp = self.config.launch_control_plane_s
            if valid and cp > 0.0:
                yield self.env.timeout(cp)
            yield from self._launch(
                ctx, list(launches), "graph retry", control_plane=not valid
            )
        finally:
            if span is not None:
                span.pop()
        self.stats.graph_replays += 1
        self.stats.graph_replayed_kernels += len(launches)
        instance.epoch = self.memory.page_table.epoch
        instance.device_id = ctx.vgpu.device.device_id if ctx.bound else None
        if self.obs.enabled:
            self.obs.record(GraphReplay, ctx, graph_id=instance.graph_id,
                            kernels=len(launches),
                            invalidated=not valid and not cold)

    # ------------------------------------------------------------------
    # preemptive time-slicing (repro.qos)
    # ------------------------------------------------------------------
    def _quantum_exhausted(self, ctx: Context) -> bool:
        quantum = self.config.vgpu_quantum_s
        return (
            quantum is not None
            and ctx.bound
            and ctx.state is ContextState.ASSIGNED
            and not ctx.excluded_from_sharing
            and ctx.quantum_used_s >= quantum
            and self.scheduler.waiting_count > 0
        )

    def _preempt(self, ctx: Context) -> Generator:
        """Unbind a quantum-expired context at a call boundary.

        Same lock-acquire-and-recheck discipline as the CPU-phase reaper
        and migration: the context may have exited, failed, or been
        swapped out by someone else while we queued for its lock.
        """
        yield ctx.lock.acquire()
        try:
            if not (
                ctx.bound
                and ctx.in_cpu_phase
                and ctx.state is ContextState.ASSIGNED
                and self.scheduler.waiting_count > 0
            ):
                return
            vgpu = ctx.vgpu
            used = ctx.quantum_used_s
            if self.config.locality_binding:
                # Retention unbind: write dirty chunks back but leave the
                # device copy cached, so a rebind to the same vGPU skips
                # the re-fault entirely (§4.4 locality-aware binding).
                yield from self.memory.unbind_retain(ctx)
            else:
                yield from self.memory.swap_out_context(ctx)
            self.scheduler.release(ctx, "quantum expired")
            self.stats.preemptions += 1
            if ctx.tenant is not None:
                ctx.tenant.preemptions += 1
            if self.obs.enabled:
                self.obs.record(
                    Preemption, ctx, vgpu=vgpu.name,
                    quantum_s=self.config.vgpu_quantum_s, used_s=used,
                    device_id=vgpu.device.device_id,
                )
        finally:
            ctx.lock.release()

    # ------------------------------------------------------------------
    # overlap engine: CPU-phase prefetch (§4.5 "overlap computation and
    # communication")
    # ------------------------------------------------------------------
    def _maybe_prefetch(self, ctx: Context) -> None:
        """After responding to a call, stage the predicted next-launch
        working set while the application computes on the CPU."""
        if (
            not self.config.prefetch_enabled
            or not ctx.bound
            or not ctx.last_launch_vptrs
        ):
            return
        self.env.process(
            self._prefetch(ctx, ctx.last_launch_vptrs),
            name=f"prefetch-{ctx.owner}",
        )

    def _prefetch(self, ctx: Context, vptrs) -> Generator:
        if ctx.lock.locked:
            # The next call already arrived; prefetching now would only
            # delay it.
            return
        yield ctx.lock.acquire()
        try:
            # Re-check under the lock: the context may have been swapped
            # out, migrated, failed, or have left its CPU phase.
            if (
                ctx.bound
                and ctx.in_cpu_phase
                and ctx.state is ContextState.ASSIGNED
            ):
                try:
                    yield from self.memory.prefetch(ctx, vptrs)
                except CudaRuntimeError:
                    # Device trouble mid-prefetch is not the application's
                    # problem; the next real call handles recovery.
                    pass
        finally:
            ctx.lock.release()

    # ------------------------------------------------------------------
    # call dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, ctx: Context, req: Request) -> Generator:
        """Serve one call; returns ``(value, response_payload_bytes)``.
        The frame's dispatcher overhead is already paid."""
        method = req.method
        args = req.args

        if ctx.capture is not None and method in (
            CallType.CONFIGURE_CALL,
            CallType.LAUNCH,
        ):
            # Stream-capture semantics: while capturing, configure/launch
            # are recorded into the graph template, not executed.
            self._record_capture(ctx, method, args)
            return None, 0

        if method == HELLO_METHOD:
            if args.get("owner"):
                ctx.owner = args["owner"]
            ctx.estimated_gpu_seconds = args.get("estimated_gpu_seconds")
            ctx.application_id = args.get("application_id")
            ctx.deadline_s = args.get("deadline_s")
            ctx.estimated_bytes = args.get("estimated_bytes")
            tenant_name = args.get("tenant")
            if tenant_name:
                ctx.tenant = self.runtime.qos.get_or_create(tenant_name)
            # Admission control (repro.qos): the gate sits here, at the
            # first moment tenant identity is known — a rejected
            # handshake surfaces as a typed error on Frontend.open(),
            # a queued one blocks until a slot frees.  The slot is
            # returned in _exit.
            span = ctx.span
            if span is not None:
                span.push("queue_wait")
            try:
                yield from self.runtime.admission.admit(ctx)
            finally:
                if span is not None:
                    span.pop()
            if ctx.tenant is not None:
                ctx.tenant.attach(ctx)
            return None, 0

        if method in REGISTRATION_CALLS:
            return (yield from self._registration(ctx, req))

        if method == CallType.SET_DEVICE:
            # Overridden: the runtime masks explicit GPU procurement (§2).
            return None, 0
        if method == CallType.GET_DEVICE_COUNT:
            # Overridden: report virtual, not physical, GPUs (§4.3).
            return self.scheduler.total_vgpus, 0

        if method == CallType.MALLOC:
            return self.memory.malloc(ctx, args["size"]), 0
        if method == CallType.FREE:
            yield from self.memory.free(ctx, args["vptr"])
            return None, 0
        if method == CallType.MEMCPY_H2D:
            yield from self.memory.copy_h2d(ctx, args["vptr"], args["nbytes"])
            return None, 0
        if method == CallType.MEMCPY_D2H:
            yield from self.memory.copy_d2h(ctx, args["vptr"], args["nbytes"])
            return None, args["nbytes"]

        if method == CallType.CONFIGURE_CALL:
            ctx.pending_config = (args.get("grid", (1, 1, 1)), args.get("block", (256, 1, 1)))
            return None, 0
        if method == CallType.LAUNCH:
            if ctx.pending_config is None:
                raise CudaRuntimeError(
                    CudaError.cudaErrorMissingConfiguration,
                    "cudaLaunch without cudaConfigureCall",
                )
            # Keep the configuration until the launch succeeds: the call
            # may be retried wholesale after a device failure.
            grid, block = ctx.pending_config
            # _launch_record inlined: this is the hottest call path.
            launch = KernelLaunch(
                kernel=args["kernel"],
                grid=grid,
                block=block,
                arg_pointers=tuple(args.get("args", ())),
                read_only=tuple(args.get("read_only", ())) or None,
            )
            duration = yield from self._launch(ctx, [launch], "swap retry")
            ctx.pending_config = None
            threshold = self.config.checkpoint_kernel_seconds
            if threshold is not None and duration >= threshold:
                # Automatic checkpoint after long-running kernels (§4.6).
                yield from self.memory.checkpoint(ctx)
            return None, 0
        if method == CallType.THREAD_SYNCHRONIZE:
            return None, 0

        if method == CallType.REGISTER_NESTED:
            self.memory.register_nested(
                ctx, args["parent"], args["members"], args["offsets"]
            )
            return None, 0
        if method == CallType.CHECKPOINT:
            if ctx.bound:
                yield from self.memory.checkpoint(ctx)
            return None, 0

        if method == CallType.GRAPH_BEGIN_CAPTURE:
            if ctx.capture is not None:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID, "capture already active"
                )
            ctx.capture = []
            ctx.capture_config = None
            return None, 0
        if method == CallType.GRAPH_END_CAPTURE:
            if ctx.capture is None:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID, "no capture active"
                )
            launches, ctx.capture = ctx.capture, None
            if not launches:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID, "captured sequence is empty"
                )
            instance = GraphInstance(
                graph_id=next(_graph_ids), template=tuple(launches)
            )
            ctx.graphs[instance.graph_id] = instance
            self.stats.graphs_instantiated += 1
            # Instantiation bakes every node's submission state up front —
            # the one-time control-plane cost that replay then amortizes.
            cp = self.config.launch_control_plane_s
            if cp > 0.0:
                yield self.env.timeout(cp * len(launches))
            if self.obs.enabled:
                self.obs.record(GraphInstantiate, ctx, graph_id=instance.graph_id,
                                kernels=len(launches), explicit=True)
            return instance.graph_id, 0
        if method == CallType.GRAPH_LAUNCH:
            instance = ctx.graphs.get(args.get("graph"))
            if instance is None:
                raise RuntimeApiError(
                    RuntimeErrorCode.GRAPH_INVALID,
                    f"unknown graph handle {args.get('graph')!r}",
                )
            yield from self._execute_graph(ctx, instance, instance.template)
            return None, 0

        if method == CallType.EXIT:
            yield from self._exit(ctx)
            return None, 0

        raise ValueError(f"unknown intercepted call {method!r}")

    def _record_capture(self, ctx: Context, method: CallType, args: dict) -> None:
        if method == CallType.CONFIGURE_CALL:
            ctx.capture_config = (
                args.get("grid", (1, 1, 1)),
                args.get("block", (256, 1, 1)),
            )
            return
        grid, block = ctx.capture_config or ((1, 1, 1), (256, 1, 1))
        ctx.capture.append(_launch_record(args, tuple(grid), tuple(block)))
        ctx.capture_config = None

    def _registration(self, ctx: Context, req: Request) -> Generator:
        """Registration functions precede context creation and are issued
        straight to the CUDA runtime (they carry no binding decision)."""
        yield self.env.timeout(timing.REGISTRATION_SECONDS)
        if req.method == CallType.REGISTER_FATBIN:
            fatbin = req.args["fatbin"]
            ctx.fatbins.append(fatbin)
            if fatbin.needs_exclusion_from_sharing:
                # Device-side dynamic allocation: served, but excluded
                # from sharing and dynamic scheduling (§1).
                ctx.excluded_from_sharing = True
            return fatbin.handle, 0
        if req.method == CallType.REGISTER_FUNCTION:
            descriptor = req.args["descriptor"]
            fatbin = next(
                (f for f in ctx.fatbins if f.handle == req.args["fatbin_handle"]), None
            )
            if fatbin is not None and descriptor.name not in fatbin.functions:
                fatbin.register_function(descriptor)
            if descriptor.uses_dynamic_alloc:
                ctx.excluded_from_sharing = True
            return None, 0
        # vars / textures / shared: symbol bookkeeping on the fat binary
        fatbin = next(
            (f for f in ctx.fatbins if f.handle == req.args.get("fatbin_handle")),
            None,
        )
        if fatbin is not None:
            name = req.args.get("name", "")
            if req.method == CallType.REGISTER_VAR:
                fatbin.register_var(name)
            elif req.method == CallType.REGISTER_TEXTURE:
                fatbin.register_texture(name)
            elif req.method == CallType.REGISTER_SHARED_VAR:
                fatbin.register_shared_var(name)
        return None, 0

    # ------------------------------------------------------------------
    # launch path: delayed binding + swap retries (§4.3, §4.5)
    # ------------------------------------------------------------------
    def _launch(
        self,
        ctx: Context,
        pending: List[KernelLaunch],
        reason: str,
        front: bool = False,
        control_plane: bool = True,
    ) -> Generator:
        """Run ``pending`` in order on the context's vGPU, binding it
        first if needed (``front``: ahead of the waiting list) and
        unbinding to retry later when device memory runs out.

        Launched records leave ``pending``, so after an error it holds
        exactly the unlaunched suffix.  Returns the last kernel's
        execution seconds.
        """
        backoff = self.config.swap_retry_backoff_s
        duration = 0.0
        done = 0
        try:
            for launch in pending:
                while True:
                    if not ctx.bound:
                        yield from self.scheduler.request_binding(ctx, front=front)
                    try:
                        duration = yield from self.memory.prepare_and_launch(
                            ctx, launch, control_plane
                        )
                        break
                    except NeedRetry:
                        backoff = yield from self._retry_later(ctx, backoff, reason)
                done += 1
        finally:
            del pending[:done]
        return duration

    def _retry_later(self, ctx: Context, backoff: float, reason: str) -> Generator:
        """No device memory, no victim: unbind, retry later (§4.5).

        Swaps ``ctx`` out, releases its vGPU, then waits until device
        memory is freed or ``backoff`` elapses, so stuck launches do not
        spin.  The lost time is off-device time: "preempted".  Returns
        the next backoff (doubled, capped).
        """
        span = ctx.span
        if span is not None:
            span.push("preempted")
        try:
            yield from self.memory.swap_out_context(ctx, notify=False)
            self.scheduler.release(ctx, reason)
            # When either branch wins, the AnyOf cancels the loser: a
            # spent timeout leaves the kernel heap, an unneeded waiter
            # leaves memory_freed's queue — so a later notify cannot be
            # swallowed by this retry's ghost.
            timeout = self.env.timeout(backoff)
            freed = self.memory.memory_freed.wait()
            yield self.env.any_of([timeout, freed])
        finally:
            if span is not None:
                span.pop()
        return min(backoff * 2, SWAP_RETRY_MAX_BACKOFF_S)

    # ------------------------------------------------------------------
    # failure handling (§4.6)
    # ------------------------------------------------------------------
    def _mark_failed(self, ctx: Context, exc: CudaRuntimeError) -> None:
        ctx.error = exc
        ctx.state = ContextState.FAILED
        ctx.rebind_attempts += 1
        if ctx not in self.failed_contexts:
            self.failed_contexts.append(ctx)
        if ctx.vgpu is not None:
            dead_device = ctx.vgpu.device
            ctx.vgpu.unbind(ctx)
            if dead_device.failed:
                self.runtime.note_device_failure(dead_device)
        self.memory.reset_after_failure(ctx)

    def replay_journal(self, ctx: Context) -> Generator:
        """Replay a context's journaled kernels; returns how many.

        The single replay implementation (§4.6): device-failure recovery
        and full-node restart both run it.  Each journaled kernel is
        re-executed through the ordinary launch loop (re-journaling
        included), so replay survives memory pressure on the new device —
        a mid-replay swap-out captures the replayed prefix in the swap
        area while the suffix stays pending here.  If replay itself
        fails, the unreplayed suffix goes back on the journal for the
        next recovery.
        """
        pending, ctx.replay_journal = ctx.replay_journal, []
        total = len(pending)
        try:
            yield from self._launch(ctx, pending, "replay retry", front=True)
        finally:
            self.stats.replayed_kernels += total - len(pending)
            ctx.replay_journal.extend(pending)
        if not ctx.bound:
            yield from self.scheduler.request_binding(ctx, front=True)
        return total

    def _recover(self, ctx: Context) -> Generator:
        """Rebind a failed context to a healthy device and replay."""
        replayed = yield from self.replay_journal(ctx)
        ctx.state = ContextState.ASSIGNED
        ctx.error = None
        if ctx in self.failed_contexts:
            self.failed_contexts.remove(ctx)
        self.stats.failures_recovered += 1
        if self.obs.enabled:
            self.obs.record(FailureRecovered, ctx, replayed_kernels=replayed)

    # ------------------------------------------------------------------
    def track(self, ctx: Context) -> None:
        """Record a newly served context; it is live until :meth:`finish`."""
        self.contexts.append(ctx)
        self.live_contexts += 1

    def finish(self, ctx: Context) -> None:
        """The single transition to DONE: ``ctx`` stops counting as live."""
        ctx.state = ContextState.DONE
        self.live_contexts -= 1

    def _exit(self, ctx: Context) -> Generator:
        yield from self.memory.release_context(ctx)
        if ctx.bound:
            self.scheduler.release(ctx, "exit")
        else:
            self.scheduler.cancel_wait(ctx)
        self.runtime.admission.release(ctx)
        # History-estimator policies (sjf_est/hrrn) learn from every
        # completed context: measured GPU seconds keyed by its tenant.
        estimator = self.scheduler.policy.estimator
        if estimator is not None and ctx.gpu_seconds_used > 0:
            tenant = ctx.tenant
            estimator.observe(
                tenant.name if tenant is not None else None,
                ctx.gpu_seconds_used,
                group=getattr(tenant, "group", None),
            )
        if ctx.tenant is not None:
            ctx.tenant.detach(ctx)
        self.finish(ctx)
        ctx.finished_at = self.env.now
