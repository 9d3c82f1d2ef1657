"""Runtime configuration.

Defaults match the configuration the paper uses for its headline results:
four vGPUs per device (§5.3.2 "four vGPUs per device provide a good
compromise"), FCFS round-robin scheduling with vGPU-count load balancing,
and full data-transfer deferral (§5 "the runtime is configured to defer
all data transfers").
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["RuntimeConfig"]


@dataclasses.dataclass
class RuntimeConfig:
    """Knobs of :class:`~repro.core.runtime.NodeRuntime`.

    Attributes
    ----------
    vgpus_per_device:
        Degree of time-sharing per physical GPU.  ``1`` serializes jobs
        (the paper's "serialized execution" baseline configuration).
    defer_transfers:
        When True (paper default), host→device transfers are postponed to
        the next kernel launch that references the data; multiple copies
        into one allocation coalesce into a single bulk transfer.  When
        False, transfers are issued immediately once the context is bound
        (computation/communication overlap at the cost of more swap
        traffic).
    overlap_transfers:
        The paper's "overlap computation and communication" configuration
        (§4.5): pipeline the launch-time bulk fault-in and whole-context
        swap-out through the vGPU's in-order copy stream (the caller still
        waits for them), and run checkpoint write-backs behind the caller
        and a per-context barrier.  Per-entry eviction, retention unbind
        and D2H reads stay synchronous.  Off by default — the deferred
        (fully synchronous) path is the paper's headline configuration.
    prefetch_enabled:
        Overlap-engine extension: during an application's CPU phase the
        dispatcher stages the journaled next-launch working set onto the
        device through the copy stream, so the following launch finds its
        data resident (a prefetch *hit*) instead of paying the bulk
        transfer.  Requires ``overlap_transfers`` to be useful; purely
        speculative — prefetch never evicts and swallows device errors.
    policy:
        Scheduling policy name; any of
        :data:`repro.core.policies.POLICY_NAMES`.
    enable_intra_swap / enable_inter_swap:
        The two memory-swapping modes of §4.5.
    swap_chunk_bytes:
        Demand-paging granularity: allocations larger than this are split
        into fixed-size chunks with per-chunk residency/dirty state, so a
        partially written buffer stages, faults in and writes back only
        the chunks that actually hold (or dirtied) data — and the overlap
        engine pipelines per-chunk transfers instead of whole entries.
        ``0`` (default): every allocation is one chunk, valid from
        creation — the paper's whole-entry granularity.
    eviction_mode:
        How inter-application memory pressure is resolved.  ``"context"``
        (default) is the paper's whole-context swap: one victim's entire
        device state is written back and the victim unbound.
        ``"partial"`` runs a device-wide eviction loop instead, freeing
        *only* the bytes the faulting launch needs, entry by entry across
        any number of victims (which stay bound), ordered by
        ``eviction_policy``.  Whole-context swap-out remains the
        correctness path for unbind/migration/checkpoint either way.
        Both stay: on the pinned swap bench, whole-context eviction
        (10.42 s) beats unchunked partial (11.10 s); chunked partial
        wins (7.89 s).
    eviction_policy:
        Victim ordering for partial eviction, registered in
        :mod:`repro.core.memory.eviction`: "lru", "lfu", "second_chance",
        or "cost_aware" (fewest dirty bytes written back per byte freed).
    swap_retry_backoff_s:
        Initial wait before a context that failed to obtain device memory
        (and found no swap victim) retries after unbinding.  Consecutive
        failures back off exponentially up to
        ``repro.core.dispatcher.SWAP_RETRY_MAX_BACKOFF_S``; any
        device-memory release wakes waiters immediately.
    migration_enabled:
        Dynamic binding from slower to faster GPUs when the latter become
        idle and no pending jobs exist (§5.3.4).
    migration_min_speedup:
        Only migrate when the destination device is at least this many
        times faster than the source.
    offload_enabled:
        Allow redirecting pending connections to peer nodes (§4.7).
    offload_load_margin:
        Offload a new connection when the local per-vGPU load exceeds the
        best peer's by more than this margin.
    checkpoint_kernel_seconds:
        When set, automatically checkpoint (write dirty data back to the
        swap area) after any kernel whose execution exceeded this many
        seconds — the §4.6 automatic checkpoint that bounds the replay
        penalty after GPU failures.
    unbind_on_cpu_phase_s:
        When set, a context sitting in a CPU phase for longer than this
        while others wait for a vGPU is unbound (swap-out) so the vGPU can
        be reassigned.  Off by default; exercised by the ablation benches.
    kernel_consolidation:
        Enable space-sharing of a device by kernels with partial SM demand
        (the Ravi et al. kernel-consolidation integration the paper's §6
        describes as enabled by delayed binding and transfer deferral).
    cuda4_semantics:
        CUDA 4.0 compatibility (paper §4.8): application threads carry an
        application identifier; threads of the same application are bound
        to the same device (they share data on the GPU), and dynamic
        binding uses direct GPU-to-GPU transfers instead of staging
        through host memory.
    launch_control_plane_s:
        Per-launch control-plane cost charged by the simulated driver
        (CPU-side submission work before the launch contends for an
        engine).  ``0.0`` (default) models it away entirely — simulated
        times stay bit-for-bit identical to previous releases; see
        ``repro.simcuda.timing.CONTROL_PLANE_SECONDS`` for a reference
        magnitude.  Graph replay re-issues an instantiated launch
        sequence for a *single* charge.
    batch_max_calls:
        Control-plane batching: the frontend journals asynchronous calls
        (configure/launch/h2d) and ships up to this many in one RPC
        frame, which the dispatcher executes in one scheduler
        round-trip.  ``1`` (default) disables batching — every call is
        its own RPC, behavior-identical to previous releases.
        Synchronizing calls (memcpy-back, sync, free, exit, …) act as
        flush barriers: they ride as the last call of the pending batch.
    batch_max_delay_s:
        Optional client-side flush timer: a non-empty batch older than
        this is shipped even if under ``batch_max_calls``.  ``None``
        (default) flushes only on a full batch or a barrier call.
    graph_replay_enabled:
        CUDA-Graph-style replay: the dispatcher recognizes a repeated
        launch-only batch signature (seen
        ``repro.core.dispatcher.GRAPH_MIN_REPEATS`` times) or an explicit
        frontend capture,
        instantiates it once, and re-issues the whole graph for a single
        control-plane charge with only parameter patching.  Off by
        default.
    tracing:
        Structured tracing (:mod:`repro.obs`): emit typed events (call
        spans, swaps, bindings, migrations, queue depths) on the node's
        event bus for Chrome-trace / JSON-lines export.  Off by default;
        when off the instrumentation hooks are single-attribute-check
        no-ops and simulated times are bit-identical to an untraced run.
    qos_enabled:
        Multi-tenant QoS (:mod:`repro.qos`): admission control, tenant
        memory quotas and the vGPU-share gate.  Off by default — the
        tenant registry still exists (connections may name a tenant for
        accounting) but nothing is enforced, so behavior is identical to
        a QoS-less runtime.
    slo_window_s:
        Width of the sliding window over which the per-tenant SLO monitor
        computes turnaround/queue-wait percentiles and burn rates.
    slo_turnaround_p99_s / slo_queue_wait_p99_s:
        Per-call latency targets for the SLO monitor.  A call (or queue
        wait) slower than the target consumes error budget; ``None``
        (default) disables the corresponding burn-rate gauge (it reads
        0.0).  Targets are monitoring-only — nothing is throttled.
    slo_error_budget:
        Fraction of calls in the window allowed to breach the target
        before the burn rate reaches 1.0.  Burn rate is the breaching
        fraction divided by this budget, the standard multi-window
        burn-rate alerting quantity.
    vgpu_quantum_s:
        Preemptive time-slicing: a bound context that has accumulated
        this many GPU seconds since binding is unbound at its next call
        boundary *if* other contexts are waiting for a vGPU (the §4.4
        dynamic-binding machinery makes the unbind cheap and safe).
        ``None`` (default) disables preemption.
    admission_mode:
        What happens when admission control refuses a connection:
        ``"queue"`` (default) blocks the handshake until a slot frees
        (backpressure); ``"reject"`` fails it immediately with a typed
        ``ADMISSION_REJECTED`` error.
    admission_max_contexts:
        Node-wide cap on concurrently admitted contexts (None = no cap).
    admission_max_footprint_bytes:
        Node-wide cap on the summed ``estimated_bytes`` handshake hints
        of admitted contexts (None = no cap).
    listener_backlog:
        Bound on the listener's accept backlog: a ``connect()`` arriving
        while this many connections are already queued un-accepted fails
        fast with ``ConnectionRefusedError`` instead of waiting forever.
        ``None`` (default) keeps the historic unbounded behavior.
    locality_binding:
        Locality-aware dynamic binding (§4.4 + the transfer-cost model in
        :mod:`repro.core.memory.costmodel`).  When enabled: (a) unbinds
        driven by the vGPU quantum or the CPU-phase reaper *retain* the
        context's device allocations as a clean residency cache instead
        of freeing them (write-back still happens, so the swap copy stays
        authoritative); (b) rebinding to the caching vGPU revives the
        cache in place and skips the fault-in, while binding anywhere
        else drops it; (c) other contexts under memory pressure reclaim
        idle caches before evicting live victims; (d) vGPU selection,
        migration, and ``cost_aware`` partial eviction all consult the
        modeled transfer cost.  Off by default — behavior (and simulated
        times) are identical to a cache-less runtime.
    migration_penalty_s:
        Sticky-affinity hysteresis for the cost model: the modeled extra
        cost charged to binding or migrating a context away from the
        device holding its residency cache.  Prevents ping-pong when two
        devices score nearly equal.
    allocator_placement:
        Device-memory placement strategy, applied to every device's
        :class:`~repro.simcuda.allocator.DeviceAllocator`: ``first_fit``
        (default, the historic behavior) or ``best_fit`` (smallest block
        that fits; reduces fragmentation on mixed-size churn).
    max_failed_rebind_attempts:
        How many times a failed context is rebound to another device
        before the error is propagated to the application.
    """

    vgpus_per_device: int = 4
    defer_transfers: bool = True
    overlap_transfers: bool = False
    prefetch_enabled: bool = False
    policy: str = "fcfs"
    enable_intra_swap: bool = True
    enable_inter_swap: bool = True
    swap_chunk_bytes: int = 0
    eviction_mode: str = "context"
    eviction_policy: str = "lru"
    swap_retry_backoff_s: float = 2e-3
    migration_enabled: bool = False
    migration_min_speedup: float = 1.25
    offload_enabled: bool = False
    offload_load_margin: float = 0.5
    checkpoint_kernel_seconds: Optional[float] = None
    unbind_on_cpu_phase_s: Optional[float] = None
    cuda4_semantics: bool = False
    kernel_consolidation: bool = False
    launch_control_plane_s: float = 0.0
    batch_max_calls: int = 1
    batch_max_delay_s: Optional[float] = None
    graph_replay_enabled: bool = False
    tracing: bool = False
    qos_enabled: bool = False
    slo_window_s: float = 60.0
    slo_turnaround_p99_s: Optional[float] = None
    slo_queue_wait_p99_s: Optional[float] = None
    slo_error_budget: float = 0.01
    vgpu_quantum_s: Optional[float] = None
    admission_mode: str = "queue"
    admission_max_contexts: Optional[int] = None
    admission_max_footprint_bytes: Optional[int] = None
    listener_backlog: Optional[int] = None
    locality_binding: bool = False
    migration_penalty_s: float = 0.02
    allocator_placement: str = "first_fit"
    max_failed_rebind_attempts: int = 3
    #: The paper's nodes have 48 GB of host memory (§5.1); the swap area
    #: may use essentially all of it.
    host_swap_capacity_bytes: int = 46 * 1024**3

    def __post_init__(self) -> None:
        # Validate policy names against the live registries (imported
        # lazily to keep config import-cycle free) so a newly registered
        # policy can never silently diverge from a hand-maintained tuple.
        from repro.core.memory.eviction import EVICTION_POLICY_NAMES
        from repro.core.policies import POLICY_NAMES

        if self.vgpus_per_device < 1:
            raise ValueError("vgpus_per_device must be >= 1")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.swap_chunk_bytes < 0:
            raise ValueError("swap_chunk_bytes must be >= 0")
        if self.eviction_mode not in ("context", "partial"):
            raise ValueError(f"unknown eviction_mode {self.eviction_mode!r}")
        if self.eviction_policy not in EVICTION_POLICY_NAMES:
            raise ValueError(f"unknown eviction policy {self.eviction_policy!r}")
        if self.swap_retry_backoff_s < 0:
            raise ValueError("swap_retry_backoff_s must be >= 0")
        if self.max_failed_rebind_attempts < 0:
            raise ValueError("max_failed_rebind_attempts must be >= 0")
        if self.vgpu_quantum_s is not None and self.vgpu_quantum_s <= 0:
            raise ValueError("vgpu_quantum_s must be positive (or None)")
        if self.launch_control_plane_s < 0:
            raise ValueError("launch_control_plane_s must be >= 0")
        if self.batch_max_calls < 1:
            raise ValueError("batch_max_calls must be >= 1")
        if self.batch_max_delay_s is not None and self.batch_max_delay_s <= 0:
            raise ValueError("batch_max_delay_s must be positive (or None)")
        if self.admission_mode not in ("queue", "reject"):
            raise ValueError(f"unknown admission_mode {self.admission_mode!r}")
        if self.listener_backlog is not None and self.listener_backlog < 1:
            raise ValueError("listener_backlog must be >= 1 (or None)")
        if self.migration_penalty_s < 0:
            raise ValueError("migration_penalty_s must be >= 0")
        if self.slo_window_s <= 0:
            raise ValueError("slo_window_s must be positive")
        if not 0 < self.slo_error_budget <= 1:
            raise ValueError("slo_error_budget must be in (0, 1]")
        from repro.simcuda.allocator import PLACEMENT_MODES

        if self.allocator_placement not in PLACEMENT_MODES:
            raise ValueError(
                f"unknown allocator_placement {self.allocator_placement!r}; "
                f"choose from {PLACEMENT_MODES}"
            )

    def serialized(self) -> "RuntimeConfig":
        """A copy configured for serialized execution (1 vGPU/device)."""
        return dataclasses.replace(self, vgpus_per_device=1)

    def overlapped(self) -> "RuntimeConfig":
        """A copy configured for the full overlap engine (§4.5 "overlap
        computation and communication"): pipelined stream transfers plus
        CPU-phase prefetch."""
        return dataclasses.replace(
            self, overlap_transfers=True, prefetch_enabled=True
        )
