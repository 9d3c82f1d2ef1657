"""Pluggable scheduling policies (paper §2 "Configurable Scheduling").

A policy decides *ordering*: given the waiting-contexts list and a freed
vGPU, which context to serve next (:meth:`SchedulingPolicy.pick_next`).
Most policies only write :meth:`SchedulingPolicy.key`; the context with
the smallest key is served.  *Placement* (which idle vGPU a context is
bound to) is one rule for every policy and lives in
:meth:`repro.core.scheduler.Scheduler._choose_vgpu`.

Three policies from the paper's discussion are provided:

``fcfs``
    First-come-first-served with round-robin placement that keeps the
    number of active vGPUs uniform across GPUs — the policy used for all
    of the paper's experiments (§5).
``sjf``
    Shortest-job-first, usable when profiling information (an estimated
    GPU time) accompanies the connection.
``credit``
    Credit-based fairness: the context that has consumed the least GPU
    time so far goes first.

Plus ``edf`` (deadline QoS), ``wfq`` (weighted-fair across tenants),
``locality`` (cost-model-driven: bind waiters where their data lives —
see :mod:`repro.core.memory.costmodel` and ``docs/scheduling.md``), and
the history-driven trio the trace-replay bake-off compares
(``docs/trace_replay.md``):

``sjf_est``
    Shortest-remaining-job-first on a *learned* runtime estimate: no
    profiling hints, just the per-user/per-group EWMA history of a
    :class:`~repro.core.estimator.RuntimeEstimator` — the key idea of
    production trace simulators.
``hrrn``
    Highest-response-ratio-next: serve the waiter maximizing
    ``(wait + est_service) / est_service`` — SJF's throughput with
    built-in aging, so long jobs cannot starve.
``fairshare``
    Unweighted fair share across users with a group level above them:
    the waiter whose group, then user, has consumed the least GPU time
    goes first (max-min on usage, the classic HPC fair-share tree).
``lottery``
    Ticket-weighted random draw (Waldspurger & Weihl, OSDI '94): each
    waiter holds tickets equal to its tenant's contract weight and the
    winner is drawn proportionally.  Probabilistically fair without any
    usage ledger, and starvation-free by construction.  Draws come from
    a named :class:`~repro.sim.rng.RngStreams` stream, so runs are
    reproducible and adding other randomness consumers does not perturb
    the schedule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.context import Context
from repro.core.estimator import RuntimeEstimator

__all__ = [
    "SchedulingPolicy",
    "FcfsPolicy",
    "SjfPolicy",
    "CreditPolicy",
    "DeadlinePolicy",
    "WeightedFairPolicy",
    "LocalityPolicy",
    "EstimatorSjfPolicy",
    "HrrnPolicy",
    "FairSharePolicy",
    "LotteryPolicy",
    "POLICY_NAMES",
    "make_policy",
]


class SchedulingPolicy:
    """Orders the waiting-contexts list: the waiter with the smallest
    :meth:`key` is served next."""

    name = "abstract"

    #: Runtime history the dispatcher feeds at every context exit; only
    #: the history-driven policies (``sjf_est``, ``hrrn``) have one.
    estimator: Optional[RuntimeEstimator] = None

    def key(self, ctx: Context, now: float):
        """Sort key of one waiter at simulated time ``now``."""
        raise NotImplementedError

    def pick_next(self, waiting: Sequence[Context]) -> Optional[Context]:
        """Choose the next waiting context to serve."""
        if not waiting:
            return None
        now = waiting[0].env.now
        key = self.key
        return min(waiting, key=lambda ctx: key(ctx, now))


class FcfsPolicy(SchedulingPolicy):
    """First-come-first-served (paper's experimental policy)."""

    name = "fcfs"

    def pick_next(self, waiting: Sequence[Context]) -> Optional[Context]:
        return waiting[0] if waiting else None


class SjfPolicy(SchedulingPolicy):
    """Shortest-job-first on the profiling hint; FCFS among unknowns."""

    name = "sjf"

    def key(self, ctx: Context, now: float):
        est = ctx.estimated_gpu_seconds
        return (est if est is not None else float("inf"), ctx.context_id)


class CreditPolicy(SchedulingPolicy):
    """Serve the context that has consumed the least GPU time so far."""

    name = "credit"

    def key(self, ctx: Context, now: float):
        return (ctx.gpu_seconds_used, ctx.context_id)


class DeadlinePolicy(SchedulingPolicy):
    """Earliest-deadline-first for QoS requirements (paper §2: "yet
    another scheduling policy may be adopted in the presence of expected
    quality of service requirements (e.g.: execution deadlines)").

    Contexts without a deadline are served after all deadlined ones, in
    FCFS order.
    """

    name = "edf"

    def key(self, ctx: Context, now: float):
        deadline = ctx.deadline_s
        return (deadline if deadline is not None else float("inf"), ctx.context_id)


class WeightedFairPolicy(SchedulingPolicy):
    """Weighted-fair queueing across *tenants* (repro.qos).

    Each tenant's accumulated GPU seconds are normalized by its weight
    (the wfq virtual time); the waiting context whose tenant has the
    smallest normalized usage goes first, so a weight-2 tenant receives
    twice the GPU time of a weight-1 tenant under contention.  Within a
    tenant (and for contexts with no tenant, which compete at weight
    1.0 on their own usage) the credit rule breaks ties: least GPU time
    consumed first, then FCFS.
    """

    name = "wfq"

    def key(self, ctx: Context, now: float):
        tenant = getattr(ctx, "tenant", None)
        if tenant is not None:
            virtual_time = tenant.normalized_gpu_seconds()
        else:
            virtual_time = ctx.gpu_seconds_used
        return (virtual_time, ctx.gpu_seconds_used, ctx.context_id)


class LocalityPolicy(SchedulingPolicy):
    """Bind waiters where their data lives (§4.4 cost-driven binding).

    Ordering consults the node's :class:`TransferCostModel` (wired by the
    runtime after construction): when a vGPU frees, the waiter with the
    cheapest modeled time-to-first-kernel over the currently idle vGPUs
    (``cost_model.scheduler.idle_vgpus()``) goes next — typically the
    one whose retained working set is resident on the freed device.
    Without the wiring (or with no idle vGPU) it degrades to FCFS.

    Starvation guard: each time the front (oldest) waiter is passed over
    for a younger waiter with better locality, its skip counter ticks;
    after :attr:`max_skips` consecutive skips the front waiter is served
    regardless of cost, so locality can reorder but never indefinitely
    delay.
    """

    name = "locality"

    #: Consecutive pass-overs before the oldest waiter is forced through.
    max_skips = 8

    def __init__(self) -> None:
        self.cost_model = None

    def pick_next(self, waiting: Sequence[Context]) -> Optional[Context]:
        if not waiting:
            return None
        front = waiting[0]
        model = self.cost_model
        if model is None:
            return front
        if front.locality_skips >= self.max_skips:
            front.locality_skips = 0
            return front
        idle = model.scheduler.idle_vgpus()
        if not idle:
            return front
        active = model.scheduler.active_per_device()

        def best_cost(ctx: Context) -> float:
            return min(model.bind_cost(ctx, v, active) for v in idle)

        chosen = min(waiting, key=lambda c: (best_cost(c), c.context_id))
        if chosen is front:
            front.locality_skips = 0
        else:
            front.locality_skips += 1
        chosen.locality_skips = 0
        return chosen


class _EstimatePolicy(SchedulingPolicy):
    """Orders on estimated remaining work, from a node-local
    :class:`~repro.core.estimator.RuntimeEstimator` (the dispatcher
    feeds it at context exit; the trace-replay harness swaps in one
    shared cluster-wide instance)."""

    #: Estimate used when neither history nor a handshake hint exists.
    default_estimate_s = float("inf")

    def __init__(self) -> None:
        self.estimator = RuntimeEstimator()

    def _remaining(self, ctx: Context) -> float:
        """Learned estimate, else the handshake hint, else the default,
        minus the GPU seconds already consumed."""
        est = self.estimator.predict_for(ctx)
        if est is None:
            est = ctx.estimated_gpu_seconds
        if est is None:
            est = self.default_estimate_s
        return max(est - ctx.gpu_seconds_used, 0.0)


class EstimatorSjfPolicy(_EstimatePolicy):
    """Shortest-remaining-job-first on learned runtime estimates.

    Production traces carry no profiling hints, so plain ``sjf`` (which
    needs ``estimated_gpu_seconds`` on the handshake) degrades to FCFS
    on them.  This policy instead asks a
    :class:`~repro.core.estimator.RuntimeEstimator` — per-user EWMA
    history with group/global fallback — and orders waiters by
    *remaining* estimated work (estimate minus GPU seconds already
    consumed), so a preempted job near completion is not re-queued
    behind fresh short jobs.  A handshake hint, when present, serves as
    the cold-start fallback; with neither, the waiter sorts last among
    estimated ones (FCFS among fully unknown).
    """

    name = "sjf_est"

    def key(self, ctx: Context, now: float):
        return (self._remaining(ctx), ctx.context_id)


class HrrnPolicy(_EstimatePolicy):
    """Highest-response-ratio-next (Brinch Hansen's aging SJF).

    Serve the waiter with the largest ``(wait + s) / s`` where ``wait``
    is time spent on the waiting list (``ctx.wait_since``, stamped by
    the scheduler at enqueue) and ``s`` the estimated service time from
    the shared :class:`~repro.core.estimator.RuntimeEstimator` (same
    lookup as ``sjf_est``).  Short jobs win when waits are comparable —
    but every second queued inflates a long job's ratio, so nothing
    starves.  With no estimate anywhere the service time defaults to
    1.0 modeled second, degrading to longest-wait-first (= FCFS order).
    """

    name = "hrrn"

    default_estimate_s = 1.0

    #: Service-time floor: keeps ratios finite for near-zero estimates.
    min_service_s = 1e-3

    def key(self, ctx: Context, now: float):
        wait = max(now - ctx.wait_since, 0.0)
        service = max(self._remaining(ctx), self.min_service_s)
        return (-((wait + service) / service), ctx.context_id)


class FairSharePolicy(SchedulingPolicy):
    """Hierarchical unweighted fair share with usage decay: group, then
    user, then FCFS.

    The classic HPC fair-share tree (Slurm's multifactor priority)
    flattened to two levels: among the waiters, first equalize *group*
    GPU-time consumption, within the winning group equalize *user*
    (tenant) consumption, and break ties FCFS.  Unlike ``wfq`` this
    ignores contract weights — every user deserves the same slice,
    which is what the Jain's-fairness column of the trace bake-off
    measures — and it adds the group level that production traces
    (users belong to departments) need.

    Usage is **exponentially decayed** with ``half_life_s`` exactly as
    production fair-share schedulers do: a burst submitted an hour ago
    is forgiven, and ordering reflects *recent* consumption.  Without
    decay, cumulative usage turns into a strict priority inversion
    against heavy users — the top Zipf user in a production trace is
    starved for the whole run and its slowdown tail explodes, which is
    anti-fair by the very metric fair share exists to protect.  Decayed
    per-user fair share approximates per-user processor sharing, whose
    hallmark is *equalized slowdowns* across users regardless of their
    demand.

    Group aggregates sum over **all** tenants of the group, not just the
    currently waiting ones, via ``tenants_fn`` (wired by the runtime to
    the node's :class:`~repro.qos.TenantRegistry`); without the wiring
    the aggregate degrades to the waiter's own tenant usage.  Contexts
    with no tenant compete on their own (undecayed) consumed GPU
    seconds.
    """

    name = "fairshare"

    def __init__(self, half_life_s: float = 30.0) -> None:
        #: Wired by the runtime: () -> all registered tenants.
        self.tenants_fn: Optional[Callable[[], List]] = None
        #: Usage forgiveness half-life (simulated seconds); <= 0
        #: disables decay (pure cumulative fair share).
        self.half_life_s = half_life_s
        #: tenant name -> [decayed_usage, last_raw_usage, last_update_t]
        self._ledger: Dict[str, List[float]] = {}
        #: Decayed usage per tenant / per group, refreshed every pick.
        self._usage: Dict[str, float] = {}
        self._group_usage: Dict[str, float] = {}

    def _decayed_usage(self, tenant, now: float) -> float:
        """Incrementally maintained ``Σ Δusage·2^(-age/half_life)``."""
        entry = self._ledger.get(tenant.name)
        raw = tenant.gpu_seconds_used
        if entry is None:
            entry = [0.0, 0.0, now]
            self._ledger[tenant.name] = entry
        decayed, last_raw, last_t = entry
        if self.half_life_s > 0 and now > last_t:
            decayed *= 0.5 ** ((now - last_t) / self.half_life_s)
        decayed += max(raw - last_raw, 0.0)
        entry[0], entry[1], entry[2] = decayed, raw, now
        return decayed

    def pick_next(self, waiting: Sequence[Context]) -> Optional[Context]:
        if not waiting:
            return None
        now = waiting[0].env.now
        usage: Dict[str, float] = {}
        group_usage: Dict[str, float] = {}
        if self.tenants_fn is not None:
            for tenant in self.tenants_fn():
                used = self._decayed_usage(tenant, now)
                usage[tenant.name] = used
                group = getattr(tenant, "group", None)
                if group is not None:
                    group_usage[group] = group_usage.get(group, 0.0) + used
        self._usage, self._group_usage = usage, group_usage
        return super().pick_next(waiting)

    def key(self, ctx: Context, now: float):
        tenant = getattr(ctx, "tenant", None)
        if tenant is None:
            return (ctx.gpu_seconds_used, ctx.gpu_seconds_used, ctx.context_id)
        t_used = self._usage.get(tenant.name)
        if t_used is None:
            t_used = self._decayed_usage(tenant, now)
        g_used = self._group_usage.get(getattr(tenant, "group", None), t_used)
        return (g_used, t_used, ctx.context_id)


class LotteryPolicy(SchedulingPolicy):
    """Ticket-weighted lottery scheduling (proportional-share).

    Every waiting context holds tickets equal to its tenant's contract
    ``weight`` (tenantless contexts hold 1.0), and the next context to
    serve is drawn with probability proportional to its tickets.  The
    expected GPU-time split matches ``wfq``'s deterministic one, but
    with no virtual-time ledger and no possibility of starvation: any
    waiter with nonzero tickets eventually wins.

    Draws are pulled from the ``"lottery"`` stream of an
    :class:`~repro.sim.rng.RngStreams` tree, so the schedule is a pure
    function of the seed — two runs with the same seed and workload
    make identical picks, and other randomness consumers (trace
    generators, failure injectors) cannot perturb it.
    """

    name = "lottery"

    def __init__(self, seed: int = 0) -> None:
        from repro.sim.rng import RngStreams

        #: Replaceable by the harness/runtime (wired like the other
        #: policy hooks): any object with ``random() -> [0, 1)``.
        self.rng = RngStreams(seed).stream("lottery")

    @staticmethod
    def _tickets(ctx: Context) -> float:
        tenant = getattr(ctx, "tenant", None)
        if tenant is None:
            return 1.0
        return tenant.weight

    def pick_next(self, waiting: Sequence[Context]) -> Optional[Context]:
        if not waiting:
            return None
        if len(waiting) == 1:
            return waiting[0]
        tickets = [self._tickets(c) for c in waiting]
        total = sum(tickets)
        draw = self.rng.random() * total
        acc = 0.0
        for ctx, t in zip(waiting, tickets):
            acc += t
            if draw < acc:
                return ctx
        return waiting[-1]  # draw == total edge (fp roundup)


_POLICIES = {
    p.name: p
    for p in (
        FcfsPolicy,
        SjfPolicy,
        CreditPolicy,
        DeadlinePolicy,
        WeightedFairPolicy,
        LocalityPolicy,
        EstimatorSjfPolicy,
        HrrnPolicy,
        FairSharePolicy,
        LotteryPolicy,
    )
}

#: Registered policy names — the single source for CLI choices and
#: config validation (do not hand-maintain copies of this tuple).
POLICY_NAMES: Tuple[str, ...] = tuple(sorted(_POLICIES))


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by its registered name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {sorted(_POLICIES)}") from None
