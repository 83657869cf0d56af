"""Guarded query execution: budgets, deadlines, graceful degradation.

A serving deployment cannot let one query monopolize the process, and it
cannot return a 500 because one engine tier has a bug.  This module wraps
query execution in both protections:

**Budgets.**  :class:`BudgetedAccessCounter` subclasses the
:class:`~repro.metrics.counters.AccessCounter` every engine already
charges its scored records to (the paper's "accessed records" metric,
Definition 3.1), and raises
:class:`~repro.errors.QueryBudgetExceeded` the moment the tally passes an
accessed-record budget or a wall-clock deadline.  Because the check rides
the existing accounting, no traversal kernel needed a hook — the budget
is enforced mid-traversal in every tier, including the batched compiled
kernel.

**Degradation.**  :func:`run_ladder` is the one degradation ladder:
every read walks its tiers through it — :func:`run_query` here, and the
serving index's ``query``/``query_batch`` over a pinned snapshot
(fabric → compiled → snapshot scan).  :func:`run_query` answers through
a chain of tiers, each strictly simpler (and slower) than the one
before::

    compiled   CompiledAdvancedTraveler over graph.compile()
       |       (recompiled automatically when the snapshot is stale)
       v
    reference  AdvancedTraveler over the mutable DominantGraph
       |       (no snapshot, no CSR arrays — just the paper's Algorithm 2)
       v
    naive      full scan of the indexed real records
               (no graph structure consulted at all)

A tier that raises anything other than :class:`QueryBudgetExceeded` is
abandoned; a :class:`~repro.errors.DegradedResultWarning` records the
failure and the next tier answers; a tier whose circuit breaker is open
is skipped the same way, unless it is the last.  Budget violations are
*not* degraded around — every lower tier does at least as much record
access, so the only honest response is the typed error.  The tier that
actually produced the answer is recorded on
:attr:`repro.core.result.TopKResult.tier`.

All three tiers return identical answers by construction (the compiled
engine is bit-identical to the reference, and the naive scan is the
correctness oracle the whole test suite compares against), so degradation
trades latency, never correctness.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

from repro.core.advanced import AdvancedTraveler
from repro.core.compiled import CompiledAdvancedTraveler, CompiledDG
from repro.core.functions import ScoringFunction, WherePredicate
from repro.core.graph import DominantGraph
from repro.core.result import TopKResult
from repro.errors import (
    DegradedResultWarning,
    InvariantViolation,
    QueryBudgetExceeded,
)
from repro.metrics.counters import AccessCounter
from repro.resilience.breaker import BreakerBoard, CircuitBreaker
from repro.resilience.deadline import Deadline

#: Tiers over the mutable graph, fastest first; run_query walks this chain.
TIERS = ("compiled", "reference", "naive")


class BudgetedAccessCounter(AccessCounter):
    """An access counter that enforces record and wall-clock budgets.

    Engines charge every scored record here (they already must, for the
    paper's cost metric), so the budget check needs no hooks inside the
    traversal kernels: the counter raises
    :class:`~repro.errors.QueryBudgetExceeded` from within
    ``count_computed`` / ``count_computed_batch`` the moment a limit is
    passed, aborting the traversal mid-flight.

    Parameters
    ----------
    max_records:
        Maximum records the query may score (``None`` = unlimited).
    budget_ms:
        Wall-clock budget in milliseconds from ``started`` (``None`` =
        unlimited).
    started:
        ``time.monotonic()`` timestamp the budget is measured from;
        defaults to construction time.  The guard passes one start time
        to every tier so fallbacks share the original deadline.
    deadline:
        Optional end-to-end :class:`~repro.resilience.deadline.Deadline`
        enforced alongside the per-tier budgets.  This is how the
        deadline reaches *mid-traversal* in tiers with no kernel
        checkpoint of their own (reference and naive): they charge this
        counter per scored record, and the counter raises
        :class:`~repro.errors.DeadlineExceeded` the moment the request's
        time is gone.
    """

    def __init__(
        self,
        max_records: int | None = None,
        budget_ms: float | None = None,
        started: float | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        super().__init__()
        self.max_records = max_records
        self.budget_ms = budget_ms
        self.started = time.monotonic() if started is None else started
        self.deadline = deadline

    def enforce(self) -> None:
        """Raise :class:`QueryBudgetExceeded` if either budget is spent.

        Called after every charge, and again by :func:`run_query` when a
        tier *completes* — a query that scores nothing (an all-pseudo
        index, an empty candidate set) never charges the counter, and
        without the completion check such a zero-access path could run
        arbitrarily past ``budget_ms`` yet return as if on time.
        """
        if self.max_records is not None and self.computed > self.max_records:
            raise QueryBudgetExceeded(
                "records", limit=self.max_records, spent=self.computed
            )
        if self.budget_ms is not None:
            elapsed_ms = 1000.0 * (time.monotonic() - self.started)
            if elapsed_ms > self.budget_ms:
                raise QueryBudgetExceeded(
                    "time", limit=self.budget_ms, spent=elapsed_ms
                )
        if self.deadline is not None:
            self.deadline.check(stage="counter")

    def count_computed(
        self, record_id: int | None = None, pseudo: bool = False
    ) -> None:
        """Charge one evaluation, then enforce the budgets."""
        super().count_computed(record_id, pseudo=pseudo)
        self.enforce()

    def count_computed_batch(
        self, record_ids: Sequence[int], pseudo: int = 0
    ) -> None:
        """Charge a batch of evaluations, then enforce the budgets."""
        super().count_computed_batch(record_ids, pseudo=pseudo)
        self.enforce()


def _run_tier(
    tier: str,
    graph: DominantGraph,
    snapshot: CompiledDG | None,
    function: ScoringFunction,
    k: int,
    where: WherePredicate | None,
    stats: AccessCounter,
    deadline: Deadline | None = None,
) -> TopKResult:
    if tier == "compiled":
        if snapshot is None or snapshot.stale:
            snapshot = graph.compile()
        return CompiledAdvancedTraveler(snapshot).top_k(
            function, k, where=where, stats=stats, deadline=deadline
        )
    if tier == "reference":
        return AdvancedTraveler(graph).top_k(function, k, where=where, stats=stats)
    if tier == "naive":
        from repro.baselines.naive import naive_top_k_subset

        return naive_top_k_subset(
            graph.dataset,
            sorted(graph.real_ids()),
            function,
            k,
            where=where,
            stats=stats,
        )
    raise ValueError(f"unknown serving tier {tier!r}")


class Rung(NamedTuple):
    """One tier of a degradation ladder, as :func:`run_ladder` runs it.

    Attributes
    ----------
    name:
        The tier's name in warnings and on the typed budget errors it
        raises (``"compiled"``, ``"fabric"``, ...).
    answer:
        Computes the answers, one per query, in query order.
    breaker:
        Circuit breaker consulted before the rung and charged with its
        outcome, or ``None``.
    tier:
        Label stamped on every answer the rung produces; defaults to
        ``name``.  The fabric rung answers as ``"compiled"``: it runs the
        same kernel, only in other processes.
    """

    name: str
    answer: Callable[[], "list[TopKResult]"]
    breaker: CircuitBreaker | None = None
    tier: str | None = None


def run_ladder(
    rungs: Sequence[Rung],
    *,
    deadline: Deadline | None = None,
    fallback: bool = True,
    epoch: int = -1,
) -> "list[TopKResult]":
    """Answer from the first rung that succeeds: the one degradation ladder.

    Every read in the system walks its tiers through this function —
    :func:`run_query` over the mutable graph, and the serving index's
    ``query``/``query_batch`` over a pinned snapshot.  Per rung, in
    order:

    1. the request ``deadline`` is checked at entry;
    2. a non-final rung whose breaker is open is skipped with a
       :class:`~repro.errors.DegradedResultWarning` (the last rung is
       never skipped: an all-open board answers slowly, never refuses);
    3. :class:`~repro.errors.QueryBudgetExceeded` (and its subclass
       :class:`~repro.errors.DeadlineExceeded`) propagates, stamped with
       the rung's name and without charging the breaker — the request
       ran out, the tier did not fail, and a slower rung only spends
       more of what ran out;
    4. any other exception charges the breaker and, with a
       :class:`~repro.errors.DegradedResultWarning`, falls through to the
       next rung — unless the rung is the last or ``fallback`` is
       ``False``, when it propagates unchanged;
    5. on success the breaker records the rung's latency and every
       answer is stamped with the rung's tier label, and with ``epoch``
       when the answer does not name the snapshot it came from.
    """
    if not fallback:
        rungs = rungs[:1]
    for position, rung in enumerate(rungs):
        last = position + 1 == len(rungs)
        if deadline is not None:
            deadline.check(stage="guard", tier=rung.name)
        breaker = rung.breaker
        if breaker is not None and not last and not breaker.allow():
            warnings.warn(
                DegradedResultWarning(
                    f"{rung.name} tier skipped: its circuit breaker is "
                    f"{breaker.state}; degrading to the "
                    f"{rungs[position + 1].name} tier"
                ),
                stacklevel=3,
            )
            continue
        started = time.monotonic()
        try:
            results = rung.answer()
        except QueryBudgetExceeded as exc:
            exc.tier = exc.tier or rung.name
            raise
        except Exception as exc:  # repro: noqa[typed-errors] -- the degradation ladder exists to absorb arbitrary engine faults; anything narrower would crash on the exact bugs it guards against
            if breaker is not None:
                breaker.record_failure()
            if last:
                raise
            warnings.warn(
                DegradedResultWarning(
                    f"{rung.name} engine failed ({type(exc).__name__}: "
                    f"{exc}); degrading to the {rungs[position + 1].name} "
                    "tier"
                ),
                stacklevel=3,
            )
            continue
        if breaker is not None:
            breaker.record_success(1000.0 * (time.monotonic() - started))
        tier = rung.tier or rung.name
        return [
            replace(
                result,
                tier=tier,
                epoch=result.epoch if result.epoch >= 0 else epoch,
            )
            for result in results
        ]
    raise InvariantViolation("no serving tier ran")


def run_query(
    graph: DominantGraph,
    function: ScoringFunction,
    k: int,
    *,
    engine: str = "auto",
    where: WherePredicate | None = None,
    budget_ms: float | None = None,
    budget_records: int | None = None,
    fallback: bool = True,
    snapshot: CompiledDG | None = None,
    deadline: Deadline | None = None,
    breakers: BreakerBoard | None = None,
) -> TopKResult:
    """Answer a top-k query with budgets and engine degradation.

    Runs :func:`run_ladder` over the tiers from ``engine`` down:
    compiled → reference → naive, all over the mutable graph.

    Parameters
    ----------
    graph:
        The (possibly Extended) Dominant Graph to serve from.
    function, k, where:
        As :meth:`repro.core.advanced.AdvancedTraveler.top_k`.
    engine:
        First tier to try: ``"auto"``/``"compiled"`` start at the
        compiled kernel, ``"reference"`` at the paper's Algorithm 2,
        ``"naive"`` at the full scan.
    budget_ms:
        Wall-clock budget in milliseconds, shared across every tier the
        query touches.  Exceeding it raises
        :class:`~repro.errors.QueryBudgetExceeded`.
    budget_records:
        Accessed-record budget per tier attempt (the paper's cost metric).
    fallback:
        When ``True`` (default), an engine failure degrades to the next
        tier with a :class:`~repro.errors.DegradedResultWarning`; when
        ``False``, the first failure propagates unchanged.
    snapshot:
        Optional pre-built :class:`~repro.core.compiled.CompiledDG` for
        the compiled tier; ignored (and rebuilt) when stale.
    deadline:
        Optional end-to-end request deadline, shared across the whole
        ladder.  Checked before each tier attempt and enforced
        mid-traversal through the budgeted counter and the kernel chunk
        checkpoints; expiry raises
        :class:`~repro.errors.DeadlineExceeded`, never a degraded answer.
    breakers:
        Optional :class:`~repro.resilience.breaker.BreakerBoard` of
        per-tier circuit breakers (keys ``"tier:<name>"``).  A tier
        whose breaker is open is skipped with a
        :class:`~repro.errors.DegradedResultWarning`; outcomes and
        latencies feed back into the board.  The last tier in the chain
        is always attempted — a breaker must never leave a query with
        no tier at all.

    Returns
    -------
    TopKResult
        With :attr:`~repro.core.result.TopKResult.tier` set to the tier
        that actually answered.

    Examples
    --------
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.builder import build_dominant_graph
    >>> from repro.core.functions import LinearFunction
    >>> graph = build_dominant_graph(Dataset([[2.0, 1.0], [1.0, 2.0]]))
    >>> run_query(graph, LinearFunction([0.5, 0.5]), k=1).tier
    'compiled'
    """
    if k <= 0:
        raise ValueError("k must be positive")
    start = engine if engine != "auto" else "compiled"
    if start not in TIERS:
        raise ValueError(f"unknown engine {start!r} (choose from {TIERS})")
    started = time.monotonic()

    def rung(tier: str) -> Rung:
        def answer() -> "list[TopKResult]":
            stats = BudgetedAccessCounter(
                max_records=budget_records,
                budget_ms=budget_ms,
                started=started,
                deadline=deadline,
            )
            result = _run_tier(
                tier, graph, snapshot, function, k, where, stats, deadline
            )
            # Completion check: a tier that scored nothing (zero-access
            # fast path) never tripped the per-access enforcement, but
            # the wall-clock budget applies to elapsed time regardless.
            stats.enforce()
            return [result]

        breaker = None if breakers is None else breakers.get(f"tier:{tier}")
        return Rung(tier, answer, breaker)

    rungs = [rung(tier) for tier in TIERS[TIERS.index(start):]]
    (result,) = run_ladder(rungs, deadline=deadline, fallback=fallback)
    return result
