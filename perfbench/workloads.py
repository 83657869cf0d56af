"""The four serving workloads and the metrics read off them.

Every workload drives one :class:`repro.serve.index.ServingIndex` built
from ``repro.data.generators.uniform(n, dims, seed)`` with
``fsync="always"`` and every other knob at its library default, from
this one process.  A run is a few trials (:class:`Trial`).  Each sets an
index up (timed), warms it up untimed, takes its share of the timed
load, checks a sample of answers against the numpy scan in
:mod:`perfbench.oracle`, then closes without a checkpoint and times the
reopen.  A trial's load runs in short segments, each bracketed by a
sample of a fixed reference computation (:func:`reference_rate`), so
throughput is read in reference units and a slow stretch of a shared
host cancels out.  :func:`run` is the entry point.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import threading
import time
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from perfbench import oracle
from perfbench.tracing import SpanIndex, Tracer, instrument, run_span

WORKLOADS = ("read-distinct", "read-zipf", "batch-64", "write-mix")

#: (name, unit) of every end-to-end metric, reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_ref", "ops/ref"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_record", "B/record"),
)

#: (name, unit, the metric @ workload it should move).  Names not in
#: END_TO_END (read_p99_ms, write_p50_ms, recovery_s, ...) are the
#: per-operation metrics of the report printed above the JSON line.
PER_LAYER = (
    ("builder.layers_s", "s", "setup_s @ all"),
    ("builder.wire_s", "s", "setup_s @ all"),
    ("graph.compile_s", "s", "setup_s @ all"),
    ("graph.compile_count", "count", "write_p99_ms @ write-mix"),
    ("graph.compile_ms_total", "ms", "ops_per_ref, write_p99_ms @ write-mix"),
    ("compiled.calls", "count", "= cache.misses @ read-zipf"),
    ("compiled.query_ms_p50", "ms", "request_p50_ms, ops_per_ref @ read-distinct"),
    ("compiled.batch_ms_p50", "ms", "ops_per_ref, request_p50_ms @ batch-64"),
    ("compiled.scored_per_query", "count", "request_p50_ms @ read-distinct"),
    ("paper.accessed_per_query", "count", "none (paper's cost unit)"),
    ("paper.sample_queries", "count", "base of the two ratios"),
    ("compiled.scored_over_accessed", "ratio", "none (access-for-throughput trade)"),
    ("serve.overhead_us_p50", "us", "request_p50_ms @ read-distinct"),
    ("serve.batch_overhead_ms_p50", "ms", "ops_per_ref @ batch-64"),
    ("admission.wait_us_p99", "us", "read_p99_ms @ write-mix"),
    ("admission.rejected", "count", "failed_share @ all"),
    ("cache.hit_rate", "ratio", "request_p50_ms, ops_per_ref @ read-zipf"),
    ("cache.misses", "count", "ops_per_ref @ read-zipf"),
    ("cache.get_us_p50", "us", "request_p50_ms @ read-zipf"),
    ("cache.evictions", "count", "read_p99_ms @ read-zipf"),
    ("overlay.calls", "count", "request_p50_ms @ write-mix"),
    ("overlay.query_ms_p50", "ms", "ops_per_ref, request_p50_ms @ write-mix"),
    ("overlay.size_mean", "count", "read_p99_ms @ write-mix"),
    ("maintenance.apply_ms_p50", "ms", "ops_per_ref, write_p50_ms @ write-mix"),
    ("maintenance.validate_ms_p50", "ms", "ops_per_ref, write_p50_ms @ write-mix"),
    ("wal.append_ms_p50", "ms", "ops_per_ref, write_p50_ms @ write-mix"),
    ("wal.sync_ms_total", "ms", "ops_per_ref, write_p50_ms @ write-mix"),
    ("publish.p50_ms", "ms", "ops_per_ref, write_p50_ms @ write-mix"),
    ("publish.p99_ms", "ms", "write_p99_ms @ write-mix"),
    ("compaction.forced", "count", "write_p99_ms @ write-mix"),
    ("compaction.total_ms", "ms", "ops_per_ref, write_p99_ms @ write-mix"),
    ("checkpoint.count", "count", "write_p99_ms @ write-mix"),
    ("checkpoint.total_ms", "ms", "ops_per_ref, write_p99_ms @ write-mix"),
    ("recovery.load_s", "s", "recovery_s @ all"),
    ("recovery.scan_s", "s", "recovery_s @ all"),
    ("recovery.replay_s", "s", "recovery_s @ write-mix"),
    ("recovery.compile_s", "s", "recovery_s @ all"),
    ("tier.degraded_answers", "count", "failed_share @ all"),
    ("generator.late_ms_p99", "ms", "none (diagnostic) @ write-mix"),
) + tuple(
    (f"trace_overhead.{name}", unit, f"{name} @ this workload (traced - untraced)")
    for name, unit in END_TO_END
)


@dataclass(frozen=True)
class Config:
    """Everything a run depends on; recorded in the run metadata."""

    workload: str
    seed: int = 1
    seconds: float = 10.0
    trace: bool = False
    n: int = 10_000
    dims: int = 4
    k: int = 10
    fsync: str = "always"
    #: Independent trials per run: each sets up its own index, warms it
    #: up, takes ``seconds / trials`` of load, is checked, and recovers.
    #: A traced run uses four, alternating untraced and traced.
    trials: int = 3
    pool_size: int = 1024
    zipf_s: float = 1.0
    batch_size: int = 64
    initial_rows: int = 9_000
    write_rate: float = 100.0
    read_rate: float = 200.0
    warmup_reads: int = 256
    warmup_zipf_reads: int = 4096
    warmup_batches: int = 32
    warmup_writes: int = 32
    oracle_queries: int = 32
    oracle_every: int = 97
    oracle_batch_every: int = 8
    oracle_per_batch: int = 4
    stream_prefill: int = 32_768
    #: The timed load alternates segments of load (this long) with
    #: samples of the host's speed (:func:`reference_rate`, this long).
    segment_seconds: float = 0.25
    reference_seconds: float = 0.025
    #: Directory the run reads and writes under: serving directories go
    #: to ``.perfbench_work/`` (removed after the run), span files to
    #: ``.perfbench_out/``.
    checkout: str = "."


# ----------------------------------------------------------------------
# Seeded input streams (the program only ever sees these)
# ----------------------------------------------------------------------
class Stream:
    """Weight vectors handed out one at a time from seeded chunks.

    ``prefill`` generates chunks up front, so a timed window does not
    pay for making its own inputs unless it outruns the estimate.
    """

    chunk = 4096

    def __init__(self, prefill: int = 0) -> None:
        self._pending: list = []
        self._position = 0
        self._chunks = 0
        while len(self._pending) < prefill:
            self._extend()

    def _make_chunk(self, number: int) -> list:
        raise NotImplementedError

    def _extend(self) -> None:
        self._pending.extend(self._make_chunk(self._chunks))
        self._chunks += 1

    def next(self) -> Any:
        if self._position == len(self._pending):
            self._extend()
        function = self._pending[self._position]
        self._position += 1
        return function

    def take(self, count: int) -> list:
        return [self.next() for _ in range(count)]


class FreshStream(Stream):
    """Fresh Dirichlet(1) weight vectors from ``random_queries``."""

    def __init__(self, dims: int, seed: tuple, prefill: int = 0) -> None:
        self._dims = dims
        self._seed = seed
        super().__init__(prefill)

    def _make_chunk(self, number: int) -> list:
        from repro.data.queries import random_queries

        return random_queries(self._dims, self.chunk, alpha=1.0, seed=[*self._seed, number])


def zipf_probabilities(size: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** s
    return weights / weights.sum()


class ZipfStream(Stream):
    """Vectors drawn by Zipf(s) rank from a fixed pool of Dirichlet vectors.

    The pool and which vector holds which rank depend on ``seed`` only;
    ``stream`` picks an independent rank sequence over them, so the
    warmup and the timed window share one popularity order.
    """

    def __init__(self, dims: int, seed: int, pool_size: int, s: float, stream: int,
                 prefill: int = 0) -> None:
        from repro.data.queries import random_queries

        self.pool = random_queries(dims, pool_size, alpha=1.0, seed=[seed, 2, 0])
        self._popularity = np.random.default_rng([seed, 2, 1]).permutation(pool_size)
        self._p = zipf_probabilities(pool_size, s)
        self._rng = np.random.default_rng([seed, 2, 2, stream])
        super().__init__(prefill)

    def _make_chunk(self, number: int) -> list:
        ranks = self._rng.choice(len(self.pool), size=self.chunk, p=self._p)
        return [self.pool[i] for i in self._popularity[ranks].tolist()]


def lru_hits(keys: list, capacity: int) -> int:
    """Hits an LRU of ``capacity`` would score on the key sequence."""
    entries: OrderedDict = OrderedDict()
    hits = 0
    for key in keys:
        if key in entries:
            entries.move_to_end(key)
            hits += 1
        else:
            entries[key] = None
            if len(entries) > capacity:
                entries.popitem(last=False)
    return hits


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def percentile(samples: list, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q)) if samples else 0.0


def median(samples: list) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


_REFERENCE_VALUES = np.random.default_rng(0).random((8192, 4))
_REFERENCE_WEIGHTS = np.array([0.4, 0.3, 0.2, 0.1])
_REFERENCE_KEYS = [(i * 0.37, i % 17, str(i)) for i in range(128)]


def reference_unit() -> int:
    """One unit of the host-speed yardstick: fixed interpreter and numpy work.

    It shares no code with the program, so no change to the program can
    make it faster or slower.  Its three parts, of similar cost, are the
    kinds of work a request does: arithmetic bytecode, dict and sort
    work on tuples, and a small top-10 numpy scan.
    """
    total = 0
    for i in range(300):
        total += i * i
    table = {key: i for i, key in enumerate(_REFERENCE_KEYS)}
    ranked = sorted(_REFERENCE_KEYS, key=lambda key: (-key[0], key[1]))
    total += sum(table[key] for key in ranked[:64])
    scores = _REFERENCE_VALUES @ _REFERENCE_WEIGHTS
    top = np.argpartition(-scores, 10)[:10]
    return total + int(top[np.argsort(-scores[top])][0])


def reference_rate(seconds: float) -> float:
    """Reference units per second of this thread's CPU time, over ``seconds``.

    CPU time of the calling thread, so a thread of the program that
    holds the GIL or a core meanwhile cannot slow the yardstick down.
    """
    start = time.thread_time()
    units = 0
    while True:
        reference_unit()
        units += 1
        spent = time.thread_time() - start
        if spent >= seconds:
            return units / spent


@dataclass(frozen=True)
class Segment:
    """One slice of timed load, and the reference rate around it.

    ``reference`` is the mean of the two :func:`reference_rate` samples
    taken just before and just after the slice.
    """

    ops: int
    busy: float
    reference: float

    @property
    def ops_per_ref(self) -> float:
        """Operations per reference unit of service time: (ops / busy) / (units / s).

        The host's speed cancels out of the ratio, so it moves with what
        an operation costs rather than with how fast the host ran.
        """
        return self.ops / self.busy / self.reference if self.busy else 0.0


@dataclass
class Window:
    """What a timed window saw (latencies in seconds)."""

    read_latencies: list = field(default_factory=list)
    batch_latencies: list = field(default_factory=list)
    write_latencies: list = field(default_factory=list)
    late: list = field(default_factory=list)
    queries: int = 0
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    degraded: int = 0
    elapsed: float = 0.0
    samples: list = field(default_factory=list)

    def merge(self, *concurrent: "Window") -> None:
        """Add the samples of windows that ran at the same time as each other."""
        for other in concurrent:
            for name in ("read_latencies", "batch_latencies", "write_latencies", "late",
                         "samples"):
                getattr(self, name).extend(getattr(other, name))
            for name in ("queries", "busy", "attempted", "failed", "degraded"):
                setattr(self, name, getattr(self, name) + getattr(other, name))
        self.elapsed += max(other.elapsed for other in concurrent)

    @property
    def requests(self) -> list:
        return self.read_latencies + self.batch_latencies + self.write_latencies

    @property
    def ops(self) -> int:
        return self.queries + len(self.write_latencies)

    @property
    def ops_per_s(self) -> float:
        """Operations completed per second spent in them (issue to done).

        An operation is one query answer (a batch counts ``batch_size``)
        or one write.  ``busy`` sums each completed call's service time,
        so on the open-loop workload the figure follows what an
        operation costs, not the arrival schedule.
        """
        return self.ops / self.busy if self.busy else 0.0


class LiveSet:
    """The ids the benchmark believes are indexed, tracked on its own."""

    def __init__(self, indexed: np.ndarray, unindexed: np.ndarray, seed: int) -> None:
        self.indexed = [int(r) for r in indexed]
        self.unindexed = [int(r) for r in unindexed]
        self._rng = np.random.default_rng([seed, 4])

    def ids(self) -> np.ndarray:
        return np.asarray(sorted(self.indexed), dtype=np.int64)

    def _pop(self, rows: list) -> int:
        slot = int(self._rng.integers(len(rows)))
        rows[slot], rows[-1] = rows[-1], rows[slot]
        return rows.pop()

    def write(self, index: Any, op_number: int, call: Callable) -> None:
        """Insert an unindexed row on even ops, delete an indexed one on odd."""
        inserting = op_number % 2 == 0
        source, target = (
            (self.unindexed, self.indexed) if inserting else (self.indexed, self.unindexed)
        )
        rid = self._pop(source)
        try:
            call(index.insert if inserting else index.delete, rid)
        except BaseException:
            source.append(rid)
            raise
        target.append(rid)


#: health() counters the per-layer metrics read as deltas over a traced load.
_HEALTH_COUNTERS = {
    "cache.hits": ("cache", "hits"),
    "cache.misses": ("cache", "misses"),
    "cache.evictions": ("cache", "evictions"),
    "admission.rejected": ("admission", "shed"),
    "compaction.forced": ("overlay", "compactions", "forced"),
    "compaction.total_ms": ("overlay", "compactions", "total_ms"),
}


def _counter(health: dict, path: tuple) -> float:
    value: Any = health
    for key in path:
        value = (value or {}).get(key, 0)
    return float(value or 0)


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class Trial:
    """One index's life: set-up, warmup, timed load, oracle, recovery.

    With a ``sink`` the trial is traced: the layer wrappers are installed
    around its three timed phases (set-up, load, recovery) only.  Warmup
    and oracle work is never traced or timed.
    """

    def __init__(self, config: Config, dataset: Any, number: int, sink: Optional[Tracer]) -> None:
        self.config = config
        self.dataset = dataset
        self.number = number
        self.sink = sink
        self.tracer: Optional[Tracer] = None  # the sink while a traced phase runs
        order = np.random.default_rng([config.seed, 1]).permutation(config.n)
        if config.workload == "write-mix":
            start = np.sort(order[: config.initial_rows])
            self.record_ids: Optional[np.ndarray] = start
            self.live = LiveSet(start, np.sort(order[config.initial_rows:]), config.seed)
        else:
            self.record_ids = None
            self.live = LiveSet(np.arange(config.n), np.empty(0, dtype=np.int64), config.seed)
        self.directory = os.path.abspath(os.path.join(
            config.checkout, ".perfbench_work",
            f"{config.workload}-{config.seed}-{os.getpid()}-{number}",
        ))
        self.window = Window()
        self.segments: list = []
        self.calls = 0  # closed-loop calls so far, for the oracle's sampling
        self.writes = 0  # write-mix writes issued so far
        self.setup_s = 0.0
        self.recovery_s = 0.0
        self.disk_bytes = 0
        self.counters: dict = {}
        self.health: dict = {}
        self.mismatches: list = []
        self.oracle_checked = 0
        self.paper: dict = {}

    # -- plumbing --------------------------------------------------------
    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return run_span(self.tracer, name, fn, *args, **kwargs)

    @contextmanager
    def phase(self) -> Iterator[None]:
        """Run the body with the layer wrappers installed when tracing."""
        if self.sink is None:
            yield
            return
        self.tracer = self.sink
        try:
            with instrument(self.sink):
                yield
        finally:
            self.tracer = None

    def stream(self, kind: int, prefill: int = 0) -> Stream:
        """This trial's query vectors: ``kind`` 0 warms up, 1 is timed."""
        cfg = self.config
        if cfg.workload == "read-zipf":
            return ZipfStream(cfg.dims, cfg.seed, cfg.pool_size, cfg.zipf_s,
                              stream=2 * self.number + kind, prefill=prefill)
        return FreshStream(cfg.dims, (cfg.seed, 3, self.number, kind), prefill=prefill)

    # -- phases ----------------------------------------------------------
    def _build_and_create(self) -> tuple:
        from repro.core.builder import build_dominant_graph
        from repro.serve.index import ServingIndex

        graph = self.call("builder.build", build_dominant_graph, self.dataset,
                          record_ids=self.record_ids)
        index = ServingIndex.create(self.directory, graph, fsync=self.config.fsync)
        return graph, index

    def warm_up(self, index: Any) -> None:
        cfg = self.config
        stream = self.stream(0)
        if cfg.workload == "read-zipf":
            for _ in range(cfg.warmup_zipf_reads):
                index.query(stream.next(), cfg.k)
        elif cfg.workload == "batch-64":
            for _ in range(cfg.warmup_batches):
                index.query_batch(stream.take(cfg.batch_size), cfg.k)
        else:
            for _ in range(cfg.warmup_reads):
                index.query(stream.next(), cfg.k)
        if cfg.workload == "write-mix":
            for number in range(cfg.warmup_writes):
                self.live.write(index, number, lambda fn, rid: fn(rid))

    def load(self, index: Any, seconds: float) -> None:
        """The timed load: a closed loop, or write-mix's two open loops.

        The load runs in segments of about ``segment_seconds``.  Before
        the first and after each, with no request in flight,
        :func:`reference_rate` samples the host's speed.
        """
        cfg = self.config
        if cfg.workload == "write-mix":
            stream = self.stream(1, prefill=int(cfg.read_rate * seconds) + 1)
        else:
            stream = self.stream(1, prefill=cfg.stream_prefill)
        count = max(1, int(seconds // (cfg.segment_seconds + cfg.reference_seconds)))
        span = max(seconds / count - cfg.reference_seconds, seconds / count / 2)
        gc.collect()
        with self.phase():
            before = index.health() if self.sink is not None else {}
            reference = reference_rate(cfg.reference_seconds)
            for _ in range(count):
                ops, busy = self.window.ops, self.window.busy
                if cfg.workload == "write-mix":
                    self.write_mix(index, stream, span)
                else:
                    self.closed_loop(index, stream, span, batch=cfg.workload == "batch-64")
                after = reference_rate(cfg.reference_seconds)
                self.segments.append(Segment(
                    self.window.ops - ops, self.window.busy - busy, (reference + after) / 2,
                ))
                reference = after
            if self.sink is not None:
                self.health = index.health()
                self.counters = {
                    name: _counter(self.health, path) - _counter(before, path)
                    for name, path in _HEALTH_COUNTERS.items()
                }

    def closed_loop(self, index: Any, stream: Stream, seconds: float, *, batch: bool) -> None:
        cfg = self.config
        window = Window()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            functions = stream.take(cfg.batch_size if batch else 1)
            t0 = time.perf_counter()
            try:
                if batch:
                    results = self.call("request.batch", index.query_batch, functions, cfg.k)
                else:
                    results = [self.call("request.query", index.query, functions[0], cfg.k)]
            except Exception:  # a refused or failed request is counted, not fatal
                window.attempted += 1
                window.failed += 1
                continue
            elapsed = time.perf_counter() - t0
            window.attempted += 1
            window.busy += elapsed
            window.queries += len(results)
            (window.batch_latencies if batch else window.read_latencies).append(elapsed)
            window.degraded += sum(1 for r in results if r.tier != "compiled")
            every = cfg.oracle_batch_every if batch else cfg.oracle_every
            if self.calls % every == cfg.seed % every:
                picks = range(0, len(results), max(1, len(results) // cfg.oracle_per_batch))
                window.samples.extend((functions[i].weights, results[i]) for i in picks)
            self.calls += 1
        window.elapsed = time.perf_counter() - started
        self.window.merge(window)

    def open_loop(self, rate: float, start: float, seconds: float, op: Callable, window: Window,
                  *, write: bool) -> None:
        """Issue ``op(number)`` at ``rate``/s; latency counts from the due time."""
        end = start + seconds
        number = 0
        while True:
            due = start + number / rate
            if due >= end:
                break
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            issued = time.perf_counter()
            window.attempted += 1
            try:
                result = op(number)
            except Exception:  # a refused or failed request is counted, not fatal
                window.failed += 1
            else:
                done = time.perf_counter()
                window.busy += done - issued
                (window.write_latencies if write else window.read_latencies).append(done - due)
                window.late.append(issued - due)
                if not write:
                    window.queries += 1
                    window.degraded += result.tier != "compiled"
            number += 1
        window.elapsed = time.perf_counter() - start

    def write_mix(self, index: Any, reads: Stream, seconds: float) -> None:
        """One writer and one reader thread, open loop, for ``seconds``."""
        cfg = self.config
        writes, reader = Window(), Window()
        start = time.perf_counter() + 0.01
        first = cfg.warmup_writes + self.writes

        def write(number: int) -> None:
            self.live.write(
                index, first + number,
                lambda fn, rid: self.call(f"request.{fn.__name__}", fn, rid),
            )

        def read(number: int) -> Any:
            return self.call("request.query", index.query, reads.next(), cfg.k)

        errors: list = []

        def generator(rate: float, op: Callable, into: Window, is_write: bool) -> None:
            try:
                self.open_loop(rate, start, seconds, op, into, write=is_write)
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)

        threads = [
            threading.Thread(target=generator, args=(cfg.write_rate, write, writes, True),
                             name="perfbench-writer"),
            threading.Thread(target=generator, args=(cfg.read_rate, read, reader, False),
                             name="perfbench-reader"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.writes += writes.attempted
        if errors:
            raise errors[0]
        self.window.merge(writes, reader)

    def check(self, pairs: list) -> None:
        live = self.live.ids()
        self.mismatches.extend(oracle.check_all(pairs, self.dataset.values, live, self.config.k))
        self.oracle_checked += len(pairs)

    def oracle_pass(self, index: Any, functions: list, graph: Any = None) -> None:
        """Query ``functions`` through ``index`` and check every answer."""
        pairs = [(f.weights, index.query(f, self.config.k)) for f in functions]
        self.check(pairs)
        if graph is not None and self.sink is not None:
            from repro.core.advanced import AdvancedTraveler

            traveler = AdvancedTraveler(graph)
            self.paper = {
                "queries": len(functions),
                "accessed": sum(traveler.top_k(f, self.config.k).stats.computed for f in functions),
                "scored": sum(result.stats.computed for _w, result in pairs),
            }

    def execute(self, seconds: float) -> None:
        """Run every phase; the serving directory is removed afterwards."""
        from repro.serve.index import ServingIndex

        cfg = self.config
        probes = FreshStream(cfg.dims, (cfg.seed, 5, self.number)).take(cfg.oracle_queries)
        try:
            gc.collect()
            with self.phase():
                started = time.perf_counter()
                graph, index = self.call("setup", self._build_and_create)
                self.setup_s = time.perf_counter() - started
            try:
                self.warm_up(index)
                self.load(index, seconds)
                self.disk_bytes = directory_bytes(self.directory)
                self.check(self.window.samples)
                self.oracle_pass(index, probes, graph)
            finally:
                index.close(checkpoint=False)
            del graph, index
            gc.collect()
            with self.phase():
                started = time.perf_counter()
                reopened = self.call("recovery", ServingIndex.open, self.directory,
                                     fsync=cfg.fsync)
                self.recovery_s = time.perf_counter() - started
            try:
                self.oracle_pass(reopened, probes)
            finally:
                reopened.close(checkpoint=False)
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def summarise(trials: list, peak_rss: float) -> tuple:
    """``(end_to_end, report)`` over ``trials``.

    ``ops_per_ref`` is the median over every load segment of the
    segment's operations per reference unit (:class:`Segment`); the
    report's ``ops_per_s`` is the same load in plain operations per
    second.  ``setup_s`` and the report's ``request_p50_ms`` are the best
    trial's (least set-up time, least latency): contention from other
    tenants of a shared host only ever slows a trial down.  Recovery
    time, disk use and the report's per-operation metrics are the median
    trial's.
    """
    def per_trial(value: Callable) -> float:
        return median([value(t) for t in trials])

    def p50_ms(trial: Trial) -> float:
        return 1000.0 * percentile(trial.window.requests, 50)

    def qps(trial: Trial) -> float:
        return trial.window.queries / trial.window.elapsed if trial.window.elapsed else 0.0

    def disk(trial: Trial) -> float:
        return trial.disk_bytes / max(1, len(trial.live.indexed))

    segments = [s for t in trials for s in t.segments]
    end_to_end = {
        "setup_s": min(t.setup_s for t in trials),
        "request_p50_ms": min(p50_ms(t) for t in trials),
        "request_p90_ms": per_trial(lambda t: 1000.0 * percentile(t.window.requests, 90)),
        "ops_per_ref": median([s.ops_per_ref for s in segments]),
        "ops_per_s": sum(s.ops for s in segments) / sum(s.busy for s in segments),
        "reference_rate": statistics.fmean(s.reference for s in segments),
        "recovery_s": per_trial(lambda t: t.recovery_s),
        "peak_rss_mb": peak_rss,
        "disk_bytes_per_record": per_trial(disk),
    }

    # The per-operation metrics by their usual names: each the median of
    # the per-trial values, with the pooled sample count.
    def entry(value: float, unit: str, count: int) -> dict:
        return {"value": value, "unit": unit, "count": count}

    attempted = sum(t.window.attempted + t.oracle_checked for t in trials)
    failed = sum(t.window.failed + len(t.mismatches) for t in trials)
    report: dict = {
        "setup_s": entry(end_to_end["setup_s"], "s", len(trials)),
        "ops_per_ref": entry(end_to_end["ops_per_ref"], "ops/ref", len(segments)),
        "ops_per_s": entry(end_to_end["ops_per_s"], "1/s", len(segments)),
        "reference_rate": entry(end_to_end["reference_rate"], "ref/s", len(segments) + len(trials)),
        "request_p50_ms": entry(end_to_end["request_p50_ms"], "ms",
                                sum(len(t.window.requests) for t in trials)),
        "request_p90_ms": entry(end_to_end["request_p90_ms"], "ms",
                                sum(len(t.window.requests) for t in trials)),
        "recovery_s": entry(end_to_end["recovery_s"], "s", len(trials)),
        "peak_rss_mb": entry(peak_rss, "MB", 1),
        "disk_bytes_per_record": entry(end_to_end["disk_bytes_per_record"], "B/record",
                                       len(trials)),
        "failed_share": entry(failed / attempted if attempted else 0.0, "ratio", attempted),
    }
    for kind in ("read", "batch", "write"):
        count = sum(len(getattr(t.window, f"{kind}_latencies")) for t in trials)
        if not count:
            continue
        for q in (50, 99):
            report[f"{kind}_p{q}_ms"] = entry(per_trial(
                lambda t: 1000.0 * percentile(getattr(t.window, f"{kind}_latencies"), q)
            ), "ms", count)
        if kind != "write" and trials[0].config.workload != "write-mix":
            report[f"{kind}_qps"] = entry(per_trial(qps), "1/s",
                                          sum(t.window.queries for t in trials))
    report["per_trial"] = [
        {
            "setup_s": t.setup_s,
            "request_p50_ms": p50_ms(t),
            "request_p90_ms": 1000.0 * percentile(t.window.requests, 90),
            "ops_per_ref": median([s.ops_per_ref for s in t.segments]),
            "ops_per_s": t.window.ops_per_s,
            "recovery_s": t.recovery_s,
        }
        for t in trials
    ]
    return end_to_end, report


def per_layer(trials: list, sink: Tracer) -> dict:
    """Per-layer metrics from the traced trials' spans and health counters."""
    spans = SpanIndex(sink.spans)
    requests = spans.roots("request.")
    named = _group(d for r in requests for d in spans.descendants(r))

    def ms(span_list: list) -> list:
        return [s.duration_ns / 1e6 for s in span_list]

    def seconds(span_list: list) -> float:
        return sum(s.duration_ns for s in span_list) / 1e9

    def per_root(root: str, value: Callable) -> float:
        """Median over this root's spans (one per traced trial)."""
        return median([value(_group(spans.descendants(r))) for r in spans.roots(root)])

    kernel_names = ("compiled.top_k", "compiled.batch_top_k")
    single_kernel, single_overhead, batch_kernel, batch_overhead = [], [], [], []
    scored, computed_queries = 0, 0
    for request in requests:
        below = spans.descendants(request)
        kernels = [d for d in below if d.name in kernel_names]
        if not kernels:
            continue  # a cache hit
        kernel_ms = sum(spans.self_ns(s) for s in kernels) / 1e6
        serve_ms = sum(d.duration_ns for d in below if d.name.startswith("serve.query")) / 1e6
        if request.name == "request.batch":
            batch_kernel.append(kernel_ms)
            batch_overhead.append(serve_ms - kernel_ms)
        else:
            single_kernel.append(kernel_ms)
            single_overhead.append(serve_ms - kernel_ms)
        for span in kernels:
            total, count = span.note if isinstance(span.note, tuple) else (span.note, 1)
            scored += total
            computed_queries += count

    def counter(name: str) -> float:
        return sum(t.counters.get(name, 0.0) for t in trials)

    hits, misses = counter("cache.hits"), counter("cache.misses")
    publish = (trials[-1].health.get("store") or {}).get("publish", {})
    overlay_spans = named["overlay.top_k"] + named["overlay.batch_top_k"]
    paper = {key: sum(t.paper.get(key, 0) for t in trials) for key in ("queries", "accessed", "scored")}
    late = [lag for t in trials for lag in t.window.late]
    return {
        "builder.layers_s": per_root("setup", lambda g: seconds(g["builder.layers"])),
        "builder.wire_s": per_root(
            "setup", lambda g: seconds(g["builder.build"]) - seconds(g["builder.layers"])
        ),
        "graph.compile_s": per_root("setup", lambda g: seconds(g["graph.compile"])),
        "graph.compile_count": len(named["graph.compile"]),
        "graph.compile_ms_total": sum(ms(named["graph.compile"])),
        "compiled.calls": len(named["compiled.top_k"]) + len(named["compiled.batch_top_k"]),
        "compiled.query_ms_p50": median(single_kernel),
        "compiled.batch_ms_p50": median(batch_kernel),
        "compiled.scored_per_query": scored / computed_queries if computed_queries else 0.0,
        "paper.accessed_per_query": (
            paper["accessed"] / paper["queries"] if paper["queries"] else 0.0
        ),
        "paper.sample_queries": paper["queries"],
        "compiled.scored_over_accessed": (
            paper["scored"] / paper["accessed"] if paper["accessed"] else 0.0
        ),
        "serve.overhead_us_p50": 1000.0 * median(single_overhead),
        "serve.batch_overhead_ms_p50": median(batch_overhead),
        "admission.wait_us_p99": 1000.0 * percentile(ms(named["admission.admit"]), 99),
        "admission.rejected": counter("admission.rejected"),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.misses": misses,
        "cache.get_us_p50": 1000.0 * median(ms(named["cache.get"])),
        "cache.evictions": counter("cache.evictions"),
        "overlay.calls": len(overlay_spans),
        "overlay.query_ms_p50": median(ms(named["overlay.top_k"])),
        "overlay.size_mean": (
            statistics.fmean(s.note for s in overlay_spans) if overlay_spans else 0.0
        ),
        "maintenance.apply_ms_p50": median(
            ms(named["maintenance.insert"] + named["maintenance.delete"])
        ),
        "maintenance.validate_ms_p50": median(ms(named["maintenance.validate"])),
        "wal.append_ms_p50": median(ms(named["wal.append"])),
        "wal.sync_ms_total": sum(ms(named["wal.fsync"])),
        "publish.p50_ms": publish.get("p50_ms", 0.0),
        "publish.p99_ms": publish.get("p99_ms", 0.0),
        "compaction.forced": counter("compaction.forced"),
        "compaction.total_ms": counter("compaction.total_ms"),
        "checkpoint.count": len(named["checkpoint.save"]),
        "checkpoint.total_ms": sum(ms(named["checkpoint.save"])),
        "recovery.load_s": per_root("recovery", lambda g: seconds(g["recovery.load"])),
        "recovery.scan_s": per_root("recovery", lambda g: seconds(g["recovery.scan"])),
        "recovery.replay_s": per_root("recovery", lambda g: seconds(g["recovery.replay"])),
        "recovery.compile_s": per_root("recovery", lambda g: seconds(g["graph.compile"])),
        "tier.degraded_answers": sum(t.window.degraded for t in trials),
        "generator.late_ms_p99": 1000.0 * percentile(late, 99),
    }


def _group(spans: Iterable) -> dict:
    grouped: dict = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    return grouped


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def metadata(config: Config, timed_samples: int) -> dict:
    """Run metadata recorded beside every result."""
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas": blas_config(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(config.checkout),
        "config": asdict(config),
        "warmup_samples": {
            "read-distinct": config.warmup_reads,
            "read-zipf": config.warmup_zipf_reads,
            "batch-64": config.warmup_batches,
            "write-mix": config.warmup_reads + config.warmup_writes,
        }[config.workload],
        "timed_samples": timed_samples,
    }


def blas_config() -> dict:
    """The BLAS numpy was built against, with its thread settings."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def git_commit(root: str) -> Optional[str]:
    """HEAD's commit read from ``.git`` directly (``None`` outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def run(config: Config) -> dict:
    """Run one workload.

    Untraced, the run is ``trials`` trials and the result's metrics are
    the end-to-end metrics, each taken over the trials as
    :func:`summarise` says.
    Traced, the run is four trials alternating untraced and traced; the
    metrics are the traced trials' per-layer metrics plus
    ``trace_overhead.*``, traced minus untraced for every end-to-end
    metric.
    """
    from repro.data.generators import uniform

    if config.workload not in WORKLOADS:
        raise ValueError(f"unknown workload {config.workload!r}")
    if config.trace:
        config = replace(config, trials=4)
    dataset = uniform(config.n, config.dims, config.seed)
    sink = Tracer() if config.trace else None
    trials = []
    rss_before_tracing = None
    for number in range(config.trials):
        traced = config.trace and number % 2 == 1
        if traced and rss_before_tracing is None:
            rss_before_tracing = peak_rss_mb()
        trial = Trial(config, dataset, number, sink if traced else None)
        trial.execute(config.seconds / config.trials)
        trials.append(trial)
    plain = [t for t in trials if t.sink is None]
    untraced, report = summarise(plain, rss_before_tracing or peak_rss_mb())
    if sink is None:
        return finish(config, trials, untraced, END_TO_END, report)

    traced_trials = [t for t in trials if t.sink is not None]
    traced, report = summarise(traced_trials, peak_rss_mb())
    layers = per_layer(traced_trials, sink)
    for name, _unit in END_TO_END:
        layers[f"trace_overhead.{name}"] = traced[name] - untraced[name]
    spans_path = os.path.join(
        config.checkout, ".perfbench_out", f"spans-{config.workload}-seed{config.seed}.jsonl.gz"
    )
    sink.write(spans_path)
    report["spans_file"] = spans_path
    report["bypass_checks"] = bypass_checks(config.workload, layers)
    return finish(config, trials, layers, tuple((n, u) for n, u, _ in PER_LAYER), report)


def bypass_checks(workload: str, layers: dict) -> dict:
    """The predictions a later change can use as its "should not move" side."""
    checks = {}
    if workload in ("read-distinct", "batch-64"):
        checks["cache.hit_rate == 0"] = layers["cache.hit_rate"] == 0
    if workload != "write-mix":
        checks["overlay.calls == 0"] = layers["overlay.calls"] == 0
    if workload == "read-zipf":
        checks["compiled.calls == cache.misses"] = layers["compiled.calls"] == layers["cache.misses"]
    return checks


def finish(config: Config, trials: list, values: dict, names: tuple, report: dict) -> dict:
    mismatches = [m for t in trials for m in t.mismatches]
    return {
        "correct": not mismatches,
        "attempted": sum(t.window.attempted + t.oracle_checked for t in trials),
        "failed": sum(t.window.failed + len(t.mismatches) for t in trials),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in names},
        "report": report,
        "mismatches": mismatches[:5],
        "metadata": metadata(config, sum(len(t.window.requests) for t in trials)),
    }
