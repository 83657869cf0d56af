"""In-memory span tracing around the serving stack's layer boundaries.

The benchmark measures each layer from outside: :func:`instrument` swaps
a timing wrapper in for a layer's public function at the place its
caller looks it up (a class attribute, or a module global for names
imported by value, e.g. ``repro.serve.index.batch_top_k``), and
:meth:`Instrumentation.uninstall` puts the originals back.  Wrappers
pass arguments and results through untouched; they only record a span.

A span is ``(span_id, parent_id, request_id, name, start_ns, end_ns,
note)``.  The parent is the innermost open span on the same thread and
the request id is the id of the outermost one, so every span a request
causes shares its id.  ``note`` is an optional count read off the call
at the boundary (records scored, overlay size), never a time.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    span_id: int
    parent_id: int
    request_id: int
    name: str
    start_ns: int
    end_ns: int
    note: Any

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans from any number of threads into one list."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        note: Optional[Callable] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent_id, request_id = stack[-1] if stack else (0, span_id)
        stack.append((span_id, request_id))
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            value = None if note is None else note(args, result)
            self.spans.append(
                Span(span_id, parent_id, request_id, name, start, end, value)
            )

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, fn, args, kwargs, note)

        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip) for offline study."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), default=str) + "\n")


def run_span(tracer: Optional[Tracer], name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
    """Call ``fn`` inside a root span when tracing, plainly otherwise."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, args, kwargs)


class _TimedEnter:
    """Context manager proxy whose ``__enter__`` is one span."""

    def __init__(self, tracer: Tracer, name: str, manager: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._manager = manager

    def __enter__(self) -> Any:
        return self._tracer.call(self._name, self._manager.__enter__, (), {})

    def __exit__(self, *exc_info: Any) -> Any:
        return self._manager.__exit__(*exc_info)


class _FsyncOnly:
    """Stand-in for a module's ``os`` global that times only ``fsync``."""

    def __init__(self, real_os: Any, fsync: Callable) -> None:
        self._real_os = real_os
        self.fsync = fsync

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real_os, name)


class Instrumentation:
    """Wrappers installed on the live modules; restores them on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, note: Optional[Callable] = None) -> None:
        self.patch(owner, attr, self.tracer.wrap(name, owner.__dict__[attr], note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


def _scored(args: tuple, result: Any) -> Any:
    return None if result is None else result.stats.computed


def _batch_scored(args: tuple, result: Any) -> Any:
    if result is None:
        return None
    return sum(r.stats.computed for r in result), len(result)


def _overlay_size(args: tuple, result: Any) -> int:
    return args[1].size


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer boundary the per-layer metrics read.

    Span names follow the repository's modules: ``builder.*`` and
    ``graph.compile`` (core.layers/builder/graph), ``compiled.*``
    (core.compiled), ``overlay.*`` (core.overlay), ``serve.*``
    (serve.index), ``admission.admit``, ``cache.*``, ``maintenance.*``
    (core.maintenance as serve.index calls it), ``wal.*``,
    ``checkpoint.save`` and ``recovery.*``.
    """
    import repro.core.builder as builder
    import repro.core.overlay as overlay
    import repro.serve.index as index
    import repro.serve.wal as wal
    from repro.core.compiled import CompiledDG
    from repro.core.graph import DominantGraph
    from repro.serve.admission import AdmissionController
    from repro.serve.cache import ResultCache

    inst = Instrumentation(tracer)
    try:
        inst.wrap(builder, "compute_layers", "builder.layers")
        inst.wrap(DominantGraph, "compile", "graph.compile")
        inst.wrap(CompiledDG, "top_k", "compiled.top_k", _scored)
        inst.wrap(index, "batch_top_k", "compiled.batch_top_k", _batch_scored)
        inst.wrap(overlay, "batch_top_k", "compiled.batch_top_k", _batch_scored)
        inst.wrap(index, "overlay_top_k", "overlay.top_k", _overlay_size)
        inst.wrap(index, "overlay_batch_top_k", "overlay.batch_top_k", _overlay_size)
        inst.wrap(index.ServingIndex, "query", "serve.query")
        inst.wrap(index.ServingIndex, "query_batch", "serve.query_batch")
        inst.wrap(ResultCache, "get", "cache.get")
        inst.wrap(index, "insert_record", "maintenance.insert")
        inst.wrap(index, "delete_record", "maintenance.delete")
        inst.wrap(index, "validate_insert_batch", "maintenance.validate")
        inst.wrap(index, "validate_delete_batch", "maintenance.validate")
        inst.wrap(wal.WriteAheadLog, "append", "wal.append")
        inst.patch(wal, "os", _FsyncOnly(wal.os, tracer.wrap("wal.fsync", wal.os.fsync)))
        inst.wrap(index, "save_graph_store", "checkpoint.save")
        inst.wrap(index, "load_graph_store", "recovery.load")
        inst.wrap(index, "scan_wal", "recovery.scan")
        inst.wrap(index, "apply_op", "recovery.replay")

        admit = AdmissionController.__dict__["admit"]

        @functools.wraps(admit)
        def timed_admit(self: Any, *args: Any, **kwargs: Any) -> _TimedEnter:
            return _TimedEnter(tracer, "admission.admit", admit(self, *args, **kwargs))

        inst.patch(AdmissionController, "admit", timed_admit)
    except BaseException:
        inst.uninstall()
        raise
    return inst


class SpanIndex:
    """Parent/child lookups and self time over a finished span list."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.children: dict = defaultdict(list)
        for span in self.spans:
            if span.parent_id:
                self.children[span.parent_id].append(span)

    def roots(self, prefix: str) -> list:
        return [s for s in self.spans if s.parent_id == 0 and s.name.startswith(prefix)]

    def descendants(self, span: Span) -> list:
        found = []
        pending = list(self.children.get(span.span_id, ()))
        while pending:
            child = pending.pop()
            found.append(child)
            pending.extend(self.children.get(child.span_id, ()))
        return found

    def self_ns(self, span: Span) -> int:
        """Duration minus the part of it covered by direct children."""
        covered = 0
        cursor = span.start_ns
        for child in sorted(self.children.get(span.span_id, ()), key=lambda s: s.start_ns):
            start = max(child.start_ns, cursor)
            end = min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration_ns - covered
