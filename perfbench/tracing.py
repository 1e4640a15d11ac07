"""Timing wrappers around the public callables of each layer.

The traced run installs these in the SUT process; nothing under
``src/`` is touched.  Each wrapped call becomes one span: its name,
start, end, parent span (per thread), a tag naming the acquisition or
request it belongs to, and a size taken from the returned value (rows,
features, notifications).  An acquisition's tag is its ISO timestamp,
set by :meth:`Recorder.context`; any other span opened outside a
tagged block (an HTTP request's query, a monitor scan) tags itself and
the spans beneath it ``#<its span id>``.
Spans stay in memory and are exported once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Refinement operations of Figure 8 plus the federation stages.
REFINE_OPS = (
    "store",
    "municipalities",
    "delete_in_sea",
    "invalid_for_fires",
    "refine_in_coast",
    "time_persistence",
    "source_ingest",
    "cross_confirm",
    "static_sources",
)


def _rows(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


def _features(result) -> int:
    return len(result.get("features", ())) if isinstance(result, dict) else 0


def _notifications(result) -> int:
    return len(getattr(result, "notifications", ()) or ())


def _query_name(result) -> str:
    from repro.stsparql.engine import UpdateResult
    from repro.stsparql.eval import SolutionSet

    if isinstance(result, UpdateResult):
        return "stsparql.update"
    if isinstance(result, SolutionSet):
        return "stsparql.select"
    return "stsparql.query"


def targets() -> List[Tuple[Any, str, str, Optional[Callable], Callable]]:
    """(owner, attribute, span name, size-of-result, name-of-result)."""
    import repro.durable
    import repro.serve.http
    from repro.arraydb.connection import MonetDB
    from repro.arraydb.vault import DataVault
    from repro.core.refinement import RefinementPipeline
    from repro.core.sciql_chain import SciQLChain
    from repro.durable.store import DurableStore
    from repro.serve.sse import SseHub
    from repro.serve.state import SnapshotPublisher
    from repro.serve.subscribe import SubscriptionEngine
    from repro.seviri.monitor import SeviriMonitor
    from repro.sources.federation import SourceFederation
    from repro.stsparql.engine import SnapshotView, Strabon

    fixed = lambda name: (lambda result: name)  # noqa: E731
    out = [
        (SeviriMonitor, "scan", "monitor.scan", None),
        (SeviriMonitor, "dispatch_ready", "monitor.dispatch", None),
        (SciQLChain, "process", "chain.process", None),
        (MonetDB, "execute", "arraydb.execute", None),
        (DataVault, "ensure_loaded", "vault.load", None),
        (DurableStore, "commit", "durable.commit", None),
        (DurableStore, "checkpoint", "durable.checkpoint", None),
        (repro.durable, "save_service_state", "durable.save_state", None),
        (
            SubscriptionEngine,
            "process_commit",
            "subscribe.process_commit",
            _notifications,
        ),
        (SubscriptionEngine, "publish_batch", "subscribe.publish_batch", None),
        (SnapshotPublisher, "publish", "state.publish", None),
        (repro.serve.http, "query_hotspots", "hotspots.query", _features),
        (SseHub, "deliver", "sse.deliver", None),
        (SourceFederation, "collect", "sources.collect", None),
    ]
    out += [
        (RefinementPipeline, op, f"refine.{op}", None) for op in REFINE_OPS
    ]
    wrapped = [
        (owner, attr, name, size, fixed(name))
        for owner, attr, name, size in out
    ]
    wrapped += [
        (Strabon, "query", "stsparql.query", _rows, _query_name),
        (SnapshotView, "query", "stsparql.query", _rows, _query_name),
    ]
    return wrapped


class Recorder:
    """In-memory span store plus the installed wrappers."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Spans are only recorded while a timed phase runs.
        self.active = False

    def install(self) -> None:
        for owner, attr, name, size, namer in targets():
            setattr(owner, attr, self.wrap(getattr(owner, attr), size, namer))

    def reset(self) -> None:
        with self._lock:
            self.spans = []

    @contextlib.contextmanager
    def context(self, tag: str):
        """Tag every span opened on this thread inside the block."""
        previous = getattr(self._local, "tag", None)
        self._local.tag = tag
        try:
            yield
        finally:
            self._local.tag = previous

    def wrap(self, fn, size, namer):
        recorder = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            tag = getattr(local, "tag", None)
            if tag is None:
                tag = local.tag = f"#{span_id}"
            stack.append(span_id)
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                if tag == f"#{span_id}":
                    local.tag = None
                span = (
                    span_id,
                    namer(result),
                    start,
                    end,
                    parent,
                    tag,
                    size(result) if size and result is not None else 0,
                )
                with recorder._lock:
                    recorder.spans.append(span)

        return traced

    def export(self) -> List[Tuple]:
        with self._lock:
            return list(self.spans)

    @staticmethod
    def calibrate(calls: int = 20000) -> float:
        """Seconds one wrapper adds to a call (a no-op, traced vs not)."""

        def noop():
            return None

        probe = Recorder()
        probe.active = True
        traced = probe.wrap(noop, None, lambda result: "noop")
        best = float("inf")
        for _ in range(3):
            start = time.monotonic()
            for _ in range(calls):
                noop()
            bare = time.monotonic() - start
            start = time.monotonic()
            for _ in range(calls):
                traced()
            best = min(best, (time.monotonic() - start - bare) / calls)
            probe.reset()
        return max(best, 0.0)


def summarise(spans: List[Tuple]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, busy seconds and self seconds (busy minus the
    time of the spans nested directly inside it)."""
    child_time: Dict[int, float] = {}
    for span_id, name, start, end, parent, tag, n in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    table: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, parent, tag, n in spans:
        row = table.setdefault(name, {"count": 0, "busy": 0.0, "self": 0.0})
        row["count"] += 1
        row["busy"] += end - start
        row["self"] += end - start - child_time.get(span_id, 0.0)
    return table
