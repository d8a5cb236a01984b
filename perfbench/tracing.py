"""In-memory span tracer for the benchmark's traced runs.

A span records ``name``, ``start``, ``end``, the index of its parent span
and the operation id it belongs to.  Spans are opened either explicitly
(``with tracer.span(name)``) around a public call the benchmark makes, or
by :meth:`Tracer.patched`, which wraps named public functions and methods
of the program for the duration of a traced replay so that calls the
program makes internally (``verify_shards`` reading shards, the engine
calling a sink consumer) get spans too.  Nothing is written inside the
program: wrappers live only in this process and are removed on exit.

A layer's self time is its span's duration minus the part covered by its
child spans.  Each thread keeps its own span stack; a span opened on a
thread with no open span (a server's event loop or executor thread)
becomes a child of the current operation's root span.  Traced replays
keep one request in flight, so the threads take turns and children do
not overlap.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: The root span of every traced operation; its self time is the
#: harness time no layer span covers.
OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op_walls: list[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_id = -1
        self._op_span = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._op_span
        with self._lock:
            index = len(self.spans)
            record = [name, time.perf_counter(), None, parent, self._op_id]
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    @contextmanager
    def operation(self):
        """One traced operation: a root span, timed independently so the
        accounting check compares self times against a wall clock the
        spans did not produce."""
        self._op_id += 1
        t0 = time.perf_counter()
        with self.span(OP_SPAN):
            self._op_span = self._stack()[-1]
            try:
                yield
            finally:
                self._op_span = -1
        self.op_walls.append(time.perf_counter() - t0)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- wrapping the program's public calls ---------------------------------
    def _wrap_call(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_async(self, fn, name):
        tracer = self

        async def wrapper(*args, **kwargs):
            with tracer.span(name):
                return await fn(*args, **kwargs)

        return wrapper

    def _wrap_iter(self, fn, name, counter):
        """Wrap a generator function: every ``next`` is one span, and
        each yielded tile adds to ``<counter>.tiles`` / ``.entries``."""
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                tracer.count(counter + ".tiles")
                tracer.count(counter + ".entries", len(item[0]))
                yield item

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Install span wrappers for ``targets`` — tuples of
        ``(owner, attribute, span name)`` or ``(owner, attribute, span
        name, counter prefix)`` for generator functions; coroutine
        functions get a span across their ``await`` — and restore the
        originals on exit.  Targets whose attribute no longer exists
        are skipped, so a renamed layer reads as zero instead of
        breaking the run."""
        undo = []
        try:
            for owner, attr, name, *counter in targets:
                if not hasattr(owner, attr):
                    continue
                original = getattr(owner, attr)
                own = attr in vars(owner)
                if counter:
                    wrapper = self._wrap_iter(original, name, counter[0])
                elif inspect.iscoroutinefunction(original):
                    wrapper = self._wrap_async(original, name)
                else:
                    wrapper = self._wrap_call(original, name)
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original, own))
            yield
        finally:
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- aggregation -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name, over every completed span."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[i]
        totals: dict[str, float] = defaultdict(float)
        for i, (name, *_rest) in enumerate(self.spans):
            totals[name] += durations[i] - child_time[i]
        return dict(totals)

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for name, *_rest in self.spans:
            counts[name] += 1
        return dict(counts)

    def write(self, path: Path) -> None:
        """Write every span as JSON (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op_id"],
            "spans": [
                [name, start - origin, end - origin, parent, op]
                for name, start, end, parent, op in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def replay_pairs(seconds, untraced, traced, tracer: Tracer, targets=()):
    """Alternate an untraced and a traced replay of one operation until
    ``seconds`` have passed (at least one pair).  ``traced(tracer)``
    runs inside an operation span with ``targets`` wrapped.  Returns
    both lists of wall times (the tracing overhead is their ratio) and
    the traced replays' outputs."""
    plain, spanned, outputs = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        untraced()
        plain.append(time.perf_counter() - t0)
        with tracer.patched(targets), tracer.operation():
            outputs.append(traced(tracer))
        spanned.append(tracer.op_walls[-1])
    return plain, spanned, outputs
