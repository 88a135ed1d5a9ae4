"""In-memory span tracing around the program's layer entry points.

:func:`install` replaces each traced callable with a wrapper that
records a span: name, start and end (``perf_counter_ns``), and its
parent, the innermost span open on the same thread.  Nothing in the
program changes; the wrappers live here and are installed by the
benchmark's own worker and server launcher.  Spans stay in memory and
are written out once, when the process ends (:func:`dump`).

Two serving measurements cross threads and cannot be nested spans:
queue wait (``Coalescer.offer`` on the event loop to the start of the
submitted callable on the engine thread) and the dispatch hop
(``ScoreEngine.submit`` to the callable's start, plus the return from
the callable's end to the awaiting coroutine).  They are recorded as
samples by wrappers around the coalescer's dispatch steps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

_now = time.perf_counter_ns


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, tid
        self.samples: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, _now(), 0, parent, threading.get_ident()))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = _now()
        self._stack().pop()
        with self._lock:
            name, start, _, parent, tid = self.spans[index]
            self.spans[index] = (name, start, end, parent, tid)

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.samples.clear()
            self.counters.clear()

    def sample(self, name: str, value_ms: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value_ms)

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {
                "spans": self.spans,
                "samples": self.samples,
                "counters": self.counters,
            }
        with open(path, "w") as fh:
            json.dump(payload, fh)


RECORDER = Recorder()


def _wrap(owner, attr: str, name: str, count=None) -> None:
    original = getattr(owner, attr, None)
    if original is None:
        raise AttributeError(f"cannot trace {owner!r}.{attr}: it no longer exists")

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if count is not None:
            count(args, kwargs)
        index = RECORDER.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            RECORDER.close(index)

    setattr(owner, attr, traced)


def _rank_rows(args, kwargs) -> None:
    weights = args[1] if len(args) > 1 else kwargs["weight_matrix"]
    RECORDER.count("engine.rank_functions", len(weights))


def install(serving: bool) -> None:
    """Wrap every traced layer entry point in this process."""
    # import_module, not attribute access: ``repro.core.mdrc`` is also the
    # name of the function the package re-exports.
    mdrc = importlib.import_module("repro.core.mdrc")
    mdrrr = importlib.import_module("repro.core.mdrrr")
    regret = importlib.import_module("repro.evaluation.regret")
    from repro.engine import delta, views, wal
    from repro.engine.score_engine import ScoreEngine

    _wrap(ScoreEngine, "topk_orders", "engine.topk_batch")
    _wrap(ScoreEngine, "rank_of_best_batch", "engine.rank_of_best_batch", _rank_rows)
    _wrap(ScoreEngine, "insert_rows", "delta.insert_rows")
    _wrap(ScoreEngine, "delete_rows", "delta.delete_rows")
    _wrap(delta, "flush_mutations", "delta.compact")
    _wrap(mdrc, "mdrc", "core.mdrc")
    _wrap(mdrrr, "md_rrr", "core.md_rrr")
    _wrap(mdrrr, "sample_ksets", "ksets.sample_ksets")
    _wrap(mdrrr, "greedy_hitting_set", "setcover.hitting_set")
    _wrap(regret, "rank_regret_sampled", "evaluation.rank_regret_sampled")
    _wrap(views.MaterializedView, "refresh", "views.refresh")
    _wrap(views.MaterializedView, "_on_event", "views.maintain")
    _wrap(wal.DurableStore, "commit", "wal.commit")
    _wrap(wal.DurableStore, "snapshot", "wal.snapshot")
    append = wal.WriteAheadLog.append

    @functools.wraps(append)
    def counted_append(self, commit):
        before = self.size_bytes
        append(self, commit)
        RECORDER.count("wal.appended_bytes", self.size_bytes - before)
        RECORDER.count("wal.appends", 1)

    wal.WriteAheadLog.append = counted_append
    if serving:
        _install_serving()


def _install_serving() -> None:
    from repro.serve.coalesce import Coalescer

    _wrap(importlib.import_module("repro.serve.app"), "replay_commits", "wal.replay")

    offered: dict[int, int] = {}  # id(item.future) -> offer time
    offer = Coalescer.offer

    @functools.wraps(offer)
    def traced_offer(self, item):
        offered[id(item.future)] = _now()
        return offer(self, item)

    execute = Coalescer._execute

    @functools.wraps(execute)
    async def traced_execute(self, group):
        self._perfbench_group = group
        return await execute(self, group)

    submit = Coalescer._submit
    if not inspect.iscoroutinefunction(submit) or not inspect.iscoroutinefunction(execute):
        raise TypeError("Coalescer dispatch steps are no longer coroutines")

    @functools.wraps(submit)
    async def traced_submit(self, fn):
        marks = {}

        def timed():
            marks["start"] = _now()
            try:
                return fn()
            finally:
                marks["end"] = _now()

        submitted = _now()
        result = await submit(self, timed)
        resumed = _now()
        RECORDER.sample(
            "serve.dispatch",
            ((marks["start"] - submitted) + (resumed - marks["end"])) / 1e6,
        )
        for item in getattr(self, "_perfbench_group", ()):
            t = offered.pop(id(item.future), None)
            if t is not None:
                RECORDER.sample("serve.queue_wait", (marks["start"] - t) / 1e6)
        return result

    Coalescer.offer = traced_offer
    Coalescer._execute = traced_execute
    Coalescer._submit = traced_submit


def self_times(spans, keep=lambda span: True) -> dict[str, float]:
    """Per span name, total self time in ms of the spans ``keep`` selects:
    each one's duration minus the time its direct children (same thread,
    properly nested) cover."""
    child_time = [0] * len(spans)
    for _name, start, end, parent, _tid in spans:
        if parent >= 0 and end:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        if end and keep(span):
            out[name] = out.get(name, 0.0) + (end - start - child_time[i]) / 1e6
    return out


def durations(spans) -> dict[str, list[float]]:
    """Per span name, every closed span's duration in ms."""
    out: dict[str, list[float]] = {}
    for name, start, end, _parent, _tid in spans:
        if end:
            out.setdefault(name, []).append((end - start) / 1e6)
    return out
