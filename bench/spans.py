"""In-memory span tracing around calls into the sgeit layers.

The tracer replaces module attributes and class methods with wrappers for
the duration of one traced operation and restores them afterwards, so an
untraced operation runs the library unchanged.  Every wrapped call opens a
span (name, start, end, parent, operation id) unless it is a hot path:
hot calls are aggregated under the nearest enclosing span as a count, a
total time and a self time.  A call's self time is its duration minus the
time its nested wrapped calls took; the operation runs on one thread, so
nested calls never overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # frames: [start_ns, nested_ns, enclosing span (None at the root)]
        self._stack: list[list] = [[0, 0, None]]
        self._patches: list[tuple[object, str, object]] = []
        self._op = None
        self._t0 = 0

    def wrap(self, owner, attr: str, name: str, hot: bool = False, note=None):
        """Trace calls to ``owner.attr`` under ``name`` until :meth:`restore`.

        ``note(args, result)`` returns a dict of attributes stored on the
        span of a call that returned; hot calls take no notes.
        """
        fn = getattr(owner, attr)
        stack = self._stack

        def hot_call(*args, **kwargs):
            frame = [_clock(), 0, stack[-1][2]]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - frame[0]
                stack.pop()
                stack[-1][1] += dur
                owner = frame[2]
                if owner is not None:
                    agg = owner["agg"].get(name)
                    if agg is None:
                        agg = owner["agg"][name] = [0, 0, 0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]

        def span_call(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span["attrs"].update(note(args, result))
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, hot_call if hot else span_call)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    @contextmanager
    def operation(self, op_id: str):
        """Tag every span opened inside with ``op_id``; times count from here."""
        self._op = op_id
        self._t0 = _clock()
        try:
            yield
        finally:
            self._op = None

    def _open(self, name: str) -> dict:
        parent = self._stack[-1][2]
        span = {
            "id": len(self.spans),
            "op": self._op,
            "name": name,
            "parent": parent["id"] if parent else None,
            "attrs": {},
            "agg": {},
        }
        self.spans.append(span)
        self._stack.append([_clock(), 0, span])
        return span

    def _close(self, span: dict) -> None:
        end = _clock()
        start, nested, _ = self._stack.pop()
        self._stack[-1][1] += end - start
        span["start"] = (start - self._t0) * 1e-9
        span["end"] = (end - self._t0) * 1e-9
        span["self"] = (end - start - nested) * 1e-9

    def op_spans(self, op_id: str) -> list[dict]:
        return [s for s in self.spans if s["op"] == op_id]


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer (the name prefix before the first dot)."""
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + s["self"]
        for name, (_, _, self_ns) in s["agg"].items():
            hot_layer = name.split(".", 1)[0]
            out[hot_layer] = out.get(hot_layer, 0.0) + self_ns * 1e-9
    return out
