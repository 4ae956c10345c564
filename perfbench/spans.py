"""In-memory span recording around calls into the program's layers.

Spans are recorded from outside the program: :meth:`Tracer.wrap` replaces a
bound method or module function with a timing wrapper and :meth:`restore`
puts the original back. Every span knows its parent, so a layer's self time
is its duration minus the time its direct children cover.

Span fields live in parallel lists of numbers and strings rather than one
object per span, so recording adds no objects for the garbage collector to
scan and slows the traced program less.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.event_of: list[int] = []
        self.tag: list[int] = []      # shard index of engine and index spans, else -1
        self.event = -1
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _open(self, name: str, tag: int) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.event_of.append(self.event)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self) -> None:
        self.end[self._stack.pop()] = perf_counter()

    def wrap(self, obj, attr: str, name: str, tag: int = -1, after=None) -> None:
        """Record a span around every call of ``obj.attr``; ``after(result)``
        runs after each traced call, for counts taken at the same boundary."""
        fn = getattr(obj, attr)
        own = attr in getattr(obj, "__dict__", {})

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(result)
            return result

        setattr(obj, attr, traced)
        self._patched.append((obj, attr, fn, own))

    def restore(self) -> None:
        self.active = False
        for obj, attr, fn, own in reversed(self._patched):
            if own:
                setattr(obj, attr, fn)
            else:
                delattr(obj, attr)
        self._patched.clear()

    def begin_event(self, index: int) -> None:
        self.event = index
        self._open("event", -1)

    def end_event(self) -> None:
        self._close()

    def self_times(self) -> list[float]:
        """Per span: duration minus the part its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(json.dumps({"id": i, "name": self.name[i], "parent": self.parent[i],
                                     "start": self.start[i], "end": self.end[i],
                                     "event": self.event_of[i], "shard": self.tag[i]}) + "\n")
