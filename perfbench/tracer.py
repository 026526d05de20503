"""In-memory span tracer that wraps public functions from outside the program.

A span is (name, start, end, parent). Wrapping replaces a module attribute
(or an instance method) with a timing shim, so the patch must be applied
where the caller looks the name up: `cvrec.train.sample_minibatch`, not
`cvrec.data.sample_minibatch`, because `train` imported the name.

A name that no longer exists (renamed or merged away by a later change) is
recorded as absent instead of failing, so the benchmark keeps running on
refactored code and simply reports that layer as missing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def root_name(self) -> str:
        """Name of the outermost open span ('' outside any span)."""
        return self.spans[self._stack[0]].name if self._stack else ""

    # -- patching --------------------------------------------------------

    def _shim(self, name: str, fn, before, after, span: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if span:
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             span: bool = True) -> bool:
        """Replace `owner.attr` with a shim that records a span named `name`
        (or, with span=False, only runs the hooks). Returns False, and marks
        the name absent, when the attribute does not exist.

        `before(args, kwargs)` runs ahead of the call and
        `after(args, kwargs, result)` after it, both outside the span.
        """
        fn = getattr(owner, attr, None)
        if fn is None or not callable(fn):
            self.mark_absent(name)
            return False
        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, owner.__dict__.get(attr) if own else None, own))
        setattr(owner, attr, self._shim(name, fn, before, after, span))
        return True

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the union of the
        intervals its direct children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append(s)
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def calls_under_roots(self) -> dict[tuple[str, str], int]:
        """Call counts keyed by (root span name, span name)."""
        out: dict[tuple[str, str], int] = defaultdict(int)
        roots: list[str] = []
        for s in self.spans:
            roots.append(s.name if s.parent < 0 else roots[s.parent])
            out[(roots[-1], s.name)] += 1
        return dict(out)

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def dump(self, path, meta: dict) -> None:
        payload = {
            "meta": meta,
            "absent": self.absent,
            "counts": dict(self.counts),
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _covered(spans: list[Span], lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for s in sorted(spans, key=lambda s: s.start):
        start, end = max(s.start, cursor), min(s.end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured cost of one traced call of a no-op, in seconds."""
    tracer = Tracer()

    class _Box:
        @staticmethod
        def noop():
            return None

    tracer.wrap(_Box, "noop", "noop")
    fn = _Box.noop
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    traced = time.perf_counter() - t0
    tracer.restore()
    fn = _Box.noop
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    plain = time.perf_counter() - t0
    return max(traced - plain, 0.0) / n
