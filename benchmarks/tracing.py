"""Spans around the program's layers, installed from outside.

Each wrapper replaces a function at the name through which its caller
looks it up (``harness`` binds ``solve`` by name, ``compiler`` reaches
``relation_clauses`` through the ``verifier`` module, the backend's
primitives are looked up on the instance), so nothing under ``src/``
changes. Spans stay in memory; a layer's self time is its span minus
the union of the spans opened inside it.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list = []  # [layer, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._outer = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, name: str, layer: str, observe=None, outer: bool = False) -> None:
        """Time ``owner.name`` as ``layer``; ``observe(args, result)`` adds counts.

        An ``outer`` span adopts the spans that worker threads open while
        it runs, as ``harness.evaluate`` does with its thread pool.
        """
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([layer, 0.0, 0.0, stack[-1] if stack else tracer._outer])
                if outer:
                    tracer._outer = index
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans[index][1:3] = [start, end]
                    if outer:
                        tracer._outer = None
            if observe is not None:
                counts = observe(args, result)
                with tracer._lock:
                    tracer.counts.update(counts)
            return result

        setattr(owner, name, traced)

    def totals(self) -> tuple[dict, dict, dict]:
        """(total span seconds, self seconds, span count) per layer."""
        children = defaultdict(list)
        for index, (_, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        total, own, count = Counter(), Counter(), Counter()
        for index, (layer, start, end, _) in enumerate(self.spans):
            total[layer] += end - start
            own[layer] += end - start - covered(children.get(index, []))
            count[layer] += 1
        return total, own, count

    def intervals(self, layers: set) -> list[tuple[float, float]]:
        return [(start, end) for layer, start, end, _ in self.spans if layer in layers]


def covered(intervals: list) -> float:
    """Length of the union of intervals."""
    length, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            length += end - start
            reach = end
        elif end > reach:
            length += end - reach
            reach = end
    return length


def rounds(intervals: list) -> tuple[int, int]:
    """(maximal groups of overlapping intervals, most intervals open at once)."""
    groups, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            groups += 1
            reach = end
        else:
            reach = max(reach, end)
    events = sorted([(start, 1) for start, _ in intervals] +
                    [(end, -1) for _, end in intervals])
    open_now = peak = 0
    for _, step in events:
        open_now += step
        peak = max(peak, open_now)
    return groups, peak
