"""Timing, tracing and statistics used by the benchmark.

A Recorder times the operations of one pass. With a Speed it scales
each time to the host's reference speed: a shared host runs the same
code up to twice as slow for minutes at a time, and the fixed reference
kernel, timed between operations, slows down with it. A Tracer records
spans around calls into the f2froute modules: while `instrument` is active it
replaces each traced function, in every f2froute module that refers to
it, with a wrapper that records a span, so calls one module makes into
another (routing inside a DHT lookup, tree construction inside the
attacker set-up) become child spans. Nothing under src/ is changed; the
originals are restored when `instrument` exits.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
import tracemalloc

REF_S = 1e-3  # the reference kernel's time at reference speed


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]; 0.0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reference_kernel(n: int = 2000) -> int:
    """Fixed pure-Python work with the simulator's mix of set and dict
    lookups, comprehensions and integer arithmetic. Its fastest run takes
    about REF_S on a 2-core Intel Xeon VM."""
    seen: set[int] = set()
    first: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = (i * 7919) % 211
        if k in seen:
            acc += first[k]
        else:
            seen.add(k)
            first[k] = i
        acc ^= len([j for j in (k, i, acc & 7) if j > 3])
    return acc


class Speed:
    """The host's current speed, from the reference kernel.

    `factor()` re-times the kernel, fastest of three runs, once
    INTERVAL_S has passed since it last did, and returns REF_S over that
    time: a measured time times the factor is the time at reference speed.
    `kernel_s` keeps every kernel time taken.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.at = -math.inf
        self.current = 1.0
        self.kernel_s: list[float] = []

    def factor(self, force: bool = False) -> float:
        if force or time.perf_counter() - self.at >= self.INTERVAL_S:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                reference_kernel()
                best = min(best, time.perf_counter() - t0)
            self.kernel_s.append(best)
            self.current = REF_S / best
            self.at = time.perf_counter()
        return self.current


class Recorder:
    """Times the operations and other measured calls of one pass.

    `busy_s` is the time spent inside timed calls; checks and state
    restores between them are not counted. `latencies` has one entry per
    operation, failed ones included, in the order they ran; `calls` has
    one entry per other timed call. With a Speed, the entries of both
    are times at reference speed; `busy_s` is always as measured.
    """

    def __init__(self, tracer: "Tracer | None" = None, speed: Speed | None = None):
        self.tracer = tracer
        self.speed = speed
        self.latencies: list[float] = []
        self.calls: list[float] = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, fn, *args, **kwargs):
        """Time one operation; returns (ok, result). A raise fails the op."""
        self.attempted += 1
        scale = self._scale()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self._took(t0, scale, self.latencies)
            self.reject(f"{type(exc).__name__}: {exc}")
            return False, None
        self._took(t0, scale, self.latencies)
        return True, result

    def _scale(self) -> float:
        return 1.0 if self.speed is None else self.speed.factor()

    def _took(self, t0: float, scale: float, into: list) -> None:
        dt = time.perf_counter() - t0
        self.busy_s += dt
        into.append(dt * scale)

    def timed(self, fn, *args, **kwargs):
        """Time a measured call that is not an operation."""
        scale = self._scale()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._took(t0, scale, self.calls)

    def reject(self, message: str) -> None:
        """Count the current operation as failed (raised or failed a check)."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @contextlib.contextmanager
    def tag(self, **tags):
        """Attach tags (such as the tree strategy) to spans recorded inside."""
        if self.tracer is None:
            yield
            return
        saved = dict(self.tracer.tags)
        self.tracer.tags.update(tags)
        try:
            yield
        finally:
            self.tracer.tags = saved


class Span:
    __slots__ = ("layer", "name", "parent", "tags", "start", "end", "child_s", "attrs", "alloc")

    def __init__(self, layer, name, parent, tags):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.tags = tags
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs = {}
        self.alloc = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory spans; `take` hands over the spans recorded so far.

    With `measure_alloc` set, spans of targets marked alloc=True carry the
    tracemalloc peak above the allocation level at their start. Those
    targets never nest in one another, so resetting the peak is safe.
    """

    def __init__(self, measure_alloc: bool = False):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.tags: dict = {}
        self.measure_alloc = measure_alloc

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, layer, name, fn, attrs=None, alloc=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            span = Span(layer, name, stack[-1] if stack else None, dict(tracer.tags))
            tracer.spans.append(span)
            stack.append(span)
            track = alloc and tracer.measure_alloc
            if track:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if track:
                span.alloc = tracemalloc.get_traced_memory()[1] - base
            if attrs is not None:
                span.attrs = attrs(result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self, targets):
        """Patch every (layer, owner, attribute, attrs, alloc) target.

        A module-level function is replaced in each loaded f2froute module
        that holds it under some name; a method is replaced on its class.
        """
        patched = []
        if self.measure_alloc:
            tracemalloc.start()
        try:
            for layer, owner, attr, attrs, alloc in targets:
                original = getattr(owner, attr)
                wrapper = self.wrap(layer, attr, original, attrs, alloc)
                if isinstance(owner, type):
                    patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "f2froute" and not mod_name.startswith("f2froute."):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)
            if self.measure_alloc:
                tracemalloc.stop()
