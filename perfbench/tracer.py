"""Spans around bhr's public functions, recorded from outside bhr.

install() wraps the public functions of each bhr module and rebinds the
names that the calling modules look up at call time (the package
namespace included), so calls between modules go through the wrappers.
Certificate verification is traced by wrapping Certificate.__post_init__.
uninstall() puts every original back.  Nothing under src/bhr changes.

Each span stores its name, start, end, the span that caused it and the
request (target index) it belongs to, in flat arrays so that a million
spans cost about 26 MB.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer -> public functions traced in it
TRACED = {
    "core": ("cyclic_lengths", "is_growable_at", "growth_points"),
    "growth": (
        "grow",
        "multi_grow",
        "x2x_swap",
        "splice_perfect",
        "even_grow",
        "perf_grow",
    ),
    "search": ("local_search", "brute_force", "enumerate_admissible"),
    "solvers": ("solve",),
    "families": ("seed_for_residue",),
}
CALLERS = ("core", "growth", "search", "solvers", "families", "seeds")


def _grow(tracer, args, kwargs, cert):
    tracer.counts["growth.grow.vertices_out"] += cert.path.v


def _multi_grow(tracer, args, kwargs, cert):
    tracer.multi_grow_ok.add(tracer.request_id)


def _local_search(tracer, args, kwargs, cert):
    tracer.counts["search.local_search.found"] += cert is not None
    if cert is not None:
        restarts = dict(cert.trace[0][1])["restart"] + 1
    else:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        restarts = (cfg or tracer.bhr.SearchConfig()).max_restarts
    tracer.counts["search.local_search.restarts"] += restarts


def _brute_force(tracer, args, kwargs, cert):
    tracer.counts["search.brute_force.refuted"] += cert is None


HOOKS = {
    "growth.grow": _grow,
    "growth.multi_grow": _multi_grow,
    "search.local_search": _local_search,
    "search.brute_force": _brute_force,
}


class Tracer:
    def __init__(self, bhr):
        self.bhr = bhr
        self.names: list[str] = []
        self.parent = array("i")
        self.name = array("H")
        self.requests = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = -1
        self.counts: Counter = Counter()
        self.multi_grow_ok: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _index(self, span_name: str) -> int:
        if span_name not in self.names:
            self.names.append(span_name)
        return self.names.index(span_name)

    def enter(self, ix: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(ix)
        self.requests.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def leave(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, span_name: str, fn):
        ix = self._index(span_name)
        hook = HOOKS.get(span_name)
        enter, leave = self.enter, self.leave

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's time between
            # items is not charged to the generator
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = enter(ix)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(sid)
                    yield item

        else:

            def traced(*args, **kwargs):
                sid = enter(ix)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(sid)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result

        return functools.update_wrapper(traced, fn)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        bhr = self.bhr
        modules = [bhr] + [sys.modules[f"bhr.{m}"] for m in CALLERS]
        for layer, functions in TRACED.items():
            home = sys.modules[f"bhr.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._rebind(module, fname, traced)
        cert = bhr.core.Certificate
        self._rebind(
            cert,
            "__post_init__",
            self._wrap("core.certificate", cert.__post_init__),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def request(self, request_id: int, span_name: str = "bench.target"):
        """The root span of one target; spans inside it carry its id."""
        self.request_id = request_id
        sid = self.enter(self._index(span_name))
        try:
            yield
        finally:
            self.leave(sid)
            self.request_id = -1

    def summary(self, in_requests: bool) -> tuple[Counter, dict]:
        """Calls and self seconds per span name, over the spans inside
        target requests (in_requests) or over those outside them."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            if (self.requests[i] >= 0) != in_requests:
                continue
            span_name = self.names[self.name[i]]
            calls[span_name] += 1
            self_s[span_name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s
