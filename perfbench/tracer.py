"""Layer tracer for the traced benchmark run.

Wraps the public functions of each layer from the outside: nothing in
``src/`` changes.  A wrapper is installed at every name a caller
resolves -- the translator imports ``modulo_schedule`` by name, so the
function object bound in ``repro.vm.translator`` is replaced as well as
the one in ``repro.scheduler.sms`` -- and :meth:`Tracer.restore` puts
every original object back.

Spans (name, start, end, parent, thread) are kept in memory and written
out once, when the traced run ends.  A span's self time is its duration
minus the durations of its child spans; because children nest inside
their parent on one thread, the self times of the spans on one thread
partition the time covered by that thread's root spans.  The benchmark
opens a ``bench`` root span around the work each driving thread does
(never around its own calibrations), so the self time of the ``bench``
spans is the part no layer claims (``unattributed_s``), and
:meth:`Tracer.reconcile` checks the sum against the wall the benchmark
measured itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

#: Name of the root span the benchmark opens on each driving thread.
ROOT = "bench"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        #: (owner, attribute, original object) for every patch applied.
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, Optional[int], float]:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent: Optional[int],
               start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent,
                           threading.get_ident()))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, span_id, parent, start)

    def root(self):
        """The ``bench`` span around one driving thread's work."""
        return self.span(ROOT)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable,
                 observe: Optional[Callable[["Tracer", object], None]]
                 ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, span_id, parent, start)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def wrap_function(self, name: str, module: str, attr: str,
                      observe=None) -> None:
        """Trace ``module.attr`` wherever a loaded ``repro`` module binds it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrapper(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, name: str, cls: type, attr: str,
                    observe=None) -> None:
        """Trace ``cls.attr`` for every instance."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, observe))

    def patched(self) -> list[tuple]:
        """(owner, attribute, original) for every patch applied."""
        return list(self._patches)

    def restore(self) -> None:
        """Put every original object back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def _own_times(self) -> list[tuple[str, str, float]]:
        """(name, name of the span's top-level ancestor, self seconds)."""
        child_time: dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _thread in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        # A parent opens before its children, so it has the smaller id.
        top: dict[int, str] = {}
        for span_id, name, _start, _end, parent, _thread in sorted(
                self.spans):
            top[span_id] = name if parent is None else top[parent]
        return [(name, top[span_id],
                 (end - start) - child_time.get(span_id, 0.0))
                for span_id, name, start, end, _parent, _thread
                in self.spans]

    def self_times(self) -> tuple[dict, dict]:
        """Per-name self seconds and calls, over every thread."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, _top, own in self._own_times():
            self_s[name] += own
            calls[name] += 1
        return dict(self_s), dict(calls)

    def reconcile(self, driven_s: float) -> dict:
        """Self times inside the root spans against a measured wall.

        *driven_s* is the thread-seconds the driving threads spent
        inside their ``bench`` roots, as the benchmark timed them with
        its own clock (the traced set-up, the pass segments, and on the
        service workload each client thread's share of a pass).  Layer
        self times under a root plus the roots' own self time
        (``unattributed_s``) must add up to it.  Layers on other threads
        (the server's event loop and dispatcher) run inside a client's
        wait and are reported, but not summed here.
        """
        layers = unattributed = 0.0
        for name, top, own in self._own_times():
            if top != ROOT:
                continue
            if name == ROOT:
                unattributed += own
            else:
                layers += own
        error = (abs(layers + unattributed - driven_s) / driven_s
                 if driven_s else 0.0)
        return {"layers_s": layers, "unattributed_s": unattributed,
                "reconcile_error": error}

    def write(self, path: str) -> None:
        """Dump every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, thread in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent, "thread": thread}))
                handle.write("\n")


class NullTracer:
    """Stand-in for untraced runs: roots cost nothing."""

    def root(self):
        return contextlib.nullcontext()


NULL = NullTracer()
