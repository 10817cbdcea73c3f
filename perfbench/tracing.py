"""Span recording around the program's public layer functions.

The benchmark traces the program from the outside. :func:`install`
replaces each named function or method with a wrapper that records one
span per call, and :meth:`Patches.remove` restores the originals, so the
untraced phases run the program's own code objects. Nothing under
``src/repro`` is modified.

A span is the tuple ``(span_id, name, start_ns, end_ns, thread, parent,
op, under_call, value)``:

* ``parent`` is the innermost open span on the same thread. A span that
  opens with nothing open on its thread (a fan-out pool leg, the async
  server loop handling a frame) takes the client thread's innermost open
  span instead, which attributes it by time to whatever the single
  client thread is waiting in.
* ``op`` is the operation the client loop had in flight when the span
  opened (:attr:`Tracer.op`); spans on background threads (the segment
  compactor) carry :data:`BACKGROUND` instead.
* ``under_call`` is true for work done inside a protocol call: spans
  nested in a ``protocol.call`` span on the same thread, and every span
  on a socket-server thread.
* ``value`` is an optional per-call measurement (element count, frame
  bytes, hit or miss) taken by the spec's ``measure`` function.

Spans are kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: The ``op`` of spans recorded on background threads.
BACKGROUND = -2

#: Thread-name prefixes of the program's socket-server threads.
SERVER_THREAD_PREFIXES = ("zerber-async-server-loop", "zerber-async-handler")
#: Thread-name prefixes of the program's background maintenance threads.
BACKGROUND_THREAD_PREFIXES = ("zerber-compactor", "repro-anti-entropy")

CALL_SPAN = "protocol.call"


@dataclass(frozen=True)
class WrapSpec:
    """One function to trace.

    Attributes:
        module: the defining module.
        owner: class name, or None for a module-level function (every
            ``repro`` module that imported it by name is patched too).
        attr: the function or method name.
        span: the span name the calls record under.
        measure: optional ``(args, result) -> number`` taken per call.
    """

    module: str
    owner: str | None
    attr: str
    span: str
    measure: Callable[[tuple, Any], float] | None = None


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.call_depth = 0
        name = threading.current_thread().name
        self.ident = threading.get_ident()
        self.server = name.startswith(SERVER_THREAD_PREFIXES)
        self.background = name.startswith(BACKGROUND_THREAD_PREFIXES)


class Tracer:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: The operation id the client loop has in flight (None: idle).
        self.op: int | None = None
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self._client_stack: list[int] = []
        self.thread_names: dict[int, str] = {}

    def bind_client_thread(self) -> None:
        """Mark the calling thread as the closed-loop client."""
        self._client_stack = self._state.stack

    def wrap(self, fn: Callable, name: str, measure=None) -> Callable:
        state_of = self._state
        spans = self.spans
        ids = self._ids
        names = self.thread_names
        perf = time.perf_counter_ns
        is_call = name == CALL_SPAN
        tracer = self

        def traced(*args, **kwargs):
            state = state_of
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                client = tracer._client_stack
                parent = client[-1] if client and not state.background else None
                names.setdefault(state.ident, threading.current_thread().name)
            op = BACKGROUND if state.background else tracer.op
            under = state.server or state.call_depth > 0
            span_id = next(ids)
            stack.append(span_id)
            if is_call:
                state.call_depth += 1
            value = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, result)
                return result
            finally:
                end = perf()
                stack.pop()
                if is_call:
                    state.call_depth -= 1
                spans.append(
                    (span_id, name, start, end, state.ident, parent, op,
                     under, value)
                )

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(
                "span\tname\tstart_ns\tend_ns\tthread\tparent\top"
                "\tunder_call\tvalue\n"
            )
            for record in self.spans:
                span_id, name, start, end, thread, parent, op, under, value = (
                    record
                )
                out.write(
                    f"{span_id}\t{name}\t{start}\t{end}\t"
                    f"{self.thread_names.get(thread, thread)}\t"
                    f"{'' if parent is None else parent}\t"
                    f"{'' if op is None else op}\t{int(under)}\t"
                    f"{'' if value is None else value}\n"
                )


class Patches:
    """The attribute replacements one :func:`install` made."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, specs: list[WrapSpec]) -> Patches:
    """Wrap every spec'd function; returns the patches to remove."""
    patches = Patches()
    try:
        for spec in specs:
            module = importlib.import_module(spec.module)
            if spec.owner is not None:
                cls = getattr(module, spec.owner)
                raw = cls.__dict__[spec.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        tracer.wrap(raw.__func__, spec.span, spec.measure)
                    )
                else:
                    wrapped = tracer.wrap(raw, spec.span, spec.measure)
                patches.set(cls, spec.attr, wrapped)
                continue
            original = getattr(module, spec.attr)
            wrapped = tracer.wrap(original, spec.span, spec.measure)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        patches.set(loaded, attr, wrapped)
    except BaseException:
        patches.remove()
        raise
    return patches
