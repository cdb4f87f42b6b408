"""Per-layer wall-clock attribution, measured from outside the program.

:func:`install` replaces public entry points of each layer with
wrappers that record a span (name, layer, start, end, parent) in a
:class:`SpanLog`.  Nothing under ``src/`` changes: classes get wrapped
methods, module-level functions are rebound in every module that
imported them by name, and protocol handlers are wrapped as
``Process.on`` registers them, so their time goes to the module that
defines each handler.  Generator handlers and threads are wrapped per
resumption.

Spans are kept in memory while the log is active and reduced by
:func:`layer_times`: a span's self time is its duration minus the time
its direct children cover, and the window's time outside every
top-level span is ``unattributed``.  Self times of all layers plus the
unattributed time sum to the window.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import GeneratorType
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Handler and thread modules → layer, first matching prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core", "core"),
    ("repro.avid", "avid"),
    ("repro.broadcast", "broadcast"),
    ("repro.kv", "kv.mux"),
    ("repro.repair", "repair"),
    ("repro.net", "net"),
    ("repro.faults", "faults"),
)

#: Layers whose handler and thread spans count as protocol handler calls.
PROTOCOL_LAYERS = ("core", "avid", "broadcast")

#: Span-record fields, in order.
NAME, LAYER, START, END, PARENT = range(5)


class SpanLog:
    """Spans of one traced run, kept in memory until it ends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        #: spans are recorded only while active (the timed window)
        self.active = False
        #: event counts taken at the same boundaries as the spans
        self.counts: Dict[str, int] = {}
        #: ``perf_counter`` bounds of the timed window
        self.window: Tuple[float, float] = (0.0, 0.0)

    def start(self) -> None:
        """Open the timed window: spans record from now on."""
        self.active = True
        self.window = (time.perf_counter(), 0.0)

    def stop(self) -> float:
        """Close the window; returns its length in seconds."""
        self.active = False
        self.window = (self.window[0], time.perf_counter())
        return self.window[1] - self.window[0]

    def count(self, name: str, value: int = 1) -> None:
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + value

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header, then one
        ``[id, name, layer, start_s, end_s, parent_id]`` per span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"run_id": self.run_id,
                                  "spans": len(self.spans),
                                  "window": list(self.window),
                                  "counts": self.counts}) + "\n")
            for index, span in enumerate(self.spans):
                out.write(json.dumps(
                    [index, span[NAME], span[LAYER], round(span[START], 7),
                     round(span[END], 7), span[PARENT]]) + "\n")


def _timed(log: SpanLog, fn: Callable, name: str, layer: str) -> Callable:
    clock = time.perf_counter
    spans = log.spans
    stack = log.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not log.active:
            return fn(*args, **kwargs)
        record = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = clock()
            stack.pop()

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _timed_generator(log: SpanLog, generator, name: str, layer: str):
    """Re-yield ``generator``, timing each resumption as one span."""
    clock = time.perf_counter
    spans = log.spans
    stack = log.stack
    value = None
    while True:
        if log.active:
            record = [name, layer, clock(), 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
        else:
            record = None
        try:
            condition = generator.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            if record is not None:
                record[END] = clock()
                stack.pop()
        value = yield condition


def layer_of_module(module: Optional[str]) -> str:
    """The layer a handler or thread defined in ``module`` belongs to."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return "other"


def _handler_module(handler: Callable) -> Optional[str]:
    target = getattr(handler, "func", handler)  # functools.partial
    target = getattr(target, "__func__", target)  # bound method
    return getattr(target, "__module__", None)


def rebind_function(module_name: str, attr: str, wrapper_for: Callable
                    ) -> int:
    """Replace ``module.attr`` wherever a loaded ``repro`` module holds
    the same function object (``from x import f`` copies the binding,
    so patching the defining module alone misses those callers).
    Returns the number of bindings replaced."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = wrapper_for(original)
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                replaced += 1
    return replaced


def _wrap_method(log: SpanLog, cls: type, attr: str, name: str,
                 layer: str) -> None:
    setattr(cls, attr, _timed(log, cls.__dict__[attr], name, layer))


def install(log: SpanLog) -> Dict[str, int]:
    """Wrap every measured entry point; returns rebinding counts.

    Call once per process, before any cluster is built (handlers are
    wrapped when ``Process.on`` registers them).
    """
    import repro.avid.disperse  # noqa: F401  (bind-by-name importers)
    import repro.core.atomic  # noqa: F401
    import repro.core.atomic_md as atomic_md
    import repro.core.listeners  # noqa: F401
    import repro.kv.bench  # noqa: F401
    import repro.repair.bench  # noqa: F401
    from repro.chaos.injector import FaultInjector
    from repro.core.register import RegisterClientBase
    from repro.crypto.commitment import MerkleCommitment, VectorCommitment
    from repro.erasure.coder import ErasureCoder
    from repro.kv.mux import ShardBus, _KvMuxProcess
    from repro.kv.session import KvSession
    from repro.net.process import Process
    from repro.net.simulator import Simulator
    from repro.obs.recorder import TraceRecorder
    from repro.repair.coordinator import RepairCoordinator
    from repro.repair.protocol import RepairClient

    methods = [
        (Simulator, "enqueue", "net.enqueue", "net"),
        (Process, "receive", "net.receive", "net"),
        (_KvMuxProcess, "receive", "kv.mux.receive", "kv.mux"),
        (_KvMuxProcess, "kv_flush", "kv.mux.flush", "kv.mux"),
        (KvSession, "pump", "kv.session.pump", "kv.session"),
        (KvSession, "put", "kv.session.put", "kv.session"),
        (KvSession, "get", "kv.session.get", "kv.session"),
        (KvSession, "retry_pending", "kv.session.retry", "kv.session"),
        (RegisterClientBase, "invoke_write", "core.invoke", "core"),
        (RegisterClientBase, "invoke_read", "core.invoke_read", "core"),
        (atomic_md.AtomicMdClient, "invoke_validate", "core.invoke",
         "core"),
        (RepairClient, "invoke_repair", "repair.invoke", "repair"),
        (ErasureCoder, "encode", "erasure.encode", "erasure"),
        (ErasureCoder, "decode", "erasure.decode", "erasure"),
        (VectorCommitment, "commit", "crypto.commit", "crypto"),
        (VectorCommitment, "verify", "crypto.verify", "crypto"),
        (MerkleCommitment, "commit", "crypto.commit", "crypto"),
        (MerkleCommitment, "verify", "crypto.verify", "crypto"),
        (RepairCoordinator, "pump", "repair.pump", "repair"),
        (RepairCoordinator, "retry_pending", "repair.retry", "repair"),
        (FaultInjector, "intercept_enqueue", "chaos.intercept", "chaos"),
        (FaultInjector, "before_choose", "chaos.release", "chaos"),
    ]
    for hook in ("on_send", "on_deliver", "on_input", "on_output",
                 "on_quorum", "on_verify_fail"):
        methods.append((TraceRecorder, hook, "obs.record", "obs"))
    for cls, attr, name, layer in methods:
        _wrap_method(log, cls, attr, name, layer)

    step = Simulator.step

    @functools.wraps(step)
    def counted_step(self):
        delivered = step(self)
        if delivered:
            log.count("net.deliveries")
        return delivered

    Simulator.step = _timed(log, counted_step, "net.step", "net")

    bus_enqueue = ShardBus.enqueue
    block_fetch = atomic_md.MSG_GET_BLOCK

    @functools.wraps(bus_enqueue)
    def counted_enqueue(self, sender, recipient, tag, mtype, *rest,
                        **kwargs):
        log.count("core.inner_messages")
        if mtype == block_fetch:
            # repair rounds fetch blocks too; keep them out of the reads'
            log.count("repair.block_fetches"
                      if isinstance(self.inner, RepairClient)
                      else "core.block_fetches")
        return bus_enqueue(self, sender, recipient, tag, mtype, *rest,
                           **kwargs)

    ShardBus.enqueue = _timed(log, counted_enqueue, "kv.mux.enqueue",
                              "kv.mux")

    note_failure = Process.note_verification_failure

    @functools.wraps(note_failure)
    def counted_failure(self, *args, **kwargs):
        log.count("core.verify_failures")
        return note_failure(self, *args, **kwargs)

    Process.note_verification_failure = counted_failure

    register = Process.on

    @functools.wraps(register)
    def traced_on(self, mtype, handler):
        layer = layer_of_module(_handler_module(handler))
        name = f"{layer}.handler"
        timed = _timed(log, handler, name, layer)

        def dispatch(message):
            result = timed(message)
            if type(result) is GeneratorType:
                return _timed_generator(log, result, f"{layer}.thread",
                                        layer)
            return result

        return register(self, mtype, dispatch)

    Process.on = traced_on

    start_thread = Process.start_thread

    @functools.wraps(start_thread)
    def traced_start(self, generator):
        frame = generator.gi_frame
        module = None if frame is None else frame.f_globals.get("__name__")
        layer = layer_of_module(module)
        return start_thread(self, _timed_generator(
            log, generator, f"{layer}.thread", layer))

    Process.start_thread = traced_start

    return {
        "encoded_size": rebind_function(
            "repro.common.serialization", "encoded_size",
            lambda fn: _timed(log, fn, "serialization.encoded_size",
                              "serialization")),
        "content_wire_size": rebind_function(
            "repro.net.message", "content_wire_size",
            lambda fn: _timed(log, fn, "serialization.content_wire_size",
                              "serialization")),
        "build_spans": rebind_function(
            "repro.obs.spans", "build_spans",
            lambda fn: _timed(log, fn, "obs.spans", "obs")),
        "plane_traffic": rebind_function(
            "repro.obs.planes", "plane_traffic",
            lambda fn: _timed(log, fn, "obs.planes", "obs")),
        "operation_plane_traffic": rebind_function(
            "repro.obs.planes", "operation_plane_traffic",
            lambda fn: _timed(log, fn, "obs.planes", "obs")),
    }


_SIZE_SPANS = ("serialization.encoded_size",
               "serialization.content_wire_size")


def layer_times(spans: Iterable[List[Any]], window_s: float
                ) -> Dict[str, Any]:
    """Reduce spans to per-layer self time and per-name totals.

    Returns ``self_by_layer`` (including ``unattributed``, the window
    time outside every top-level span), ``self_by_name``,
    ``inclusive_by_name`` and ``calls_by_name``, plus the serialization
    figures that need the span tree: outermost size calls and their
    inclusive time, and ``content_wire_size`` calls that never reached
    ``encoded_size`` (memo hits).
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    encoded_child = [False] * len(spans)
    top_level = 0.0
    for span in spans:
        duration = span[END] - span[START]
        parent = span[PARENT]
        if parent < 0:
            top_level += duration
        else:
            covered[parent] += duration
            if span[NAME] == "serialization.encoded_size":
                encoded_child[parent] = True
    self_by_layer: Dict[str, float] = {}
    self_by_name: Dict[str, float] = {}
    inclusive_by_name: Dict[str, float] = {}
    calls_by_name: Dict[str, int] = {}
    size_calls = 0
    size_s = 0.0
    wire_size_calls = 0
    wire_size_hits = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        own = duration - covered[index]
        layer = span[LAYER]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        inclusive_by_name[name] = inclusive_by_name.get(name, 0.0) \
            + duration
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        if name in _SIZE_SPANS:
            parent = span[PARENT]
            if parent < 0 or spans[parent][NAME] not in _SIZE_SPANS:
                size_calls += 1
                size_s += duration
            if name == "serialization.content_wire_size":
                wire_size_calls += 1
                if not encoded_child[index]:
                    wire_size_hits += 1
    self_by_layer["unattributed"] = window_s - top_level
    return {
        "self_by_layer": self_by_layer,
        "self_by_name": self_by_name,
        "inclusive_by_name": inclusive_by_name,
        "calls_by_name": calls_by_name,
        "size_calls": size_calls,
        "size_s": size_s,
        "wire_size_calls": wire_size_calls,
        "wire_size_hits": wire_size_hits,
    }
