"""Span recording from outside the program.

:class:`SpanRecorder` replaces public methods of the ``repro`` layers
with class-attribute wrappers for the duration of a traced run and puts
the originals back afterwards.  A *span* wrapper records
``(name, start, end, parent)`` for every call, where ``parent`` is the
index of the innermost span open when the call began; a *count* wrapper
only counts calls.  Spans stay in memory until :meth:`drain`, which
folds them into per-name totals (inclusive and self time) and can write
them out as CSV.

Wrappers are installed before an episode is built, so bound methods the
program captures while setting up (event callbacks, periodic timers)
already refer to the wrappers.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro import Horse, Simulator
from repro.control.channel import ControlChannel
from repro.control.monitor import NetworkMonitor
from repro.flowsim import FlowLevelEngine
from repro.flowsim.fairshare import IncrementalSolver
from repro.openflow.switch import OpenFlowPipeline
from repro.pktsim import PacketLevelEngine
from repro.pktsim.queues import OutputQueue

#: (class, method, span name).  The name's prefix is the layer.
SPANS = (
    (Horse, "run", "core.run"),
    (Simulator, "run", "sim.run"),
    (FlowLevelEngine, "on_arrival", "flowsim.arrival"),
    (FlowLevelEngine, "on_completion", "flowsim.completion"),
    (FlowLevelEngine, "on_end", "flowsim.end"),
    (FlowLevelEngine, "on_reroute_sweep", "flowsim.reroute_sweep"),
    (FlowLevelEngine, "finish", "flowsim.finish"),
    (IncrementalSolver, "resolve", "fairshare.resolve"),
    (OpenFlowPipeline, "process", "openflow.process"),
    (OpenFlowPipeline, "expire", "openflow.expire"),
    (ControlChannel, "deliver_packet_in", "control.packet_in"),
    (ControlChannel, "async_packet_in", "control.packet_in"),
    (ControlChannel, "send", "control.send"),
    (NetworkMonitor, "sample_now", "control.monitor"),
    (OutputQueue, "enqueue", "pktsim.enqueue"),
    (PacketLevelEngine, "inject", "pktsim.inject"),
)

#: (class, method, counter name): calls too frequent to span.
COUNTS = (
    (Simulator, "schedule", "sim.schedule_calls"),
    (Simulator, "reschedule", "sim.reschedule_calls"),
    (Simulator, "cancel", "sim.cancel_calls"),
)

LAYERS = ("core", "sim", "flowsim", "fairshare", "openflow", "control", "pktsim")

Span = Tuple[str, float, float, int]


class SpanRecorder:
    """Installs wrappers, records spans and counts, folds them up."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        for cls, attr, name in SPANS:
            self._patch(cls, attr, self._span_wrapper(cls.__dict__[attr], name))
        for cls, attr, name in COUNTS:
            self._patch(cls, attr, self._count_wrapper(cls.__dict__[attr], name))

    def restore(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, cls: type, attr: str, wrapper) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _span_wrapper(self, original, name: str):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _count_wrapper(self, original, name: str):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def drain(self, totals: "SpanTotals", out=None) -> None:
        """Fold the recorded spans into ``totals``, optionally write them
        as CSV rows to the text stream ``out``, and forget them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            layer = name.split(".", 1)[0]
            totals.self_s[layer] = (
                totals.self_s.get(layer, 0.0) + duration - child_time[index]
            )
            totals.calls[name] += 1
            if not _inside_same_name(spans, parent, name):
                totals.inclusive_s[name] = totals.inclusive_s.get(name, 0.0) + duration
            if name == "fairshare.resolve":
                totals.resolve_us.append(duration * 1e6)
            if out is not None:
                out.write(f"{index},{name},{start:.9f},{end:.9f},{parent}\n")
        spans.clear()


def _inside_same_name(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


class SpanTotals:
    """Per-name and per-layer sums over the spans of one traced cycle."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.calls: Counter = Counter()
        self.resolve_us: List[float] = []


def open_span_file(path: str):
    """A gzip text stream with the CSV header written."""
    handle = gzip.open(path, "wt")
    handle.write("index,name,start_s,end_s,parent\n")
    return handle
