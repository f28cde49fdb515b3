"""Spans recorded from outside the program, around calls into each layer.

Nothing in ``src/`` knows about this module: the traced run wraps stage
objects and public methods of the layer objects a session is built from,
records one span per call (name, start, end, parent) and aggregates
inclusive and self times per span name as the spans close.  A span's self
time is its duration minus the time its child spans cover.

Span names are ``<layer>.<what>``, with the layer named after the
``repro`` package the call goes into (``core``, ``beamforming``,
``scheduling``, ``quality``, ``transport``, ``fountain``, ``video``,
``phy``, ``emulation``).  ``core.<stage>`` spans wrap the pipeline
stages; a ``frame`` span is the root of each frame's spans.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept in memory for the span file; aggregation covers every span.
SPAN_LIMIT = 250_000

#: Public methods wrapped on the fountain block classes (class-level, for
#: the life of an :func:`instrument` block).
FOUNTAIN_METHODS = {
    "FrameBlockEncoder": (
        "symbols_per_unit", "unit_nbytes", "next_symbols", "emitted_count",
        "symbol_at",
    ),
    "FrameBlockDecoder": (
        "ingest", "unit_decoder", "received_counts", "decoded_units",
        "sublayer_masks", "assemble", "bytes_received_per_layer",
    ),
}

LINK_METHODS = (
    "delivery_probability", "delivery_probability_array",
    "delivery_probabilities",
)
DNN_METHODS = ("predict", "predict_with_input_grad")


class Tracer:
    """In-memory span recorder with running per-name aggregates."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.dropped_spans = 0
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (layer, enclosing core stage) -> self seconds
        self.stage_self: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.stage = ""
        self._stack: List[list] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        entry = self.totals[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        self.stage_self[(name.split(".", 1)[0], self.stage)] += duration - child
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(
                (span_id, parent[0] if parent else None, name, start, end)
            )
        else:
            self.dropped_spans += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    # ------------------------------------------------------------ reading

    def calls(self, name: str) -> float:
        return self.totals[name][0] if name in self.totals else 0

    def inclusive_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def layer_self_s(self, layer: str, stage: Optional[str] = None) -> float:
        return sum(
            seconds for (lay, stg), seconds in self.stage_self.items()
            if lay == layer and (stage is None or stg == stage)
        )

    def table(self) -> str:
        """Per-span-name calls, inclusive and self milliseconds."""
        rows = sorted(self.totals.items(), key=lambda item: -item[1][2])
        lines = [f"{'span':44s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s}"]
        for name, (calls, incl, self_time) in rows:
            lines.append(
                f"{name:44s} {int(calls):9d} {incl * 1e3:11.1f} "
                f"{self_time * 1e3:11.1f}"
            )
        return "\n".join(lines)

    def write_spans(self, path: Path) -> Path:
        """One JSON object per span: id, parent, name, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")
            if self.dropped_spans:
                out.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")
        return path


class _TracedStage:
    """A pipeline stage wrapped in a ``core.<name>`` span.

    After each stage it reads the per-frame counts the layers leave on the
    frame context (replans, packets, feedback rounds, cohort use, repair).
    """

    def __init__(self, stage, tracer: Tracer) -> None:
        self.stage = stage
        self.name = stage.name
        self.tracer = tracer
        self.span_name = f"core.{stage.name}"

    def run(self, ctx, session) -> None:
        tracer = self.tracer
        previous = session.state.allocation
        tracer.stage = self.span_name
        try:
            with tracer.span(self.span_name):
                self.stage.run(ctx, session)
        finally:
            tracer.stage = ""
        if self.name == "plan":
            if session.state.allocation is not previous:
                tracer.counts["replans"] += 1
            if ctx.repair_plans is not None:
                tracer.counts["repair_users"] += len(ctx.repair_plans)
        elif self.name == "transmit":
            _count_transmission(tracer, ctx.result)


def _count_transmission(tracer: Tracer, result) -> None:
    tracer.counts["packets_sent"] += result.packets_sent
    tracer.counts["feedback_rounds"] += result.feedback_rounds_used
    cohort = result.cohort
    if cohort is None:
        tracer.counts["scalar_frames"] += 1
        received = sum(r.packets_received for r in result.receptions.values())
        lost = sum(r.packets_lost for r in result.receptions.values())
    else:
        received = int(cohort.packets_received.sum())
        lost = int(cohort.packets_lost.sum())
    tracer.counts["packets_received"] += received
    tracer.counts["packets_lost"] += lost


_MISSING = object()


def _patch(obj, attr: str, tracer: Tracer, name: str, undo: list) -> None:
    original = getattr(obj, attr)
    undo.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
    setattr(obj, attr, tracer.wrap(name, original))


def _restore(undo: list) -> None:
    for obj, attr, previous in reversed(undo):
        if previous is _MISSING:
            delattr(obj, attr)
        else:
            setattr(obj, attr, previous)


def _count_mask_hits(tracer: Tracer, probe, measure: Callable) -> Callable:
    """Wrap ``probe.measure_masks``; a call that grows the probe's mask
    cache was a miss, any other call a hit."""
    cache = probe._mask_cache

    @functools.wraps(measure)
    def counted(masks):
        before = len(cache)
        result = measure(masks)
        tracer.counts["mask_calls"] += 1
        if len(cache) <= before:
            tracer.counts["mask_hits"] += 1
        return result

    return counted


@contextmanager
def instrument(tracer: Tracer, ctx) -> Iterator[None]:
    """Wrap the context-wide layer objects for the length of the block.

    Covers the DNN quality model, every reference-frame probe, the
    scenario's trace recorder and the fountain block classes.  Per-session
    objects are wrapped by :func:`instrument_session`.
    """
    from repro.fountain import block

    undo: list = []
    try:
        for method in DNN_METHODS:
            _patch(ctx.dnn, method, tracer, "quality.dnn", undo)
        for probe in ctx.probes:
            undo.append((probe, "measure_masks", _MISSING))
            probe.measure_masks = tracer.wrap(
                "video.measure_masks",
                _count_mask_hits(tracer, probe, probe.measure_masks),
            )
        _patch(ctx.scenario, "static_trace", tracer, "phy.trace", undo)
        for cls_name, methods in FOUNTAIN_METHODS.items():
            cls = getattr(block, cls_name)
            for method in methods:
                _patch(cls, method, tracer,
                       f"fountain.{cls_name}.{method}", undo)
        yield
    finally:
        _restore(undo)


def instrument_session(tracer: Tracer, session) -> None:
    """Wrap one session's stages and its streamer's layer objects.

    The session and streamer are built per pass, so the wrappers die with
    them; an untraced pass simply builds unwrapped ones.
    """
    streamer = session.streamer
    planner = streamer.planner
    planner.plan_group = tracer.wrap(
        "beamforming.plan_group", planner.plan_group)
    planner.plan_groups = tracer.wrap(
        "beamforming.plan_groups", planner.plan_groups)
    enumerate_groups = tracer.wrap(
        "scheduling.enumerate", streamer.enumerator.enumerate)

    def counted_enumerate(state, user_ids):
        groups = enumerate_groups(state, user_ids)
        tracer.counts["groups_kept"] += len(groups)
        return groups

    streamer.enumerator.enumerate = counted_enumerate
    streamer.optimizer.optimize = tracer.wrap(
        "scheduling.optimize", streamer.optimizer.optimize)
    link = streamer.transmitter.link
    for method in LINK_METHODS:
        setattr(link, method,
                tracer.wrap(f"transport.link.{method}", getattr(link, method)))
    session.stages = [_TracedStage(stage, tracer) for stage in session.stages]
