"""Spans and counts recorded around the calls `thermosig.cli` makes into
the package's layers, from outside the package.

`Tracer.installed(cli)` swaps the names `thermosig.cli` imported for timing
wrappers and restores them on exit. Each wrapped call becomes a span
(name, start, end, parent) tagged with the current trace id, plus the counts
observed at that boundary. The per-frame `models` calls are too many for one
span each: they are aggregated as a call count and a summed duration on the
enclosing span. Spans stay in memory until `write` puts them on disk.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional


def _steps(result, bound) -> dict:
    series, _anchors = result
    return {"steps": len(series)}


def _records(result, bound) -> dict:
    return {"records": len(result)}


def _rows(result, bound) -> dict:
    return {"rows": len(result)}


def _grid(result, bound) -> dict:
    grid = bound.arguments["grid"]
    cells = grid.cells**2 * (grid.refinement_passes + 1)
    rows = len(bound.arguments["system"])
    return {
        "cells": cells,
        "cell_rows": cells * rows,
        "integrated": bool(bound.arguments["use_integrated"]),
    }


# name in thermosig.cli -> (span name, counts taken from the result and the bound arguments)
SPANNED: dict[str, tuple[str, Optional[Callable]]] = {
    "simulate": ("synth.simulate", _steps),
    "emit_csv": ("synth.emit_csv", None),
    "parse_csv": ("ingest.parse_csv", _records),
    "build_frames": ("ingest.build_frames", None),
    "assemble": ("regression.assemble", _rows),
    "integrate": ("regression.integrate", None),
    "grid_fit": ("regression.grid_fit", _grid),
    "objective": ("regression.objective", None),
}
# per-frame calls, aggregated on the enclosing span
AGGREGATED = {"load": "models", "supply": "models", "balance_target": "models"}


class Tracer:
    """In-memory span recorder. `trace_id` groups the spans of one pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.trace_id: Optional[str] = None
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "counts": {},
            "aggregates": {},
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def _spanned(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record["counts"].update(counts(result, bound))
            return result

        return wrapper

    def _aggregated(self, name: str, fn: Callable) -> Callable:
        open_spans = self._open

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                totals = open_spans[-1]["aggregates"].setdefault(name, {"calls": 0, "seconds": 0.0})
                totals["calls"] += 1
                totals["seconds"] += elapsed

        return wrapper

    @contextmanager
    def installed(self, module):
        """Swap the wrapped names in `module` for timing wrappers; restore on exit."""
        originals = {name: getattr(module, name) for name in (*SPANNED, *AGGREGATED)}
        try:
            for name, (span_name, counts) in SPANNED.items():
                setattr(module, name, self._spanned(span_name, originals[name], counts))
            for name, aggregate in AGGREGATED.items():
                setattr(module, name, self._aggregated(aggregate, originals[name]))
            yield self
        finally:
            for name, original in originals.items():
                setattr(module, name, original)

    def of_trace(self, trace_id: str) -> list[dict]:
        return [span for span in self.spans if span["trace"] == trace_id]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_totals(spans: list[dict]) -> dict:
    """Seconds and counts per layer over the spans of one pass.

    Keys are `<span name>_s` for time, `<span name>.<count>` for counts,
    `<aggregate>.calls` and `<aggregate>_s` for aggregated calls, and
    `<root name>.self_s` for each root span: its duration minus the time its
    child spans and aggregated calls cover.
    """
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    children: dict[int, float] = {}
    for span in spans:
        add(span["name"] + "_s", duration(span))
        for key, value in span["counts"].items():
            if not isinstance(value, bool):
                add(f"{span['name']}.{key}", value)
        covered = 0.0
        for name, aggregate in span["aggregates"].items():
            add(name + ".calls", aggregate["calls"])
            add(name + "_s", aggregate["seconds"])
            covered += aggregate["seconds"]
        children[span["id"]] = children.get(span["id"], 0.0) + covered
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + duration(span)
    for span in spans:
        if span["parent"] is None:
            add(span["name"] + ".self_s", duration(span) - children.get(span["id"], 0.0))
    return totals
