"""Spans recorded from outside the program, by wrapping public functions.

Each wrapped call records (id, parent, trace, name, start, end, count) in
memory; ``count`` is an optional size taken from the return value (events
of a simulation, cells of a sweep). Spans are written out once, at the end
of a run. Self time is a span's duration minus the time its direct children
cover; calls are sequential, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

# (module, attribute, span name, size of the return value)
WRAPPED: tuple[tuple[str, str, str, Optional[Callable[[Any], int]]], ...] = (
    ("bcconf.cli", "main", "cli.main", None),
    ("bcconf.cli", "load_scenario", "model.load_scenario", None),
    ("bcconf.metrics", "utility", "metrics.utility", None),
    ("bcconf.optimizer", "solve_greedy", "optimizer.solve_greedy", None),
    ("bcconf.optimizer", "solve_exhaustive", "optimizer.solve_exhaustive", None),
    ("bcconf.optimizer", "scan_unimodality", "optimizer.scan_unimodality", None),
    ("bcconf.dpos_sim", "run", "dpos_sim.run", lambda report: len(report.events)),
    ("bcconf.dpos_sim", "events_to_csv", "dpos_sim.events_to_csv", None),
    ("bcconf.dpos_sim", "events_to_ndjson", "dpos_sim.events_to_ndjson", None),
    ("bcconf.dpos_sim", "sweep_sim", "dpos_sim.sweep_sim", lambda report: len(report.cells)),
)

# The layer a span name belongs to is the prefix before the first dot.
LAYERS = ("model", "metrics", "optimizer", "dpos_sim", "cli")


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    trace: int
    name: str
    start: float
    end: float = 0.0
    count: Optional[int] = None


class Tracer:
    """Wraps the functions in ``WRAPPED`` while installed and keeps their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._trace = 0

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1].id if self._stack else None,
            trace=self._trace,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def op(self, name: str, call: Callable[[], Any]) -> Any:
        """Run one benchmark op as the root span of a new trace."""
        self._trace += 1
        span = self._open(f"op.{name}")
        try:
            return call()
        finally:
            self._close(span)

    def _wrap(self, func: Callable, name: str, size: Optional[Callable[[Any], int]]) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if size is not None:
                try:
                    span.count = size(result)
                except (AttributeError, TypeError):
                    span.count = None
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in ``WRAPPED`` that exists; record the rest as absent."""
        self.absent = []
        for module_name, attr, name, size in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                func = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._originals.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name, size))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._originals):
            setattr(module, attr, func)
        self._originals.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({key: getattr(s, key) for key in Span.__slots__}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def by_name(spans: list[Span]) -> dict[str, list[Span]]:
    groups: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)
    return groups
