"""In-memory span recorder and the patching that places spans at layer calls.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span in :attr:`Tracer.spans`, or ``-1`` for a root.  Spans stay in
memory while the benchmark runs and are written out once, at the end.

The program itself carries no tracing: :func:`patched` swaps each listed
public function for a wrapper at the place its caller looks it up (a module
global such as ``repro.core.pipeline.divide``, or a class attribute), and
puts the original back on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

RowsFn = Callable[[tuple, Any], int]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    rows: int = 0


@dataclass(frozen=True)
class Target:
    """A public function to trace: ``module`` + ``attr`` (``"f"`` or ``"Cls.m"``).

    ``rows`` maps ``(args, result)`` of a call to the amount of work it did
    (communities aggregated, model rows, edges featurized).
    """

    module: str
    attr: str
    span: str
    rows: RowsFn | None = None


class Tracer:
    """Records nested spans in call order; parents precede their children."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, rows: RowsFn | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if rows is not None:
                self.spans[index].rows = rows(args, result)
            return result

        return traced

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


@contextmanager
def patched(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Trace every target for the duration of the block.

    A target must be defined on the named owner itself (not inherited or
    missing), so a renamed or moved function fails the traced run loudly
    instead of silently dropping its layer.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner: Any = importlib.import_module(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            setattr(owner, name, tracer.wrap(original, target.span, target.rows))
            saved.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def roots(spans: Sequence[Span]) -> list[int]:
    """Index of each span's top-level ancestor (itself for a root)."""
    out: list[int] = []
    for i, span in enumerate(spans):
        out.append(i if span.parent < 0 else out[span.parent])
    return out
