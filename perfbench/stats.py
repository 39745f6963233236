"""Order statistics and the quality metric the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int, wanted: float = 99.0) -> float | None:
    """The percentile to report for ``count`` samples, at most ``wanted``.

    A percentile is reported only when at least ten samples lie beyond it,
    so ``wanted`` is kept when ``count`` supports it and otherwise the
    highest rung of :data:`TAIL_LADDER` that does is used; ``None`` when not
    even the median has ten samples above it.
    """
    for q in TAIL_LADDER:
        if q <= wanted and count - _rank(q, count) >= 10:
            return q
    return None


def _rank(q: float, count: int) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count`` values."""
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (a value that was observed)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(q, len(values)) - 1]


def windowed_tail(values: Sequence[float], wanted: float, window: int) -> tuple[float, int]:
    """A tail percentile that resists bursts of host noise.

    With at least two full windows of ``window`` consecutive samples, each
    window's ``wanted`` percentile is taken and their median returned (a
    partial last window joins the one before it); otherwise the
    :func:`tail_percentile` of all samples.  Returns ``(value, windows)``.
    """
    count = len(values) // window
    if count < 2:
        q = tail_percentile(len(values), wanted)
        if q is None:
            raise ValueError(f"{len(values)} samples support no tail percentile")
        return percentile(values, q), 1
    bounds = [i * window for i in range(count)] + [len(values)]
    tails = [percentile(values[a:b], wanted) for a, b in zip(bounds, bounds[1:])]
    return median(tails), count


def median(values: Sequence[float]) -> float:
    """Middle value, averaging the two middle ones for an even count."""
    return statistics.median(values)


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray, classes: Sequence[int]) -> float:
    """Unweighted mean over ``classes`` of the per-class F1 score."""
    scores = []
    for label in classes:
        tp = int(np.sum((y_pred == label) & (y_true == label)))
        fp = int(np.sum((y_pred == label) & (y_true != label)))
        fn = int(np.sum((y_pred != label) & (y_true == label)))
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return float(np.mean(scores))
