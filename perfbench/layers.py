"""Which public functions are traced, and the per-layer metrics their spans give.

Layers are named after the modules that own them.  Every span sits under
one of three top-level spans the benchmark opens itself:

* ``fit``    — a call to ``LoCEC.fit``;
* ``update`` — a call to ``ServingSession.apply_updates``;
* ``query``  — a call to ``ServingSession.predict_proba`` on one batch.

A per-layer time is the layer's self time (duration minus the time its
traced callees cover), summed over the traced operations of one kind and
divided by their number: seconds per fit, seconds per update,
milliseconds per query batch.  A top-level span's own self time is the
orchestration code of ``repro.core.pipeline`` (fit, update) or of
``repro.serve`` (query, i.e. the result cache).

Model-specific layers (``repro.ml.gbdt``, ``repro.ml.nn``) and the two
Phase II gathers report under one ``model.*`` / ``aggregation.gather``
name, so that every time metric is measured on every workload; which
model ran is given by the workload.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from perfbench.spans import Span, Target, roots, self_times


def _rows(args: tuple, result: object) -> int:
    return len(args[1])


def _egos(args: tuple, result) -> int:
    return result.num_egos


TARGETS: tuple[Target, ...] = (
    # Phase I.  ``divide`` is looked up as a module global by the pipeline
    # and by the re-division executor; both names are patched.
    Target("repro.core.division", "divide", "division.divide", _egos),
    Target("repro.core.pipeline", "divide", "division.divide", _egos),
    Target("repro.runtime.executor", "divide", "division.divide", _egos),
    Target("repro.runtime.executor", "ShardedDivisionExecutor.run", "division.redivide"),
    Target("repro.graph.csr", "dense_ego_net", "division.ego_net"),
    Target("repro.graph.csr", "girvan_newman_dense", "division.gn"),
    # Phase II: aggregation kernels, then the community model.
    Target(
        "repro.core.aggregation",
        "FeatureMatrixBuilder.statistic_vectors",
        "aggregation.statistic_vectors",
        _rows,
    ),
    Target(
        "repro.core.aggregation",
        "FeatureMatrixBuilder.matrices_as_tensor",
        "aggregation.tensor",
        _rows,
    ),
    Target(
        "repro.core.aggregation", "FeatureMatrixBuilder.patch_kernel", "aggregation.patch_kernel"
    ),
    Target("repro.ml.gbdt", "GradientBoostedClassifier.fit", "gbdt.fit", _rows),
    Target("repro.ml.gbdt", "GradientBoostedClassifier.predict_proba", "gbdt.score", _rows),
    Target("repro.ml.gbdt", "GradientBoostedClassifier.leaf_values", "gbdt.score"),
    Target("repro.ml.nn.network", "NeuralNetworkClassifier.fit", "commcnn.fit", _rows),
    Target(
        "repro.ml.nn.network", "NeuralNetworkClassifier.predict_proba", "commcnn.score", _rows
    ),
    # Phase III and the scoring entry point the serving cache calls on a miss.
    Target(
        "repro.core.combination",
        "EdgeFeatureBuilder.edge_features",
        "combination.edge_features",
        _rows,
    ),
    Target("repro.ml.logistic", "LogisticRegression.fit", "combination.lr_fit", _rows),
    Target(
        "repro.ml.logistic", "LogisticRegression.predict_proba", "combination.lr_predict", _rows
    ),
    Target("repro.core.pipeline", "LoCEC.predict_edge_proba", "pipeline.predict", _rows),
)

# Metric layer -> the span names it sums.
LAYERS: dict[str, tuple[str, ...]] = {
    "division.divide": ("division.divide",),
    "division.redivide": ("division.redivide",),
    "division.ego_net": ("division.ego_net",),
    "division.gn": ("division.gn",),
    "aggregation.patch_kernel": ("aggregation.patch_kernel",),
    "aggregation.gather": ("aggregation.statistic_vectors", "aggregation.tensor"),
    "model.fit": ("gbdt.fit", "commcnn.fit"),
    "model.score": ("gbdt.score", "commcnn.score"),
    "combination.edge_features": ("combination.edge_features",),
    "combination.lr_fit": ("combination.lr_fit",),
    "combination.lr_predict": ("combination.lr_predict",),
    "pipeline.predict": ("pipeline.predict",),
}

# Top-level span -> (its own self-time layer, the layers timed under it, unit, scale).
KINDS: dict[str, tuple[str, tuple[str, ...], str, float]] = {
    "fit": (
        "pipeline",
        (
            "division.divide",
            "division.ego_net",
            "division.gn",
            "aggregation.gather",
            "model.fit",
            "model.score",
            "combination.edge_features",
            "combination.lr_fit",
        ),
        "s",
        1.0,
    ),
    "update": (
        "pipeline",
        (
            "division.redivide",
            "division.divide",
            "division.ego_net",
            "division.gn",
            "aggregation.patch_kernel",
            "aggregation.gather",
            "model.fit",
            "model.score",
            "combination.edge_features",
            "combination.lr_fit",
        ),
        "s",
        1.0,
    ),
    "query": (
        "serve",
        ("pipeline.predict", "combination.edge_features", "combination.lr_predict"),
        "ms",
        1e3,
    ),
}

# Work counts per operation: (kind, metric) -> span names whose rows are summed.
COUNTS: dict[tuple[str, str], tuple[str, ...]] = {
    ("fit", "division.egos"): ("division.divide",),
    ("fit", "aggregation.rows"): LAYERS["aggregation.gather"],
    ("fit", "model.fit_rows"): ("gbdt.fit", "commcnn.fit"),
    ("fit", "model.score_rows"): ("gbdt.score", "commcnn.score"),
    ("update", "division.egos"): ("division.divide",),
    ("update", "aggregation.rows"): LAYERS["aggregation.gather"],
    ("update", "model.fit_rows"): ("gbdt.fit", "commcnn.fit"),
    ("update", "model.score_rows"): ("gbdt.score", "commcnn.score"),
    ("query", "miss_edges"): ("pipeline.predict",),
}


def span_metrics(spans: Sequence[Span], batch_size: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a trace, as ``name -> (value, unit)``."""
    own = self_times(spans)
    top = roots(spans)
    ops: dict[str, int] = defaultdict(int)
    duration: dict[str, float] = defaultdict(float)
    self_by: dict[tuple[str, str], float] = defaultdict(float)
    rows_by: dict[tuple[str, str], int] = defaultdict(int)
    for i, span in enumerate(spans):
        kind = spans[top[i]].name
        if kind not in KINDS:  # work done by the benchmark's own checks
            continue
        if i == top[i]:
            ops[kind] += 1
            duration[kind] += span.end - span.start
            self_by[(kind, KINDS[kind][0])] += own[i]
        else:
            self_by[(kind, span.name)] += own[i]
            rows_by[(kind, span.name)] += span.rows

    out: dict[str, tuple[float, str]] = {}
    for kind, (own_layer, layers, unit, scale) in KINDS.items():
        count = max(ops[kind], 1)
        out[f"{kind}.{own_layer}_{unit}"] = (scale * self_by[(kind, own_layer)] / count, unit)
        for layer in layers:
            total = sum(self_by[(kind, name)] for name in LAYERS[layer])
            out[f"{kind}.{layer}_{unit}"] = (scale * total / count, unit)
        out[f"trace.{kind}_coverage"] = (
            1.0 - self_by[(kind, own_layer)] / duration[kind] if duration[kind] else 0.0,
            "share",
        )
    for (kind, name), span_names in COUNTS.items():
        total = sum(rows_by[(kind, span)] for span in span_names)
        out[f"{kind}.{name}"] = (total / max(ops[kind], 1), "count")
    queried = batch_size * ops["query"]
    misses = sum(rows_by[("query", span)] for span in COUNTS[("query", "miss_edges")])
    out["serve.cache_hit_share"] = (1.0 - misses / queried if queried else 0.0, "share")
    return out
