"""The benchmark's workloads: inputs from the seed, one closed-loop client, checks.

Every workload follows a fitted pipeline through the life a user gives it:
``LoCEC.fit``, then serving 64-edge ``predict_proba`` batches drawn
uniformly from the live edge set through a ``ServingSession``, with one
``apply_updates`` after every 200 batches (4 interaction deltas, plus one
new friendship edge on every other update).  The client is closed-loop:
``ServingSession`` is a synchronous in-process call, so the next request
is sent when the previous one returns.  All workloads run in one process
with the default ``RuntimeOptions``, so no worker pool is started.

* ``fit-*`` workloads fit inside the measured loop: each round fits one
  network, then serves 1,500 batches, one update and 1,500 more batches
  (queries are cheap next to a fit, so the query tail rests on several
  windows of at least 1,000 batches).
* ``serve-mixed-medium`` fits in set-up; each round is 200 batches and one
  update on one of the open sessions.

Each run sets up ``setups`` independent networks (each from
``make_workload(scale, s)`` with ``s`` drawn from ``random.Random(seed)``),
so set-up is timed several times, and rotates the rounds over the first
``NETWORKS`` of them, so a run's medians do not rest on one graph.  A fit workload's round that comes
back to a network fits it from scratch on the graph and stores the
previous visit's update left behind, which is the bit-identity check of
that update for free.
"""

from __future__ import annotations

import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from perfbench import stats
from perfbench.layers import TARGETS, span_metrics
from perfbench.spans import Tracer, patched
from repro.core import LoCEC, LoCECConfig
from repro.serve import ServingSession
from repro.synthetic import make_workload, sample_interaction_delta
from repro.synthetic.workloads import ExperimentWorkload
from repro.types import RelationType

clock = time.perf_counter


NETWORKS = 2  # networks the rounds rotate over
BATCH_SIZE = 64
DELTAS_PER_UPDATE = 4
CHECK_EVERY = 10  # every tenth served batch is compared with an uncached scoring


@dataclass(frozen=True)
class Spec:
    scale: str
    variant: str  # "xgb" or "cnn"
    fit_in_round: bool
    min_rounds: int
    batches_per_update: int
    setups: int = NETWORKS  # set-ups timed; the first ``NETWORKS`` are used

    def config(self) -> LoCECConfig:
        return LoCECConfig.locec_xgb() if self.variant == "xgb" else LoCECConfig.locec_cnn()


# ``min_rounds`` gives every run at least two p99 windows of 1,000 or more query
# batches and, on the fit workloads, a round that comes back to a network.
SPECS: dict[str, Spec] = {
    "fit-xgb-large": Spec("large", "xgb", True, min_rounds=3, batches_per_update=1500, setups=5),
    "fit-cnn-small": Spec("small", "cnn", True, min_rounds=3, batches_per_update=1500, setups=5),
    "serve-mixed-medium": Spec("medium", "xgb", False, min_rounds=10, batches_per_update=200),
}

CLASSES = [int(label) for label in RelationType.classification_targets()]
SERVED_ATOL = 1e-12
QUERY_WINDOW = 1000  # the fewest batches whose p99 has ten samples beyond it


class Client:
    """Draws one network's query batches and update deltas from its own stream."""

    def __init__(self, workload: ExperimentWorkload, rng: random.Random) -> None:
        self.graph = workload.dataset.graph
        self.num_dims = workload.dataset.interactions.num_dims
        self.nodes = list(self.graph.nodes())
        self.rng = rng
        self.refresh()

    def refresh(self) -> None:
        """Re-read the live edge set; done only after an update changes it."""
        self.pool = list(self.graph.edges())

    def batch(self, size: int) -> list:
        return self.rng.choices(self.pool, k=size)

    def update(self, num_deltas: int, structural: bool) -> tuple[list, list]:
        deltas = [
            (*self.pool[self.rng.randrange(len(self.pool))],
             sample_interaction_delta(self.num_dims, self.rng))
            for _ in range(num_deltas)
        ]
        added = []
        while structural and not added:
            u, v = self.rng.sample(self.nodes, 2)
            if not self.graph.has_edge(u, v):
                added.append((u, v))
        return added, deltas


@dataclass
class Network:
    workload: ExperimentWorkload
    client: Client
    pipeline: LoCEC | None = None
    session: ServingSession | None = None
    served_proba: np.ndarray | None = None  # test-edge rows after the last update

    @property
    def test_edges(self) -> list:
        return [item.edge for item in self.workload.test_edges]


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    fit_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)
    # test-edge truth and predictions of every pipeline after its last update
    f1_truth: list[np.ndarray] = field(default_factory=list)
    f1_pred: list[np.ndarray] = field(default_factory=list)
    communities: list[int] = field(default_factory=list)
    dirty_egos: list[int] = field(default_factory=list)
    stale_egos: list[int] = field(default_factory=list)
    refits: list[bool] = field(default_factory=list)
    rescored: list[int] = field(default_factory=list)
    served_communities: list[int] = field(default_factory=list)
    # (traced, seconds of fit/query/update/generator work) per round
    rounds: list[tuple[bool, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked_rows: int = 0
    inexact_rows: int = 0
    edges_served: int = 0
    serve_seconds: float = 0.0
    generator_seconds: float = 0.0
    work_seconds: float = 0.0


class Bench:
    """One run of one workload."""

    def __init__(self, spec: Spec, seed: int, trace: bool) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.tracer = Tracer() if trace else None
        self.tracing = False
        self.samples = Samples()
        self.networks: list[Network] = []
        self.updates = 0
        self.batches = 0
        self.last_updated: Network | None = None

    # ------------------------------------------------------------ run phases
    def run(self, seconds: float) -> None:
        if self.tracer is None:
            self.setup()
            self.rounds(0, seconds, self.spec.min_rounds)
        else:
            # Set-up fits are traced too, so every workload yields fit spans.
            with self.traced():
                self.setup()
            # Whole turns over the networks, so that traced round ``count + i``
            # repeats untraced round ``i`` on the same network.
            count = self.rounds(0, seconds / 2, len(self.networks), whole_turns=True)
            with self.traced():
                self.rounds(count, 0.0, count)
        self.final_checks()

    def setup(self) -> None:
        for index in range(self.spec.setups):
            start = clock()
            workload = make_workload(self.spec.scale, seed=self.rng.randrange(2**31))
            net = Network(workload, Client(workload, random.Random(self.rng.randrange(2**31))))
            if not self.spec.fit_in_round:
                assert self.spec.setups == NETWORKS
                net.pipeline, fit_seconds = self.fit_once(net)
                net.session = ServingSession(net.pipeline)
            self.samples.setup_s.append(clock() - start)
            if net.pipeline is not None:
                self.samples.fit_s.append(fit_seconds)
                if not valid_rows(net.pipeline.predict_edge_proba(net.test_edges)):
                    raise RuntimeError("set-up fit gave invalid test-edge probabilities")
            if index < NETWORKS:
                self.networks.append(net)

    def rounds(
        self, first: int, seconds: float, minimum: int, whole_turns: bool = False
    ) -> int:
        """Run rounds until ``seconds`` have passed and at least ``minimum`` ran;
        returns how many ran."""
        start = clock()
        done = 0
        while (
            done < minimum
            or clock() - start < seconds
            or (whole_turns and done % len(self.networks))
        ):
            net = self.networks[(first + done) % len(self.networks)]
            before = self.samples.work_seconds
            if self.spec.fit_in_round:
                self.fit_round(net)
            else:
                self.serve_round(net)
            self.samples.rounds.append((self.tracing, self.samples.work_seconds - before))
            done += 1
        return done

    def fit_round(self, net: Network) -> None:
        self.samples.attempted += 1
        try:
            net.pipeline, seconds = self.fit_once(net)
        except Exception:
            self.fail()
            return
        self.samples.fit_s.append(seconds)
        self.samples.work_seconds += seconds
        proba = net.pipeline.predict_edge_proba(net.test_edges)
        if not valid_rows(proba):
            self.fail("fit gave invalid test-edge probabilities")
        if net.served_proba is not None and not np.array_equal(proba, net.served_proba):
            self.fail("updated pipeline differs from a fit from scratch")
        with ServingSession(net.pipeline) as session:
            net.session = session
            self.serve(net, self.spec.batches_per_update)
            self.update(net)
            self.serve(net, self.spec.batches_per_update)
        net.session = None
        net.served_proba = net.pipeline.predict_edge_proba(net.test_edges)
        self.record_predictions(net)

    def serve_round(self, net: Network) -> None:
        self.serve(net, self.spec.batches_per_update)
        self.update(net)

    # ------------------------------------------------------------ operations
    def fit_once(self, net: Network) -> tuple[LoCEC, float]:
        data = net.workload.dataset
        start = clock()
        with self.root("fit"):
            pipeline = LoCEC(self.spec.config()).fit(
                data.graph, data.features, data.interactions, net.workload.train_edges
            )
        seconds = clock() - start
        self.samples.communities.append(pipeline.division_.num_communities)
        return pipeline, seconds

    def serve(self, net: Network, count: int) -> None:
        s = self.samples
        for _ in range(count):
            start = clock()
            batch = net.client.batch(BATCH_SIZE)
            sent = clock()
            s.attempted += 1
            try:
                with self.root("query"):
                    proba = net.session.predict_proba(batch)
                labels = proba.argmax(axis=1)
            except Exception:
                self.fail()
                continue
            done = clock()
            s.query_s.append(done - sent)
            s.generator_seconds += sent - start
            s.serve_seconds += done - start
            s.work_seconds += done - start
            s.edges_served += len(labels)
            self.batches += 1
            if self.batches % CHECK_EVERY == 0:
                self.check_served(net, batch, proba)

    def update(self, net: Network) -> None:
        s = self.samples
        start = clock()
        added, deltas = net.client.update(
            DELTAS_PER_UPDATE, structural=self.updates % 2 == 0
        )
        sent = clock()
        self.updates += 1
        s.attempted += 1
        try:
            with self.root("update"):
                report = net.session.apply_updates(added_edges=added, interaction_deltas=deltas)
        except Exception:
            self.fail()
            return
        applied = clock()
        net.client.refresh()
        done = clock()
        s.update_s.append(applied - sent)
        s.generator_seconds += (sent - start) + (done - applied)
        s.serve_seconds += done - start
        s.work_seconds += done - start
        s.dirty_egos.append(report.num_dirty_egos)
        s.stale_egos.append(len(report.stale_egos))
        s.refits.append(report.classifier_refit)
        s.rescored.append(report.num_rescored_communities)
        s.served_communities.append(net.pipeline.division_.num_communities)
        self.last_updated = net
        if report.degraded:
            self.fail(f"update served stale communities for {len(report.stale_egos)} egos")

    # ---------------------------------------------------------------- checks
    def check_served(self, net: Network, batch: list, proba: np.ndarray) -> None:
        """A served batch matches an uncached scoring of the same edges.

        Rows are compared bit for bit and the inexact ones are counted.  A row
        the cache scored inside a smaller batch of misses can differ in its
        last bits, because the labeler's matrix product is not invariant to
        the number of rows; such a row fails the batch only when it moves by
        more than ``SERVED_ATOL`` or changes label (a stale cached row, scored
        before an update, moves by orders of magnitude more).
        """
        expected = net.pipeline.predict_edge_proba(batch)
        self.samples.checked_rows += len(batch)
        self.samples.inexact_rows += int(np.any(proba != expected, axis=1).sum())
        if (
            np.abs(proba - expected).max() > SERVED_ATOL
            or (proba.argmax(axis=1) != expected.argmax(axis=1)).any()
        ):
            self.fail("served batch differs from an uncached scoring")

    def final_checks(self) -> None:
        """Serve workload, after the last update: each session's F1, and the
        last-updated pipeline equals a fit from scratch (timed as a fit too)."""
        for net in self.networks:
            if net.session is not None:
                net.served_proba = net.pipeline.predict_edge_proba(net.test_edges)
                self.record_predictions(net)
                net.session.close()
        net = self.last_updated
        if net is not None and not self.spec.fit_in_round:
            scratch, seconds = self.fit_once(net)
            self.samples.fit_s.append(seconds)
            expected = scratch.predict_edge_proba(net.test_edges)
            scratch.close()
            if not np.array_equal(net.served_proba, expected):
                self.fail("updated pipeline differs from a fit from scratch")

    def record_predictions(self, net: Network) -> None:
        self.samples.f1_truth.append(
            np.array([int(item.label) for item in net.workload.test_edges])
        )
        self.samples.f1_pred.append(net.served_proba.argmax(axis=1))

    def fail(self, reason: str | None = None) -> None:
        self.samples.failed += 1
        if reason is None:
            traceback.print_exc(file=sys.stderr)
        else:
            print(f"perfbench: check failed: {reason}", file=sys.stderr)

    # --------------------------------------------------------------- tracing
    def root(self, name: str):
        return self.tracer.span(name) if self.tracing else nullcontext()

    @contextmanager
    def traced(self) -> Iterator[None]:
        with patched(self.tracer, TARGETS):
            self.tracing = True
            try:
                yield
            finally:
                self.tracing = False

    # --------------------------------------------------------------- results
    def end_to_end(self) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
        """End-to-end metrics, plus the sample counts and percentile behind them."""
        s = self.samples
        # Windows are whole serving segments, so each starts on a cache the
        # session open or an update just emptied and all hold the same mix.
        per = self.spec.batches_per_update
        window = -(-QUERY_WINDOW // per) * per
        p99, windows = stats.windowed_tail(s.query_s, 99.0, window)
        metrics = {
            "setup_s": (stats.median(s.setup_s), "s"),
            "fit_s": (stats.median(s.fit_s), "s"),
            "edge_macro_f1": (
                stats.macro_f1(np.concatenate(s.f1_truth), np.concatenate(s.f1_pred), CLASSES),
                "1",
            ),
            "query_p50_ms": (1e3 * stats.median(s.query_s), "ms"),
            "query_p99_ms": (1e3 * p99, "ms"),
            "update_p50_s": (stats.median(s.update_s), "s"),
            "serve_qps": (s.edges_served / s.serve_seconds, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        counts = {
            "setups": len(s.setup_s),
            "fits": len(s.fit_s),
            "f1_pipelines": len(s.f1_pred),
            "queries": len(s.query_s),
            "query_tail_percentile": stats.tail_percentile(min(len(s.query_s), window)),
            "query_tail_windows": windows,
            "updates": len(s.update_s),
            "edges_served": s.edges_served,
            "checked_rows": s.checked_rows,
            "inexact_rows": s.inexact_rows,
        }
        return metrics, counts

    def per_layer(self) -> dict[str, tuple[float, str]]:
        s = self.samples
        metrics = span_metrics(self.tracer.spans, BATCH_SIZE)
        updates = max(len(s.update_s), 1)
        metrics["fit.division.communities"] = (stats.median(s.communities), "count")
        metrics["update.dirty_egos"] = (sum(s.dirty_egos) / updates, "count")
        metrics["update.stale_egos"] = (sum(s.stale_egos) / updates, "count")
        metrics["update.refit_share"] = (sum(s.refits) / updates, "share")
        metrics["update.rescored_share"] = (
            sum(s.rescored) / max(sum(s.served_communities), 1),
            "share",
        )
        plain = sum(seconds for traced, seconds in s.rounds if not traced)
        traced = sum(seconds for traced, seconds in s.rounds if traced)
        metrics["trace.overhead_share"] = (traced / plain - 1.0, "share")
        metrics["serve.inexact_share"] = (s.inexact_rows / max(s.checked_rows, 1), "share")
        metrics["generator.share"] = (s.generator_seconds / s.serve_seconds, "share")
        return metrics


def valid_rows(proba: np.ndarray) -> bool:
    """Every probability row is finite and sums to one."""
    return bool(np.isfinite(proba).all() and np.allclose(proba.sum(axis=1), 1.0, atol=1e-9))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool) -> Bench:
    bench = Bench(spec, seed, trace)
    bench.run(seconds)
    return bench
