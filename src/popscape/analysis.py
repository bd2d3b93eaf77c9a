"""Interpretation and efficiency studies over extracted features.

Covers principal-component projections of feature clouds, Pearson
correlation between feature families (per trajectory, then averaged), the
wall-time benchmark comparing extractors across population sizes and
dimensions, and the exploration/exploitation labeling study for a trained
DE task.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .analyzer import AnalyzerConfig, Observation, param_count
from .ela import FULL_SUITE_FEATURE_NAMES, full_suite_features, impute_missing
# Not called here; perfbench/tracing.py patches this name in this namespace.
from .ela import handcrafted_state  # noqa: F401
from .errors import ConfigError
from .metabbo import (
    EXTRACTOR_KINDS,
    ElaExtractor,
    NeuralExtractor,
    TaskSpec,
    make_instance,
    make_slot_extractor,
    meta_train,
    run_episode,
)
from .utils import csv_text, derive_seed

EXPLORATION_THRESHOLD = 0.5  # mutation strength above this labels exploration
STRONG_CORRELATION = 0.6


def label_for_strength(mutation_strength: float) -> str:
    """Exploration for strengths above the threshold, exploitation at or below."""
    return (
        "exploration" if mutation_strength > EXPLORATION_THRESHOLD else "exploitation"
    )


# --- PCA -----------------------------------------------------------------------


def pca_components(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the column-centered covariance; components are
    returned variance-descending with the largest-magnitude loading positive."""
    rows = np.asarray(rows, dtype=float)
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / rows.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if float(eigvals.sum()) <= 0.0:
        raise ConfigError("PCA needs data with nonzero variance")
    for j in range(eigvecs.shape[1]):
        k = int(np.argmax(np.abs(eigvecs[:, j])))
        if eigvecs[k, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    return eigvals, eigvecs


def pca_project(rows: np.ndarray, out_dim: int) -> np.ndarray:
    """Projection onto the top out_dim principal components."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] <= out_dim:
        raise ConfigError("PCA needs more rows than output dimensions")
    _, components = pca_components(rows)
    centered = rows - rows.mean(axis=0)
    return centered @ components[:, :out_dim]


# --- Pearson correlation ---------------------------------------------------------


@dataclass
class FeatureSeries:
    """Time-aligned feature rows with optional trajectory ids."""

    rows: np.ndarray  # (n, k)
    feature_names: tuple[str, ...]
    trajectories: Optional[np.ndarray] = None  # (n,) int ids

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.feature_names):
            raise ConfigError("feature rows do not match feature names")


@dataclass
class CorrelationMatrix:
    """Pairwise Pearson coefficients; NaN entries mark undefined cells
    (zero-variance columns), exported as NA."""

    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    entries: np.ndarray
    counts: np.ndarray  # trajectories contributing per cell


def _pearson_columns(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-by-column Pearson matrix (rows of output index A's columns)."""
    Ac = A - A.mean(axis=0)
    Bc = B - B.mean(axis=0)
    sa = np.sqrt(np.sum(Ac * Ac, axis=0))
    sb = np.sqrt(np.sum(Bc * Bc, axis=0))
    num = Ac.T @ Bc
    denom = sa[:, None] * sb[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        r = num / denom
    r[denom == 0] = np.nan
    return r


def pearson_matrix(a: FeatureSeries, b: FeatureSeries) -> CorrelationMatrix:
    """Pearson r between every column of ``a`` and every column of ``b``.

    When both series carry trajectory ids, r is computed per trajectory and
    averaged over the trajectories where it is defined.
    """
    if a.rows.shape[0] != b.rows.shape[0]:
        raise ConfigError("series must be time-aligned (equal row counts)")
    if a.trajectories is not None and b.trajectories is not None:
        if not np.array_equal(a.trajectories, b.trajectories):
            raise ConfigError("series disagree on trajectory ids")
        groups = [np.where(a.trajectories == t)[0] for t in np.unique(a.trajectories)]
    else:
        groups = [np.arange(a.rows.shape[0])]
    acc = np.zeros((a.rows.shape[1], b.rows.shape[1]))
    counts = np.zeros_like(acc, dtype=int)
    for idx in groups:
        r = _pearson_columns(a.rows[idx], b.rows[idx])
        defined = ~np.isnan(r)
        acc[defined] += r[defined]
        counts += defined
    with np.errstate(invalid="ignore"):
        entries = acc / counts
    entries[counts == 0] = np.nan
    return CorrelationMatrix(
        row_names=a.feature_names,
        col_names=b.feature_names,
        entries=entries,
        counts=counts,
    )


def correlation_to_csv(matrix: CorrelationMatrix) -> str:
    return csv_text(
        ["feature", *matrix.col_names],
        ([name, *(None if math.isnan(v) else v for v in row)]
         for name, row in zip(matrix.row_names, matrix.entries)),
    )


# --- wall-time benchmark ----------------------------------------------------------


def make_bench_extractor(
    kind: str,
    analyzer_cfg: Optional[AnalyzerConfig] = None,
    theta: Optional[np.ndarray] = None,
) -> Callable[[Observation], np.ndarray]:
    """Build the pooled-feature callable once; construction stays outside the
    timed region.  The ``ela`` kind runs the full offline suite
    (`full_suite_features`), and the ``neural`` kind without weights draws
    them from N(0, 0.2)."""
    if kind == "ela":
        return lambda obs: impute_missing(
            full_suite_features(obs.X, obs.y, obs.lb, obs.ub), FULL_SUITE_FEATURE_NAMES
        )
    if kind == "neural":
        analyzer_cfg = analyzer_cfg or AnalyzerConfig()
        if theta is None:
            rng = np.random.Generator(np.random.PCG64(0))
            theta = rng.normal(0.0, 0.2, param_count(analyzer_cfg))
    extractor = make_slot_extractor(kind, theta, analyzer_cfg)  # rejects an unknown kind
    return lambda obs: extractor.extract(obs)[1]


def random_observations(
    m: int, d: int, count: int, seed: int = 0
) -> list[Observation]:
    rng = np.random.Generator(np.random.PCG64(seed))
    obs = []
    for _ in range(count):
        X = rng.uniform(-5.0, 5.0, size=(m, d))
        y = rng.normal(0.0, 1.0, size=m)
        obs.append(Observation(X=X, y=y, lb=-5.0 * np.ones(d), ub=5.0 * np.ones(d)))
    return obs


@dataclass
class TimingResult:
    kind: str
    m: int
    d: int
    runs: int
    mean_s: float
    p50_s: float
    p95_s: float


def bench_walltime(
    extract_fn: Callable[[Observation], np.ndarray],
    observations: Sequence[Observation],
    runs: int,
) -> tuple[float, float, float]:
    """Mean/median/95th-percentile seconds per extraction.

    Only the extraction calls are timed; observation generation and
    extractor construction happen before this function."""
    if runs < 10:
        raise ConfigError("benchmark needs at least 10 runs")
    times = np.empty(runs)
    n_obs = len(observations)
    for i in range(runs):
        obs = observations[i % n_obs]
        t0 = time.perf_counter()
        extract_fn(obs)
        times[i] = time.perf_counter() - t0
    return (
        float(times.mean()),
        float(np.percentile(times, 50)),
        float(np.percentile(times, 95)),
    )


def extractor_walltime(
    kind: str,
    m: int,
    d: int,
    runs: int = 10,
    analyzer_cfg: Optional[AnalyzerConfig] = None,
    theta: Optional[np.ndarray] = None,
    seed: int = 0,
) -> TimingResult:
    """Mean/p50/p95 extraction seconds for one extractor at one (m, d) cell.

    Extractor construction and a warm-up call happen before timing starts.
    """
    fn = make_bench_extractor(kind, analyzer_cfg, theta)
    observations = random_observations(m, d, count=min(runs, 5), seed=seed)
    fn(observations[0])
    mean_s, p50, p95 = bench_walltime(fn, observations, runs)
    return TimingResult(kind=kind, m=m, d=d, runs=runs, mean_s=mean_s, p50_s=p50, p95_s=p95)


def bench_grid(
    cells: Sequence[tuple[int, int]],
    runs: int = 10,
    kinds: Sequence[str] = EXTRACTOR_KINDS,
    analyzer_cfg: Optional[AnalyzerConfig] = None,
    theta: Optional[np.ndarray] = None,
    seed: int = 0,
) -> list[TimingResult]:
    """Timing table over (m, d) cells for each extractor kind."""
    return [
        extractor_walltime(kind, m, d, runs, analyzer_cfg, theta, seed)
        for kind in kinds
        for m, d in cells
    ]


def timings_to_csv(rows: Sequence[TimingResult]) -> str:
    return csv_text(
        ["extractor", "m", "d", "runs", "mean_s", "p50_s", "p95_s"],
        ([r.kind, r.m, r.d, r.runs, r.mean_s, r.p50_s, r.p95_s] for r in rows),
    )


def timings_to_table_csv(rows: Sequence[TimingResult]) -> str:
    """Wide layout: one row per extractor, one column per (m, d) cell."""
    cells = sorted({(r.m, r.d) for r in rows})
    kinds = sorted({r.kind for r in rows})
    lookup = {(r.kind, r.m, r.d): r.mean_s for r in rows}
    return csv_text(
        ["extractor", *(f"m{m}_d{d}" for m, d in cells)],
        ([kind, *(lookup.get((kind, m, d)) for m, d in cells)] for kind in kinds),
    )


def strong_pairs(matrix: CorrelationMatrix, threshold: float = STRONG_CORRELATION):
    """Feature pairs whose averaged |r| reaches the strong-correlation mark."""
    pairs = []
    for i, row_name in enumerate(matrix.row_names):
        for j, col_name in enumerate(matrix.col_names):
            v = matrix.entries[i, j]
            if not math.isnan(v) and abs(v) >= threshold:
                pairs.append((row_name, col_name, float(v)))
    return pairs


# --- exploration/exploitation study ------------------------------------------------


@dataclass
class ExplorationStudy:
    neural: FeatureSeries
    ela: FeatureSeries
    neural_projection: np.ndarray
    ela_projection: np.ndarray
    labels: list


def exploration_study(
    task: TaskSpec,
    theta: np.ndarray,
    analyzer_cfg: AnalyzerConfig,
    function_id: int,
    runs: int,
    seed: int,
) -> ExplorationStudy:
    """Label each step of repeated DE runs as exploration (mean mutation
    factor > 0.5) or exploitation (<= 0.5), extract neural and classical
    features for every observed population, and project both clouds to 2-D.
    """
    if task.optimizer != "de":
        raise ConfigError("the exploration study needs a DE task")
    extractor = NeuralExtractor(theta, analyzer_cfg)
    classical = ElaExtractor()
    trained = meta_train(
        task, extractor, seed=derive_seed(seed, "evaluate", task.id, "metatrain")
    )
    neural_rows, ela_rows, labels, traj = [], [], [], []

    for r in range(runs):
        inst_seed = derive_seed(seed, "study-instance", function_id, r)
        ep_seed = derive_seed(seed, "study-episode", function_id, r)
        problem = make_instance(task, function_id, inst_seed)

        def record(obs, pop, cfg_summary, run_index=r):
            labels.append(label_for_strength(cfg_summary["F_mean"]))
            neural_rows.append(pop)
            ela_rows.append(classical.extract(obs)[1])
            traj.append(run_index)

        run_episode(task, extractor, trained.policy, problem, ep_seed, on_step=record)

    traj = np.asarray(traj)
    neural_series = FeatureSeries(np.asarray(neural_rows), extractor.names, trajectories=traj)
    ela_series = FeatureSeries(np.asarray(ela_rows), classical.names, trajectories=traj)
    return ExplorationStudy(
        neural=neural_series,
        ela=ela_series,
        neural_projection=pca_project(neural_series.rows, 2),
        ela_projection=pca_project(_drop_constant(ela_series.rows), 2),
        labels=labels,
    )


def _drop_constant(rows: np.ndarray) -> np.ndarray:
    """Remove zero-variance columns before projecting (flagged, imputed 0)."""
    keep = rows.std(axis=0) > 0
    return rows[:, keep] if np.any(keep) else rows


def point_cloud_csv(projection: np.ndarray, labels: Sequence[str]) -> str:
    return csv_text(["label", "pc1", "pc2"], ([label, *p] for label, p in zip(labels, projection)))
