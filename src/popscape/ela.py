"""Hand-crafted landscape features.

Five cheap feature groups (fitness-distance correlation, dispersion,
information content, nearest-better clustering, objective distribution) form
the in-run baseline fed to meta-policies.  Three additional groups
(meta-model fits, level-set classification, principal components) consume no
extra function evaluations but are heavier; they are only used offline, in
the full-suite extractor for timing and correlation studies.

Features that are undefined for a sample (zero variance, duplicate points)
are reported as ``None`` rather than NaN; consumers impute or skip
explicitly.  All functions are deterministic in (X, y): the information
content tour is the nearest-neighbor tour from the best sample, not a random
walk.  The last bits of the offline ``mm_quad_*`` and ``pca_expl_*``
features follow the BLAS library's thread count: the least-squares fits,
covariances and eigenvalues behind them may split their sums by thread.
Pin the count (e.g. ``OPENBLAS_NUM_THREADS=1``) to compare them across
machines or runs.

The groups that need pairwise distances take the sample's distance matrix
as an optional keyword ``D``; `ela_features` builds it once and passes it
to each, and a group called on its own builds its own.  D is the only
m x m float array a suite call holds: the distance build, the objective
gaps and the nearest-better search run in row blocks of at most
`ROW_BLOCK_BYTES`, and the upper triangle is read through one boolean
mask.  No group writes into a D it is given.

`full_suite_features` runs on the CPUs the process may use (its affinity
set, `cpu_workers`), on two fixed lists: with more than one, a thread
started inside the call computes level sets and then information content,
whose arrays are all small, while the calling thread computes the other six
groups from the same D; with one, the calling thread computes all eight.
The thread is joined before the call returns, and the output is the same
bit for bit as on one CPU.  `ela_features`, the in-run baseline, always
runs on the calling thread.  BLAS threads are left to the environment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .analyzer import Observation
from .utils import cpu_workers, csv_text, run_split

Feature = Optional[float]

DEFAULT_QUANTILES = (0.02, 0.05, 0.1, 0.25)

# {0} plus a logarithmic grid, applied to min-max normalized objective slopes.
IC_EPS_GRID = (0.0, *np.logspace(-5, 5, 15))

DEFAULT_BOUNDS = (-5.0, 5.0)


# Most bytes of an (rows, m) float64 temporary that a row-block loop over an
# m x m matrix holds; every such loop is exact, so its bits do not depend on
# this.
ROW_BLOCK_BYTES = 1 << 20


def _row_blocks(m: int) -> list[slice]:
    """Row slices of an m x m float64 array, each at most `ROW_BLOCK_BYTES`;
    one slice when a single block covers m."""
    rows = max(1, ROW_BLOCK_BYTES // (8 * m))
    if rows >= m:
        return [slice(None)]
    return [slice(i, i + rows) for i in range(0, m, rows)]


def _upper_triangle(m: int) -> np.ndarray:
    """(m, m) bool mask of the strict upper triangle; indexing with it
    gathers in `np.triu_indices(m, 1)` order."""
    return ~np.tri(m, dtype=bool)


def _pairwise_distances(X: np.ndarray) -> np.ndarray:
    # sqrt(max(fl(sq_i + sq_j) - 2 x_i.x_j, 0)), operation for operation, built
    # in place in the one m x m array: scaling by -2 is exact, and adding
    # -2g to a sum rounds as subtracting 2g from it
    sq = np.sum(X * X, axis=1)
    D = X @ X.T
    D *= -2.0
    for s in _row_blocks(X.shape[0]):
        rows = D[s]
        rows += sq[s, None] + sq[None, :]
    np.maximum(D, 0.0, out=D)
    return np.sqrt(D, out=D)


def _upper_gaps(y: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``|y_i - y_j|`` over the upper triangle, in its gather order, built
    in row blocks."""
    m = y.shape[0]
    out = np.empty(m * (m - 1) // 2)
    start = 0
    for s in _row_blocks(m):
        gaps = (y[s, None] - y[None, :])[upper[s]]
        np.abs(gaps, out=out[start : start + gaps.size])
        start += gaps.size
    return out


def _pearson(a: np.ndarray, b: np.ndarray) -> Feature:
    a = a - a.mean()
    b = b - b.mean()
    denom = math.sqrt(float(a @ a) * float(b @ b))
    if denom == 0.0:
        return None
    return float(a @ b) / denom


def _box(lb, ub, d: int) -> tuple[np.ndarray, np.ndarray]:
    lb = DEFAULT_BOUNDS[0] if lb is None else lb
    ub = DEFAULT_BOUNDS[1] if ub is None else ub
    return (
        np.broadcast_to(np.asarray(lb, dtype=float), (d,)),
        np.broadcast_to(np.asarray(ub, dtype=float), (d,)),
    )


def fdc_features(X, y, lb=None, ub=None, *, D=None) -> dict[str, Feature]:
    """Fitness-distance group: correlation of objectives with distance to the
    best sample, pairwise-distance and objective-gap statistics, and the
    best-to-centroid distance normalized by the box diagonal."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = X.shape[0]
    lb, ub = _box(lb, ub, X.shape[1])
    diagonal = float(np.linalg.norm(ub - lb))
    best = int(np.argmin(y))
    dist_to_best = np.linalg.norm(X - X[best], axis=1)
    upper = _upper_triangle(m)
    pair_dist = (_pairwise_distances(X) if D is None else D)[upper]
    dist_mean, dist_std = float(pair_dist.mean()), float(pair_dist.std())
    del pair_dist  # freed before the gaps are built
    obj_diff = _upper_gaps(y, upper)
    centroid = X.mean(axis=0)
    return {
        "fdc_correlation": _pearson(y, dist_to_best),
        "fdc_dist_mean": dist_mean,
        "fdc_dist_std": dist_std,
        "fdc_obj_diff_mean": float(obj_diff.mean()),
        "fdc_obj_diff_std": float(obj_diff.std()),
        "fdc_best_to_centroid": float(np.linalg.norm(X[best] - centroid)) / diagonal,
    }


def dispersion_features(
    X, y, quantiles: Sequence[float] = DEFAULT_QUANTILES, *, D=None
) -> dict[str, Feature]:
    """Ratio and difference of the mean pairwise distance among the best
    ceil(q*m) samples versus the whole sample, per quantile."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = X.shape[0]
    if D is None:
        D = _pairwise_distances(X)
    full_mean = float(D[_upper_triangle(m)].mean())
    order = np.argsort(y, kind="stable")
    out: dict[str, Feature] = {}
    for q in quantiles:
        k = math.ceil(q * m)
        ratio_name = f"dispersion_ratio_q{q:g}"
        diff_name = f"dispersion_diff_q{q:g}"
        if k < 2:
            out[ratio_name] = None
            out[diff_name] = None
            continue
        sub = order[:k]
        sub_mean = float(D[np.ix_(sub, sub)][_upper_triangle(k)].mean())
        out[ratio_name] = sub_mean / full_mean if full_mean > 0 else None
        out[diff_name] = sub_mean - full_mean
    return out


def nearest_neighbor_tour(X: np.ndarray, y: np.ndarray, *, D=None) -> np.ndarray:
    """Deterministic tour: start at the best sample (ties broken by index),
    repeatedly move to the nearest unvisited sample (ties by index)."""
    m = X.shape[0]
    if D is None:
        D = _pairwise_distances(X)
    tour = np.empty(m, dtype=int)
    tour[0] = int(np.argmin(y))
    # 0 for unvisited samples, inf for visited ones: D >= 0, so D + penalty
    # is D's row with every visited sample at inf
    penalty = np.zeros(m)
    penalty[tour[0]] = np.inf
    row = np.empty(m)
    for step in range(1, m):
        np.add(D[tour[step - 1]], penalty, out=row)
        tour[step] = int(np.argmin(row))
        penalty[tour[step]] = np.inf
    return tour


def _ic_entropy(symbols: np.ndarray) -> float:
    """Entropy (base 6) of ordered pairs of unequal consecutive symbols."""
    a, b = symbols[:-1], symbols[1:]
    total = a.shape[0]
    if total == 0:
        return 0.0
    h = 0.0
    for p in (-1, 0, 1):
        for q in (-1, 0, 1):
            if p == q:
                continue
            prob = float(np.sum((a == p) & (b == q))) / total
            if prob > 0:
                h -= prob * math.log(prob, 6)
    return h


def _ic_partial(symbols: np.ndarray) -> float:
    """Length of the zero-stripped, repeat-collapsed symbol sequence over n."""
    nz = symbols[symbols != 0]
    if nz.size == 0:
        return 0.0
    changes = 1 + int(np.sum(nz[1:] != nz[:-1]))
    return changes / symbols.shape[0]


def information_content(X, y, *, D=None) -> dict[str, Feature]:
    """Smoothness/ruggedness/neutrality statistics of the fitness sequence
    along the nearest-neighbor tour, under an epsilon grid."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    names = ("ic_h_max", "ic_eps_settling", "ic_m0", "ic_eps_half", "ic_neutrality")
    tour = nearest_neighbor_tour(X, y, D=D)
    steps = np.linalg.norm(np.diff(X[tour], axis=0), axis=1)
    if np.any(steps == 0):
        return {n: None for n in names}
    y_min, y_max = float(y.min()), float(y.max())
    yn = (y - y_min) / (y_max - y_min) if y_max > y_min else np.zeros_like(y)
    slopes = np.diff(yn[tour]) / steps
    h_values = []
    m_values = []
    for eps in IC_EPS_GRID:
        symbols = np.where(slopes > eps, 1, np.where(slopes < -eps, -1, 0))
        h_values.append(_ic_entropy(symbols))
        m_values.append(_ic_partial(symbols))
    symbols0 = np.where(slopes > 0, 1, np.where(slopes < 0, -1, 0))
    m0 = m_values[0]
    eps_settling: Feature = None
    for eps, h in zip(IC_EPS_GRID[1:], h_values[1:]):
        if h < 0.05:
            eps_settling = math.log10(eps)
            break
    eps_half: Feature = None
    for eps, mv in zip(reversed(IC_EPS_GRID[1:]), reversed(m_values[1:])):
        if mv >= 0.5 * m0:
            eps_half = math.log10(eps)
            break
    return {
        "ic_h_max": max(h_values),
        "ic_eps_settling": eps_settling,
        "ic_m0": m0,
        "ic_eps_half": eps_half,
        "ic_neutrality": float(np.mean(symbols0 == 0)),
    }


def nearest_better_distances(X, y, *, D=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate nearest-neighbor and nearest-better-neighbor distances.

    "Better" means strictly smaller objective, ties broken by index order.
    The entry for the best candidate is NaN in the nearest-better vector.
    A given ``D`` is only read, so other threads may read it meanwhile.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = X.shape[0]
    if D is None:
        D = _pairwise_distances(X)
    idx = np.arange(m)
    nn, nb = np.empty(m), np.empty(m)
    for s in _row_blocks(m):
        ys = y[s, None]
        # never true on the diagonal, so D's own zeros stay masked
        better = (y < ys) | ((y == ys) & (idx < idx[s, None]))
        rows = np.where(better, D[s], np.inf)
        nb[s] = rows.min(axis=1)
        np.copyto(rows, D[s])
        rows[idx[s] - idx[s][0], idx[s]] = np.inf  # the block's diagonal
        nn[s] = rows.min(axis=1)
    nb[np.isinf(nb)] = np.nan
    return nn, nb


def nbc_features(X, y, *, D=None) -> dict[str, Feature]:
    """Nearest-better clustering: nb/nn ratio statistics and the correlation
    between nearest-neighbor distance and objective rank."""
    y = np.asarray(y, dtype=float)
    nn, nb = nearest_better_distances(X, y, D=D)
    has_better = ~np.isnan(nb)
    out: dict[str, Feature] = {}
    nn_mean = float(nn.mean())
    if nn_mean == 0.0 or not np.any(has_better):
        out["nbc_ratio_mean"] = None
        out["nbc_ratio_std"] = None
    else:
        out["nbc_ratio_mean"] = float(nb[has_better].mean()) / nn_mean
        with_nn = has_better & (nn > 0)
        out["nbc_ratio_std"] = (
            float((nb[with_nn] / nn[with_nn]).std()) if np.any(with_nn) else None
        )
    ranks = np.argsort(np.argsort(y, kind="stable"), kind="stable").astype(float)
    out["nbc_nn_rank_correlation"] = _pearson(nn, ranks)
    return out


def _histogram_peaks(y: np.ndarray, bins: int = 10) -> int:
    """Local maxima of a fixed-bandwidth histogram of y (plateaus collapse)."""
    lo, hi = float(y.min()), float(y.max())
    if hi == lo:
        return 1
    counts, _ = np.histogram(y, bins=bins, range=(lo, hi))
    padded = np.concatenate([[0], counts, [0]])
    peaks = 0
    i = 1
    while i < len(padded) - 1:
        j = i
        while j + 1 < len(padded) - 1 and padded[j + 1] == padded[i]:
            j += 1
        if padded[i] > 0 and padded[i - 1] < padded[i] and padded[j + 1] < padded[i]:
            peaks += 1
        i = j + 1
    return peaks


def distribution_features(y) -> dict[str, Feature]:
    """Sample skewness, excess kurtosis, and histogram peak count."""
    y = np.asarray(y, dtype=float)
    centered = y - y.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        skew: Feature = None
        kurt: Feature = None
    else:
        skew = float(np.mean(centered**3)) / m2**1.5
        kurt = float(np.mean(centered**4)) / m2**2 - 3.0
    return {
        "distr_skewness": skew,
        "distr_kurtosis": kurt,
        "distr_peak_count": float(_histogram_peaks(y)),
    }


def ela_features(X, y, lb=None, ub=None) -> dict[str, Feature]:
    """The in-run baseline: concatenation of the five cheap groups, which
    share one distance matrix."""
    X = np.asarray(X, dtype=float)
    out: dict[str, Feature] = {}
    for group in _cheap_groups(X, y, lb, ub, _pairwise_distances(X)).values():
        out.update(group())
    return out


def _cheap_groups(X, y, lb, ub, D) -> dict[str, Callable[[], dict]]:
    """The in-run groups, name: call, in feature-vector order; all read D."""
    return {
        "fdc": lambda: fdc_features(X, y, lb, ub, D=D),
        "dispersion": lambda: dispersion_features(X, y, D=D),
        "information_content": lambda: information_content(X, y, D=D),
        "nbc": lambda: nbc_features(X, y, D=D),
        "distribution": lambda: distribution_features(y),
    }


ELA_FEATURE_NAMES: tuple[str, ...] = tuple(
    ela_features(np.eye(3) * np.arange(3)[:, None] - 1.0, np.arange(3.0), -5.0, 5.0)
)


def impute_missing(features: dict[str, Feature], names: Sequence[str]) -> np.ndarray:
    """Fixed-width vector with missing markers imputed as 0."""
    return np.array(
        [0.0 if features[n] is None else float(features[n]) for n in names]
    )


# --- offline-only groups (no extra function evaluations, but heavier) -------


def _design_with_interactions(X: np.ndarray) -> np.ndarray:
    """[1 | X | x_i x_j for i <= j], filled column block by column block
    into the one (C-contiguous) design."""
    m, d = X.shape
    design = np.empty((m, 1 + d + d * (d + 1) // 2))
    design[:, 0] = 1.0
    design[:, 1 : 1 + d] = X
    col = 1 + d
    for i in range(d):
        np.multiply(X[:, i : i + 1], X[:, i:], out=design[:, col : col + d - i])
        col += d - i
    return design


def _r_squared(y: np.ndarray, residuals: np.ndarray) -> Feature:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return None
    return 1.0 - float(np.sum(residuals**2)) / ss_tot


def meta_model_features(X, y) -> dict[str, Feature]:
    """Goodness-of-fit statistics of linear and quadratic surrogate models."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m, d = X.shape
    lin_design = np.concatenate([np.ones((m, 1)), X], axis=1)
    lin_coef, *_ = np.linalg.lstsq(lin_design, y, rcond=None)
    lin_r2 = _r_squared(y, y - lin_design @ lin_coef)
    slopes = np.abs(lin_coef[1:])
    slope_ratio = (
        float(slopes.min() / slopes.max()) if slopes.size and slopes.max() > 0 else None
    )
    quad_design = _design_with_interactions(X)
    quad_coef, *_ = np.linalg.lstsq(quad_design, y, rcond=None)
    quad_r2 = _r_squared(y, y - quad_design @ quad_coef)
    curvature = np.abs(quad_coef[1 + d :])
    curvature = curvature[curvature > 0]
    cond = float(curvature.max() / curvature.min()) if curvature.size else None

    def adjusted(r2: Feature, p: int) -> Feature:
        if r2 is None or m - p - 1 <= 0:
            return None
        return 1.0 - (1.0 - r2) * (m - 1) / (m - p - 1)

    return {
        "mm_lin_r2": lin_r2,
        "mm_lin_r2_adj": adjusted(lin_r2, d),
        "mm_lin_slope_ratio": slope_ratio,
        "mm_quad_r2": quad_r2,
        "mm_quad_r2_adj": adjusted(quad_r2, quad_design.shape[1] - 1),
        "mm_quad_cond": cond,
    }


def _gaussian_discriminants(
    X_tr: np.ndarray, labels: np.ndarray, X_te: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """LDA and QDA predictions for X_te from one set of class statistics;
    None when a class is empty."""
    d = X_tr.shape[1]
    if not (np.any(labels) and np.any(~labels)):
        return None
    def regularised(cov):  # the covariance and its log-determinant
        cov = cov + np.eye(d) * (1e-8 + 1e-6 * np.trace(cov) / d)
        return cov, np.linalg.slogdet(cov)[1]

    classes = []  # (mean, covariance, prior) of the False, then the True class
    pooled_cov = np.zeros((d, d))
    for c in (False, True):
        G = X_tr[labels == c]
        cov = np.cov(G.T, bias=True).reshape(d, d) if G.shape[0] > 1 else np.zeros((d, d))
        classes.append((G.mean(axis=0), cov, G.shape[0] / X_tr.shape[0]))
        pooled_cov += cov * G.shape[0]
    pooled_cov /= X_tr.shape[0]
    pooled = regularised(pooled_cov)  # LDA: one matrix for both classes
    predictions = []
    for lda in (True, False):
        scores = np.empty((X_te.shape[0], 2))
        for ci, (mean, cov, prior) in enumerate(classes):
            cov, logdet = pooled if lda else regularised(cov)
            diff = X_te - mean
            solved = np.linalg.solve(cov, diff.T).T
            maha = np.sum(diff * solved, axis=1)
            scores[:, ci] = -0.5 * maha - 0.5 * logdet + math.log(prior)
        predictions.append(scores[:, 1] > scores[:, 0])
    return tuple(predictions)


def level_set_features(
    X, y, quantiles: Sequence[float] = (0.1, 0.25, 0.5), folds: int = 5
) -> dict[str, Feature]:
    """Cross-validated misclassification rates of linear and quadratic
    discriminants separating below-quantile samples from the rest."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = X.shape[0]
    out: dict[str, Feature] = {}
    fold_id = np.arange(m) % folds
    for q in quantiles:
        labels = y <= np.quantile(y, q)
        rates = {"lda": [], "qda": []}
        for f in range(folds):
            te = fold_id == f
            if not np.any(te) or np.all(te):
                continue
            preds = _gaussian_discriminants(X[~te], labels[~te], X[te])
            if preds is not None:
                for kind, pred in zip(("lda", "qda"), preds):
                    rates[kind].append(float(np.mean(pred != labels[te])))
        for kind in ("lda", "qda"):
            name = f"ls_mmce_{kind}_q{q:g}"
            out[name] = float(np.mean(rates[kind])) if rates[kind] else None
        both = out[f"ls_mmce_lda_q{q:g}"], out[f"ls_mmce_qda_q{q:g}"]
        out[f"ls_ratio_q{q:g}"] = (
            both[0] / both[1] if None not in both and both[1] > 0 else None
        )
    return out


def principal_component_features(X, y) -> dict[str, Feature]:
    """Explained-variance summaries of the sample and the sample-plus-objective."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def stats(M: np.ndarray) -> tuple[Feature, Feature]:
        cov = np.cov(M.T, bias=True)
        eig = np.sort(np.linalg.eigvalsh(np.atleast_2d(cov)))[::-1]
        total = float(eig.sum())
        if total <= 0:
            return None, None
        ratio = np.cumsum(eig) / total
        n90 = int(np.searchsorted(ratio, 0.9) + 1)
        return float(eig[0] / total), n90 / eig.shape[0]

    first_x, frac_x = stats(X)
    first_xy, frac_xy = stats(np.column_stack([X, y]))
    return {
        "pca_expl_first_x": first_x,
        "pca_frac90_x": frac_x,
        "pca_expl_first_xy": first_xy,
        "pca_frac90_xy": frac_xy,
    }


def full_suite_features(X, y, lb=None, ub=None) -> dict[str, Feature]:
    """All groups, including the offline-only ones; used for the wall-time
    benchmark and correlation studies.

    The groups share one distance matrix, which they only read.  With more
    than one CPU, a thread computes level sets and then information content
    while the calling thread computes the other six (see the module notes).
    """
    groups = _suite_groups(np.asarray(X, dtype=float), y, lb, ub)
    away = ("level_set", "information_content") if cpu_workers() > 1 else ()
    lists = [[name for name in groups if name not in away], away]

    def run(names):
        return {name: groups[name]() for name in names}

    parts = run_split([functools.partial(run, names) for names in lists if names])
    done = {name: group for part in parts for name, group in part.items()}
    return {key: value for name in groups for key, value in done[name].items()}


def _suite_groups(X, y, lb, ub) -> dict[str, Callable[[], dict]]:
    """Every group, name: call, in feature-vector order: the in-run ones
    sharing one distance matrix, then the offline-only ones."""
    return {
        **_cheap_groups(X, y, lb, ub, _pairwise_distances(X)),
        "meta_model": lambda: meta_model_features(X, y),
        "level_set": lambda: level_set_features(X, y),
        "principal_component": lambda: principal_component_features(X, y),
    }


# built by calling the groups in turn, so importing this module starts no
# thread
FULL_SUITE_FEATURE_NAMES: tuple[str, ...] = tuple(
    name
    for group in _suite_groups(
        np.arange(30.0).reshape(10, 3) % 7 - 3.0, np.arange(10.0) % 4, -5.0, 5.0
    ).values()
    for name in group()
)


# --- hand-crafted optimization-state features --------------------------------


@dataclass(frozen=True)
class RunContext:
    """What an optimizer run knows at step t, for state-style extractors."""

    obs: Observation
    t: int
    horizon: int
    best_so_far: float
    prev_best: float
    worst_so_far: float
    steps_since_improvement: int

    @classmethod
    def lone(cls, obs: Observation) -> "RunContext":
        """A population seen on its own: step 1 of 2, with no history."""
        best, worst = float(obs.y.min()), float(obs.y.max())
        return cls(obs, 1, 2, best, best, worst, 0)


HANDCRAFTED_NAMES: tuple[str, ...] = (
    "budget_fraction",
    "pop_best_vs_history",
    "pop_spread",
    "mean_dist_to_best",
    "mean_pairwise_dist",
    "stagnation",
    "last_improvement",
    "centroid_to_best",
)


def handcrafted_state(ctx: RunContext) -> np.ndarray:
    """Eight bounded optimization-state features, each in [0, 1]."""
    obs = ctx.obs
    diagonal = float(np.linalg.norm(obs.ub - obs.lb))
    y = obs.y
    y_range = float(y.max() - y.min())
    hist_range = ctx.worst_so_far - ctx.best_so_far
    best_idx = int(np.argmin(y))
    dist_to_best = np.linalg.norm(obs.X - obs.X[best_idx], axis=1)
    pair_mean = float(_pairwise_distances(obs.X)[_upper_triangle(obs.size)].mean())
    improvement = ctx.prev_best - ctx.best_so_far
    rel_improvement = (
        max(0.0, improvement) / max(abs(ctx.prev_best), 1e-12)
        if math.isfinite(ctx.prev_best)
        else 0.0
    )
    centroid = obs.X.mean(axis=0)
    horizon = max(ctx.horizon, 1)
    return np.array(
        [
            ctx.t / horizon,
            (float(y.min()) - ctx.best_so_far) / hist_range if hist_range > 0 else 0.0,
            float(((y - y.min()) / y_range).std()) if y_range > 0 else 0.0,
            float(dist_to_best.mean()) / diagonal,
            pair_mean / diagonal,
            ctx.steps_since_improvement / horizon,
            min(rel_improvement, 1.0),
            float(np.linalg.norm(centroid - obs.X[best_idx])) / diagonal,
        ]
    )


def features_to_csv(rows: Sequence[dict[str, Feature]], names: Sequence[str]) -> str:
    """CSV text with a header naming each feature; missing values as NA."""
    return csv_text(names, ([row[n] for n in names] for row in rows))
