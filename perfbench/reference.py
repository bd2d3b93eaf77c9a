"""Independent references for the extraction outputs the benchmark checks.

Nothing here calls popscape code: the encoder forward unpacks the flat weight
vector by its documented layout and computes attention slice by slice with
plain numpy, and the classical features are recomputed from their
definitions with direct (not expanded) pairwise distances.  The classical
check covers the fdc, dispersion, distribution moments, nbc and principal
component groups, plus the linear meta-model R^2 when the fit is
overdetermined; the remaining features are checked for shape and
finiteness only.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-9  # ROADMAP oracle tolerance

_BLOCK = ("wq", "wk", "wv", "wo", "ln1_gain", "ln1_bias",
          "ff1_w", "ff1_b", "ff2_w", "ff2_b", "ln2_gain", "ln2_bias")


def _unpack(theta, h, f, layers):
    pos = 0

    def take(*shape):
        nonlocal pos
        n = math.prod(shape)
        out = theta[pos:pos + n].reshape(shape)
        pos += n
        return out

    w_emb = take(2, h)
    shapes = {"wq": (h, h), "wk": (h, h), "wv": (h, h), "wo": (h, h),
              "ln1_gain": (h,), "ln1_bias": (h,), "ff1_w": (h, f), "ff1_b": (f,),
              "ff2_w": (f, h), "ff2_b": (h,), "ln2_gain": (h,), "ln2_bias": (h,)}
    blocks = [
        [{name: take(*shapes[name]) for name in _BLOCK} for _stage in range(2)]
        for _layer in range(layers)
    ]
    if pos != theta.size:
        raise ValueError("weight vector does not match the documented layout")
    return w_emb, blocks


def _norm(x, gain, bias):
    mu = x.sum(axis=-1, keepdims=True) / x.shape[-1]
    c = x - mu
    var = (c * c).sum(axis=-1, keepdims=True) / x.shape[-1]
    return c / np.sqrt(var + 1e-5) * gain + bias


def _block(x, p, heads):
    """One attention block on x of shape (L, h)."""
    L, h = x.shape
    dk = h // heads
    q, k, v = x.dot(p["wq"]), x.dot(p["wk"]), x.dot(p["wv"])
    att = np.empty_like(x)
    for j in range(heads):
        cols = slice(j * dk, (j + 1) * dk)
        s = q[:, cols].dot(k[:, cols].T) * (1.0 / math.sqrt(dk))
        s = np.exp(s - s.max(axis=1)[:, None])
        att[:, cols] = (s / s.sum(axis=1)[:, None]).dot(v[:, cols])
    g = _norm(x + att.dot(p["wo"]), p["ln1_gain"], p["ln1_bias"])
    ff = np.maximum(g.dot(p["ff1_w"]) + p["ff1_b"], 0.0).dot(p["ff2_w"]) + p["ff2_b"]
    return _norm(g + ff, p["ln2_gain"], p["ln2_bias"])


def neural_population(obs, theta, hidden, heads, layers, ff_inner):
    """Pooled population feature (h,) of the encoder with flat weights theta."""
    X, y = obs.X, obs.y
    m, d = X.shape
    w_emb, blocks = _unpack(np.asarray(theta, dtype=float), hidden, ff_inner, layers)
    U = np.empty((d, m, 2))
    U[:, :, 0] = ((X - obs.lb) / (obs.ub - obs.lb)).T
    span = y.max() - y.min()
    U[:, :, 1] = 0.5 if span == 0 else (y - y.min()) / span
    t = U[..., 0:1] * w_emb[0] + U[..., 1:2] * w_emb[1]  # (d, m, h)
    pe = np.zeros((d, hidden))
    for p in range(d):
        for i in range(0, hidden, 2):
            angle = p / 10000.0 ** (i / hidden)
            pe[p, i], pe[p, i + 1] = math.sin(angle), math.cos(angle)
    for cross_solution, cross_dimension in blocks:
        t = np.stack([_block(t[j], cross_solution, heads) for j in range(d)])
        u = t.transpose(1, 0, 2) + pe
        t = np.stack([_block(u[i], cross_dimension, heads) for i in range(m)])
        t = t.transpose(1, 0, 2)
    return t.sum(axis=0).sum(axis=0) / (d * m)


# --- classical features --------------------------------------------------------


def _distances(X):
    m = X.shape[0]
    D = np.empty((m, m))
    for start in range(0, m, 100):
        diff = X[start:start + 100, None, :] - X[None, :, :]
        D[start:start + 100] = np.sqrt((diff * diff).sum(axis=2))
    return D


def _corr(a, b):
    a, b = a - a.mean(), b - b.mean()
    return float((a * b).sum() / math.sqrt((a * a).sum() * (b * b).sum()))


def _upper(D):
    return D[np.triu_indices(D.shape[0], k=1)]


def _explained(M):
    c = M - M.mean(axis=0)
    eig = np.linalg.svd(c, compute_uv=False) ** 2 / M.shape[0]
    eig = np.sort(eig)[::-1]
    share = np.cumsum(eig) / eig.sum()
    n90 = 1 + int(np.sum(share < 0.9))
    return float(eig[0] / eig.sum()), n90 / M.shape[1]


def classical_subset(obs):
    """Reference values, by feature name, for the checked subset."""
    X, y = obs.X, obs.y
    m, d = X.shape
    D = _distances(X)
    best = int(np.argmin(y))
    pairs = _upper(D)
    gaps = _upper(np.abs(y[:, None] - y[None, :]))
    diagonal = math.sqrt(float(((obs.ub - obs.lb) ** 2).sum()))
    out = {
        "fdc_correlation": _corr(y, D[best]),
        "fdc_dist_mean": float(pairs.mean()),
        "fdc_dist_std": float(pairs.std()),
        "fdc_obj_diff_mean": float(gaps.mean()),
        "fdc_obj_diff_std": float(gaps.std()),
        "fdc_best_to_centroid": math.sqrt(float(((X[best] - X.mean(axis=0)) ** 2).sum()))
        / diagonal,
    }
    order = np.argsort(y, kind="stable")
    for q in (0.02, 0.05, 0.1, 0.25):
        k = math.ceil(q * m)
        sub = _upper(D[np.ix_(order[:k], order[:k])]).mean()
        out[f"dispersion_ratio_q{q:g}"] = sub / pairs.mean()
        out[f"dispersion_diff_q{q:g}"] = sub - pairs.mean()
    c = y - y.mean()
    m2 = (c ** 2).mean()
    out["distr_skewness"] = float((c ** 3).mean() / m2 ** 1.5)
    out["distr_kurtosis"] = float((c ** 4).mean() / m2 ** 2 - 3.0)
    nn = np.where(np.eye(m, dtype=bool), np.inf, D).min(axis=1)
    rank = np.empty(m)
    rank[order] = np.arange(m)
    better = rank[None, :] < rank[:, None]  # strictly better, ties by index
    nb = np.where(better, D, np.inf).min(axis=1)
    has = np.isfinite(nb)
    out["nbc_ratio_mean"] = float(nb[has].mean() / nn.mean())
    out["nbc_ratio_std"] = float((nb[has] / nn[has]).std())
    out["nbc_nn_rank_correlation"] = _corr(nn, rank)
    out["pca_expl_first_x"], out["pca_frac90_x"] = _explained(X)
    out["pca_expl_first_xy"], out["pca_frac90_xy"] = _explained(np.column_stack([X, y]))
    if m > d + 1:
        A = np.column_stack([np.ones(m), X])
        Q, R = np.linalg.qr(A)
        resid = y - A.dot(np.linalg.solve(R, Q.T.dot(y)))
        out["mm_lin_r2"] = 1.0 - float((resid ** 2).sum()) / float((c ** 2).sum())
    return out
