"""Attention-based population encoder.

Turns one optimization step's population (positions X, objectives y) into
an h-dimensional feature vector per candidate plus a pooled population
feature.  The pipeline is:

1. min-max normalization of positions (against the search box) and of
   objectives (against the step's extrema), giving a d x m x 2 tensor;
2. linear embedding to d x m x h;
3. per-dimension self-attention across candidates, transpose, sinusoidal
   positional encoding over dimensions, per-candidate self-attention across
   dimensions (repeated for stacked layers);
4. mean pooling over dimensions (per-candidate features) and over
   candidates (population feature).

Each attention block runs over its batch of slices in chunks that hold at
most `EXACT_BLOCK_BYTES` of attention scores (a single larger slice runs
alone), so each chunk's scores stay near cache size at large m and d
without changing a single output bit.  The forward runs in
its (d, m, h) embedding as its one activation buffer: each chunk's output
is written over that chunk's slices once its feed-forward is done, the
cross-dimension stage reads and writes its candidate slices through the
buffer's (m, d, h) transposed view and adds the positional encoding to
them in place, and pooling reads the buffer.  Its peak memory is that
buffer plus one chunk's scores and temporaries.

Layer 0's cross-solution stage has a rank-2 path.  Its input is
``U @ w_emb`` for the 2-channel tensor U = `pie_normalize(obs)`, so its
queries, keys and values are linear in U: per head the scores are
``U A U^T`` with one 2x2 matrix A, and the attention output is
``softmax(scores) U`` times one 2 x h value map.  Both products then run at
inner width 2.  Each score is ``w . u`` with u in [0, 1]^2, so about the
centre c of the slice's bounding box ``exp(w . u) = exp(w . c) exp(w . (u -
c))``; the first factor cancels in the softmax, and the second is expanded
as a truncated Taylor series, the multipole idea of the fast Gauss transform
(Greengard & Strain 1991; Yang, Duraiswami & Gumerov 2003).  The degree is
the smallest that bounds the relative error of each score's ``exp`` by
`TAYLOR_TOL`, and the sums over keys come first, so a (slice, head) costs O(L p^2) instead of
O(L^2) and holds no L x L array.  A (slice, head) whose weights are too
large for a cheap, accurate expansion runs in tiles of query rows holding at
most `RANK2_TILE_BYTES` of scores: one score gemm per tile, each row shifted
by a lower bound on its max found before the tiles, the row sums riding in
the ``softmax U`` gemm, and rows whose ``exp`` overflowed redone with their
exact max.
`PopulationEncoder.features` passes U, and the path runs only past the
rank-2 gate `SCORE_BLOCK_BYTES`: more than one slice, holding more than
that many scores in all (heads * d * m^2 * 8 bytes), e.g. m >= 324 at
d = 10 with one head.  Every smaller forward, training-size ones included,
is bit-identical to the exact path.  Larger ones agree with it to about
1e-15 but not bit for bit, so a training config past the gate writes a
`history.csv` that can differ from the exact path's: first in the last
bits, then by more once a flipped comparison changes the rest of an
episode.
`ts_attn_forward(E, net)` without U always takes the exact path.

The forward pass is a pure function of the flat weight vector and the
observation; there is no randomness and no autodiff.  All weights live in a
flat vector with a fixed, documented layout so that evolution strategies
can optimize them directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import CodecError, ConfigError, IntegrityError
from .utils import f8_from_b64, f8_to_b64, layout_size, read_sealed, unpack, write_sealed

LN_EPS = 1e-5

# Most float64 attention-score bytes (slices x heads x L x L) one exact
# `attn_block` chunk holds; a single slice larger than this runs alone, and
# rank-2 chunks take the same slice counts.  Chunks are bit-identical
# however they are cut, so this sets only memory.
EXACT_BLOCK_BYTES = 1 << 20

# The rank-2 gate: layer 0's cross-solution stage takes the rank-2 path iff
# its slices' scores exceed this many bytes and it has more than one slice.
# Not a chunk size: lowering it moves forwards onto the rank-2 path, which
# changes their bits.
SCORE_BLOCK_BYTES = 8 << 20

# Most float64 score bytes one query-row tile of the rank-2 core holds
# (131 rows at m = 1000), so each tile's passes stay in cache.
RANK2_TILE_BYTES = 1 << 20

# Relative error the rank-2 core's truncated-Taylor path allows in each
# score's exp, far below float64 rounding.
TAYLOR_TOL = 2.0**-60

# Largest rho the Taylor path takes.  Its terms reach e^rho against values
# as small as e^-rho, so its rounding grows like eps * e^(2 rho): 1.2e-14
# at 2.
TAYLOR_MAX_RHO = 2.0

# (2, 16): unit vectors at multiples of 22.5 degrees.  The rank-2 core
# shifts each query row by its largest score against U's extreme points
# in these directions.
_EXTREME_DIRECTIONS = np.stack(
    [np.cos(np.arange(16) * np.pi / 8), np.sin(np.arange(16) * np.pi / 8)]
)

CHECKPOINT_FORMAT = "popscape-analyzer"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class AnalyzerConfig:
    hidden_dim: int = 16
    num_heads: int = 1
    num_layers: int = 1
    ff_inner_dim: Optional[int] = None

    def __post_init__(self):
        if self.hidden_dim <= 0 or self.num_heads <= 0 or self.num_layers <= 0:
            raise ConfigError("analyzer dimensions must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.hidden_dim % 2 != 0:
            raise ConfigError("hidden_dim must be even for sin/cos positional encoding")
        if self.ff_inner_dim is None:
            object.__setattr__(self, "ff_inner_dim", self.hidden_dim)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AnalyzerConfig":
        return cls(**d)


@dataclass(frozen=True)
class Observation:
    """One step's population: positions, objectives, and search bounds."""

    X: np.ndarray  # (m, d)
    y: np.ndarray  # (m,)
    lb: np.ndarray  # (d,)
    ub: np.ndarray  # (d,)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        d = X.shape[1]
        lb = np.broadcast_to(np.asarray(self.lb, dtype=float), (d,)).copy()
        ub = np.broadcast_to(np.asarray(self.ub, dtype=float), (d,)).copy()
        if X.shape[0] < 2:
            raise ConfigError("observation needs at least 2 candidates")
        if X.shape[0] != y.shape[0]:
            raise ConfigError("X and y disagree on population size")
        if np.any(lb >= ub):
            raise ConfigError("bounds must satisfy lb < ub in every dimension")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FeatureSet:
    """Per-candidate (m x h) and pooled population (h) features."""

    per_candidate: np.ndarray
    population: np.ndarray


@dataclass(frozen=True)
class ParamVector:
    """Flat weight vector plus the (name, shape) layout it was packed with."""

    values: np.ndarray
    layout: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float).reshape(-1)
        )
        expected = layout_size(self.layout)
        if self.values.shape[0] != expected:
            raise CodecError(
                f"vector length {self.values.shape[0]} does not match layout "
                f"total {expected}"
            )


@dataclass
class AttnBlockParams:
    """One transformer block: self-attention + feed-forward, both with LayerNorm.

    Q/K/V/O projections carry no bias; the feed-forward layers do.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ff1_w: np.ndarray
    ff1_b: np.ndarray
    ff2_w: np.ndarray
    ff2_b: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class EncoderLayer:
    cross_solution: AttnBlockParams
    cross_dimension: AttnBlockParams


@dataclass
class PopulationEncoder:
    """Decoded network; immutable by convention once built."""

    config: AnalyzerConfig
    w_emb: np.ndarray
    layers: list[EncoderLayer] = field(default_factory=list)

    def features(self, obs: Observation) -> FeatureSet:
        # pop() hands the forward the only reference to U, so U is freed
        # as soon as the forward drops it.
        held = [pie_normalize(obs)]
        return ts_attn_forward(embed(held[0], self.w_emb), self, held.pop())


def pie_normalize(obs: Observation) -> np.ndarray:
    """Two min-max normalizations, reorganized as a d x m x 2 tensor.

    Channel 0 is the position normalized against the search box, channel 1
    the objective normalized against the step's extrema.  A degenerate step
    (all objectives equal) maps every objective channel to the neutral 0.5.
    """
    xn = (obs.X - obs.lb) / (obs.ub - obs.lb)  # (m, d)
    y_min, y_max = float(np.min(obs.y)), float(np.max(obs.y))
    if y_max == y_min:
        yn = np.full(obs.size, 0.5)
    else:
        yn = (obs.y - y_min) / (y_max - y_min)
    out = np.empty((obs.dimension, obs.size, 2))
    out[:, :, 0] = xn.T
    out[:, :, 1] = yn[None, :]
    return out


def embed(normalized: np.ndarray, w_emb: np.ndarray) -> np.ndarray:
    """Linear embedding (no bias): (d, m, 2) x (2, h) -> (d, m, h)."""
    return normalized @ w_emb


@functools.lru_cache(maxsize=64)
def positional_encoding(length: int, h: int) -> np.ndarray:
    """Sinusoidal encoding: PE[p, 2i] = sin(p / 10000^(2i/h)), PE[p, 2i+1] = cos.

    Cached per (length, h); the array is read-only because callers share it.
    """
    if h % 2 != 0:
        raise ConfigError("positional encoding requires an even feature width")
    pos = np.arange(length)[:, None]
    rate = 10000.0 ** (2.0 * np.arange(h // 2) / h)[None, :]
    pe = np.empty((length, h))
    pe[:, 0::2] = np.sin(pos / rate)
    pe[:, 1::2] = np.cos(pos / rate)
    pe.flags.writeable = False
    return pe


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """LayerNorm over the last axis.

    The same float operations, in the same order, as
    ``(x - x.mean(-1)) / np.sqrt(x.var(-1) + LN_EPS) * gain + bias``, so the
    result is bit-identical to that expression; the centred values are
    computed once and the tail runs in place.
    """
    h = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / h
    scale = np.add.reduce(centred * centred, axis=-1, keepdims=True) / h
    scale += LN_EPS
    np.sqrt(scale, out=scale)
    centred /= scale
    centred *= gain
    centred += bias
    return centred


def self_attention(x: np.ndarray, p: AttnBlockParams, num_heads: int) -> np.ndarray:
    """Multi-head self-attention over the second-to-last axis; batched."""
    *batch, L, h = x.shape
    dk = h // num_heads

    def heads(t):
        return t.reshape(*batch, L, num_heads, dk).swapaxes(-3, -2)

    q, k, v = heads(x @ p.wq), heads(x @ p.wk), heads(x @ p.wv)
    scores = q @ k.swapaxes(-1, -2)
    scores /= np.sqrt(dk)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    out = (scores @ v).swapaxes(-3, -2).reshape(*batch, L, h)
    return out @ p.wo


def attn_block(
    x: np.ndarray,
    p: AttnBlockParams,
    num_heads: int = 1,
    *,
    rank2: Optional[tuple[np.ndarray, np.ndarray]] = None,
    pe: Optional[np.ndarray] = None,
) -> np.ndarray:
    """LN(x + MHSA(x)) -> FF2(ReLU(FF1(.))) -> LN(residual sum), written
    over x, which is returned.

    Leading axes are a batch of independent slices; x must reshape to
    (slices, L, h) without a copy, as any 2-D or 3-D array does.  They run
    in chunks whose scores hold at most `EXACT_BLOCK_BYTES` (one slice per
    chunk when a slice's are larger), each through the same per-slice
    arithmetic, so the result is bit-identical to one call over the whole
    batch.  A chunk's slices are written only after its feed-forward is
    done, and no other chunk reads them.

    ``pe`` (L, h), if given, is first added to each chunk's slices, so the
    block runs on ``x + pe``.

    ``rank2=(U, w_emb)`` states that ``x == U @ w_emb`` for a 2-channel U of
    x's leading shape.  Calls past the rank-2 gate, more than one slice
    holding more than `SCORE_BLOCK_BYTES` of scores in all, then attend
    through `_rank2_attention`, which equals the exact path to rounding;
    other calls ignore it.
    """
    *_, L, h = x.shape
    slice_bytes = num_heads * L * L * 8
    step = max(1, EXACT_BLOCK_BYTES // slice_bytes)
    flat = x.reshape(-1, L, h, copy=False)
    if flat.shape[0] <= max(1, SCORE_BLOCK_BYTES // slice_bytes):
        rank2 = None
    if rank2 is not None:
        u = rank2[0].reshape(-1, L, 2)
        a, vo = _rank2_maps(rank2[1], p, num_heads)
    for i in range(0, flat.shape[0], step):
        s = slice(i, i + step)
        chunk = flat[s]
        if pe is not None:
            chunk += pe
        if rank2 is None:
            attn = self_attention(chunk, p, num_heads)
        else:
            attn = _rank2_attention(u[s], a, vo)
        chunk[...] = _ff_tail(chunk, attn, p)
    return x


def _ff_tail(x: np.ndarray, attn: np.ndarray, p: AttnBlockParams) -> np.ndarray:
    """Everything after attention: LN(x + attn), the feed-forward, its
    residual and the second LN."""
    # In-place adds give the same bits: IEEE addition commutes.
    attn += x
    g = layer_norm(attn, p.ln1_gain, p.ln1_bias)
    hidden = g @ p.ff1_w
    hidden += p.ff1_b
    np.maximum(hidden, 0.0, out=hidden)
    ff = hidden @ p.ff2_w
    ff += p.ff2_b
    ff += g
    return layer_norm(ff, p.ln2_gain, p.ln2_bias)


def _rank2_maps(
    w_emb: np.ndarray, p: AttnBlockParams, num_heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per head, the 2x2 score matrix (w_emb Wq_h)(w_emb Wk_h)^T / sqrt(dk)
    and the 2 x h value map w_emb Wv_h Wo_h, for inputs x = U @ w_emb."""
    h = w_emb.shape[1]
    dk = h // num_heads

    def heads(w):  # (h, h) -> (heads, 2, dk)
        return (w_emb @ w).reshape(2, num_heads, dk).swapaxes(0, 1)

    a = heads(p.wq) @ heads(p.wk).swapaxes(-1, -2) / np.sqrt(dk)
    vo = heads(p.wv) @ p.wo.reshape(num_heads, dk, h)
    return a, vo.reshape(2 * num_heads, h)


def _rank2_attention(u: np.ndarray, a: np.ndarray, vo: np.ndarray) -> np.ndarray:
    """`self_attention` of x = U @ w_emb computed at inner width 2.

    Q, K and V are linear in U, so each head's scores are (U A) U^T and its
    output is softmax(scores) U times its value map; (n, L, 2) -> (n, L, h).
    A query row w of U A scores key u as ``w . u``.  Each (slice, head)
    takes its ``[P U | row sums]`` from `_taylor_rows` when `_taylor_degree`
    gives a degree p for ``rho = max_w |w_x| r_x + |w_y| r_y``, with r the
    half-widths of U's bounding box, and ``2 (p+1) (p+2) < L``: the Taylor
    path's two gemms, about 3 L (p+1)^2 multiply-adds each, then cost less
    than the 3 L^2 of the tiles' score gemm alone.  Every other
    (slice, head) runs in `_tiled_rows`.
    """
    n, L, _ = u.shape
    heads = a.shape[0]
    keys_t = np.ones((3, L))  # [U | 1]^T
    keys = np.ones((L, 3))  # [U | 1], filled for the tiles
    pu = np.empty((n, heads, L, 3))  # P U | row sums
    buffers = None  # the tiles' scores and [W | -shift], made on first use
    for i in range(n):
        keys_t[:2] = u[i].T
        lo, hi = keys_t[:2].min(axis=1), keys_t[:2].max(axis=1)
        radius = ((hi - lo) / 2)[:, None]
        # offsets from the box centre in half-widths (0 in a channel of width 0)
        unit = (keys_t[:2] - (lo + hi)[:, None] / 2) / np.where(radius > 0, radius, 1.0)
        for k in range(heads):
            wr = a[k].T @ keys_t[:2]  # (2, L): the queries, as 2-vectors against U
            wr *= radius  # ... times the half-widths
            p = _taylor_degree(float(np.max(np.abs(wr[0]) + np.abs(wr[1]))))
            if p is not None and 2 * (p + 1) * (p + 2) < L:
                _taylor_rows(wr, unit, keys_t, p, pu[i, k])
                continue
            if buffers is None:
                rows = max(1, min(L, RANK2_TILE_BYTES // (L * 8)))
                buffers = np.empty((rows, L)), np.empty((rows, 3))
            keys[:, :2] = u[i]
            _tiled_rows(u[i] @ a[k], keys, pu[i, k], *buffers)
    out = pu[..., :2] / pu[..., 2:]
    return out.swapaxes(1, 2).reshape(n, L, -1) @ vo


def _taylor_degree(rho: float) -> Optional[int]:
    """The smallest p with ``e^{2 rho} rho^{p+1} / (p+1)! <= TAYLOR_TOL``, or
    None when rho is not finite or exceeds `TAYLOR_MAX_RHO`.

    With |w . (u - c)| <= rho for every score, that is a bound on the
    relative error of each score's ``exp`` cut at degree p: the omitted tail
    is at most ``e^rho rho^{p+1} / (p+1)!`` against a value of at least
    ``e^-rho``.  U >= 0, so the bound holds for P U and the row sums too.
    """
    if not rho <= TAYLOR_MAX_RHO:  # also NaN
        return None
    grow, p = math.exp(2 * rho), 0
    while grow * rho ** (p + 1) / math.factorial(p + 1) > TAYLOR_TOL:
        p += 1
    return p


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """(n, *x.shape): entry a holds x^a."""
    t = np.empty((n, *x.shape))
    t[0] = 1.0
    for a in range(1, n):
        np.multiply(t[a - 1], x, out=t[a])
    return t


def _taylor_rows(
    wr: np.ndarray, unit: np.ndarray, keys_t: np.ndarray, p: int, out: np.ndarray
) -> None:
    """``[P U | row sums]`` of one (slice, head) into ``out``, each row
    scaled by ``exp(-w . c)``, which cancels in their ratio.

    ``wr`` (2, L) holds the queries times the box half-widths r, ``unit``
    (2, L) the keys' offsets (u - c) / r, and ``keys_t`` is ``[U | 1]^T``.
    Each score is ``w . c + wr . unit``, and ``exp(wr . unit)`` is expanded
    as ``sum_{a,b} (wr_x unit_x)^a (wr_y unit_y)^b / (a! b!)`` over a, b <= p,
    which holds every term of total degree <= p, so `_taylor_degree`'s bound
    applies.  Summed over the keys first,
    ``M[c, b, a] = sum_l keys_t[c, l] unit_y^b unit_x^a / (a! b!)`` is one
    gemm, and row l's value in channel c is
    ``sum_b wr_y^b sum_a M[c, b, a] wr_x^a``: no (L, L) array.
    """
    n = p + 1
    kx, ky = _powers(unit, n).swapaxes(0, 1)
    m = ((ky * keys_t[:, None]).reshape(3 * n, -1) @ kx.T).reshape(3, n, n)
    # 0!, 1!, ..., p!; np.cumprod gives the same values but leaves a small
    # block allocated per call (about a hundred held at once), which moved
    # this forward's traced peak by a varying few hundred bytes
    fact = np.multiply.accumulate(np.maximum(np.arange(n), 1.0))
    m /= np.outer(fact, fact)
    qx, qy = _powers(wr, n).swapaxes(0, 1)
    s = (m.reshape(3 * n, n) @ qx).reshape(3, n, -1)
    s *= qy
    out[...] = s.sum(axis=1).T


def _tiled_rows(
    w: np.ndarray, keys: np.ndarray, out: np.ndarray, scores: np.ndarray, lhs: np.ndarray
) -> None:
    """``[P U | row sums]`` of one (slice, head) into ``out``, in tiles of
    query rows holding at most `RANK2_TILE_BYTES` of scores.

    A query row w is shifted by its largest score against U's extreme points
    in `_EXTREME_DIRECTIONS`: one of its own scores, so a lower bound on its
    max, and ``exp`` never underflows a whole row.  The shift rides in the
    score gemm as ``[W | -shift] [U | 1]^T``; after the ``exp``, one gemm
    with ``[U | 1]`` gives P U and the row sums together.  Rows whose
    ``exp`` overflowed have a non-finite sum (with U in [0, 1], as
    `pie_normalize` gives it, P U is finite wherever the sum is) and are
    redone by `_exact_rows`.
    """
    L, rows = keys.shape[0], lhs.shape[0]
    extremes = keys[np.argmax(keys[:, :2] @ _EXTREME_DIRECTIONS, axis=0), :2]
    shift = np.max(w @ extremes.T, axis=1)
    with np.errstate(over="ignore"):
        for t in range(0, L, rows):
            r = min(rows, L - t)
            q = lhs[:r]
            q[:, :2] = w[t : t + r]
            np.negative(shift[t : t + r], out=q[:, 2])
            _shifted_tile(q, keys, scores[:r], out[t : t + r])
        bad = np.flatnonzero(~np.isfinite(out[:, 2]))
        if bad.size:
            _exact_rows(w, keys, bad, out, scores, lhs)


def _shifted_tile(
    q: np.ndarray, keys: np.ndarray, s: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``exp([W | -shift] [U | 1]^T) [U | 1]``: P U and the row sums of one
    tile of query rows, with ``s`` as the scores buffer."""
    np.matmul(q, keys.T, out=s)
    np.exp(s, out=s)
    return np.matmul(s, keys, out=out)


def _exact_rows(
    w: np.ndarray,
    keys: np.ndarray,
    rows: np.ndarray,
    out: np.ndarray,
    scores: np.ndarray,
    lhs: np.ndarray,
) -> None:
    """Redo the given query rows of one (slice, head) into ``out[rows]``,
    each shifted by its exact row max, in tiles of the core's buffers."""
    for t in range(0, rows.size, lhs.shape[0]):
        idx = rows[t : t + lhs.shape[0]]
        s, q = scores[: idx.size], lhs[: idx.size]
        q[:, :2] = w[idx]
        np.matmul(q[:, :2], keys[:, :2].T, out=s)
        np.max(s, axis=1, out=q[:, 2])
        np.negative(q[:, 2], out=q[:, 2])
        out[idx] = _shifted_tile(q, keys, s)


def ts_attn_forward(
    E: np.ndarray, net: PopulationEncoder, U: Optional[np.ndarray] = None
) -> FeatureSet:
    """Two-stage attention over a (d, m, h) embedding, then mean pooling.

    Stage one attends across candidates within each dimension slice (no
    positional encoding, so candidate order is immaterial).  Stage two reads
    the (m, d, h) transpose, adds the positional encoding over dimensions,
    and attends across dimensions within each candidate.  Stacked layers
    repeat the whole cycle, re-adding the positional encoding each time.

    The forward consumes E: every stage writes over it (see `attn_block`),
    so a caller that needs E afterwards passes a copy.

    Given ``U``, the (d, m, 2) tensor with ``E == U @ net.w_emb``, layer 0's
    cross-solution stage may take the rank-2 path (see `attn_block`); U is
    released right after that stage.
    """
    d, m, h = E.shape
    heads = net.config.num_heads
    pe = positional_encoding(d, h)
    rank2 = None if U is None else (U, net.w_emb)
    del U  # rank2 holds the only reference the forward keeps
    by_candidate = E.transpose(1, 0, 2)  # (m, d, h) view of the buffer
    for layer in net.layers:
        attn_block(E, layer.cross_solution, heads, rank2=rank2)  # attends over m
        rank2 = None  # layer 0 only; this frees U
        attn_block(by_candidate, layer.cross_dimension, heads, pe=pe)  # attends over d
    per_candidate = E.mean(axis=0)  # (m, h)
    population = per_candidate.mean(axis=0)  # (h,)
    return FeatureSet(per_candidate=per_candidate, population=population)


# --- flat parameter codec -------------------------------------------------

_STAGES = ("cross_solution", "cross_dimension")
_BLOCK_TENSORS = (
    ("wq", lambda h, f: (h, h)),
    ("wk", lambda h, f: (h, h)),
    ("wv", lambda h, f: (h, h)),
    ("wo", lambda h, f: (h, h)),
    ("ln1_gain", lambda h, f: (h,)),
    ("ln1_bias", lambda h, f: (h,)),
    ("ff1_w", lambda h, f: (h, f)),
    ("ff1_b", lambda h, f: (f,)),
    ("ff2_w", lambda h, f: (f, h)),
    ("ff2_b", lambda h, f: (h,)),
    ("ln2_gain", lambda h, f: (h,)),
    ("ln2_bias", lambda h, f: (h,)),
)


def layout(config: AnalyzerConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Fixed packing order: embedding, then per layer the cross-solution
    block followed by the cross-dimension block, tensors in `_BLOCK_TENSORS`
    order."""
    h, f = config.hidden_dim, config.ff_inner_dim
    entries: list[tuple[str, tuple[int, ...]]] = [("w_emb", (2, h))]
    for i in range(config.num_layers):
        for stage in _STAGES:
            for name, shape_fn in _BLOCK_TENSORS:
                entries.append((f"layer{i}.{stage}.{name}", shape_fn(h, f)))
    return tuple(entries)


def param_count(config: AnalyzerConfig) -> int:
    """Total learnable parameters; 2h + 2l(6h^2 + 6h) when ff_inner_dim == h."""
    return layout_size(layout(config))


def _tensor(net: PopulationEncoder, name: str) -> np.ndarray:
    """The network's tensor under a `layout` name."""
    if name == "w_emb":
        return net.w_emb
    layer, stage, tensor = name.split(".")
    return getattr(getattr(net.layers[int(layer.removeprefix("layer"))], stage), tensor)


def encode_params(net: PopulationEncoder) -> ParamVector:
    lay = layout(net.config)
    parts = []
    for name, shape in lay:
        t = _tensor(net, name)
        if t.shape != shape:
            raise CodecError(f"tensor {name} has shape {t.shape}, layout says {shape}")
        parts.append(np.asarray(t, dtype=float).ravel())
    return ParamVector(values=np.concatenate(parts), layout=lay)


def decode_params(vector, config: AnalyzerConfig) -> PopulationEncoder:
    """Rebuild the network from a flat vector; exact inverse of encode_params."""
    lay = layout(config)
    values = vector.values if isinstance(vector, ParamVector) else np.asarray(vector, dtype=float).reshape(-1)
    if values.shape[0] != layout_size(lay):
        raise CodecError(
            f"parameter vector has length {values.shape[0]}, expected "
            f"{layout_size(lay)} for config {config.to_dict()}"
        )
    tensors = unpack(values, lay)
    net = PopulationEncoder(config=config, w_emb=tensors["w_emb"])
    for i in range(config.num_layers):
        blocks = {
            stage: AttnBlockParams(
                **{name: tensors[f"layer{i}.{stage}.{name}"] for name, _ in _BLOCK_TENSORS}
            )
            for stage in _STAGES
        }
        net.layers.append(EncoderLayer(**blocks))
    return net


# --- checkpoint container ---------------------------------------------------


def _checkpoint_payload(
    config: AnalyzerConfig, theta: np.ndarray, provenance: dict
) -> dict:
    packed = ParamVector(values=theta, layout=layout(config))  # checks the length
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "layout": [[name, list(shape)] for name, shape in packed.layout],
        "param_count": packed.values.shape[0],
        "dtype": "<f8",
        "theta_b64": f8_to_b64(packed.values),
        "provenance": dict(provenance),
    }


def save_checkpoint(
    path, config: AnalyzerConfig, theta: np.ndarray, provenance: Optional[dict] = None
) -> None:
    payload = _checkpoint_payload(config, theta, provenance or {})
    write_sealed(path, payload, indent=1)


def load_checkpoint(path) -> tuple[AnalyzerConfig, np.ndarray, dict]:
    """Read a checkpoint; bit-exact round trip of theta, verified by checksum."""
    payload = read_sealed(path, CHECKPOINT_FORMAT)
    config = AnalyzerConfig.from_dict(payload["config"])
    theta = f8_from_b64(payload["theta_b64"])
    if theta.shape[0] != payload["param_count"]:
        raise IntegrityError(f"checkpoint {path} has a truncated parameter vector")
    return config, theta, payload.get("provenance", {})
