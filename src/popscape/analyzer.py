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
most `EXACT_BLOCK_BYTES` of attention scores and per-slice activations (a
single larger slice runs alone), so each chunk stays near cache size at
large m and d without changing a single output bit.  The forward runs in
its (d, m, h) embedding as its one activation buffer: each chunk's output
is written over that chunk's slices once its feed-forward is done, the
cross-dimension stage reads and writes its candidate slices through the
buffer's (m, d, h) transposed view and adds the positional encoding to
them in place, and pooling reads the buffer.

A block with one chunk runs on the calling thread, as every desk-size
(m = 50, d = 10) block does.  A block with more than one chunk cuts its
slices into equal chunks of at most `EXACT_BLOCK_BYTES`, which up to
`cpu_workers` workers (the CPUs the process may run on, its affinity set)
take one at a time from a shared queue: the calling thread and threads
started inside the call, all joined before the block returns, so no thread
outlives a forward.  The workers' chunk buffers (`_Buffers`) hold at most
two full chunks' bytes together, so on machines with more CPUs a block
runs on fewer workers than CPUs and its memory does not grow with them.
Each worker runs the serial path's arithmetic on its own slices, so the
output is the same bit for bit at any worker count.  The calling thread
allocates the workers' buffers once per call, so the workers allocate next
to nothing in their own malloc arenas.  BLAS threads are left to the
environment.  Peak memory is the embedding plus two chunks' buffers.

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

import collections
import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, IntegrityError
from .utils import (
    check_flat,
    cpu_workers,
    f8_from_b64,
    f8_to_b64,
    layout_size,
    read_sealed,
    run_split,
    unpack,
    write_sealed,
)

LN_EPS = 1e-5

# Most bytes of float64 attention scores and per-slice activations one
# `attn_block` chunk holds (`_slice_bytes` per slice: 13 slices of 100
# rows at h = 16, and one chunk for every desk-size stage); a single slice
# larger than this runs alone.  Rank-2 chunks count their [P U | row sums]
# instead of scores, and their Taylor temporaries take the room of their
# activations.  Chunks are bit-identical however they are cut, so this
# sets only memory and how many workers a block can keep busy.
EXACT_BLOCK_BYTES = 3 << 19  # 1.5 MiB

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
        for name in ("hidden_dim", "num_heads", "num_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.hidden_dim % 2 != 0:
            raise ConfigError("hidden_dim must be even for sin/cos positional encoding")
        if self.ff_inner_dim is None:
            object.__setattr__(self, "ff_inner_dim", self.hidden_dim)
        if self.ff_inner_dim < 1:
            raise ConfigError(f"ff_inner_dim must be >= 1, got {self.ff_inner_dim}")


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
        if X.ndim != 2 or X.shape[1] < 1:
            raise ConfigError(f"positions must be an (m, d) array with d >= 1, not {X.shape}")
        d = X.shape[1]
        try:
            lb = np.broadcast_to(np.asarray(self.lb, dtype=float), (d,)).copy()
            ub = np.broadcast_to(np.asarray(self.ub, dtype=float), (d,)).copy()
        except ValueError:
            raise ConfigError(f"bounds do not broadcast to d = {d} values") from None
        if X.shape[0] < 2:
            raise ConfigError("observation needs at least 2 candidates")
        if X.shape[0] != y.shape[0]:
            raise ConfigError("X and y disagree on population size")
        span = ub - lb  # finite and positive iff lb < ub, both finite, without overflow
        if not (0.0 < span.min() and span.max() < math.inf):
            raise ConfigError("bounds must be finite with lb < ub in every dimension")
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


# One transformer block, self-attention then feed-forward, each followed by
# LayerNorm: its tensors in packing order, with their shapes at hidden width
# h and feed-forward width f.  Q/K/V/O carry no bias; the feed-forward
# layers do.
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
# One encoder layer's blocks, in packing order.
_STAGES = ("cross_solution", "cross_dimension")

AttnBlockParams = NamedTuple("AttnBlockParams", [(name, np.ndarray) for name, _ in _BLOCK_TENSORS])
EncoderLayer = NamedTuple("EncoderLayer", [(stage, AttnBlockParams) for stage in _STAGES])


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


def layer_norm(
    x: np.ndarray,
    gain: np.ndarray,
    bias: np.ndarray,
    out: Optional[np.ndarray] = None,
    *,
    work: Optional[np.ndarray] = None,
    stat: Optional[np.ndarray] = None,
) -> np.ndarray:
    """LayerNorm over the last axis.

    The same float operations, in the same order, as
    ``(x - x.mean(-1)) / np.sqrt(x.var(-1) + LN_EPS) * gain + bias``, so the
    result is bit-identical to that expression; the centred values are
    computed once and the tail runs in place.  ``out`` (x's shape) receives
    the result, ``work`` (x's shape, C-contiguous) the squared deviations
    and ``stat`` (x's shape with a last axis of 1) the row mean, then the
    row scale; each is allocated when not given.
    """
    h = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True, out=stat)
    mean /= h
    centred = np.subtract(x, mean, out=out)
    squares = np.multiply(centred, centred, out=work)
    scale = np.add.reduce(squares, axis=-1, keepdims=True, out=stat)
    scale /= h
    scale += LN_EPS
    np.sqrt(scale, out=scale)
    centred /= scale
    centred *= gain
    centred += bias
    return centred


class _Buffers(NamedTuple):
    """One chunk's activations, for a chunk of n slices of L rows.

    `attn_block` allocates them on the calling thread, once per call for
    each of its workers, as views of one block, and the block's ops fill
    them through ``out=``; every field is None on the one-chunk path, where
    each op allocates its result as a plain numpy expression would.  Three
    (n, L, h) arrays serve in turn: `self_attention` computes Q, K, V into
    ``a``, ``b``, ``c``, the head outputs over ``a``, merges them into
    ``b`` and projects into ``c``; `_ff_tail` normalizes ``c`` into ``a``
    (squares in ``b``), computes the hidden layer over ``b`` (``hidden``
    shares its memory), the feed-forward output into ``c`` and its
    normalization into ``b`` (squares in ``a``).  On the rank-2 path,
    ``a``, ``b`` and ``c`` are free until the attention output is written
    into ``c``, and ``scratch``, the flat block under them, holds the Taylor
    path's temporaries meanwhile.
    """

    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    hidden: Optional[np.ndarray] = None  # (n, L, f), over b
    stat: Optional[np.ndarray] = None  # (n, heads, L, 1): row max, sum, mean, scale
    scores: Optional[np.ndarray] = None  # (n, heads, L, L), exact path
    pu: Optional[np.ndarray] = None  # (n, heads, L, 3), rank-2 path
    ratios: Optional[np.ndarray] = None  # (n, L, heads, 2), rank-2 path
    keys_t: Optional[np.ndarray] = None  # (n, 3, L), rank-2 path: [U | 1]^T
    unit: Optional[np.ndarray] = None  # (n, 2, L), rank-2 path: offsets in the box
    wr: Optional[np.ndarray] = None  # (n, 2, L), rank-2 path: one head's queries
    scratch: Optional[np.ndarray] = None  # flat, over a, b and c

    @classmethod
    def carve(cls, block: np.ndarray, n: int, L: int, p: AttnBlockParams, heads: int, rank2: bool):
        """The buffers of n slices as views of a flat ``block`` of at least
        ``n * _slice_bytes(...) // 8`` float64s."""
        h, f = p.wq.shape[0], p.ff1_w.shape[1]
        regions = {  # name: (region length in rows of L, shape)
            "a": (h, (n, L, h)),
            "b": (max(h, f), (n, L, h)),
            "c": (h, (n, L, h)),
            "stat": (heads, (n, heads, L, 1)),
            **({"pu": (3 * heads, (n, heads, L, 3)), "ratios": (2 * heads, (n, L, heads, 2)),
                "keys_t": (3, (n, 3, L)), "unit": (2, (n, 2, L)), "wr": (2, (n, 2, L))}
               if rank2 else {"scores": (heads * L, (n, heads, L, L))}),
        }
        views, pos = {}, 0
        for name, (rows, shape) in regions.items():
            views[name] = block[pos : pos + math.prod(shape)].reshape(shape)
            pos += n * L * rows
        region_b = block[n * L * h :]
        return cls(
            **views,
            hidden=region_b[: n * L * f].reshape(n, L, f),
            scratch=block[: n * L * (2 * h + max(h, f))],
        )

    def first(self, n: int) -> "_Buffers":
        """The buffers of the first n slices (a shorter last chunk)."""
        return _Buffers(
            *(None if t is None else t[:n] for t in self[:-1]), scratch=self.scratch
        )


def _slice_bytes(L: int, p: AttnBlockParams, heads: int, rank2: bool) -> int:
    """Bytes of one slice's `_Buffers`: its activations and its scores, or
    on the rank-2 path its ``[P U | row sums]``, ratios, keys, offsets and
    queries."""
    h, f = p.wq.shape[0], p.ff1_w.shape[1]
    return 8 * L * (2 * h + max(h, f) + heads + (5 * heads + 7 if rank2 else heads * L))


_NO_BUFFERS = _Buffers()


def self_attention(
    x: np.ndarray, p: AttnBlockParams, num_heads: int, buf: _Buffers = _NO_BUFFERS
) -> np.ndarray:
    """Multi-head self-attention over the second-to-last axis; batched.  The
    result lands in ``buf.c`` (see `_Buffers`)."""
    *batch, L, h = x.shape
    dk = h // num_heads

    def heads(t):
        return t.reshape(*batch, L, num_heads, dk).swapaxes(-3, -2)

    q = heads(np.matmul(x, p.wq, out=buf.a))
    k = heads(np.matmul(x, p.wk, out=buf.b))
    v = heads(np.matmul(x, p.wv, out=buf.c))
    scores = np.matmul(q, k.swapaxes(-1, -2), out=buf.scores)
    scores /= np.sqrt(dk)
    scores -= scores.max(axis=-1, keepdims=True, out=buf.stat)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True, out=buf.stat)
    attn = None if buf.a is None else buf.a.reshape(*batch, num_heads, L, dk)
    out = _merge_heads(np.matmul(scores, v, out=attn), buf.b)
    return np.matmul(out, p.wo, out=buf.c)


def _merge_heads(t: np.ndarray, into: Optional[np.ndarray]) -> np.ndarray:
    """(..., heads, L, dk) -> (..., L, heads * dk): a view for one head,
    else a copy, written into ``into`` when given."""
    merged = t.swapaxes(-3, -2)
    shape = (*merged.shape[:-2], -1)
    if into is None or merged.shape[-2] == 1:
        return merged.reshape(shape)
    np.copyto(into.reshape(merged.shape), merged)
    return into


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
    in chunks that hold at most `EXACT_BLOCK_BYTES` of `_slice_bytes` (one
    slice per chunk when a slice's are larger), each through the same
    per-slice arithmetic, so the result is bit-identical to one call over
    the whole batch.  A chunk's slices are written only after its
    feed-forward is done, and no other chunk reads them.

    One chunk runs on the calling thread with no preallocated buffers.
    More than one are cut equal and go to up to `cpu_workers` workers, the
    calling thread and threads started here, each taking the next chunk
    when it is done with its last; each worker's `_Buffers` are allocated
    here, on the calling thread, for the whole call.  The workers' buffers
    together hold at most ``2 * EXACT_BLOCK_BYTES`` (two slices' when one
    slice is larger), which caps the workers on machines with more CPUs.

    ``pe`` (L, h), if given, is first added to each chunk's slices, so the
    block runs on ``x + pe``.

    ``rank2=(U, w_emb)`` states that ``x == U @ w_emb`` for a 2-channel U of
    x's leading shape.  Calls past the rank-2 gate, more than one slice
    holding more than `SCORE_BLOCK_BYTES` of scores in all, then attend
    through `_rank2_attention`, which equals the exact path to rounding;
    other calls ignore it.
    """
    *_, L, h = x.shape
    flat = x.reshape(-1, L, h, copy=False)
    n = flat.shape[0]
    if n <= max(1, SCORE_BLOCK_BYTES // (num_heads * L * L * 8)):
        rank2 = None
    u = maps = None
    if rank2 is not None:
        u = rank2[0].reshape(-1, L, 2)
        maps = _rank2_maps(rank2[1], p, num_heads)
    step = max(1, EXACT_BLOCK_BYTES // _slice_bytes(L, p, num_heads, rank2 is not None))
    if n <= step:
        _chunk_forward(flat, u, p, num_heads, pe, maps, _NO_BUFFERS)
        return x
    # equal chunks, at most ``step`` slices each, handed to the workers one
    # at a time, so a worker whose CPU is busy with other work takes fewer
    chunks = -(-n // step)
    bounds = [n * c // chunks for c in range(chunks + 1)]
    pending = collections.deque(zip(bounds, bounds[1:]))
    rows = -(-n // chunks)
    size = rows * _slice_bytes(L, p, num_heads, u is not None) // 8
    # the workers' buffers hold at most two full chunks' bytes together (two
    # slices' where one is larger), whatever the machine's CPU count
    workers = min(cpu_workers(), chunks, max(2, 2 * EXACT_BLOCK_BYTES // (8 * size)))
    block = np.empty(workers * size)  # every worker's buffers, freed whole
    run_split(
        [
            functools.partial(
                _run_chunks, pending, flat, u, p, num_heads, pe, maps,
                _Buffers.carve(block[w * size :], rows, L, p, num_heads, u is not None),
            )
            for w in range(workers)
        ]
    )
    return x


def _run_chunks(pending, x, u, p, num_heads, pe, maps, buf) -> None:
    """`_chunk_forward` over the (lo, hi) slice ranges this worker takes
    from ``pending`` until none is left, with ``buf`` sized for the longest."""
    while True:
        try:  # `collections.deque.popleft` is atomic: no two workers take one chunk
            lo, hi = pending.popleft()
        except IndexError:
            return
        part = buf if hi - lo == len(buf.a) else buf.first(hi - lo)
        _chunk_forward(x[lo:hi], None if u is None else u[lo:hi], p, num_heads, pe, maps, part)


def _chunk_forward(x, u, p, num_heads, pe, maps, buf) -> None:
    """One chunk of `attn_block`, written over x; the exact path when
    ``maps`` is None, else the rank-2 path on the chunk's 2-channel u."""
    if pe is not None:
        x += pe
    if maps is None:
        attn = self_attention(x, p, num_heads, buf)
    else:
        attn = _rank2_attention(u, *maps, buf)
    x[...] = _ff_tail(x, attn, p, buf)


def _ff_tail(
    x: np.ndarray, attn: np.ndarray, p: AttnBlockParams, buf: _Buffers = _NO_BUFFERS
) -> np.ndarray:
    """Everything after attention: LN(x + attn), the feed-forward, its
    residual and the second LN; ``attn`` is consumed."""
    stat = None if buf.stat is None else buf.stat[:, 0]
    # In-place adds give the same bits: IEEE addition commutes.
    attn += x
    g = layer_norm(attn, p.ln1_gain, p.ln1_bias, buf.a, work=buf.b, stat=stat)
    hidden = np.matmul(g, p.ff1_w, out=buf.hidden)
    hidden += p.ff1_b
    np.maximum(hidden, 0.0, out=hidden)
    ff = np.matmul(hidden, p.ff2_w, out=buf.c)
    ff += p.ff2_b
    ff += g
    return layer_norm(ff, p.ln2_gain, p.ln2_bias, buf.b, work=buf.a, stat=stat)


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


def _rank2_attention(
    u: np.ndarray, a: np.ndarray, vo: np.ndarray, buf: _Buffers = _NO_BUFFERS
) -> np.ndarray:
    """`self_attention` of x = U @ w_emb computed at inner width 2.

    Q, K and V are linear in U, so each head's scores are (U A) U^T and its
    output is softmax(scores) U times its value map; (n, L, 2) -> (n, L, h),
    into ``buf.c`` when given.  A query row w of U A scores key u as
    ``w . u``.  Each (slice, head) takes its ``[P U | row sums]`` from
    `_taylor_rows` when `_taylor_degree` gives a degree p for ``rho =
    max_w |w_x| r_x + |w_y| r_y``, with r the half-widths of the slice's
    bounding box, and ``2 (p+1) (p+2) < L``: the Taylor path's two gemms,
    about 3 L (p+1)^2 multiply-adds each, then cost less than the 3 L^2 of
    the tiles' score gemm alone.  The slices of one head and degree run as
    one stack.  Every other (slice, head) runs in `_tiled_rows`.
    """
    n, L, _ = u.shape
    heads = a.shape[0]
    keys_t = _or_new(buf.keys_t, (n, 3, L))  # [U | 1]^T per slice
    keys_t[:, :2] = u.swapaxes(1, 2)
    keys_t[:, 2] = 1.0
    lo, hi = keys_t[:, :2].min(axis=2), keys_t[:, :2].max(axis=2)
    radius = ((hi - lo) / 2)[:, :, None]
    # offsets from the box centre in half-widths (0 in a channel of width 0)
    unit = np.subtract(keys_t[:, :2], (lo + hi)[:, :, None] / 2, out=buf.unit)
    unit /= np.where(radius > 0, radius, 1.0)
    pu = _or_new(buf.pu, (n, heads, L, 3))  # P U | row sums
    ratios = _or_new(buf.ratios, (n, L, heads, 2))
    reach = ratios.reshape(2, -1)[:, : n * L].reshape(2, n, L)  # |wr_x|, |wr_y|
    tiles = None  # the tiles' scores and [W | -shift], made with their keys on first use
    for k in range(heads):
        # (n, 2, L): the queries, as 2-vectors against U, times the half-widths
        wr = np.matmul(a[k].T, keys_t[:, :2], out=buf.wr)
        wr *= radius
        np.abs(wr.swapaxes(0, 1), out=reach)
        rho = np.max(np.add(reach[0], reach[1], out=reach[0]), axis=1)
        by_degree: dict[int, list[int]] = {}
        for i in range(n):
            p = _taylor_degree(float(rho[i]))
            if p is not None and 2 * (p + 1) * (p + 2) < L:
                by_degree.setdefault(p, []).append(i)
                continue
            if tiles is None:
                rows = max(1, min(L, RANK2_TILE_BYTES // (L * 8)))
                tiles = np.empty((rows, L)), np.empty((rows, 3))
                keys = np.ones((L, 3))  # [U | 1], filled per slice
            keys[:, :2] = u[i]
            _tiled_rows(u[i] @ a[k], keys, pu[i, k], *tiles)
        for p, idx in by_degree.items():
            # stacks whose temporaries, five (p+1) x L arrays per slice, fit
            # in the scratch block, else in EXACT_BLOCK_BYTES (one slice
            # when a slice's are larger)
            per_slice = 5 * (p + 1) * L
            room = EXACT_BLOCK_BYTES // 8 if buf.scratch is None else buf.scratch.size
            step = max(1, room // per_slice)
            scratch = buf.scratch if step * per_slice <= room else None
            for j in range(0, len(idx), step):
                stack = _as_slice(idx[j : j + step])
                pu[stack, k] = _taylor_rows(wr[stack], unit[stack], keys_t[stack], p, scratch)
    np.divide(pu[..., :2], pu[..., 2:], out=ratios.swapaxes(1, 2))
    return np.matmul(ratios.reshape(n, L, -1), vo, out=buf.c)


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


def _or_new(buf: Optional[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """``buf``, or a new (unfilled) array of ``shape`` where none is given."""
    return np.empty(shape) if buf is None else buf


def _as_slice(idx: list[int]):
    """A run of consecutive indices as a slice, which indexes by view."""
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx


def _powers(x: np.ndarray, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(n, *x.shape): entry a holds x^a; into ``out`` when given."""
    t = np.empty((n, *x.shape)) if out is None else out
    t[0] = 1.0
    for a in range(1, n):
        np.multiply(t[a - 1], x, out=t[a])
    return t


def _taylor_rows(
    wr: np.ndarray,
    unit: np.ndarray,
    keys_t: np.ndarray,
    p: int,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``[P U | row sums]`` (g, L, 3) of a stack of g (slice, head)s, each
    row scaled by ``exp(-w . c)``, which cancels in their ratio.

    ``wr`` (g, 2, L) holds the queries times the box half-widths r,
    ``unit`` (g, 2, L) the keys' offsets (u - c) / r, and ``keys_t``
    (g, 3, L) is ``[U | 1]^T``.  Each score is ``w . c + wr . unit``, and
    ``exp(wr . unit)`` is expanded as ``sum_{a,b} (wr_x unit_x)^a (wr_y
    unit_y)^b / (a! b!)`` over a, b <= p, which holds every term of total
    degree <= p, so `_taylor_degree`'s bound applies.  Summed over the keys
    first, ``M[c, b, a] = sum_l keys_t[c, l] unit_y^b unit_x^a / (a! b!)``
    is one gemm per (slice, head), and row l's value in channel c is
    ``sum_b wr_y^b sum_a M[c, b, a] wr_x^a``: no (L, L) array.  Each
    (slice, head) runs the same gemms and sums as it would alone.  The
    temporaries, five (p+1) x L arrays per (slice, head), live in
    ``scratch`` (flat) when given.
    """
    g, _, L = wr.shape
    n = p + 1
    powers = terms = None  # (n, g, 2, L) and (g, 3, n, L)
    if scratch is not None:
        powers = scratch[: 2 * n * g * L].reshape(n, g, 2, L)
        terms = scratch[2 * n * g * L : 5 * n * g * L].reshape(g, 3, n, L)
    kx, ky = _powers(unit, n, powers).transpose(2, 1, 0, 3)  # each (g, n, L)
    terms = np.multiply(ky[:, None], keys_t[:, :, None], out=terms)
    m = terms.reshape(g, 3 * n, L) @ kx.swapaxes(1, 2)
    del kx, ky  # the key powers go before the query powers are made
    # 0!, 1!, ..., p!; np.cumprod gives the same values but leaves a small
    # block allocated per call (about a hundred held at once), which moved
    # this forward's traced peak by a varying few hundred bytes
    fact = np.multiply.accumulate(np.maximum(np.arange(n), 1.0))
    m /= np.outer(np.tile(fact, 3), fact)  # row c n + b, column a: b! a!
    qx, qy = _powers(wr, n, powers).transpose(2, 1, 0, 3)
    s = np.matmul(m, qx, out=terms.reshape(g, 3 * n, L)).reshape(g, 3, n, L)
    s *= qy[:, None]
    return s.sum(axis=2).swapaxes(1, 2)


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


# --- flat parameter layout ------------------------------------------------

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


def decode_params(theta, config: AnalyzerConfig) -> PopulationEncoder:
    """The network whose tensors are copies of `theta`'s slices in `layout` order."""
    tensors = iter(unpack(np.asarray(theta, dtype=float).reshape(-1), layout(config)).values())
    net = PopulationEncoder(config=config, w_emb=next(tensors))
    for _ in range(config.num_layers):
        net.layers.append(EncoderLayer._make(
            AttnBlockParams._make(itertools.islice(tensors, len(_BLOCK_TENSORS)))
            for _ in _STAGES
        ))
    return net


# --- checkpoint container ---------------------------------------------------


def _checkpoint_payload(
    config: AnalyzerConfig, theta: np.ndarray, provenance: dict
) -> dict:
    lay = layout(config)
    theta = np.asarray(theta, dtype=float)
    check_flat(theta, lay)
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "layout": [[name, list(shape)] for name, shape in lay],
        "param_count": theta.shape[0],
        "dtype": "<f8",
        "theta_b64": f8_to_b64(theta),
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
    config = AnalyzerConfig(**payload["config"])
    theta = f8_from_b64(payload["theta_b64"])
    if theta.shape[0] != payload["param_count"]:
        raise IntegrityError(f"checkpoint {path} has a truncated parameter vector")
    return config, theta, payload.get("provenance", {})
