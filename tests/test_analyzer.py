import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from popscape import analyzer
from popscape.analyzer import (
    EXACT_BLOCK_BYTES,
    LN_EPS,
    RANK2_TILE_BYTES,
    SCORE_BLOCK_BYTES,
    AnalyzerConfig,
    Observation,
    attn_block,
    decode_params,
    embed,
    layer_norm,
    load_checkpoint,
    param_count,
    pie_normalize,
    positional_encoding,
    save_checkpoint,
    ts_attn_forward,
)
from popscape.errors import ConfigError, IntegrityError

from .golden import DATA
from .reference import (
    ref_attn_block,
    ref_embed,
    ref_layer_norm,
    ref_positional_encoding,
    ref_ts_attn,
)


def random_net(cfg, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return decode_params(rng.normal(0.0, scale, param_count(cfg)), cfg), rng


def random_observation(rng, m=6, d=3):
    return Observation(
        X=rng.uniform(-5, 5, (m, d)),
        y=rng.normal(0, 1, m),
        lb=-5 * np.ones(d),
        ub=5 * np.ones(d),
    )


@pytest.mark.parametrize(
    "X, lb, match",
    [
        (np.zeros((5, 0)), -5.0, r"\(m, d\) array"),
        (np.zeros((4, 2, 3)), -5.0, r"\(m, d\) array"),
        (np.zeros((4, 3)), [-5.0, -5.0], "broadcast to d = 3"),
    ],
    ids=["zero_dimensions", "three_axes", "two_bounds_for_three_dimensions"],
)
def test_observation_rejects_bad_shapes(X, lb, match):
    # each was accepted or failed late: d = 0 in the forward's reshape and
    # in ela_features, the 2-value bound with a raw numpy ValueError
    with pytest.raises(ConfigError, match=match):
        Observation(X=X, y=np.zeros(len(X)), lb=lb, ub=5.0)


# --- PIE ------------------------------------------------------------------


def test_pie_boundary_and_extrema(rng):
    obs = Observation(
        X=np.array([[-5.0, 0.0], [5.0, 2.5]]),
        y=np.array([1.0, 3.0]),
        lb=np.array([-5.0, -5.0]),
        ub=np.array([5.0, 5.0]),
    )
    t = pie_normalize(obs)
    assert t.shape == (2, 2, 2)
    assert t[0, 0, 0] == 0.0  # position at the lower bound
    assert t[0, 1, 0] == 1.0  # position at the upper bound
    assert t[0, 1, 1] == 1.0  # objective at the maximum
    assert t[0, 0, 1] == 0.0


def test_pie_degenerate_objectives_are_half(rng):
    obs = random_observation(rng)
    obs = Observation(X=obs.X, y=np.full(obs.size, 2.5), lb=obs.lb, ub=obs.ub)
    t = pie_normalize(obs)
    assert np.all(t[:, :, 1] == 0.5)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), d=st.integers(1, 5))
def test_pie_output_in_unit_interval(seed, m, d):
    rng = np.random.default_rng(seed)
    obs = random_observation(rng, m, d)
    t = pie_normalize(obs)
    assert np.all(t >= 0.0) and np.all(t <= 1.0)


# --- embedding --------------------------------------------------------------


def test_embed_zero_matrix(rng):
    normalized = rng.random((3, 4, 2))
    assert np.all(embed(normalized, np.zeros((2, 5))) == 0.0)


def test_embed_basis_vector_selects_row(rng):
    w = rng.normal(size=(2, 6))
    normalized = np.zeros((1, 1, 2))
    normalized[0, 0, 0] = 1.0
    assert np.allclose(embed(normalized, w)[0, 0], w[0], atol=0)


def test_embed_matches_triple_loop_oracle(rng):
    normalized = rng.random((3, 4, 2))
    w = rng.normal(size=(2, 7))
    assert np.max(np.abs(embed(normalized, w) - ref_embed(normalized, w))) < 1e-12


# --- positional encoding ------------------------------------------------------


def test_positional_encoding_values():
    pe = positional_encoding(4, 8)
    assert np.all(pe[0, 0::2] == 0.0)
    assert np.all(pe[0, 1::2] == 1.0)
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert np.max(np.abs(pe - ref_positional_encoding(4, 8))) < 1e-12


def test_positional_encoding_is_shared_read_only():
    first = positional_encoding(7, 16)
    pe = positional_encoding(7, 16)
    assert pe is first and not pe.flags.writeable
    assert np.max(np.abs(pe - ref_positional_encoding(7, 16))) < 1e-12
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0


# --- layer norm -------------------------------------------------------------------


def _layer_norm_inputs():
    rng = np.random.default_rng(41)
    base = rng.normal(size=(10, 50, 16))
    return {
        "d10_m50": base,
        "transposed_view": base.transpose(1, 0, 2),
        "m1000_d10_scaled": rng.normal(size=(1000, 10, 16)) * 1e3,
        "m7_d3": rng.normal(size=(7, 3, 16)),
    }


@pytest.mark.parametrize("name", list(_layer_norm_inputs()))
def test_layer_norm_is_bit_identical_to_mean_var_form(name):
    x = _layer_norm_inputs()[name]
    rng = np.random.default_rng(42)
    gain, bias = rng.normal(size=16), rng.normal(size=16)
    before = x.copy()
    out = layer_norm(x, gain, bias)
    assert np.array_equal(x, before)
    mean_var = (x - x.mean(-1, keepdims=True)) / np.sqrt(
        x.var(-1, keepdims=True) + LN_EPS
    ) * gain + bias
    assert np.array_equal(out, mean_var)
    rows = x.reshape(-1, 16)
    assert np.max(np.abs(out.reshape(-1, 16) - ref_layer_norm(rows, gain, bias))) < 1e-12


# --- attention block ------------------------------------------------------------


def test_attn_block_single_row_softmax_degenerates(rng):
    cfg = AnalyzerConfig()
    net, _ = random_net(cfg, 3)
    p = net.layers[0].cross_solution
    x = rng.normal(size=(1, cfg.hidden_dim))
    out = attn_block(x.copy(), p)
    # with one row, attention weights are 1 and MHSA reduces to x Wv Wo
    manual = x + (x @ p.wv) @ p.wo
    from popscape.analyzer import layer_norm

    g = layer_norm(manual, p.ln1_gain, p.ln1_bias)
    expected = layer_norm(
        g + (np.maximum(g @ p.ff1_w + p.ff1_b, 0) @ p.ff2_w + p.ff2_b),
        p.ln2_gain,
        p.ln2_bias,
    )
    assert np.max(np.abs(out - expected)) < 1e-12


def test_attn_block_zero_weights_is_double_layer_norm(rng):
    cfg = AnalyzerConfig()
    theta = np.zeros(param_count(cfg))
    net = decode_params(theta, cfg)
    p = net.layers[0].cross_solution
    p.ln1_gain[:] = 1.0
    p.ln2_gain[:] = 1.0
    x = rng.normal(size=(5, cfg.hidden_dim))
    out = attn_block(x.copy(), p)
    from popscape.analyzer import layer_norm

    ones = np.ones(cfg.hidden_dim)
    zeros = np.zeros(cfg.hidden_dim)
    expected = layer_norm(layer_norm(x, ones, zeros), ones, zeros)
    assert np.max(np.abs(out - expected)) < 1e-12


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attn_block_matches_scalar_oracle(rng, heads):
    cfg = AnalyzerConfig(num_heads=heads)
    net, _ = random_net(cfg, 11 + heads)
    p = net.layers[0].cross_dimension
    x = rng.normal(size=(5, cfg.hidden_dim))
    assert np.max(np.abs(attn_block(x.copy(), p, heads) - ref_attn_block(x, p, heads))) < 1e-9


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attn_block_chunked_batch_is_bit_identical(rng, heads):
    # one 1100 x 1100 float64 score slice (9.7 MB) exceeds EXACT_BLOCK_BYTES,
    # so the three slices run as three chunks
    L = 1100
    assert L * L * 8 > EXACT_BLOCK_BYTES
    cfg = AnalyzerConfig(hidden_dim=4, num_heads=heads)
    net, _ = random_net(cfg, 21 + heads)
    p = net.layers[0].cross_solution
    x = rng.normal(size=(3, L, cfg.hidden_dim))
    out = attn_block(x.copy(), p, heads)
    assert np.array_equal(out, np.stack([attn_block(s.copy(), p, heads) for s in x]))
    assert np.max(np.abs(out[1] - ref_attn_block(x[1], p, heads))) < 1e-9


def test_large_forward_holds_bounded_scores():
    # one stage's scores at (m=1000, d=20) are 160 MB if held all at once
    cfg = AnalyzerConfig()
    net, rng = random_net(cfg, 9)
    obs = random_observation(rng, m=1000, d=20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        net.features(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- rank-2 first cross-solution stage -------------------------------------------


def rank2_case(m, d, heads=1, layers=1):
    cfg = AnalyzerConfig(num_heads=heads, num_layers=layers)
    net, rng = random_net(cfg, 31 + heads + layers)
    return net, random_observation(rng, m=m, d=d)


def exact_features(net, obs):
    return ts_attn_forward(embed(pie_normalize(obs), net.w_emb), net)


@pytest.mark.parametrize(
    "m, d, heads, layers",
    [(1000, 10, 1, 1), (1000, 10, 2, 1), (1000, 10, 4, 1),
     (330, 12, 1, 1), (330, 12, 2, 1), (330, 12, 4, 1), (330, 12, 2, 2)],
)
def test_rank2_forward_matches_exact_path(monkeypatch, m, d, heads, layers):
    # layer 0's cross-solution scores chunk at these shapes, so features()
    # runs that stage (and only that one) through the rank-2 core
    net, obs = rank2_case(m, d, heads, layers)
    calls = []
    core = analyzer._rank2_attention
    monkeypatch.setattr(analyzer, "_rank2_attention", lambda *a: calls.append(1) or core(*a))
    fs = net.features(obs)
    assert len(calls) > 0
    calls.clear()
    exact = exact_features(net, obs)
    assert not calls
    assert np.max(np.abs(fs.per_candidate - exact.per_candidate)) < 1e-12
    assert np.max(np.abs(fs.population - exact.population)) < 1e-12


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_rank2_stage_matches_scalar_oracle(heads):
    net, obs = rank2_case(330, 12, heads)
    U = pie_normalize(obs)
    E = embed(U, net.w_emb)
    p = net.layers[0].cross_solution
    out = attn_block(E.copy(), p, heads, rank2=(U, net.w_emb))
    for j in (0, E.shape[0] - 1):
        assert np.max(np.abs(out[j] - ref_attn_block(E[j], p, heads))) < 1e-9


def test_rank2_forward_matches_scalar_oracle():
    net, obs = rank2_case(330, 12, heads=2)
    ref_indiv, ref_pop = ref_ts_attn(embed(pie_normalize(obs), net.w_emb), net)
    fs = net.features(obs)
    assert np.max(np.abs(fs.per_candidate - ref_indiv)) < 1e-9
    assert np.max(np.abs(fs.population - ref_pop)) < 1e-9


def _no_rank2(*args):
    raise AssertionError("rank-2 core reached")


@pytest.mark.parametrize("m, d", [(50, 10), (100, 100), (323, 10)])
def test_unchunked_forward_never_takes_rank2(monkeypatch, m, d):
    # (323, 10) is the largest m at d=10 whose layer-0 scores fit one chunk
    assert d * m * m * 8 <= SCORE_BLOCK_BYTES
    net, obs = rank2_case(m, d)
    monkeypatch.setattr(analyzer, "_rank2_attention", _no_rank2)
    fs = net.features(obs)
    exact = exact_features(net, obs)
    assert np.array_equal(fs.per_candidate, exact.per_candidate)
    assert np.array_equal(fs.population, exact.population)


def test_first_chunked_shape_takes_rank2(monkeypatch):
    assert 10 * 324 * 324 * 8 > SCORE_BLOCK_BYTES
    net, obs = rank2_case(324, 10)
    monkeypatch.setattr(analyzer, "_rank2_attention", _no_rank2)
    with pytest.raises(AssertionError, match="rank-2 core reached"):
        net.features(obs)


def test_rank2_forward_peak_memory_no_higher_than_exact():
    # U (1.6 MB here) is released after layer 0's cross-solution stage, so
    # at the peak the rank-2 forward holds only a few more small Python
    # objects than the exact one
    net, obs = rank2_case(1000, 100)
    net.features(obs)  # warm caches and code paths before measuring
    exact_features(net, obs)
    rank2 = traced_peak(lambda: net.features(obs))
    assert rank2 <= traced_peak(lambda: exact_features(net, obs)) + 1024


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize(
    # at m = 330: 1-row tiles, 128-row tiles with a 74-row last one, one tile
    "tile_bytes", [8, 128 * 330 * 8, 330 * 330 * 8],
    ids=["one_row", "partial_last", "single"],
)
def test_rank2_tiles_match_exact_path(monkeypatch, tile_bytes, heads):
    net, obs = rank2_case(330, 12, heads)
    monkeypatch.setattr(analyzer, "RANK2_TILE_BYTES", tile_bytes)
    fs = net.features(obs)
    exact = exact_features(net, obs)
    assert np.max(np.abs(fs.per_candidate - exact.per_candidate)) < 1e-12
    assert np.max(np.abs(fs.population - exact.population)) < 1e-12


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_rank2_extreme_weights_stay_finite_and_exact(heads):
    # weights 1000x the usual scale spread each row of scores over 1e8 to
    # 6e10, so a shift far below a row's true max overflows exp and one far
    # above it underflows the whole row; y falls as X[:, 0] grows
    cfg = AnalyzerConfig(num_heads=heads)
    net, rng = random_net(cfg, 31 + heads, scale=300.0)
    X = rng.uniform(-5, 5, (330, 12))
    obs = Observation(X=X, y=-X[:, 0] + 0.01 * rng.normal(size=330), lb=-5, ub=5)
    fs = net.features(obs)
    exact = exact_features(net, obs)
    assert np.all(np.isfinite(fs.per_candidate))
    assert np.max(np.abs(fs.per_candidate - exact.per_candidate)) < 1e-12
    assert np.max(np.abs(fs.population - exact.population)) < 1e-12


def _no_fallback(*args):
    raise AssertionError("exact-max fallback reached")


@pytest.mark.parametrize(
    "m, d, heads", [(1000, 10, 1), (1000, 10, 4), (330, 12, 2), (324, 10, 1)]
)
def test_rank2_normal_weights_never_fall_back(monkeypatch, m, d, heads):
    # the extreme-point shift sits close enough to each row's max that exp
    # overflows nowhere at the usual weight scale
    net, obs = rank2_case(m, d, heads)
    monkeypatch.setattr(analyzer, "_exact_rows", _no_fallback)
    net.features(obs)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_rank2_extreme_weights_redo_only_nonfinite_rows(monkeypatch, heads):
    # the weights and observation of test_rank2_extreme_weights_stay_finite_and_exact
    net, rng = random_net(AnalyzerConfig(num_heads=heads), 31 + heads, scale=300.0)
    X = rng.uniform(-5, 5, (330, 12))
    obs = Observation(X=X, y=-X[:, 0] + 0.01 * rng.normal(size=330), lb=-5, ub=5)
    redone = []
    exact_rows = analyzer._exact_rows

    def spy(w, keys, rows, out, scores, lhs):
        # every row handed over has a non-finite sum, and no other row has
        assert not np.isfinite(out[rows, 2]).any()
        assert np.count_nonzero(~np.isfinite(out[:, 2])) == rows.size
        exact_rows(w, keys, rows, out, scores, lhs)
        assert np.all(np.isfinite(out))
        redone.append(rows.size)

    monkeypatch.setattr(analyzer, "_exact_rows", spy)
    fs = net.features(obs)
    assert 0 < sum(redone) < 330 * 12 * heads
    assert np.all(np.isfinite(fs.per_candidate))


def degenerate_observation(kind, rng):
    """(330, 12) populations whose every 2-channel slice U is degenerate:
    one repeated point, or points on a line."""
    m, d = 330, 12
    if kind == "all_equal":
        X, y = np.tile(rng.uniform(-5, 5, d), (m, 1)), np.ones(m)
    else:  # collinear: positions and objective affine in one parameter
        t = rng.uniform(0, 1, m)
        X, y = -5 + np.outer(t, rng.uniform(1, 10, d)), 2 * t - 1
    return Observation(X=X, y=y, lb=-5, ub=5)


RANK2_SWEEP_OBSERVATIONS = ("random", "all_equal", "collinear", "m324_d10")


def sweep_case(kind, scale):
    net, rng = random_net(AnalyzerConfig(num_heads=2), 41, scale=scale)
    if kind == "random":
        return net, random_observation(rng, m=330, d=12)
    if kind == "m324_d10":  # the smallest chunked shape at d = 10
        return net, random_observation(rng, m=324, d=10)
    return net, degenerate_observation(kind, rng)


def relative_gap(out, exact):
    """Largest gap over the features' magnitude (at least 1): the layer-norm
    gains scale the features, and their rounding, with the weights."""
    return np.max(np.abs(out - exact)) / max(1.0, np.max(np.abs(exact)))


@pytest.mark.parametrize("tile_rows", [1, 128, None], ids=["one_row", "128_rows", "single"])
@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1e1, 1e3])
@pytest.mark.parametrize("kind", RANK2_SWEEP_OBSERVATIONS)
def test_rank2_forward_matches_exact_path_across_scales(monkeypatch, kind, scale, tile_rows):
    net, obs = sweep_case(kind, scale)
    m = obs.X.shape[0]
    monkeypatch.setattr(analyzer, "RANK2_TILE_BYTES", (tile_rows or m) * m * 8)
    fs = net.features(obs)
    exact = exact_features(net, obs)
    assert np.all(np.isfinite(fs.per_candidate))
    assert relative_gap(fs.per_candidate, exact.per_candidate) < 1e-12
    assert relative_gap(fs.population, exact.population) < 1e-12


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("kind", RANK2_SWEEP_OBSERVATIONS)
def test_rank2_stage_matches_scalar_oracle_across_scales(kind, scale):
    net, obs = sweep_case(kind, scale)
    U = pie_normalize(obs)
    E = embed(U, net.w_emb)
    p = net.layers[0].cross_solution
    out = attn_block(E.copy(), p, 2, rank2=(U, net.w_emb))
    assert relative_gap(out[0], ref_attn_block(E[0], p, 2)) < 1e-9


def test_rank2_core_holds_one_tile_of_scores():
    # one (1000, 1000) slice: 8 MB of scores untiled, 131 rows of them tiled
    net, obs = rank2_case(1000, 1)
    u = pie_normalize(obs).reshape(1, 1000, 2)
    a, vo = analyzer._rank2_maps(net.w_emb, net.layers[0].cross_solution, 1)
    analyzer._rank2_attention(u, a, vo)
    assert traced_peak(lambda: analyzer._rank2_attention(u, a, vo)) < 2 * RANK2_TILE_BYTES


# --- the rank-2 core's truncated-Taylor path -------------------------------------


def taylor_bound(rho, p):
    """Relative error bound of a degree-p expansion at radius rho."""
    return math.exp(2 * rho) * rho ** (p + 1) / math.factorial(p + 1)


def spy_degrees(monkeypatch):
    """Record every (rho, p) the degree chooser returns."""
    chosen = []
    choose = analyzer._taylor_degree
    monkeypatch.setattr(
        analyzer, "_taylor_degree", lambda rho: chosen.append((rho, choose(rho))) or chosen[-1][1]
    )
    return chosen


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(analyzer, name)
    monkeypatch.setattr(analyzer, name, lambda *a: calls.append(1) or fn(*a))
    return calls


def golden_net():
    config, theta, _ = load_checkpoint(DATA / "run" / "analyzer_best.json")
    return decode_params(theta, config)


@pytest.mark.parametrize("weights", ["normal_0.2", "normal_0.5", "golden"])
def test_taylor_degree_is_smallest_meeting_bound(monkeypatch, weights):
    if weights == "golden":
        net = golden_net()
        rng = np.random.default_rng(7)
    else:
        scale = float(weights.split("_")[1])
        net, rng = random_net(AnalyzerConfig(num_heads=2), 43, scale=scale)
    obs = random_observation(rng, m=1000, d=10)
    chosen = spy_degrees(monkeypatch)
    taylor = count_calls(monkeypatch, "_taylor_rows")
    net.features(obs)
    assert len(chosen) == 10 * net.config.num_heads  # once per (slice, head)
    assert len(taylor) > 0
    for rho, p in chosen:
        assert 0 < rho <= analyzer.TAYLOR_MAX_RHO
        assert taylor_bound(rho, p) <= analyzer.TAYLOR_TOL
        assert p == 0 or taylor_bound(rho, p - 1) > analyzer.TAYLOR_TOL


def test_taylor_all_equal_keys_take_degree_zero_mean(monkeypatch):
    # one repeated point: rho = 0, and degree 0 averages U exactly
    U = pie_normalize(degenerate_observation("all_equal", np.random.default_rng(3)))
    net, _ = random_net(AnalyzerConfig(num_heads=2), 41, scale=0.3)
    a, vo = analyzer._rank2_maps(net.w_emb, net.layers[0].cross_solution, 2)
    chosen = spy_degrees(monkeypatch)
    out = analyzer._rank2_attention(U, a, vo)
    assert chosen == [(0.0, 0)] * (U.shape[0] * 2)
    mean = np.concatenate([U.mean(axis=1)] * 2, axis=-1) @ vo
    assert np.max(np.abs(out - mean[:, None, :])) <= 1e-14 * np.max(np.abs(mean))


@pytest.mark.parametrize("entry", [np.nan, 1e308], ids=["nan", "overflow"])
def test_taylor_nonfinite_rho_reaches_tiles(monkeypatch, entry):
    u = np.random.default_rng(5).uniform(0, 1, (2, 330, 2))
    u[:, 0] = 1.0  # its queries are 2e308 = inf at the overflow entries
    a = np.full((1, 2, 2), entry)
    chosen = spy_degrees(monkeypatch)
    tiles = count_calls(monkeypatch, "_tiled_rows")
    with np.errstate(all="ignore"):
        analyzer._rank2_attention(u, a, np.eye(2))
    assert len(tiles) == 2
    assert [p for _, p in chosen] == [None, None]
    assert not any(math.isfinite(rho) for rho, _ in chosen)


def test_taylor_scale_300_weights_reach_tiles(monkeypatch):
    # the weights and observation of test_rank2_extreme_weights_stay_finite_and_exact
    net, rng = random_net(AnalyzerConfig(num_heads=2), 33, scale=300.0)
    X = rng.uniform(-5, 5, (330, 12))
    obs = Observation(X=X, y=-X[:, 0] + 0.01 * rng.normal(size=330), lb=-5, ub=5)
    chosen = spy_degrees(monkeypatch)
    tiles = count_calls(monkeypatch, "_tiled_rows")
    fs = net.features(obs)
    assert len(tiles) == len(chosen) == 12 * 2
    assert all(p is None and rho > analyzer.TAYLOR_MAX_RHO for rho, p in chosen)
    assert np.all(np.isfinite(fs.per_candidate))


def _no_tiles(*args):
    raise AssertionError("rank-2 tiles reached")


@pytest.mark.parametrize("heads", [1, 4])
def test_taylor_serves_normal_weights_at_m1000(monkeypatch, heads):
    # the weights perfbench draws: every (slice, head) takes the Taylor path
    net, rng = random_net(AnalyzerConfig(num_heads=heads), 31, scale=0.2)
    monkeypatch.setattr(analyzer, "_shifted_tile", _no_tiles)
    slices = []  # (slice, head)s per stacked call
    taylor = analyzer._taylor_rows
    monkeypatch.setattr(
        analyzer, "_taylor_rows", lambda wr, *a: slices.append(len(wr)) or taylor(wr, *a)
    )
    net.features(random_observation(rng, m=1000, d=10))
    assert sum(slices) == 10 * heads


def tiles_only(monkeypatch):
    """Switch the Taylor path off, so every (slice, head) runs in tiles."""
    monkeypatch.setattr(analyzer, "_taylor_degree", lambda rho: None)
    return count_calls(monkeypatch, "_shifted_tile")


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize(
    "tile_bytes", [8, 128 * 330 * 8, 330 * 330 * 8],
    ids=["one_row", "partial_last", "single"],
)
def test_rank2_tiles_alone_match_exact_path(monkeypatch, tile_bytes, heads):
    tiles = tiles_only(monkeypatch)
    test_rank2_tiles_match_exact_path(monkeypatch, tile_bytes, heads)
    assert len(tiles) > 0


@pytest.mark.parametrize("tile_rows", [1, 128, None], ids=["one_row", "128_rows", "single"])
@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1e1, 1e3])
@pytest.mark.parametrize("kind", RANK2_SWEEP_OBSERVATIONS)
def test_rank2_tiles_alone_match_exact_path_across_scales(monkeypatch, kind, scale, tile_rows):
    tiles = tiles_only(monkeypatch)
    test_rank2_forward_matches_exact_path_across_scales(monkeypatch, kind, scale, tile_rows)
    assert len(tiles) > 0


def test_large_forward_drops_its_embedding():
    # E (12.8 MB at (1000, 100)) becomes the forward's one activation
    # buffer, which every stage writes over, so the peak is E plus one
    # cross-dimension chunk's scores and temporaries: about 29 MB.  A
    # separate output per stage and a whole-tensor transposed copy peak at
    # about 42 MB, and also holding E to the end at about 55 MB
    net, obs = rank2_case(1000, 100)
    net.features(obs)  # warm caches before measuring
    assert traced_peak(lambda: net.features(obs)) < 34e6


def test_large_forward_holds_cache_sized_chunks():
    # exact chunks of at most EXACT_BLOCK_BYTES of scores: 13 cross-dimension
    # slices of 100 x 100 at (1000, 100), not 104, so the peak is E
    # (12.8 MB) plus about 2.4 MB, against 29.1 MB for 8 MiB chunks
    net, obs = rank2_case(1000, 100)
    net.features(obs)  # warm caches before measuring
    assert traced_peak(lambda: net.features(obs)) < 20e6


@pytest.mark.parametrize("m, d", [(1000, 10), (330, 10)])
def test_exact_chunk_size_leaves_forward_bits(monkeypatch, m, d):
    # features() takes the rank-2 layer 0 at both shapes, exact_features()
    # the exact one; 8-byte chunks run every stage one slice at a time, so
    # the cross-dimension stage goes from one chunk to m
    net, obs = rank2_case(m, d)
    whole = net.features(obs)
    exact = exact_features(net, obs)
    monkeypatch.setattr(analyzer, "EXACT_BLOCK_BYTES", 8)
    for want, got in ((whole, net.features(obs)), (exact, exact_features(net, obs))):
        assert np.array_equal(got.per_candidate, want.per_candidate)
        assert np.array_equal(got.population, want.population)


@pytest.mark.parametrize("block_bytes", [EXACT_BLOCK_BYTES, 2 * 81 * 8])
def test_ts_attn_forward_runs_in_its_input(monkeypatch, block_bytes):
    # the last stage's output is left in E, whose mean over dimensions is
    # the per-candidate feature: no stage wrote to an array of its own
    monkeypatch.setattr(analyzer, "EXACT_BLOCK_BYTES", block_bytes)
    net, rng = random_net(AnalyzerConfig(num_heads=2, num_layers=2), 17)
    E = rng.normal(size=(7, 9, 16))
    ref_indiv, ref_pop = ref_ts_attn(E, net)
    fs = ts_attn_forward(E, net)
    assert np.array_equal(fs.per_candidate, E.mean(axis=0))
    assert np.max(np.abs(fs.per_candidate - ref_indiv)) < 1e-9
    assert np.max(np.abs(fs.population - ref_pop)) < 1e-9


def test_chunked_stacked_forward_is_bit_identical(monkeypatch):
    # at most three slices of 9 rows or four of 7 per chunk (a two-head
    # slice of L rows takes 8 L (3 h + 2 + 2 L) bytes at h = f = 16), cut
    # equal: chunks of 2, 2, 3 over d = 7 and of 3, 3, 3 over m = 9, so
    # layer 1 reads what layer 0's chunks wrote back, whichever worker ran
    # them
    net, rng = random_net(AnalyzerConfig(num_heads=2, num_layers=2), 19)
    E = rng.normal(size=(7, 9, 16))
    whole = ts_attn_forward(E.copy(), net)
    monkeypatch.setattr(analyzer, "EXACT_BLOCK_BYTES", 3 * 8 * 9 * (3 * 16 + 2 + 2 * 9))
    calls = []
    block = analyzer.self_attention
    monkeypatch.setattr(
        analyzer, "self_attention", lambda x, *a: calls.append(x.shape[0]) or block(x, *a)
    )
    chunked = ts_attn_forward(E, net)
    assert sorted(calls) == sorted([2, 2, 3, 3, 3, 3] * 2)
    assert np.array_equal(chunked.per_candidate, whole.per_candidate)
    assert np.array_equal(chunked.population, whole.population)


# --- two-stage forward ------------------------------------------------------------


def test_ts_attn_matches_scalar_oracle(rng):
    for seed in range(3):
        cfg = AnalyzerConfig()
        net, _ = random_net(cfg, seed)
        E = rng.normal(size=(3, 4, cfg.hidden_dim))
        ref_indiv, ref_pop = ref_ts_attn(E, net)
        fs = ts_attn_forward(E, net)
        assert np.max(np.abs(fs.per_candidate - ref_indiv)) < 1e-9
        assert np.max(np.abs(fs.population - ref_pop)) < 1e-9


def test_ts_attn_stacked_layers_match_oracle(rng):
    cfg = AnalyzerConfig(num_layers=2)
    net, _ = random_net(cfg, 5)
    E = rng.normal(size=(3, 4, cfg.hidden_dim))
    ref_indiv, ref_pop = ref_ts_attn(E, net)
    fs = ts_attn_forward(E, net)
    assert np.max(np.abs(fs.per_candidate - ref_indiv)) < 1e-9


def test_population_feature_is_mean_of_rows(rng):
    cfg = AnalyzerConfig()
    net, _ = random_net(cfg, 7)
    obs = random_observation(rng, m=2, d=1)
    fs = net.features(obs)
    assert np.max(np.abs(fs.population - fs.per_candidate.mean(axis=0))) < 1e-9


def test_candidate_permutation_equivariance(rng):
    cfg = AnalyzerConfig()
    net, _ = random_net(cfg, 13)
    obs = random_observation(rng, m=6, d=3)
    perm = rng.permutation(6)
    permuted = Observation(X=obs.X[perm], y=obs.y[perm], lb=obs.lb, ub=obs.ub)
    fs = net.features(obs)
    fs_p = net.features(permuted)
    assert np.max(np.abs(fs_p.per_candidate - fs.per_candidate[perm])) < 1e-9
    assert np.max(np.abs(fs_p.population - fs.population)) < 1e-9


@given(
    seed=st.integers(0, 2**31 - 1),
    a=st.floats(0.1, 50.0),
    b=st.floats(-20.0, 20.0),
)
def test_objective_scale_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    cfg = AnalyzerConfig()
    net = decode_params(rng.normal(0, 0.3, param_count(cfg)), cfg)
    obs = random_observation(rng)
    scaled = Observation(X=obs.X, y=a * obs.y + b, lb=obs.lb, ub=obs.ub)
    fs = net.features(obs)
    fs_s = net.features(scaled)
    assert np.max(np.abs(fs.per_candidate - fs_s.per_candidate)) < 1e-6
    assert np.max(np.abs(fs.population - fs_s.population)) < 1e-6


@given(
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.05, 30.0),
    shift=st.floats(-100.0, 100.0),
)
def test_search_box_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    cfg = AnalyzerConfig()
    net = decode_params(rng.normal(0, 0.3, param_count(cfg)), cfg)
    obs = random_observation(rng)
    remapped = Observation(
        X=scale * obs.X + shift,
        y=obs.y,
        lb=scale * obs.lb + shift,
        ub=scale * obs.ub + shift,
    )
    fs = net.features(obs)
    fs_r = net.features(remapped)
    assert np.max(np.abs(fs.per_candidate - fs_r.per_candidate)) < 1e-6


def test_forward_is_deterministic(rng):
    cfg = AnalyzerConfig()
    net, _ = random_net(cfg, 17)
    obs = random_observation(rng)
    a = net.features(obs)
    b = net.features(obs)
    assert np.array_equal(a.per_candidate, b.per_candidate)


# --- codec --------------------------------------------------------------------


def test_param_count_default_is_3296():
    cfg = AnalyzerConfig()
    h, layers = cfg.hidden_dim, cfg.num_layers
    formula = 2 * h + 2 * layers * (6 * h * h + 6 * h)
    assert param_count(cfg) == formula == 3296
    assert 3000 <= param_count(cfg) <= 3500


def test_param_count_monotone_in_size():
    small = param_count(AnalyzerConfig(hidden_dim=16, num_layers=1))
    big = param_count(AnalyzerConfig(hidden_dim=64, num_layers=3))
    assert big > small


@pytest.mark.parametrize("h,layers", [(4, 1), (8, 2), (16, 1), (6, 3)])
def test_decode_fills_tensors_in_layout_order(h, layers):
    cfg = AnalyzerConfig(hidden_dim=h, num_layers=layers)
    theta = np.arange(param_count(cfg), dtype=float)
    net = decode_params(theta, cfg)
    assert np.array_equal(net.w_emb, theta[: 2 * h].reshape(2, h))
    assert np.array_equal(net.layers[-1].cross_dimension.ln2_bias, theta[-h:])
    assert len(net.layers) == layers


def test_decode_reports_expected_and_actual_length():
    cfg = AnalyzerConfig()
    with pytest.raises(ConfigError, match="10"):
        decode_params(np.zeros(10), cfg)
    with pytest.raises(ConfigError, match="3296"):
        decode_params(np.zeros(10), cfg)


def test_checkpoint_rejects_vector_of_wrong_length(tmp_path):
    cfg = AnalyzerConfig()
    with pytest.raises(ConfigError, match=r"\(5,\).*3296"):
        save_checkpoint(tmp_path / "net.json", cfg, np.zeros(5))
    assert not (tmp_path / "net.json").exists()


# --- checkpoint round trip -------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    cfg = AnalyzerConfig()
    theta = rng.normal(size=param_count(cfg))
    path = tmp_path / "net.json"
    save_checkpoint(path, cfg, theta, provenance={"generation": 3, "seed": 1, "fitness": 0.5})
    cfg2, theta2, prov = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(theta2, theta)
    assert prov["generation"] == 3


def test_checkpoint_tamper_detected(tmp_path, rng):
    cfg = AnalyzerConfig()
    theta = rng.normal(size=param_count(cfg))
    path = tmp_path / "net.json"
    save_checkpoint(path, cfg, theta)
    text = path.read_text().replace('"generation"', '"generatiom"', 1)
    corrupted = text.replace('"param_count": 3296', '"param_count": 3295')
    path.write_text(corrupted)
    with pytest.raises(IntegrityError):
        load_checkpoint(path)
