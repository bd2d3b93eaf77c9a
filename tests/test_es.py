import json
import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from popscape.errors import ConfigError
from popscape.es import (
    EsConfig,
    EsVariant,
    es_init,
    es_sample,
    es_update,
    minimize,
    sanitize_fitness,
    recombination_weights,
    state_from_dict,
    state_to_dict,
    trace_to_csv,
)

ALL_VARIANTS = [v.value for v in EsVariant]


def sphere(X):
    return np.sum(X * X, axis=1)


def separable_ellipsoid(X):
    d = X.shape[1]
    return (X * X) @ (10.0 ** (6.0 * np.arange(d) / (d - 1)))


def rosenbrock(X):
    a, b = X[:, :-1], X[:, 1:]
    return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)


# --- init -----------------------------------------------------------------------


def test_init_zero_mean_mode():
    cfg = EsConfig(variant="cmaes", dim=5, population=8, initial_mean_mode="zero")
    state = es_init(cfg)
    assert np.all(state.mean == 0.0)
    assert state.sigma == 0.3
    assert np.all(state.p_sigma == 0.0) and np.all(state.p_c == 0.0)
    assert np.array_equal(state.C, np.eye(5))


def test_init_same_seed_identical():
    cfg = EsConfig(variant="r1es", dim=6, population=8, seed=42)
    a, b = es_init(cfg), es_init(cfg)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(es_sample(a), es_sample(b))


def test_init_explicit_mean_override():
    mean = np.linspace(-1, 1, 5)
    cfg = EsConfig(variant="fast_cmaes", dim=5, population=6)
    state = es_init(cfg, mean=mean)
    assert np.array_equal(state.mean, mean)
    with pytest.raises(ConfigError):
        es_init(cfg, mean=np.zeros(4))


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        EsConfig(variant="cmaes", dim=5, population=3)
    for sigma in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="initial sigma"):
            EsConfig(variant="cmaes", dim=5, population=8, initial_sigma=sigma)
    with pytest.raises(ConfigError, match="unknown ES variant 'not_a_variant'; one of"):
        EsConfig(variant="not_a_variant", dim=5, population=8)


def test_path_learning_rate_must_lie_in_zero_two():
    # a NaN filled the mixture path with NaN; -1 or 2.5 made the first
    # update take the square root of a negative number
    for lr in (np.nan, np.inf, -1.0, 2.5):
        with pytest.raises(ConfigError, match=r"path_lr must be in \[0, 2\]"):
            EsConfig(variant="fast_cmaes", dim=5, population=8, path_lr=lr)
    for lr in (0.0, 2.0):
        assert EsConfig(variant="fast_cmaes", dim=5, population=8, path_lr=lr).path_lr == lr


def test_default_path_learning_rate():
    cfg = EsConfig(variant="fast_cmaes", dim=15, population=8)
    assert cfg.path_lr == pytest.approx(2.0 / 20.0)


# --- sampling --------------------------------------------------------------------


def test_tiny_sigma_concentrates_at_mean():
    cfg = EsConfig(
        variant="cmaes", dim=4, population=8, initial_sigma=1e-12, initial_mean_mode="zero"
    )
    state = es_init(cfg)
    X = es_sample(state, 100)
    assert np.max(np.abs(X - state.mean)) < 1e-10


@pytest.mark.parametrize("variant", ["cmaes", "sep_cmaes"])
def test_sample_statistics_match_distribution(variant):
    cfg = EsConfig(
        variant=variant, dim=3, population=8, initial_sigma=0.3,
        initial_mean_mode="uniform_random", seed=5,
    )
    state = es_init(cfg)
    X = es_sample(state, 100_000)
    se = 0.3 / np.sqrt(100_000)
    assert np.all(np.abs(X.mean(axis=0) - state.mean) < 5 * se)
    variance = X.var(axis=0)
    assert np.all(np.abs(variance - 0.09) < 0.05 * 0.09)


def test_recombination_weights_shape():
    w, mu_eff = recombination_weights(10)
    assert w.shape == (5,)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(np.diff(w) < 0)
    assert 1.0 < mu_eff <= 5.0


# --- updates ---------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_rank_invariance_bit_exact(variant):
    def run(transform):
        cfg = EsConfig(variant=variant, dim=5, population=8, seed=7)
        state = es_init(cfg)
        rng = np.random.default_rng(11)
        for _ in range(4):
            X = es_sample(state)
            f = rng.normal(size=8)
            es_update(state, X, transform(f))
        return state

    base = run(lambda f: f)
    mapped = run(lambda f: np.exp(2.0 * f) - 7.0)
    assert np.array_equal(base.mean, mapped.mean)
    assert base.sigma == mapped.sigma
    assert np.array_equal(base.best_x, mapped.best_x)
    assert base.rng.bit_generator.state == mapped.rng.bit_generator.state
    assert np.array_equal(es_sample(base), es_sample(mapped))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_all_equal_fitness_is_deterministic(variant):
    def run():
        cfg = EsConfig(variant=variant, dim=4, population=8, seed=3)
        state = es_init(cfg)
        for _ in range(2):
            X = es_sample(state)
            es_update(state, X, np.zeros(8))
        return state

    a, b = run(), run()
    assert np.array_equal(a.mean, b.mean)
    assert a.sigma == b.sigma


def test_tie_case_sigma_still_updates():
    cfg = EsConfig(variant="cmaes", dim=4, population=8, seed=3)
    state = es_init(cfg)
    X = es_sample(state)
    es_update(state, X, np.zeros(8))
    assert state.sigma != cfg.initial_sigma


def test_non_finite_fitness_gets_worst_rank(caplog):
    cfg = EsConfig(variant="cmaes", dim=3, population=8, seed=1)
    state = es_init(cfg)
    X = es_sample(state)
    f = np.arange(8.0)
    f[5] = np.nan
    with caplog.at_level(logging.WARNING):
        es_update(state, X, f)
    assert any("non-finite" in r.message for r in caplog.records)
    assert state.best_f == 7.0  # the NaN candidate never wins


def test_sanitized_fitness_is_not_counted_again(caplog):
    # es_update re-sanitized the -inf that sanitize_fitness wrote and warned twice
    state = es_init(EsConfig(variant="sep_cmaes", dim=3, population=4, seed=2))
    X = es_sample(state)
    with caplog.at_level(logging.WARNING):
        es_update(state, X, sanitize_fitness(np.array([1.0, np.nan, 0.5, -np.inf])))
    assert ["1 non-finite fitness values assigned worst rank"] == [
        r.getMessage() for r in caplog.records
    ]


def test_best_so_far_monotone_under_maximization(rng):
    cfg = EsConfig(variant="rmes", dim=4, population=8, seed=9)
    state = es_init(cfg)
    best = -np.inf
    for _ in range(10):
        X = es_sample(state)
        es_update(state, X, -sphere(X))
        assert state.best_f >= best
        best = state.best_f


def test_stall_detector_sets_flag():
    cfg = EsConfig(variant="cmaes", dim=3, population=8, seed=2, stall_generations=5)
    state = es_init(cfg)
    for _ in range(7):
        X = es_sample(state)
        es_update(state, X, np.zeros(8))  # never improves after the first one
    assert state.stalled


@given(seed=st.integers(0, 2**31 - 1))
def test_mean_moves_toward_elite(seed):
    cfg = EsConfig(variant="cmaes", dim=3, population=8, seed=seed, initial_mean_mode="zero")
    state = es_init(cfg)
    X = es_sample(state)
    f = -sphere(X)
    order = np.argsort(-f, kind="stable")
    w, _ = recombination_weights(8)
    expected = w @ X[order[:4]]
    es_update(state, X, f)
    assert np.allclose(state.mean, expected, atol=1e-12)


# --- serialization -----------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_state_serialization_round_trip(variant):
    cfg = EsConfig(variant=variant, dim=4, population=8, seed=6)
    state = es_init(cfg)
    for _ in range(3):
        X = es_sample(state)
        es_update(state, X, -sphere(X))
    restored = state_from_dict(json.loads(json.dumps(state_to_dict(state))))
    assert np.array_equal(es_sample(state), es_sample(restored))
    assert restored.best_f == state.best_f
    assert restored.gen == state.gen


# --- convergence -------------------------------------------------------------------


def test_cmaes_converges_on_sphere_2d():
    for seed in range(3):
        cfg = EsConfig(variant="cmaes", dim=2, population=8, seed=seed)
        result = minimize(sphere, cfg, 5000, target=1e-10)
        assert result.f < 1e-10


@pytest.mark.parametrize("variant", ["sep_cmaes", "r1es", "rmes", "fast_cmaes"])
def test_all_variants_make_progress_on_sphere(variant):
    cfg = EsConfig(variant=variant, dim=10, population=12, seed=0)
    result = minimize(sphere, cfg, 20000, target=1e-6)
    assert result.f < 1e-6


@pytest.mark.slow
def test_sep_cmaes_beats_full_on_separable_ellipsoid():
    wins = 0
    for seed in range(10):
        evals = {}
        for variant in ("sep_cmaes", "cmaes"):
            cfg = EsConfig(variant=variant, dim=10, population=16, seed=seed)
            result = minimize(separable_ellipsoid, cfg, 200_000, target=1e-8)
            evals[variant] = result.evaluations if result.f < 1e-8 else 10**9
        wins += evals["sep_cmaes"] < evals["cmaes"]
    assert wins >= 7


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_minimize_returns_the_best_point_evaluated(variant):
    seen = []

    def recorded(X):
        seen.append((X.copy(), sphere(X)))
        return seen[-1][1]

    cfg = EsConfig(variant=variant, dim=3, population=6, seed=4)
    result = minimize(recorded, cfg, 120)
    X, values = map(np.concatenate, zip(*seen))
    best = int(np.argmin(values))
    assert result.f == values[best] and np.array_equal(result.x, X[best])
    running = np.minimum.accumulate([v.min() for _, v in seen])
    assert [f for _, _, f in result.trace] == list(running)


def test_minimize_trace_exports_csv():
    cfg = EsConfig(variant="cmaes", dim=2, population=8, seed=0)
    result = minimize(sphere, cfg, 500)
    text = trace_to_csv(result.trace)
    lines = text.splitlines()
    assert lines[0] == "generation,sigma,best_f"
    assert len(lines) == len(result.trace) + 1
