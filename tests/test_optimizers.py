import numpy as np
import pytest
from hypothesis import given, strategies as st

from popscape.errors import ConfigError
from popscape.optimizers import (
    DeConfig,
    PsoConfig,
    de_step,
    init_state,
    pso_step,
)
from popscape.problems import ProblemSpec, make_problem, evaluate_batch

from .reference import ref_de_generation, ref_pso_step


def sphere_problem(d=3, seed=0):
    return make_problem(ProblemSpec(function_id=1, dimension=d, offset=np.zeros(d), seed=seed))


def copy_rng(rng):
    clone = np.random.Generator(np.random.PCG64())
    clone.bit_generator.state = rng.bit_generator.state
    return clone


def test_de_rejects_small_population(rng):
    problem = sphere_problem()
    state = init_state(problem, 3, rng)
    cfg = DeConfig(F=np.full(3, 0.5), Cr=np.full(3, 0.9))
    with pytest.raises(ConfigError):
        de_step(state, cfg, problem, rng)


def test_de_matches_scalar_trace(rng):
    problem = sphere_problem(d=2, seed=3)
    state = init_state(problem, 6, rng)
    cfg = DeConfig(F=rng.uniform(0.2, 0.9, 6), Cr=rng.uniform(0.0, 1.0, 6))
    ref_rng = copy_rng(rng)
    X0 = state.X.copy()
    y0 = state.y.copy()

    ref_problem = sphere_problem(d=2, seed=3)
    _, ref_X, ref_y = ref_de_generation(
        X0, y0, cfg.F, cfg.Cr, problem.lower, problem.upper,
        lambda T: evaluate_batch(ref_problem, T), ref_rng,
    )
    de_step(state, cfg, problem, rng)
    assert np.array_equal(state.X, ref_X)
    assert np.array_equal(state.y, ref_y)


@pytest.mark.parametrize("m, d", [(50, 10), (4, 3)], ids=["m50_d10", "m4_d3"])
def test_de_matches_scalar_trace_over_many_steps(m, d):
    rng = np.random.default_rng(m * 100 + d)
    problem = make_problem(ProblemSpec(function_id=8, dimension=d, offset=np.zeros(d), seed=2))
    ref_problem = make_problem(ProblemSpec(function_id=8, dimension=d, offset=np.zeros(d), seed=2))
    state = init_state(problem, m, rng)
    F = rng.uniform(0.0, 0.99, m)
    Cr = rng.uniform(0.0, 1.0, m)
    F[0], Cr[1], Cr[2] = 0.0, 0.0, 1.0
    cfg = DeConfig(F=F, Cr=Cr)
    ref_rng = copy_rng(rng)
    ref_X, ref_y = state.X.copy(), state.y.copy()
    for _ in range(40):
        _, ref_X, ref_y = ref_de_generation(
            ref_X, ref_y, F, Cr, problem.lower, problem.upper,
            lambda T: evaluate_batch(ref_problem, T), ref_rng,
        )
        de_step(state, cfg, problem, rng)
        assert np.array_equal(state.X, ref_X)
        assert np.array_equal(state.y, ref_y)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_de_zero_factor_full_crossover_copies_donor(rng):
    """F=0, Cr=1: the trial equals the first donor exactly."""
    problem = sphere_problem(d=4, seed=1)
    state = init_state(problem, 6, rng)
    cfg = DeConfig(F=np.zeros(6), Cr=np.ones(6))
    ref_rng = copy_rng(rng)
    trials, _, _ = ref_de_generation(
        state.X.copy(), state.y.copy(), cfg.F, cfg.Cr,
        problem.lower, problem.upper,
        lambda T: evaluate_batch(sphere_problem(d=4, seed=1), T), copy_rng(rng),
    )
    # re-derive the donors with an identical generator to check exact equality
    m = 6
    X0 = state.X.copy()
    for i in range(m):
        others = [j for j in range(m) if j != i]
        perm = ref_rng.permutation(m - 1)
        r1 = others[perm[0]]
        ref_rng.random(4)
        ref_rng.integers(4)
        assert np.array_equal(trials[i], X0[r1])


def test_de_no_crossover_changes_exactly_one_dimension(rng):
    problem = sphere_problem(d=5, seed=2)
    state = init_state(problem, 6, rng)
    cfg = DeConfig(F=np.full(6, 0.5), Cr=np.zeros(6))
    trials, _, _ = ref_de_generation(
        state.X.copy(), state.y.copy(), cfg.F, cfg.Cr,
        problem.lower, problem.upper,
        lambda T: evaluate_batch(sphere_problem(d=5, seed=2), T), copy_rng(rng),
    )
    changed = np.sum(trials != state.X, axis=1)
    assert np.all(changed <= 1)  # boundary clamp can re-copy the target value
    assert np.all(changed >= 0)


def test_de_elitism_never_worsens(rng):
    problem = sphere_problem(d=4)
    state = init_state(problem, 8, rng)
    for _ in range(5):
        y_before = state.y.copy()
        cfg = DeConfig(F=rng.uniform(0.1, 0.9, 8), Cr=rng.uniform(0, 1, 8))
        de_step(state, cfg, problem, rng)
        assert np.all(state.y <= y_before)
    assert state.best_y == state.y.min()


def test_pso_zero_coefficients_freeze_positions(rng):
    problem = sphere_problem(d=3)
    state = init_state(problem, 5, rng)
    X0 = state.X.copy()
    pso_step(state, PsoConfig(inertia=0.0, cognitive=0.0, social=0.0), problem, rng)
    assert np.array_equal(state.X, X0)


def test_pso_at_global_best_moves_by_inertia_only(rng):
    problem = sphere_problem(d=2)
    state = init_state(problem, 4, rng)
    # force particle 0 to sit at both its personal best and the global best
    state.X[0] = state.best_x.copy()
    state.personal_best_x[0] = state.best_x.copy()
    state.velocities[0] = np.array([0.1, -0.2])
    w = 0.7
    x0 = state.X[0].copy()
    v0 = state.velocities[0].copy()
    pso_step(state, PsoConfig(inertia=w, cognitive=1.5, social=1.5), problem, rng)
    assert np.allclose(state.X[0], np.clip(x0 + w * v0, -5, 5), atol=1e-12)


def test_pso_matches_scalar_trace(rng):
    problem = sphere_problem(d=2, seed=5)
    state = init_state(problem, 4, rng)
    w, c1, c2 = 0.6, 1.2, 0.8
    ref = ref_pso_step(
        state.X.copy(), state.velocities.copy(),
        state.personal_best_x.copy(), state.personal_best_y.copy(),
        state.best_x.copy(), w, c1, c2, problem.lower, problem.upper,
        lambda T: evaluate_batch(sphere_problem(d=2, seed=5), T), copy_rng(rng),
    )
    pso_step(state, PsoConfig(inertia=w, cognitive=c1, social=c2), problem, rng)
    assert np.array_equal(state.X, ref[0])
    assert np.array_equal(state.velocities, ref[1])
    assert np.array_equal(state.y, ref[2])


@given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(["de", "pso"]))
def test_positions_stay_feasible(seed, kind):
    rng = np.random.default_rng(seed)
    problem = sphere_problem(d=3, seed=seed)
    state = init_state(problem, 6, rng)
    for _ in range(3):
        if kind == "de":
            cfg = DeConfig(F=rng.uniform(0.1, 0.9, 6), Cr=rng.uniform(0, 1, 6))
            de_step(state, cfg, problem, rng)
        else:
            pso_step(state, PsoConfig(0.9, 2.0, 2.0), problem, rng)
        assert np.all(state.X >= -5.0) and np.all(state.X <= 5.0)
        assert state.best_y <= state.y.min() + 1e-15


def test_best_so_far_non_increasing_both_kinds(rng):
    for kind in ("de", "pso"):
        problem = sphere_problem(d=3, seed=7)
        state = init_state(problem, 6, rng)
        best = state.best_y
        for _ in range(10):
            if kind == "de":
                de_step(state, DeConfig(F=np.full(6, 0.5), Cr=np.full(6, 0.9)), problem, rng)
            else:
                pso_step(state, PsoConfig(0.7, 1.5, 1.5), problem, rng)
            assert state.best_y <= best
            best = state.best_y


def test_reproducible_trajectories():
    def run():
        rng = np.random.default_rng(33)
        problem = sphere_problem(d=3, seed=12)
        state = init_state(problem, 6, rng)
        for _ in range(4):
            de_step(state, DeConfig(F=np.full(6, 0.6), Cr=np.full(6, 0.8)), problem, rng)
        return state.X.copy(), state.y.copy(), state.best_y

    a, b = run(), run()
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_config_clamping_warns(caplog):
    import logging

    with caplog.at_level(logging.WARNING):
        cfg = DeConfig(F=np.array([1.5, 0.5, 0.5, 0.5]), Cr=np.array([0.5, -0.1, 0.5, 0.5]))
    assert np.all(cfg.F < 1.0) and np.all(cfg.Cr >= 0.0)
    assert any("clamping" in r.message for r in caplog.records)


@pytest.mark.parametrize("field", ["F", "Cr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_de_config_rejects_non_finite_control(field, bad):
    controls = {"F": np.full(4, 0.5), "Cr": np.full(4, 0.9)}
    controls[field][2] = bad
    with pytest.raises(ConfigError, match=f"DE control {field} is not finite"):
        DeConfig(**controls)


@pytest.mark.parametrize("field", ["inertia", "cognitive", "social"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pso_config_rejects_non_finite_control(field, bad):
    controls = {"inertia": 0.7, "cognitive": 1.5, "social": 1.5, field: bad}
    with pytest.raises(ConfigError, match=f"PSO control {field} is not finite"):
        PsoConfig(**controls)
