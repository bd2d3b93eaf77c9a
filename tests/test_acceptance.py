"""Acceptance gate: one test per criterion, each printing a PASS line when
it holds at the stated tolerance.  Criterion 5 runs the full desk-scale
training loop three times (baseline run, re-run, interrupt-and-resume) and
is the slow part of the suite.
"""

import hashlib
import time

import numpy as np
import pytest

from popscape.analysis import (
    bench_grid,
    label_for_strength,
    pca_components,
    pca_project,
    pearson_matrix,
    FeatureSeries,
)
from popscape.analyzer import (
    AnalyzerConfig,
    Observation,
    attn_block,
    decode_params,
    param_count,
    pie_normalize,
    save_checkpoint,
    ts_attn_forward,
)
from popscape.ela import (
    dispersion_features,
    fdc_features,
    information_content,
    nearest_better_distances,
)
from popscape.es import EsConfig, EsVariant, es_init, es_sample, es_update, minimize
from popscape.metabbo import (
    HandcraftedExtractor,
    TaskSpec,
    compute_baseline,
    relative_performance,
    z_score,
)
from popscape.trainer import TrainingRunConfig, fine_tune, train, zero_shot
from popscape.utils import cpu_workers

from .reference import (
    ref_attn_block,
    ref_mean,
    ref_distance,
    ref_nearest_better,
    ref_pairwise_distances,
    ref_ts_attn,
)

pytestmark = pytest.mark.acceptance


def ok(criterion: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS")


# --- 1. metric exactness -----------------------------------------------------------


def test_criterion_1_metric_exactness():
    assert z_score(5.0, 5.0, 2.0) == 0.0
    assert z_score(3.0, 5.0, 2.0) == 1.0
    assert z_score(9.0, 5.0, 2.0) == -2.0

    task = TaskSpec(
        id="de_exact", optimizer="de", dimension=5,
        train_functions=(1,), test_functions=(3,),
        population_size=10, budget=200, inner_epochs=1, inner_population=4,
    )
    baseline = compute_baseline(task, q_runs=3, seed_base=2024)
    ups = relative_performance(
        HandcraftedExtractor(), task, baseline, q_runs=3, seed_base=2024
    )
    assert ups.value == 0.0
    ok("1 metric exactness (z-score substitutions, baseline self-comparison = 0)")


# --- 2. analyzer oracle equivalence ---------------------------------------------------


def test_criterion_2_analyzer_oracle_equivalence():
    rng = np.random.default_rng(2)
    cfg = AnalyzerConfig(hidden_dim=16)
    worst_forward = 0.0
    for case in range(20):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(2, 7))
        net = decode_params(rng.normal(0, 0.4, param_count(cfg)), cfg)
        E = rng.normal(size=(d, m, 16))
        ref_indiv, ref_pop = ref_ts_attn(E, net)
        fs = ts_attn_forward(E, net)
        worst_forward = max(
            worst_forward,
            float(np.max(np.abs(fs.per_candidate - ref_indiv))),
            float(np.max(np.abs(fs.population - ref_pop))),
        )
    assert worst_forward < 1e-9

    worst_block = 0.0
    for case in range(20):
        net = decode_params(rng.normal(0, 0.4, param_count(cfg)), cfg)
        block = net.layers[0].cross_solution if case % 2 else net.layers[0].cross_dimension
        x = rng.normal(size=(int(rng.integers(1, 7)), 16))
        worst_block = max(
            worst_block, float(np.max(np.abs(attn_block(x.copy(), block) - ref_attn_block(x, block))))
        )
    assert worst_block < 1e-9
    ok(f"2 analyzer oracle equivalence (max dev forward {worst_forward:.2e}, block {worst_block:.2e})")


# --- 3. invariant suite ------------------------------------------------------------


def test_criterion_3_invariant_suite():
    rng = np.random.default_rng(3)
    cfg = AnalyzerConfig()
    net = decode_params(rng.normal(0, 0.3, param_count(cfg)), cfg)

    for _ in range(10):
        obs = Observation(
            X=rng.uniform(-5, 5, (6, 4)), y=rng.normal(size=6),
            lb=-5 * np.ones(4), ub=5 * np.ones(4),
        )
        t = pie_normalize(obs)
        assert np.all(t >= 0.0) and np.all(t <= 1.0)

        a, b = float(rng.uniform(0.5, 10)), float(rng.uniform(-5, 5))
        scaled = Observation(X=obs.X, y=a * obs.y + b, lb=obs.lb, ub=obs.ub)
        fs, fs_s = net.features(obs), net.features(scaled)
        assert np.max(np.abs(fs.per_candidate - fs_s.per_candidate)) < 1e-6

        s, c = float(rng.uniform(0.1, 5)), float(rng.uniform(-10, 10))
        remapped = Observation(X=s * obs.X + c, y=obs.y, lb=s * obs.lb + c, ub=s * obs.ub + c)
        fs_r = net.features(remapped)
        assert np.max(np.abs(fs.per_candidate - fs_r.per_candidate)) < 1e-6

        perm = rng.permutation(6)
        fs_p = net.features(Observation(X=obs.X[perm], y=obs.y[perm], lb=obs.lb, ub=obs.ub))
        assert np.max(np.abs(fs_p.per_candidate - fs.per_candidate[perm])) < 1e-9
        assert np.max(np.abs(fs_p.population - fs.population)) < 1e-9

    h, layers = cfg.hidden_dim, cfg.num_layers
    documented_formula = 2 * h + 2 * layers * (6 * h * h + 6 * h)
    assert param_count(cfg) == documented_formula
    assert 3000 <= param_count(cfg) <= 3500
    ok(f"3 invariant suite (param count {param_count(cfg)} in [3000, 3500], formula exact)")


# --- 4. ES convergence oracles ----------------------------------------------------------


def test_criterion_4_es_convergence_oracles():
    def sphere(X):
        return np.sum(X * X, axis=1)

    def rosenbrock(X):
        a, b = X[:, :-1], X[:, 1:]
        return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)

    sphere_hits = 0
    for seed in range(10):
        cfg = EsConfig(variant="cmaes", dim=2, population=8, seed=seed)
        result = minimize(sphere, cfg, 5000, target=1e-10)
        sphere_hits += result.f < 1e-10
    assert sphere_hits == 10

    rosen_hits = 0
    for seed in range(10):
        cfg = EsConfig(
            variant="cmaes", dim=10, population=16, initial_mean_mode="zero", seed=seed
        )
        result = minimize(rosenbrock, cfg, 100_000, target=1e-6)
        rosen_hits += result.f < 1e-6
    assert rosen_hits >= 8

    for variant in EsVariant:
        def run(transform, variant=variant):
            cfg = EsConfig(variant=variant, dim=5, population=8, seed=17)
            state = es_init(cfg)
            stream = np.random.default_rng(23)
            for _ in range(4):
                X = es_sample(state)
                es_update(state, X, transform(stream.normal(size=8)))
            return state

        base = run(lambda f: f)
        mapped = run(lambda f: np.exp(f) + 3.0)
        assert np.array_equal(base.mean, mapped.mean)
        assert base.sigma == mapped.sigma
        assert np.array_equal(es_sample(base), es_sample(mapped))
    ok(f"4 ES convergence (sphere {sphere_hits}/10, rosenbrock {rosen_hits}/10, rank invariance bit-exact)")


# --- 5. training-loop smoke --------------------------------------------------------------


def desk_scale_run(max_generations=10):
    tasks = (
        TaskSpec(
            id="de_desk", optimizer="de", dimension=10,
            train_functions=(1, 13), test_functions=(3, 20),
            population_size=50, budget=2000,
            inner_epochs=2, inner_population=4, episodes_per_eval=1,
        ),
        TaskSpec(
            id="pso_desk", optimizer="pso", dimension=10,
            train_functions=(2, 16), test_functions=(8, 19),
            population_size=50, budget=2000,
            inner_epochs=2, inner_population=4, episodes_per_eval=1,
        ),
    )
    return TrainingRunConfig(
        tasks=tasks,
        analyzer=AnalyzerConfig(),
        outer_population=6,
        max_generations=max_generations,
        q_runs=3,
        seed=2025,
    )


@pytest.mark.slow
def test_criterion_5_training_smoke(tmp_path):
    started = time.monotonic()
    result = train(desk_scale_run(), tmp_path / "full")
    elapsed = time.monotonic() - started
    assert elapsed <= 1800.0

    series = [r.best_so_far for r in result.history]
    assert len(series) == 10
    assert all(b >= a for a, b in zip(series, series[1:]))

    # the first training alone is timed serially; the rest also pin its
    # history against the process pool's
    jobs = min(2, cpu_workers())
    train(desk_scale_run(), tmp_path / "rerun", jobs=jobs)
    full_history = (tmp_path / "full" / "history.csv").read_text()
    assert (tmp_path / "rerun" / "history.csv").read_text() == full_history

    train(desk_scale_run(max_generations=6), tmp_path / "resumed", jobs=jobs)
    train(desk_scale_run(), tmp_path / "resumed", jobs=jobs, resume=True)
    assert (tmp_path / "resumed" / "history.csv").read_text() == full_history
    ok(
        f"5 training smoke (K=2, N=6, maxGen=10, Q=3 in {elapsed:.0f}s; "
        "monotone best, bit-exact re-run and resume)"
    )


# --- 6. wall-time qualitative reproduction -----------------------------------------------


def test_criterion_6_walltime_table():
    runs = 20
    rows = bench_grid(
        cells=[(1000, 10), (100, 10), (100, 100)], runs=runs, kinds=("neural", "ela")
    )
    t = {(r.kind, r.m, r.d): r.mean_s for r in rows}
    print(
        "\nwall-time means (s): "
        + ", ".join(f"{k[0]}@m{k[1]}d{k[2]}={v:.4f}" for k, v in sorted(t.items()))
    )
    speedup = t[("ela", 1000, 10)] / t[("neural", 1000, 10)]
    ela_growth = t[("ela", 100, 100)] / t[("ela", 100, 10)]
    neural_growth = t[("neural", 100, 100)] / t[("neural", 100, 10)]
    print(
        f"neural speedup at (m=1000, d=10): {speedup:.2f}x (need >= 5); "
        f"ela d-growth: {ela_growth:.1f}x (need >= 50); "
        f"neural d-growth: {neural_growth:.1f}x (need <= 3)"
    )
    assert speedup >= 5.0, (
        f"neural extraction is only {speedup:.2f}x faster than the full "
        "classical suite at (m=1000, d=10)"
    )
    assert ela_growth >= 50.0, (
        f"classical-suite cost grew only {ela_growth:.1f}x from d=10 to d=100"
    )
    assert neural_growth <= 3.0, (
        f"neural cost grew {neural_growth:.1f}x from d=10 to d=100"
    )
    ok("6 wall-time qualitative reproduction")


# --- 7. classical feature oracles ----------------------------------------------------------


def test_criterion_7_ela_feature_oracles():
    rng = np.random.default_rng(7)

    X = rng.uniform(-4, 4, (12, 3))
    best = 2
    dist = np.linalg.norm(X - X[best], axis=1)
    feats = fdc_features(X, 3.0 * dist + 0.5)
    assert feats["fdc_correlation"] == pytest.approx(1.0, abs=1e-9)

    X10 = rng.uniform(-5, 5, (10, 3))
    y10 = rng.normal(size=10)
    nn, nb = nearest_better_distances(X10, y10)
    ref_nn, ref_nb = ref_nearest_better(X10, y10)
    assert np.max(np.abs(nn - np.asarray(ref_nn))) < 1e-9
    for got, want in zip(nb, ref_nb):
        if want is None:
            assert np.isnan(got)
        else:
            assert abs(got - want) < 1e-9

    q = 0.3
    feats_d = dispersion_features(X10, y10, quantiles=(q,))
    k = int(np.ceil(q * 10))
    order = sorted(range(10), key=lambda i: (y10[i], i))[:k]
    sub = [
        ref_distance(X10[a], X10[b])
        for ai, a in enumerate(order)
        for b in order[ai + 1 :]
    ]
    full = ref_pairwise_distances(X10)
    assert abs(feats_d[f"dispersion_ratio_q{q:g}"] - ref_mean(sub) / ref_mean(full)) < 1e-9

    constant = information_content(np.arange(10.0).reshape(-1, 1), np.zeros(10))
    assert constant["ic_neutrality"] == 1.0
    ok("7 classical feature oracles (FDC r=1, NBC/dispersion brute force, IC neutrality)")


# --- 8. analysis correctness -----------------------------------------------------------


def test_criterion_8_analysis_correctness():
    rng = np.random.default_rng(8)
    col = rng.normal(size=10_000)

    def one_col(v, name):
        return FeatureSeries(rows=v[:, None], feature_names=(name,))

    self_r = pearson_matrix(one_col(col, "a"), one_col(col, "a")).entries[0, 0]
    neg_r = pearson_matrix(one_col(col, "a"), one_col(-col, "a")).entries[0, 0]
    ind_r = pearson_matrix(
        one_col(col, "a"), one_col(rng.normal(size=10_000), "b")
    ).entries[0, 0]
    assert self_r == pytest.approx(1.0, abs=1e-12)
    assert neg_r == pytest.approx(-1.0, abs=1e-12)
    assert abs(ind_r) < 0.05

    data = np.column_stack([rng.normal(0, 2.0, 6000), rng.normal(0, 1.0, 6000)])
    eigvals, _ = pca_components(data)
    oracle = np.sort(np.linalg.eigvalsh(np.cov(data.T, bias=True)))[::-1]
    projected = pca_project(data, 2)
    ratio = projected.var(axis=0)[0] / projected.var(axis=0)[1]
    assert ratio == pytest.approx(oracle[0] / oracle[1], abs=1e-6)

    assert label_for_strength(0.5) == "exploitation"
    assert label_for_strength(0.5 + 1e-9) == "exploration"
    ok("8 analysis correctness (pearson, PCA ratio, boundary label rule)")


# --- 9. zero-shot / fine-tune contract ---------------------------------------------------


def test_criterion_9_transfer_contract(tmp_path):
    rng = np.random.default_rng(9)
    cfg = AnalyzerConfig()
    theta = rng.normal(0, 0.3, param_count(cfg))
    checkpoint = tmp_path / "frozen.json"
    save_checkpoint(checkpoint, cfg, theta, provenance={"generation": 0, "seed": 9, "fitness": 0.0})
    before = hashlib.sha256(checkpoint.read_bytes()).hexdigest()

    task = TaskSpec(
        id="de_transfer", optimizer="de", dimension=5,
        train_functions=(1,), test_functions=(3,),
        population_size=10, budget=200, inner_epochs=1, inner_population=4,
    )
    theta_before = theta.copy()
    zs = zero_shot(theta, cfg, task, q_runs=2, seed=77)
    ft = fine_tune(theta, cfg, task, q_runs=2, seed=77, epochs=3, population=4)
    assert hashlib.sha256(checkpoint.read_bytes()).hexdigest() == before
    assert np.array_equal(theta, theta_before)
    assert ft.trajectory[0][1] == zs.upsilon
    bests = [b for _, _, b in ft.trajectory]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    ok("9 zero-shot/fine-tune contract (frozen weights, epoch-0 equality, monotone best)")
