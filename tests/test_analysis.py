import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from popscape.analysis import (
    EXPLORATION_THRESHOLD,
    FeatureSeries,
    bench_grid,
    bench_walltime,
    correlation_to_csv,
    exploration_study,
    make_bench_extractor,
    pca_components,
    pca_project,
    pearson_matrix,
    point_cloud_csv,
    random_observations,
    timings_to_csv,
)
from popscape.analyzer import AnalyzerConfig, PopulationEncoder, param_count
from popscape.ela import FULL_SUITE_FEATURE_NAMES, full_suite_features, impute_missing
from popscape.errors import ConfigError
from popscape.metabbo import (
    EXTRACTOR_KINDS,
    HandcraftedExtractor,
    NeuralExtractor,
    TaskSpec,
)

from .golden import DATA, study_summary
from .reference import ref_pearson


# --- PCA ------------------------------------------------------------------------


def test_pca_recovers_axis_aligned_variances(rng):
    n = 5000
    data = np.column_stack([rng.normal(0, 2.0, n), rng.normal(0, 1.0, n)])
    eigvals, _ = pca_components(data)
    cov = np.cov(data.T, bias=True)
    oracle = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.max(np.abs(eigvals - oracle)) < 1e-6
    projected = pca_project(data, 2)
    var = projected.var(axis=0)
    assert var[0] / var[1] == pytest.approx(oracle[0] / oracle[1], abs=1e-6)


def test_pca_full_dimension_preserves_distances(rng):
    data = rng.normal(size=(40, 5))
    projected = pca_project(data, 5)
    for i in range(0, 40, 7):
        for j in range(i + 1, 40, 7):
            original = np.linalg.norm(data[i] - data[j])
            mapped = np.linalg.norm(projected[i] - projected[j])
            assert mapped == pytest.approx(original, abs=1e-9)


def test_pca_reconstruction_error_negligible(rng):
    data = rng.normal(size=(30, 4))
    centered = data - data.mean(axis=0)
    _, components = pca_components(data)
    reconstructed = (centered @ components) @ components.T
    assert np.max(np.abs(reconstructed - centered)) < 1e-9


def test_pca_duplicated_rows_same_components(rng):
    data = rng.normal(size=(25, 3))
    _, c1 = pca_components(data)
    _, c2 = pca_components(np.vstack([data, data]))
    assert np.max(np.abs(c1 - c2)) < 1e-9


def test_pca_zero_variance_rejected():
    with pytest.raises(ConfigError):
        pca_project(np.ones((10, 3)), 2)


def test_pca_needs_more_rows_than_components(rng):
    with pytest.raises(ConfigError):
        pca_project(rng.normal(size=(2, 4)), 2)


def test_pca_sign_convention(rng):
    data = rng.normal(size=(50, 3))
    _, components = pca_components(data)
    for j in range(3):
        k = int(np.argmax(np.abs(components[:, j])))
        assert components[k, j] > 0


# --- Pearson ---------------------------------------------------------------------


def series(rows, names, traj=None):
    return FeatureSeries(rows=np.asarray(rows), feature_names=tuple(names), trajectories=traj)


def test_self_correlation_is_one(rng):
    col = rng.normal(size=200)
    m = pearson_matrix(series(col[:, None], ["a"]), series(col[:, None], ["a"]))
    assert m.entries[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_negation_gives_minus_one(rng):
    col = rng.normal(size=200)
    m = pearson_matrix(series(col[:, None], ["a"]), series(-col[:, None], ["a"]))
    assert m.entries[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_independent_columns_nearly_uncorrelated():
    rng = np.random.default_rng(99)
    a = rng.normal(size=(10_000, 1))
    b = rng.normal(size=(10_000, 1))
    m = pearson_matrix(series(a, ["a"]), series(b, ["b"]))
    assert abs(m.entries[0, 0]) < 0.05


@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 50), shift=st.floats(-20, 20))
def test_pearson_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(50, 1))
    b = rng.normal(size=(50, 1))
    base = pearson_matrix(series(a, ["a"]), series(b, ["b"])).entries[0, 0]
    mapped = pearson_matrix(series(scale * a + shift, ["a"]), series(b, ["b"])).entries[0, 0]
    assert mapped == pytest.approx(base, abs=1e-9)


def test_pearson_matches_scalar_oracle(rng):
    a = rng.normal(size=(20, 2))
    b = rng.normal(size=(20, 3))
    m = pearson_matrix(series(a, ["a0", "a1"]), series(b, ["b0", "b1", "b2"]))
    for i in range(2):
        for j in range(3):
            want = ref_pearson(list(a[:, i]), list(b[:, j]))
            assert m.entries[i, j] == pytest.approx(want, abs=1e-12)


def test_zero_variance_column_is_missing(rng):
    a = np.ones((30, 1))
    b = rng.normal(size=(30, 1))
    m = pearson_matrix(series(a, ["const"]), series(b, ["b"]))
    assert math.isnan(m.entries[0, 0])
    assert m.counts[0, 0] == 0
    text = correlation_to_csv(m)
    assert "NA" in text


def test_per_trajectory_averaging(rng):
    # two trajectories with opposite correlation average to ~0
    n = 50
    x = rng.normal(size=n)
    rows_a = np.concatenate([x, x])[:, None]
    rows_b = np.concatenate([x, -x])[:, None]
    traj = np.repeat([0, 1], n)
    m = pearson_matrix(series(rows_a, ["a"], traj), series(rows_b, ["b"], traj))
    assert m.entries[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert m.counts[0, 0] == 2


def test_row_count_mismatch_rejected(rng):
    with pytest.raises(ConfigError):
        pearson_matrix(
            series(rng.normal(size=(5, 1)), ["a"]), series(rng.normal(size=(6, 1)), ["b"])
        )


# --- benchmark -------------------------------------------------------------------


def test_bench_requires_ten_runs(rng):
    fn = make_bench_extractor("handcrafted")
    obs = random_observations(10, 3, 2)
    with pytest.raises(ConfigError):
        bench_walltime(fn, obs, runs=5)


def test_bench_times_only_extraction_calls():
    calls = {"n": 0}

    def instrumented(obs):
        calls["n"] += 1
        return np.zeros(3)

    obs = random_observations(8, 2, 3)
    mean_s, p50, p95 = bench_walltime(instrumented, obs, runs=12)
    assert calls["n"] == 12
    assert mean_s >= 0.0 and p95 >= p50 >= 0.0


def test_bench_grid_covers_kinds_and_cells():
    rows = bench_grid(cells=[(20, 3), (30, 4)], runs=10)
    assert len(rows) == 3 * 2
    kinds = {r.kind for r in rows}
    assert kinds == {"neural", "ela", "handcrafted"}
    text = timings_to_csv(rows)
    assert text.splitlines()[0] == "extractor,m,d,runs,mean_s,p50_s,p95_s"
    assert len(text.splitlines()) == 7


def test_bench_timing_stable_between_replications():
    fn = make_bench_extractor("neural")
    obs = random_observations(60, 5, 5, seed=3)
    fn(obs[0])
    # medians: one slow stretch on a shared machine moves a mean, not a p50
    _, a, _ = bench_walltime(fn, obs, runs=10)
    _, b, _ = bench_walltime(fn, obs, runs=100)
    assert a == pytest.approx(b, rel=0.5)


def test_unknown_extractor_kind_rejected():
    with pytest.raises(ConfigError):
        make_bench_extractor("mystery")


@pytest.mark.parametrize("kind", EXTRACTOR_KINDS)
def test_bench_extractor_is_the_extractor_class_of_its_kind(rng, kind):
    cfg = AnalyzerConfig()
    theta = rng.normal(0.0, 0.2, param_count(cfg))
    if kind == "ela":
        width = len(FULL_SUITE_FEATURE_NAMES)

        def expected(obs):
            features = full_suite_features(obs.X, obs.y, obs.lb, obs.ub)
            return impute_missing(features, FULL_SUITE_FEATURE_NAMES)
    else:
        extractor = NeuralExtractor(theta, cfg) if kind == "neural" else HandcraftedExtractor()
        width = extractor.width
        assert width == len(extractor.names)

        def expected(obs):
            return extractor.extract(obs)[1]
    fn = make_bench_extractor(kind, cfg, theta)
    for obs in random_observations(30, 4, 2, seed=5):
        out = fn(obs)
        assert out.shape == (width,)
        assert np.array_equal(out, expected(obs))


def test_single_cell_walltime():
    from popscape.analysis import extractor_walltime

    row = extractor_walltime("handcrafted", m=25, d=3, runs=10)
    assert row.kind == "handcrafted" and (row.m, row.d) == (25, 3)
    assert row.mean_s > 0.0 and row.p95_s >= row.p50_s


# --- exploration study --------------------------------------------------------------


def study_task():
    return TaskSpec(
        id="de_study", optimizer="de", dimension=4,
        train_functions=(1,), test_functions=(3,),
        population_size=8, budget=80, inner_epochs=1, inner_population=4,
    )


def test_label_rule_boundary_is_exploitation():
    assert not (0.5 > EXPLORATION_THRESHOLD)  # F = 0.5 labels exploitation
    assert 0.500001 > EXPLORATION_THRESHOLD


def test_study_counts_and_shapes(rng):
    task = study_task()
    theta = rng.normal(0, 0.3, param_count(AnalyzerConfig()))
    study = exploration_study(task, theta, AnalyzerConfig(), function_id=3, runs=2, seed=4)
    total_steps = 2 * task.horizon
    assert len(study.labels) == total_steps
    assert study.neural.rows.shape == (total_steps, 16)
    assert study.ela.rows.shape == (total_steps, 25)
    assert study.neural_projection.shape == (total_steps, 2)
    assert study.ela_projection.shape == (total_steps, 2)
    assert set(study.labels) <= {"exploration", "exploitation"}
    counts = sum(1 for v in study.labels if v == "exploration") + sum(
        1 for v in study.labels if v == "exploitation"
    )
    assert counts == total_steps
    text = point_cloud_csv(study.neural_projection, study.labels)
    assert len(text.splitlines()) == total_steps + 1


def test_study_runs_one_encoder_forward_per_recorded_step(rng, monkeypatch):
    # each recorded step ran the encoder twice: once to decide, once to record
    import popscape.analysis as analysis
    from popscape.metabbo import meta_train

    monkeypatch.setattr(
        analysis, "meta_train", lambda task, ext, seed: meta_train(task, ext, seed, epochs=0)
    )
    forward = PopulationEncoder.features
    calls = []
    monkeypatch.setattr(
        PopulationEncoder, "features", lambda net, obs: calls.append(obs) or forward(net, obs)
    )
    task = study_task()
    theta = rng.normal(0, 0.3, param_count(AnalyzerConfig()))
    study = exploration_study(task, theta, AnalyzerConfig(), function_id=3, runs=2, seed=4)
    assert len(calls) == len(study.labels) == 2 * task.horizon


def test_study_matches_golden():
    """Labels, both projections and the correlation matrix, bit for bit."""
    stored = json.loads((DATA / "evaluation.json").read_text())["study"]
    assert study_summary() == stored


def test_study_requires_de_task(rng):
    task = TaskSpec(
        id="pso_bad", optimizer="pso", dimension=4,
        train_functions=(1,), test_functions=(3,),
        population_size=8, budget=80,
    )
    theta = rng.normal(0, 0.3, param_count(AnalyzerConfig()))
    with pytest.raises(ConfigError):
        exploration_study(task, theta, AnalyzerConfig(), 3, 1, 0)
