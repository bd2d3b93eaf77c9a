import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from popscape import ela
from popscape.analyzer import Observation
from popscape.ela import (
    ELA_FEATURE_NAMES,
    FULL_SUITE_FEATURE_NAMES,
    HANDCRAFTED_NAMES,
    RunContext,
    dispersion_features,
    distribution_features,
    ela_features,
    fdc_features,
    features_to_csv,
    full_suite_features,
    handcrafted_state,
    impute_missing,
    information_content,
    nbc_features,
    nearest_better_distances,
    nearest_neighbor_tour,
)

from .golden import DATA, ELA_SHAPES, ela_sample, ela_suites_pinned
from .reference import (
    ref_excess_kurtosis,
    ref_mean,
    ref_distance,
    ref_nearest_better,
    ref_pairwise_distances,
    ref_pearson,
    ref_skewness,
    ref_std,
)


# --- fitness-distance group ---------------------------------------------------


def test_fdc_perfect_correlation(rng):
    X = rng.uniform(-4, 4, (12, 3))
    best = 4
    dist = np.linalg.norm(X - X[best], axis=1)
    y = 2.0 * dist + 1.0  # proportional to distance-to-best; best stays best
    feats = fdc_features(X, y)
    assert feats["fdc_correlation"] == pytest.approx(1.0, abs=1e-9)


def test_fdc_identical_candidates_flagged_missing():
    X = np.ones((5, 2))
    y = np.ones(5)
    feats = fdc_features(X, y)
    assert feats["fdc_correlation"] is None
    assert feats["fdc_dist_mean"] == 0.0


def test_fdc_matches_scalar_oracle(rng):
    X = rng.uniform(-5, 5, (5, 3))
    y = rng.normal(0, 2, 5)
    feats = fdc_features(X, y)
    best = min(range(5), key=lambda i: y[i])
    dists = [ref_distance(X[i], X[best]) for i in range(5)]
    assert feats["fdc_correlation"] == pytest.approx(ref_pearson(list(y), dists), abs=1e-9)
    pair = ref_pairwise_distances(X)
    assert feats["fdc_dist_mean"] == pytest.approx(ref_mean(pair), abs=1e-9)
    assert feats["fdc_dist_std"] == pytest.approx(ref_std(pair), abs=1e-9)
    diffs = [abs(y[i] - y[j]) for i in range(5) for j in range(i + 1, 5)]
    assert feats["fdc_obj_diff_mean"] == pytest.approx(ref_mean(diffs), abs=1e-9)
    centroid = [ref_mean([X[i][k] for i in range(5)]) for k in range(3)]
    expected = ref_distance(X[best], centroid) / math.sqrt(3 * 10.0**2)
    assert feats["fdc_best_to_centroid"] == pytest.approx(expected, abs=1e-9)


# --- dispersion ------------------------------------------------------------------


def test_dispersion_full_quantile_is_identity(rng):
    X = rng.uniform(-5, 5, (12, 2))
    y = rng.normal(size=12)
    feats = dispersion_features(X, y, quantiles=(1.0,))
    assert feats["dispersion_ratio_q1"] == pytest.approx(1.0, abs=1e-12)
    assert feats["dispersion_diff_q1"] == pytest.approx(0.0, abs=1e-12)


def test_dispersion_clustered_best_below_one(rng):
    cluster = rng.normal(0, 0.05, (5, 2))
    spread = rng.uniform(-5, 5, (15, 2))
    X = np.vstack([cluster, spread])
    y = np.concatenate([np.zeros(5), np.ones(15)])
    feats = dispersion_features(X, y, quantiles=(0.25,))
    assert feats["dispersion_ratio_q0.25"] < 1.0
    assert feats["dispersion_diff_q0.25"] < 0.0


def test_dispersion_matches_double_loop_oracle(rng):
    X = rng.uniform(-5, 5, (20, 3))
    y = rng.normal(size=20)
    q = 0.25
    feats = dispersion_features(X, y, quantiles=(q,))
    k = math.ceil(q * 20)
    order = sorted(range(20), key=lambda i: (y[i], i))[:k]
    sub = [ref_distance(X[a], X[b]) for ai, a in enumerate(order) for b in order[ai + 1 :]]
    full = ref_pairwise_distances(X)
    assert feats["dispersion_ratio_q0.25"] == pytest.approx(
        ref_mean(sub) / ref_mean(full), abs=1e-9
    )
    assert feats["dispersion_diff_q0.25"] == pytest.approx(
        ref_mean(sub) - ref_mean(full), abs=1e-9
    )


def test_dispersion_tiny_quantile_missing():
    X = np.arange(20.0).reshape(10, 2)
    y = np.arange(10.0)
    feats = dispersion_features(X, y, quantiles=(0.01,))
    assert feats["dispersion_ratio_q0.01"] is None


# --- information content ------------------------------------------------------------


def line_population(m):
    """1-D points at 0..m-1; the tour from the best visits them in order."""
    return np.arange(float(m)).reshape(-1, 1)


def test_ic_monotone_tour_has_zero_entropy_and_neutrality():
    X = line_population(10)
    y = np.arange(10.0)  # strictly increasing along the tour
    feats = information_content(X, y)
    assert feats["ic_neutrality"] == 0.0
    # single symbol: no unequal consecutive pairs at eps = 0
    assert feats["ic_m0"] == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_ic_alternating_matches_hand_computed_entropy():
    X = line_population(8)
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    feats = information_content(X, y)
    # symbols at eps=0: [1,-1,1,-1,1,-1,1]; pairs split evenly between
    # (1,-1) and (-1,1): H = -2 * 0.5 * log6(0.5) = log6(2)
    expected = math.log(2, 6)
    assert feats["ic_h_max"] == pytest.approx(expected, abs=1e-12)
    assert feats["ic_neutrality"] == 0.0
    # compressed sequence keeps all 7 alternating symbols
    assert feats["ic_m0"] == pytest.approx(1.0, abs=1e-12)


def test_ic_constant_objectives_full_neutrality():
    X = line_population(10)
    feats = information_content(X, np.zeros(10))
    assert feats["ic_neutrality"] == 1.0
    assert feats["ic_h_max"] == 0.0


def test_ic_duplicate_points_flagged_missing():
    X = np.zeros((5, 2))
    feats = information_content(X, np.arange(5.0))
    assert all(v is None for v in feats.values())


def test_tour_is_nearest_neighbor_from_best():
    X = np.array([[0.0], [10.0], [1.0], [9.0]])
    y = np.array([5.0, 0.0, 6.0, 7.0])
    tour = nearest_neighbor_tour(X, y)
    assert tour[0] == 1  # best objective
    # from x=10: nearest is x=9, then x=1 (dist 8) before x=0 (dist 9)
    assert list(tour) == [1, 3, 2, 0]


def masked_copy_tour(X, y):
    """The tour as a loop that copies each row and masks the visited
    samples, as it was built before its penalty vector."""
    D = ela._pairwise_distances(X)
    m = X.shape[0]
    tour = [int(np.argmin(y))]
    visited = np.zeros(m, dtype=bool)
    visited[tour[0]] = True
    for _ in range(1, m):
        row = D[tour[-1]].copy()
        row[visited] = np.inf
        tour.append(int(np.argmin(row)))
        visited[tour[-1]] = True
    return np.array(tour)


@pytest.mark.parametrize("m, d", [(50, 10), (1000, 10), (100, 100)])
def test_tour_matches_masked_copy_loop_on_duplicated_points(m, d):
    # duplicates tie at distance 0 and tied objectives tie the start; the
    # first minimum wins both ways
    X, y = ela_sample(m, d, ties=True)
    X[1::4] = X[0]
    y[::5] = y.min()
    assert np.array_equal(nearest_neighbor_tour(X, y), masked_copy_tour(X, y))


# --- nearest better clustering ---------------------------------------------------------


def test_two_candidates_nb_is_mutual_distance():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    y = np.array([1.0, 2.0])
    nn, nb = nearest_better_distances(X, y)
    assert np.isnan(nb[0])  # the best has no better neighbor
    assert nb[1] == pytest.approx(5.0, abs=1e-12)
    assert nn[0] == nn[1] == pytest.approx(5.0, abs=1e-12)


def test_equally_spaced_grid_ratio_one():
    X = np.arange(10.0).reshape(-1, 1)
    y = np.arange(10.0)  # monotone: better neighbor is the next point down
    feats = nbc_features(X, y)
    assert feats["nbc_ratio_mean"] == pytest.approx(1.0, abs=1e-12)
    assert feats["nbc_ratio_std"] == pytest.approx(0.0, abs=1e-12)


def test_nbc_matches_brute_force_oracle(rng):
    X = rng.uniform(-5, 5, (10, 3))
    y = rng.normal(size=10)
    nn, nb = nearest_better_distances(X, y)
    ref_nn, ref_nb = ref_nearest_better(X, y)
    assert np.allclose(nn, ref_nn, atol=1e-9)
    for got, want in zip(nb, ref_nb):
        if want is None:
            assert np.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-9)
    feats = nbc_features(X, y)
    defined = [v for v in ref_nb if v is not None]
    assert feats["nbc_ratio_mean"] == pytest.approx(
        ref_mean(defined) / ref_mean(ref_nn), abs=1e-9
    )
    ranks = sorted(range(10), key=lambda i: (y[i], i))
    rank_of = [0.0] * 10
    for pos, i in enumerate(ranks):
        rank_of[i] = float(pos)
    assert feats["nbc_nn_rank_correlation"] == pytest.approx(
        ref_pearson(ref_nn, rank_of), abs=1e-9
    )



def test_nearest_better_leaves_shared_matrix_unchanged(rng):
    X = rng.uniform(-5, 5, (12, 3))
    X[7] = X[2]
    y = rng.normal(size=12)
    D = ela._pairwise_distances(X)
    before = D.copy()
    nn, nb = nearest_better_distances(X, y, D=D)
    assert np.array_equal(D, before)
    own_nn, own_nb = nearest_better_distances(X, y)
    assert np.array_equal(nn, own_nn)
    assert np.array_equal(nb, own_nb, equal_nan=True)


def test_nearest_better_only_reads_shared_matrix(rng):
    # the suite's worker thread reads D meanwhile, so D is never written,
    # not even for a moment
    X = rng.uniform(-5, 5, (12, 3))
    X[7] = X[2]
    y = rng.normal(size=12)
    D = ela._pairwise_distances(X)
    D.flags.writeable = False
    nn, nb = nearest_better_distances(X, y, D=D)
    ref_nn, _ = ref_nearest_better(X, y)
    assert np.allclose(nn, ref_nn, atol=1e-9)

# --- distribution ------------------------------------------------------------------


def test_skewness_zero_for_symmetric_sample():
    y = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    feats = distribution_features(y)
    assert feats["distr_skewness"] == pytest.approx(0.0, abs=1e-9)


def test_distribution_matches_scalar_oracle(rng):
    y = rng.normal(size=40)
    feats = distribution_features(y)
    assert feats["distr_skewness"] == pytest.approx(ref_skewness(list(y)), abs=1e-9)
    assert feats["distr_kurtosis"] == pytest.approx(
        ref_excess_kurtosis(list(y)), abs=1e-9
    )


def test_normal_sample_kurtosis_near_zero():
    y = np.random.default_rng(7).normal(size=10000)
    feats = distribution_features(y)
    assert abs(feats["distr_kurtosis"]) < 0.5


def test_bimodal_sample_has_two_peaks(rng):
    y = np.concatenate([rng.normal(-10, 0.5, 300), rng.normal(10, 0.5, 300)])
    feats = distribution_features(y)
    assert feats["distr_peak_count"] == 2.0


def test_zero_variance_moments_missing():
    feats = distribution_features(np.ones(6))
    assert feats["distr_skewness"] is None
    assert feats["distr_kurtosis"] is None
    assert feats["distr_peak_count"] == 1.0


# --- invariance properties -----------------------------------------------------------


@given(seed=st.integers(0, 2**31 - 1), shift=st.floats(-3.0, 3.0))
def test_translation_invariance_of_distance_features(seed, shift):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (12, 3))
    y = rng.normal(size=12)
    base = ela_features(X, y)
    moved = ela_features(X + shift, y)
    for name in base:
        if name.startswith(("fdc_dist", "fdc_obj", "dispersion", "ic_", "nbc_")):
            a, b = base[name], moved[name]
            if a is None or b is None:
                assert a == b
            else:
                assert a == pytest.approx(b, abs=1e-9)


@given(seed=st.integers(0, 2**31 - 1), a=st.floats(0.1, 20.0), b=st.floats(-10, 10))
def test_objective_affine_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, (12, 3))
    y = rng.normal(size=12)
    base = ela_features(X, y)
    scaled = ela_features(X, a * y + b)
    for name in ("fdc_correlation", "nbc_ratio_mean", "nbc_nn_rank_correlation",
                 "distr_skewness", "distr_kurtosis", "dispersion_ratio_q0.25"):
        assert base[name] == pytest.approx(scaled[name], abs=1e-9)


def test_features_deterministic(rng):
    X = rng.uniform(-5, 5, (15, 4))
    y = rng.normal(size=15)
    assert ela_features(X, y) == ela_features(X, y)


# --- aggregation and export -----------------------------------------------------------


def test_in_run_vector_width_and_imputation(rng):
    X = np.ones((12, 3))  # degenerate: several features go missing
    y = rng.normal(size=12)
    feats = ela_features(X, y)
    vec = impute_missing(feats, ELA_FEATURE_NAMES)
    assert vec.shape == (25,)
    assert np.all(np.isfinite(vec))


def test_full_suite_has_offline_groups():
    # the declared name tuples are the groups' keys, in order, on every sample
    for m, d in ELA_SHAPES:
        X, y = ela_sample(m, d, ties=True)
        assert list(ela_features(X, y, -5.0, 5.0)) == list(ELA_FEATURE_NAMES)
        feats = full_suite_features(X, y, -5.0, 5.0)
        assert list(feats) == list(FULL_SUITE_FEATURE_NAMES)
        assert "mm_quad_r2" in feats and "ls_mmce_lda_q0.25" in feats
        assert feats["mm_lin_r2"] is not None


def test_import_calls_no_feature_group():
    # the name tuples are declared, so a process that never extracts
    # features never loads the LAPACK routines behind the offline groups
    code = (
        "import numpy.linalg as la\n"
        "def stub(*args, **kwargs):\n"
        "    raise AssertionError('numpy.linalg called at import')\n"
        "for name in ('lstsq', 'solve', 'slogdet', 'eigvalsh', 'norm'):\n"
        "    setattr(la, name, stub)\n"
        "import popscape, popscape.ela, popscape.analysis, popscape.cli\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@pytest.mark.parametrize("quantiles", [(0.5,), (0.3, 0.02, 0.75)])
def test_names_follow_non_default_quantiles(rng, quantiles):
    X = rng.uniform(-5, 5, (40, 3))
    y = rng.normal(size=40)
    assert tuple(dispersion_features(X, y, quantiles)) == ela.dispersion_names(quantiles)
    assert tuple(ela.level_set_features(X, y, quantiles)) == ela.level_set_names(quantiles)


def per_class_discriminants(X_tr, labels, X_te):
    """`ela._gaussian_discriminants` as it was before LDA built its pooled
    covariance once: each class regularises the matrix it uses and takes
    its log-determinant."""
    d = X_tr.shape[1]
    classes, pooled_cov = [], np.zeros((d, d))
    for c in (False, True):
        G = X_tr[labels == c]
        cov = np.cov(G.T, bias=True).reshape(d, d) if G.shape[0] > 1 else np.zeros((d, d))
        classes.append((G.mean(axis=0), cov, G.shape[0] / X_tr.shape[0]))
        pooled_cov += cov * G.shape[0]
    pooled_cov /= X_tr.shape[0]
    predictions = []
    for pooled in (True, False):
        scores = np.empty((X_te.shape[0], 2))
        for ci, (mean, cov, prior) in enumerate(classes):
            cov = pooled_cov if pooled else cov
            cov = cov + np.eye(d) * (1e-8 + 1e-6 * np.trace(cov) / d)
            diff = X_te - mean
            maha = np.sum(diff * np.linalg.solve(cov, diff.T).T, axis=1)
            scores[:, ci] = -0.5 * maha - 0.5 * np.linalg.slogdet(cov)[1] + math.log(prior)
        predictions.append(scores[:, 1] > scores[:, 0])
    return tuple(predictions)


@pytest.mark.parametrize("m, d", [(1000, 10), (100, 100), (7, 3)])
def test_discriminants_match_per_class_covariances(m, d):
    X, y = ela_sample(m, d, ties=True)
    labels = y <= np.quantile(y, 0.25)
    train = np.arange(m) % 5 != 0
    got = ela._gaussian_discriminants(X[train], labels[train], X[~train])
    want = per_class_discriminants(X[train], labels[train], X[~train])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_meta_model_fits_quadratic_exactly(rng):
    X = rng.uniform(-5, 5, (40, 3))
    y = np.sum(X**2, axis=1)
    feats = full_suite_features(X, y)
    assert feats["mm_quad_r2"] == pytest.approx(1.0, abs=1e-9)
    assert feats["mm_lin_r2"] < 0.9


def test_csv_export_marks_missing_as_na():
    rows = [{"a": 1.5, "b": None}]
    text = features_to_csv(rows, ("a", "b"))
    assert text.splitlines()[0] == "a,b"
    assert text.splitlines()[1] == "1.5,NA"


# --- hand-crafted state -----------------------------------------------------------------


def make_ctx(rng, t=0, horizon=10, **overrides):
    X = rng.uniform(-5, 5, (8, 3))
    y = rng.normal(size=8)
    obs = Observation(X=X, y=y, lb=-5 * np.ones(3), ub=5 * np.ones(3))
    defaults = dict(
        obs=obs,
        t=t,
        horizon=horizon,
        best_so_far=float(y.min()),
        prev_best=float(y.min()),
        worst_so_far=float(y.max()),
        steps_since_improvement=0,
    )
    defaults.update(overrides)
    return RunContext(**defaults)


def test_handcrafted_budget_feature_zero_at_start(rng):
    state = handcrafted_state(make_ctx(rng, t=0))
    assert state[0] == 0.0
    assert state.shape == (len(HANDCRAFTED_NAMES),)


def test_handcrafted_stagnation_approaches_one(rng):
    ctx = make_ctx(rng, t=9, horizon=10, steps_since_improvement=9)
    state = handcrafted_state(ctx)
    assert state[5] == pytest.approx(0.9)


def test_handcrafted_identical_population_zero_distances(rng):
    X = np.ones((6, 3))
    y = np.full(6, 2.0)
    obs = Observation(X=X, y=y, lb=-5 * np.ones(3), ub=5 * np.ones(3))
    ctx = RunContext(
        obs=obs, t=1, horizon=5, best_so_far=2.0, prev_best=2.0,
        worst_so_far=2.0, steps_since_improvement=1,
    )
    state = handcrafted_state(ctx)
    assert state[3] == state[4] == state[7] == 0.0
    assert np.all(np.isfinite(state))
    assert np.all(state >= 0.0) and np.all(state <= 1.0)


@given(seed=st.integers(0, 2**31 - 1))
def test_handcrafted_always_bounded(seed):
    rng = np.random.default_rng(seed)
    ctx = make_ctx(rng, t=int(rng.integers(0, 10)), horizon=10)
    state = handcrafted_state(ctx)
    assert np.all(np.isfinite(state))
    assert np.all(state >= -1.0) and np.all(state <= 1.0)



# --- golden features ---------------------------------------------------------------

GOLDEN_CASES = [(m, d, ties) for m, d in ELA_SHAPES for ties in (False, True)]


@pytest.fixture(scope="module")
def pinned_suites():
    # the file's bits hold on the BLAS thread count it was recorded under
    return ela_suites_pinned()


@pytest.mark.parametrize(
    "m, d, ties", GOLDEN_CASES, ids=[f"m{m}_d{d}{'_ties' * t}" for m, d, t in GOLDEN_CASES]
)
def test_suite_matches_golden(pinned_suites, m, d, ties):
    """Every classical feature keeps the bits stored in ``ela_suite.json``."""
    stored = json.loads((DATA / "ela_suite.json").read_text())
    key = f"m{m}_d{d}{'_ties' * ties}"
    assert pinned_suites[key] == stored[key]


# --- one distance matrix per suite call --------------------------------------------


@pytest.mark.parametrize("suite", [ela_features, full_suite_features])
def test_suite_builds_distance_matrix_once(monkeypatch, rng, suite):
    builds = []
    build = ela._pairwise_distances
    monkeypatch.setattr(ela, "_pairwise_distances", lambda X: builds.append(1) or build(X))
    X = rng.uniform(-5, 5, (40, 4))
    suite(X, np.sum(X * X, axis=1), -5.0, 5.0)
    assert len(builds) == 1


def test_suite_peak_memory_at_large_sample():
    # the shared (1000, 1000) distance matrix is 8 MB; objective gaps taken
    # over the full square instead of the upper triangle push the peak to 36 MB
    X, y = ela_sample(1000, 10, ties=False)
    full_suite_features(X, y, -5.0, 5.0)  # warm caches before measuring
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        full_suite_features(X, y, -5.0, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def traced_peak(fn):
    """fn's result and the peak memory `tracemalloc` traced while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_suite_holds_one_square_array():
    # D (8 MB) is the only (1000, 1000) float array: the distance build, the
    # objective gaps and the nearest-better search run in row blocks, and
    # the upper triangle is read through a bool mask.  Three square
    # temporaries beside D peak at 28 MB
    X, y = ela_sample(1000, 10, ties=False)
    full_suite_features(X, y, -5.0, 5.0)  # warm caches before measuring
    assert traced_peak(lambda: full_suite_features(X, y, -5.0, 5.0))[1] < 21e6


def test_quadratic_design_is_built_in_place(rng):
    # (1000, 70): 2,556 columns, a 20.4 MB design; column blocks held while
    # they are concatenated trace about twice that
    X = rng.uniform(-5, 5, (1000, 70))
    design, peak = traced_peak(lambda: ela._design_with_interactions(X))
    assert design.nbytes > 20e6
    assert design.flags.c_contiguous
    assert peak <= 1.1 * design.nbytes
    blocks = [np.ones((1000, 1)), X] + [X[:, i : i + 1] * X[:, i:] for i in range(70)]
    assert np.array_equal(design, np.concatenate(blocks, axis=1))


def test_upper_triangle_mask_gathers_in_triu_order(rng):
    for m in (1, 2, 7, 50):
        A = rng.normal(size=(m, m))
        assert np.array_equal(A[ela._upper_triangle(m)], A[np.triu_indices(m, 1)])


def test_row_blocked_groups_match_one_block(monkeypatch):
    # fdc's gaps and the nearest-better search give the same bits in blocks
    # of one row as in one block
    X, y = ela_sample(50, 10, ties=True)
    whole = fdc_features(X, y), nearest_better_distances(X, y)
    monkeypatch.setattr(ela, "ROW_BLOCK_BYTES", 8)
    assert ela._row_blocks(50) == [slice(i, i + 1) for i in range(50)]
    blocked = fdc_features(X, y), nearest_better_distances(X, y)
    assert blocked[0] == whole[0]
    for got, want in zip(blocked[1], whole[1]):
        assert np.array_equal(got, want, equal_nan=True)


# --- the distance build ------------------------------------------------------------


def one_line_distances(X):
    """The distance build as one expression, as it was before it ran in place."""
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


@pytest.mark.parametrize("ties", [False, True], ids=["plain", "duplicates"])
@pytest.mark.parametrize("m, d", [(1000, 10), (100, 100), (50, 10)])
def test_pairwise_distances_match_one_line_build(m, d, ties):
    X, _ = ela_sample(m, d, ties)
    assert np.array_equal(ela._pairwise_distances(X), one_line_distances(X))


@pytest.mark.parametrize("ties", [False, True], ids=["plain", "duplicates"])
def test_pairwise_distances_in_row_blocks_match_one_line_build(monkeypatch, ties):
    # 131-row blocks at m = 1000 by default; 3-row blocks leave a 1-row last one
    X, _ = ela_sample(100, 10, ties)
    monkeypatch.setattr(ela, "ROW_BLOCK_BYTES", 3 * 100 * 8)
    assert len(ela._row_blocks(100)) == 34
    assert np.array_equal(ela._pairwise_distances(X), one_line_distances(X))

