import numpy as np
import pytest
from hypothesis import given, strategies as st

from popscape.errors import ConfigError
from popscape.problems import (
    FUNCTIONS,
    NoiseKind,
    NoiseModel,
    ProblemSpec,
    bbob_split,
    evaluate_batch,
    make_problem,
    sample_offset,
)


def make(fid, d, offset=None, noise=None, seed=0):
    if offset is None:
        offset = np.zeros(d)
    return make_problem(
        ProblemSpec(function_id=fid, dimension=d, offset=offset, noise=noise, seed=seed)
    )


def test_sphere_at_shifted_optimum_is_zero():
    offset = np.linspace(-3, 3, 10)
    problem = make(1, 10, offset)
    y = evaluate_batch(problem, offset[None, :])
    assert y[0] == 0.0


def test_rastrigin_at_shifted_optimum_is_zero():
    offset = np.linspace(-2, 2, 10)
    problem = make(3, 10, offset)
    assert evaluate_batch(problem, offset[None, :])[0] == pytest.approx(0.0, abs=1e-12)


def test_sphere_unit_point():
    problem = make(1, 2)
    assert evaluate_batch(problem, np.array([[1.0, 1.0]]))[0] == 2.0


def test_unknown_function_id_names_the_id():
    with pytest.raises(ConfigError, match="999"):
        make(999, 3)


def test_fe_accounting_single_point():
    problem = make(1, 2)
    assert problem.fe_count == 0
    evaluate_batch(problem, np.zeros((1, 2)))
    assert problem.fe_count == 1


def test_fe_accounting_is_k_times_m(rng):
    problem = make(3, 4)
    for _ in range(5):
        evaluate_batch(problem, rng.uniform(-5.0, 5.0, (7, problem.dimension)))
    assert problem.fe_count == 35


def test_linear_slope_minimum_at_boundary_corner(rng):
    problem = make(5, 6, seed=11)
    corner = problem.optimum_position()
    corner_value = evaluate_batch(problem, corner[None, :])[0]
    samples = rng.uniform(-5.0, 5.0, (200, problem.dimension))
    values = evaluate_batch(problem, samples)
    assert corner_value == pytest.approx(0.0, abs=1e-12)
    assert np.all(values >= corner_value)


def test_linear_slope_table_entry_points_to_make_problem():
    # the entry held the sphere as a placeholder, so a direct call returned [3.]
    with pytest.raises(ConfigError, match="make_problem"):
        FUNCTIONS[5].evaluate(np.ones((1, 3)))


def test_gaussian_noise_level_zero_is_noiseless(rng):
    X = rng.uniform(-5, 5, (6, 3))
    noisy = make(1, 3, noise=NoiseModel(NoiseKind.GAUSSIAN_MULTIPLICATIVE, 0.0), seed=4)
    clean = make(1, 3, seed=4)
    assert np.array_equal(evaluate_batch(noisy, X), evaluate_batch(clean, X))


def test_noise_deterministic_given_seed(rng):
    X = rng.uniform(-5, 5, (8, 3))
    runs = []
    for _ in range(2):
        problem = make(1, 3, noise=NoiseModel(NoiseKind.CAUCHY_ADDITIVE, 0.5), seed=9)
        runs.append(evaluate_batch(problem, X))
    assert np.array_equal(runs[0], runs[1])


def test_cauchy_noise_is_clamped():
    problem = make(1, 2, noise=NoiseModel(NoiseKind.CAUCHY_ADDITIVE, 1e9), seed=0)
    y = evaluate_batch(problem, np.full((256, 2), 0.5))
    assert np.all(np.abs(y) <= 1e6 + 0.5)


@pytest.mark.parametrize("level", [-0.1, np.nan, np.inf])
def test_noise_level_must_be_finite_and_non_negative(level):
    # a NaN level passed `level < 0` and every noisy evaluation returned NaN
    with pytest.raises(ConfigError, match="noise level must be finite and >= 0"):
        NoiseModel(NoiseKind.CAUCHY_ADDITIVE, level)


def test_bbob_split_exact():
    # the paper's 12/12 split of ids 1-24, narrowed to the implemented ones
    train, test = bbob_split()
    assert train == {1, 2, 5, 7, 13, 16, 17, 23}
    assert test == {3, 8, 19, 20}
    assert not (train & test)
    for fid in train | test:
        assert make(fid, 3).dimension == 3


@pytest.mark.parametrize("fid", sorted(FUNCTIONS))
def test_every_function_minimal_at_its_optimum(fid, rng):
    d = max(3, FUNCTIONS[fid].min_dimension)
    offset_rng = np.random.default_rng(fid)
    offset = sample_offset(fid, d, offset_rng)
    problem = make(fid, d, offset, seed=fid)
    opt = problem.optimum_position()
    assert np.all(np.abs(opt) <= 5.0)
    f_opt = evaluate_batch(problem, opt[None, :])[0]
    values = evaluate_batch(problem, rng.uniform(-5.0, 5.0, (300, problem.dimension)))
    assert f_opt == pytest.approx(0.0, abs=1e-9)
    assert np.all(values >= f_opt - 1e-9)


@given(
    fid=st.sampled_from(sorted(FUNCTIONS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_offset_invariance(fid, seed):
    """f(x; O) equals f(x - O; 0) exactly for every implemented function."""
    d = max(3, FUNCTIONS[fid].min_dimension)
    rng = np.random.default_rng(seed)
    offset = sample_offset(fid, d, rng)
    X = rng.uniform(-1, 1, (5, d))  # keep x and x - O inside the box
    shifted = make(fid, d, offset, seed=seed)
    unshifted = make(fid, d, np.zeros(d), seed=seed)
    assert np.array_equal(
        evaluate_batch(shifted, X), evaluate_batch(unshifted, X - offset)
    )


@given(seed=st.integers(0, 2**32 - 1))
def test_determinism_bit_identical(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, (4, 3))
    ys = []
    for _ in range(2):
        problem = make(16, 3, noise=NoiseModel(NoiseKind.GAUSSIAN_MULTIPLICATIVE, 0.1), seed=seed)
        ys.append(evaluate_batch(problem, X))
    assert np.array_equal(ys[0], ys[1])


def test_offsets_keep_optimum_inside_box():
    for fid in sorted(FUNCTIONS):
        d = max(3, FUNCTIONS[fid].min_dimension)
        rng = np.random.default_rng(0)
        for _ in range(20):
            offset = sample_offset(fid, d, rng)
            spec = ProblemSpec(function_id=fid, dimension=d, offset=offset, seed=1)
            problem = make_problem(spec)
            assert np.all(np.abs(problem.optimum_position()) <= 5.0)


def test_out_of_box_candidates_rejected():
    problem = make(1, 2)
    with pytest.raises(ValueError):
        evaluate_batch(problem, np.array([[6.0, 0.0]]))


def test_offset_outside_box_rejected():
    with pytest.raises(ConfigError):
        make(1, 2, offset=np.array([5.0, 0.0]))


def test_min_dimension_enforced():
    with pytest.raises(ConfigError, match="rosenbrock"):
        make(8, 1)


def test_bounds_are_built_once_and_read_only():
    problem = make(1, 4)
    lower, upper = problem.lower, problem.upper
    assert problem.lower is lower and problem.spec.upper is upper
    assert np.array_equal(lower, np.full(4, -5.0))
    assert np.array_equal(upper, np.full(4, 5.0))
    for bound in (lower, upper):
        with pytest.raises(ValueError):
            bound[0] = 0.0
