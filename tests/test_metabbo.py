import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from popscape.analyzer import AnalyzerConfig, Observation, param_count
from popscape.errors import ConfigError
from popscape.metabbo import (
    BaselineStats,
    ElaExtractor,
    HandcraftedExtractor,
    MetaPolicy,
    NeuralExtractor,
    PolicyTemplate,
    TaskSpec,
    compute_baseline,
    episode_return,
    make_instance,
    meta_train,
    policy_decode,
    policy_layout,
    policy_param_count,
    policy_template_for,
    relative_performance,
    run_episode,
    run_test_episodes,
    z_score,
)
from popscape import metabbo, optimizers
from popscape.optimizers import init_state
from popscape.problems import evaluate_batch
from popscape.utils import derive_seed

from .golden import DATA, desk_episode


def small_task(**overrides):
    defaults = dict(
        id="de_small",
        optimizer="de",
        dimension=5,
        train_functions=(1,),
        test_functions=(3,),
        population_size=10,
        budget=200,
        inner_epochs=1,
        inner_population=4,
    )
    defaults.update(overrides)
    return TaskSpec(**defaults)


def neural_extractor(seed=0):
    cfg = AnalyzerConfig()
    rng = np.random.default_rng(seed)
    return NeuralExtractor(rng.normal(0, 0.3, param_count(cfg)), cfg)


# --- z-score ----------------------------------------------------------------------


def test_z_score_direct_substitutions():
    assert z_score(5.0, 5.0, 2.0) == 0.0
    assert z_score(3.0, 5.0, 2.0) == 1.0
    assert z_score(9.0, 5.0, 2.0) == -2.0


def test_z_score_deterministic_baseline_caps():
    assert z_score(5.0, 5.0, 0.0) == 0.0
    assert z_score(4.0, 5.0, 0.0) == 10.0
    assert z_score(6.0, 5.0, 0.0) == -10.0


@given(
    f=st.floats(-100, 100),
    mu=st.floats(-100, 100),
    sigma=st.floats(0.01, 50),
    a=st.floats(0.01, 100),
    b=st.floats(-50, 50),
)
def test_z_score_affine_invariance(f, mu, sigma, a, b):
    base = z_score(f, mu, sigma)
    mapped = z_score(a * f + b, a * mu + b, a * sigma)
    assert mapped == pytest.approx(base, abs=1e-9)


# --- policy ------------------------------------------------------------------------


def test_policy_layout_packs_w1_b1_w2_b2():
    template = policy_template_for("de")  # 32 hidden units, 2 outputs
    assert policy_layout(template, 16) == (
        ("w1", (16, 32)), ("b1", (32,)), ("w2", (32, 2)), ("b2", (2,))
    )
    assert policy_param_count(template, 16) == 16 * 32 + 32 + 32 * 2 + 2


def test_policy_wrong_length_names_expected():
    template = policy_template_for("pso")
    with pytest.raises(ConfigError, match=str(policy_param_count(template, 8))):
        policy_decode(np.zeros(3), template, 8)


@given(seed=st.integers(0, 2**31 - 1))
def test_policy_outputs_inside_declared_ranges(seed):
    rng = np.random.default_rng(seed)
    template = policy_template_for("pso")
    policy = policy_decode(
        rng.normal(0, 5, policy_param_count(template, 8)), template, 8
    )
    out = policy.raw_outputs(rng.normal(0, 10, (4, 8)))
    lows = np.array([lo for _, lo, _ in template.outputs])
    highs = np.array([hi for _, _, hi in template.outputs])
    assert np.all(out >= lows) and np.all(out <= highs)


def test_zero_policy_outputs_midrange():
    template = policy_template_for("de")
    policy = policy_decode(np.zeros(policy_param_count(template, 8)), template, 8)
    out = policy.raw_outputs(np.zeros((3, 8)))
    assert np.allclose(out, 0.5)


def test_raw_outputs_match_three_exp_sigmoid_bit_for_bit():
    logits = np.array([
        -np.inf, -800.0, -30.0, -1.5, -0.0, 0.0, 1e-300, 2.5, 40.0, 800.0, np.inf, np.nan,
    ])
    outputs = tuple((f"out{i}", -1.0, 3.0) for i in range(len(logits)))
    template = PolicyTemplate(feature_mode="population", outputs=outputs, hidden=4)
    policy = MetaPolicy(
        template=template, in_width=3, w1=np.ones((3, 4)), b1=np.zeros(4),
        w2=np.zeros((4, len(logits))), b2=logits,
    )
    three_exp = np.where(
        logits >= 0,
        1.0 / (1.0 + np.exp(-np.abs(logits))),
        np.exp(-np.abs(logits)) / (1.0 + np.exp(-np.abs(logits))),
    )
    expected = -1.0 + 4.0 * three_exp
    out = policy.raw_outputs(np.array([[0.5, -2.0, 1.0]]))
    assert out.view("<u8").tolist() == expected[None, :].view("<u8").tolist()


# --- episodes -----------------------------------------------------------------------


def test_budget_equal_population_gives_one_decision():
    task = small_task(budget=10, population_size=10)
    assert task.horizon == 1
    extractor = HandcraftedExtractor()
    policy = policy_decode(
        np.zeros(policy_param_count(task.template(), extractor.width)),
        task.template(),
        extractor.width,
    )
    problem = make_instance(task, 1, 5)
    result = run_episode(task, extractor, policy, problem, seed=1)
    assert len(result.steps) == 1
    assert result.fe_used == 10
    assert result.fe_used <= task.budget


def test_rewards_floored_at_zero(rng):
    task = small_task()
    extractor = HandcraftedExtractor()
    policy = policy_decode(
        rng.normal(0, 1, policy_param_count(task.template(), extractor.width)),
        task.template(),
        extractor.width,
    )
    result = run_episode(task, extractor, policy, make_instance(task, 1, 2), seed=3)
    assert all(s.reward >= 0.0 for s in result.steps)


def test_frozen_swarm_yields_constant_zero_rewards():
    """A policy that zeroes every PSO coefficient freezes the swarm, so the
    best value never improves and every reward sits at the floor."""
    task = small_task(id="pso_frozen", optimizer="pso", budget=100)
    extractor = HandcraftedExtractor()
    template = task.template()
    policy = policy_decode(
        np.zeros(policy_param_count(template, extractor.width)), template, extractor.width
    )
    policy.b2[:] = -1e4  # squash every output to its lower bound exactly
    result = run_episode(task, extractor, policy, make_instance(task, 1, 4), seed=6)
    assert all(s.reward == 0.0 for s in result.steps)


def test_episode_final_value_no_worse_than_start(monkeypatch):
    """f_star is the smallest value the episode evaluated, initial population
    included."""
    evaluated = []

    def spy(problem, X):
        y = evaluate_batch(problem, X)
        evaluated.extend(y)
        return y

    monkeypatch.setattr(optimizers, "evaluate_batch", spy)
    task = small_task(budget=400)
    extractor = neural_extractor()
    policy = policy_decode(
        np.zeros(policy_param_count(task.template(), extractor.width)),
        task.template(),
        extractor.width,
    )
    result = run_episode(task, extractor, policy, make_instance(task, 1, 7), seed=11)
    assert len(evaluated) == (task.horizon + 1) * task.population_size
    assert result.f_star == min(evaluated)


def test_episode_deterministic():
    task = small_task()
    extractor = neural_extractor(3)
    policy = policy_decode(
        np.random.default_rng(4).normal(
            0, 1, policy_param_count(task.template(), extractor.width)
        ),
        task.template(),
        extractor.width,
    )

    def run():
        return run_episode(task, extractor, policy, make_instance(task, 1, 9), seed=13)

    a, b = run(), run()
    assert a.f_star == b.f_star
    assert [s.digest for s in a.steps] == [s.digest for s in b.steps]
    assert [s.reward for s in a.steps] == [s.reward for s in b.steps]


class InfFeatureAtStep(HandcraftedExtractor):
    """Handcrafted features whose first one is +inf from step ``t`` on; the
    policy's tanh squashes it to finite controls."""

    def __init__(self, t):
        self.t = t

    def extract(self, obs, ctx=None):
        per, pop = super().extract(obs, ctx)
        if ctx.t >= self.t:
            pop[0] = np.inf
        return per, pop


@pytest.mark.parametrize("optimizer", ["de", "pso"])
@pytest.mark.parametrize("source", ["features", "controls"])
def test_non_finite_features_or_controls_end_the_episode(optimizer, source):
    # A NaN last b2 entry ran DE with Cr as 0 and left PSO at its initial
    # best, and an inf feature ran on finite controls, all with a finite f_star.
    task = small_task(id=f"{optimizer}_nonfinite", optimizer=optimizer)
    template = task.template()
    extractor = InfFeatureAtStep(2) if source == "features" else HandcraftedExtractor()
    policy = policy_decode(
        np.random.default_rng(3).normal(0, 1, policy_param_count(template, extractor.width)),
        template,
        extractor.width,
    )
    if source == "controls":
        policy.b2[-1] = np.nan
    ended = 2 if source == "features" else 0
    result = run_episode(task, extractor, policy, make_instance(task, 1, 2), seed=4)
    assert len(result.steps) == ended + 1
    assert [np.isnan(s.reward) for s in result.steps] == [False] * ended + [True]
    assert np.isnan(result.f_star) and np.isnan(episode_return(result))
    assert result.fe_used == ended * task.population_size


@given(
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e150]),
    optimizer=st.sampled_from(["de", "pso"]),
    dimension=st.sampled_from([1, 3]),
    m=st.sampled_from([4, 6]),
    seed=st.integers(0, 2**16),
)
def test_episode_ends_at_the_first_non_finite_decision(scale, optimizer, dimension, m, seed):
    """Across weight scales, m=4 and d=1: the episode runs while every
    feature and control is finite and ends at the first step where one is
    not, with that step's reward and f_star NaN."""
    task = small_task(
        id=f"{optimizer}_scaled", optimizer=optimizer, dimension=dimension,
        population_size=m, budget=3 * m,
    )
    rng = np.random.default_rng(seed)
    cfg = AnalyzerConfig()
    extractor = NeuralExtractor(rng.normal(0, scale, param_count(cfg)), cfg)
    template = task.template()
    policy = policy_decode(
        rng.normal(0, scale, policy_param_count(template, extractor.width)),
        template,
        extractor.width,
    )
    finite = []  # per policy call: were its features and outputs all finite
    raw_outputs = policy.raw_outputs

    def spy(features):
        out = raw_outputs(features)
        finite.append(bool(np.isfinite(features).all() and np.isfinite(out).all()))
        return out

    policy.raw_outputs = spy
    with np.errstate(all="ignore"):
        result = run_episode(task, extractor, policy, make_instance(task, 1, seed), seed=seed)
    ended = not all(finite)
    assert finite == [True] * (len(finite) - ended) + [False] * ended
    assert [not np.isnan(s.reward) for s in result.steps] == finite
    assert np.isnan(result.f_star) == ended
    assert result.fe_used == m * (len(finite) - ended)


def test_meta_train_never_returns_a_non_finite_policy(monkeypatch):
    """Candidates whose decoded policy has a NaN output bias score NaN, which
    the inner ES ranks worst, so none of them is the returned policy."""
    # With Cr as 0, such a DE candidate scored a finite return and, at this
    # seed, the best one.
    decode = metabbo.policy_decode

    def poisoned(vector, template, in_width):
        policy = decode(vector, template, in_width)
        if vector[0] > 0:
            policy.b2[-1] = np.nan
        return policy

    monkeypatch.setattr(metabbo, "policy_decode", poisoned)
    task = small_task(inner_epochs=3)
    result = meta_train(task, HandcraftedExtractor(), seed=7)
    assert np.isfinite(result.best_return)
    p = result.policy
    assert all(np.all(np.isfinite(t)) for t in (p.w1, p.b1, p.w2, p.b2))


@pytest.mark.parametrize("optimizer", ["de", "pso"])
def test_desk_episode_matches_golden(optimizer):
    """Training-size (m=50, d=10) episodes keep every stored step bit for bit."""
    stored = json.loads((DATA / "desk_episodes.json").read_text())[optimizer]
    assert desk_episode(optimizer) == stored


def test_feature_width_mismatch_names_width():
    task = small_task()
    extractor = HandcraftedExtractor()  # width 8
    policy = policy_decode(
        np.zeros(policy_param_count(task.template(), 16)), task.template(), 16
    )
    with pytest.raises(ConfigError, match="16"):
        run_episode(task, extractor, policy, make_instance(task, 1, 1), seed=0)


def test_pso_task_runs_with_population_features():
    task = small_task(id="pso_small", optimizer="pso")
    extractor = ElaExtractor()
    policy = policy_decode(
        np.random.default_rng(1).normal(
            0, 1, policy_param_count(task.template(), extractor.width)
        ),
        task.template(),
        extractor.width,
    )
    result = run_episode(task, extractor, policy, make_instance(task, 1, 3), seed=5)
    assert len(result.steps) == task.horizon
    assert "inertia" in result.steps[0].config


# --- task validation -----------------------------------------------------------------


def test_task_overlapping_splits_rejected():
    with pytest.raises(ConfigError, match="overlap"):
        small_task(train_functions=(1, 3), test_functions=(3,))


@pytest.mark.parametrize("optimizer,size", [("de", 3), ("pso", 1)])
def test_task_population_below_optimizer_minimum_rejected(optimizer, size):
    # these failed inside the first episode's de_step / pso_step
    with pytest.raises(ConfigError, match=f"task de_small: {optimizer} needs population_size >= "):
        small_task(optimizer=optimizer, population_size=size)


def test_task_budget_below_population_rejected():
    with pytest.raises(ConfigError):
        small_task(budget=5, population_size=10)


def test_task_round_trips_through_dict():
    task = small_task()
    assert TaskSpec(**asdict(task)) == task


# --- meta-training -------------------------------------------------------------------


def test_meta_train_zero_epochs_returns_initial_policy():
    task = small_task()
    extractor = HandcraftedExtractor()
    result = meta_train(task, extractor, seed=5, epochs=0)
    assert np.all(result.vector == 0.0)
    assert result.fe_used == 0
    assert result.best_return == -np.inf and result.history == []


def test_meta_train_returns_best_so_far():
    task = small_task(inner_epochs=3)
    extractor = HandcraftedExtractor()
    result = meta_train(task, extractor, seed=8)
    bests = [b for _, b in result.history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    assert result.best_return == bests[-1]


def test_meta_train_deterministic():
    task = small_task(inner_epochs=2)
    extractor = HandcraftedExtractor()
    a = meta_train(task, extractor, seed=21)
    b = meta_train(task, extractor, seed=21)
    assert np.array_equal(a.vector, b.vector)
    assert a.best_return == b.best_return


def test_meta_train_fe_accounting():
    task = small_task(inner_epochs=2, inner_population=4, episodes_per_eval=1)
    result = meta_train(task, HandcraftedExtractor(), seed=2)
    assert result.fe_used == 2 * 4 * 1 * task.budget


def test_relative_performance_fe_counts_step_evaluations(monkeypatch):
    """Both FE columns are the step evaluations spent: the initial
    populations are bookkept outside, and a budget that is not a multiple of
    the population leaves its remainder unspent."""
    spent = {"meta": 0, "test": 0}
    phase = ["meta"]

    def spy_evaluate(problem, X):
        y = evaluate_batch(problem, X)
        spent[phase[0]] += len(y)
        return y

    def spy_init(problem, m, rng):
        spent[phase[0]] -= m
        return init_state(problem, m, rng)

    def spy_test(*args):
        phase[0] = "test"
        return run_test_episodes(*args)

    monkeypatch.setattr(optimizers, "evaluate_batch", spy_evaluate)
    monkeypatch.setattr(metabbo, "init_state", spy_init)
    monkeypatch.setattr(metabbo, "run_test_episodes", spy_test)
    task = small_task(budget=40, population_size=6, test_functions=(3, 20))
    baseline = BaselineStats(task.id, 2, 0, {3: (0.0, 1.0), 20: (0.0, 1.0)})
    result = relative_performance(HandcraftedExtractor(), task, baseline, 2, seed_base=9)
    assert spent == {"meta": 4 * 6 * 6, "test": 2 * 2 * 6 * 6}
    assert (result.fe_meta_train, result.fe_test) == (spent["meta"], spent["test"])


@pytest.mark.slow
def test_trained_de_policy_beats_fixed_config_on_sphere():
    """Oracle: a meta-trained policy should match or beat the standard fixed
    configuration (F=0.5, Cr=0.9) on its training distribution."""
    task = TaskSpec(
        id="de_sphere",
        optimizer="de",
        dimension=5,
        train_functions=(1,),
        test_functions=(3,),
        population_size=10,
        budget=600,
        inner_epochs=6,
        inner_population=8,
        episodes_per_eval=2,
    )
    extractor = HandcraftedExtractor()
    trained = meta_train(task, extractor, seed=42)

    class FixedPolicy:
        template = task.template()
        in_width = extractor.width

        def raw_outputs(self, feats):
            return np.tile([0.5, 0.9], (feats.shape[0], 1))

    trained_vals, fixed_vals = [], []
    for s in range(10):
        inst = derive_seed("oracle-instance", s)
        ep = derive_seed("oracle-episode", s)
        trained_vals.append(
            run_episode(task, extractor, trained.policy, make_instance(task, 1, inst), ep).f_star
        )
        fixed_vals.append(
            run_episode(task, extractor, FixedPolicy(), make_instance(task, 1, inst), ep).f_star
        )
    assert np.mean(trained_vals) <= np.mean(fixed_vals)


# --- relative performance ---------------------------------------------------------------


def test_baseline_self_comparison_is_exact_zero():
    task = small_task(inner_epochs=1)
    baseline = compute_baseline(task, q_runs=3, seed_base=77)
    ups = relative_performance(HandcraftedExtractor(), task, baseline, q_runs=3, seed_base=77)
    assert ups.value == 0.0


def test_upsilon_unit_substitutions():
    """P=1, Q=1 with f* = mu - sigma gives exactly 1; averaging works."""
    task = small_task(inner_epochs=0)
    extractor = HandcraftedExtractor()
    trained = meta_train(task, extractor, seed=31, epochs=0)
    fstars, _ = run_test_episodes(task, extractor, trained.policy, 1, seed_base=31)
    f = float(fstars[3][0])
    baseline = BaselineStats(
        task_id=task.id, q_runs=1, seed_base=31, stats={3: (f + 2.0, 2.0)}
    )
    ups = relative_performance(extractor, task, baseline, q_runs=1, seed_base=31)
    assert ups.value == pytest.approx(1.0, abs=1e-12)


def test_upsilon_averages_over_problems():
    task = small_task(inner_epochs=0, test_functions=(3, 20))
    extractor = HandcraftedExtractor()
    trained = meta_train(task, extractor, seed=15, epochs=0)
    fstars, _ = run_test_episodes(task, extractor, trained.policy, 1, seed_base=15)
    f3, f20 = float(fstars[3][0]), float(fstars[20][0])
    baseline = BaselineStats(
        task_id=task.id,
        q_runs=1,
        seed_base=15,
        stats={3: (f3 + 1.0, 1.0), 20: (f20 - 1.0, 1.0)},  # z = +1 and -1
    )
    ups = relative_performance(extractor, task, baseline, q_runs=1, seed_base=15)
    assert ups.value == pytest.approx(0.0, abs=1e-12)
    assert ups.per_problem[3] == pytest.approx(1.0, abs=1e-12)
    assert ups.per_problem[20] == pytest.approx(-1.0, abs=1e-12)


def test_missing_baseline_entry_names_problem():
    task = small_task(test_functions=(3, 20))
    baseline = BaselineStats(task_id=task.id, q_runs=1, seed_base=0, stats={3: (0.0, 1.0)})
    with pytest.raises(ConfigError, match="20"):
        relative_performance(HandcraftedExtractor(), task, baseline, 1, 0)


def test_baseline_stats_round_trip():
    stats = BaselineStats(task_id="t", q_runs=3, seed_base=5, stats={3: (1.25, 0.5)})
    again = BaselineStats.from_dict(stats.to_dict())
    assert again == stats


def test_q1_baseline_has_zero_sigma():
    task = small_task(inner_epochs=0)
    baseline = compute_baseline(task, q_runs=1, seed_base=3)
    assert all(sigma == 0.0 for _, sigma in baseline.stats.values())


def test_slot_extractor_factory():
    from popscape.metabbo import make_slot_extractor

    assert make_slot_extractor("ela").width == 25
    assert make_slot_extractor("handcrafted").width == 8
    cfg = AnalyzerConfig()
    theta = np.zeros(param_count(cfg))
    assert make_slot_extractor("neural", theta, cfg).width == cfg.hidden_dim
    with pytest.raises(ConfigError):
        make_slot_extractor("neural")
    with pytest.raises(ConfigError):
        make_slot_extractor("mystery")


def test_handcrafted_without_context_sees_the_population_alone(rng):
    from popscape.ela import RunContext, handcrafted_state

    obs = Observation(X=rng.uniform(-5, 5, (12, 3)), y=rng.normal(size=12), lb=-5.0, ub=5.0)
    per, pop = HandcraftedExtractor().extract(obs)
    assert per is None
    assert np.array_equal(pop, handcrafted_state(RunContext.lone(obs)))


def test_instance_derivation_deterministic():
    task = small_task()
    a = make_instance(task, 1, 99)
    b = make_instance(task, 1, 99)
    assert np.array_equal(a.spec.offset, b.spec.offset)
    c = make_instance(task, 1, 100)
    assert not np.array_equal(a.spec.offset, c.spec.offset)
