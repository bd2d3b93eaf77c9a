"""Bi-level tasks: a meta-policy reads landscape features and configures a
low-level optimizer, step by step, over a problem set.

A task pairs an optimizer kind (DE or PSO) with train/test function sets and
budgets.  The policy is a two-layer tanh perceptron whose outputs are
squashed into each control parameter's range.  Policies are meta-trained by
an inner evolution strategy on the episode return (sum of per-step
normalized improvements), and a candidate feature extractor is scored by the
relative-performance metric: the mean z-score of its final objective values
against cached baseline statistics, averaged over test problems and repeated
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analyzer import AnalyzerConfig, Observation, decode_params
from .ela import (
    ELA_FEATURE_NAMES,
    HANDCRAFTED_NAMES,
    RunContext,
    ela_features,
    handcrafted_state,
    impute_missing,
)
from .errors import ConfigError
from .es import EsConfig, es_init, es_sample, es_update
from .optimizers import MIN_POPULATION, DeConfig, PsoConfig, de_step, init_state, pso_step
from .problems import NoiseModel, Problem, ProblemSpec, check_functions, make_problem, sample_offset
from .utils import array_digest, derive_seed, layout_size, unpack

Z_CAP = 10.0
SIGMA_FLOOR = 1e-12


# --- feature extractors -------------------------------------------------------
# Each names its kind and features; extract(obs, ctx) -> (per-candidate or None, pooled).


class NeuralExtractor:
    """Population encoder decoded from flat weights; per-candidate and pooled features."""

    name = "neural"

    def __init__(self, theta, analyzer_cfg: AnalyzerConfig):
        self.net = decode_params(theta, analyzer_cfg)
        self.width = analyzer_cfg.hidden_dim
        self.names = tuple(f"nf_{i}" for i in range(self.width))

    def extract(self, obs: Observation, ctx: Optional[RunContext] = None):
        fs = self.net.features(obs)
        return fs.per_candidate, fs.population


class ElaExtractor:
    """Classical in-run feature groups; population-level only."""

    name = "ela"
    names = ELA_FEATURE_NAMES
    width = len(names)

    def extract(self, obs: Observation, ctx: Optional[RunContext] = None):
        return None, impute_missing(ela_features(obs.X, obs.y, obs.lb, obs.ub), self.names)


class HandcraftedExtractor:
    """Eight bounded optimization-state features; population-level only.
    Without a run context the population is seen on its own."""

    name = "handcrafted"
    names = HANDCRAFTED_NAMES
    width = len(names)

    def extract(self, obs: Observation, ctx: Optional[RunContext] = None):
        return None, handcrafted_state(RunContext.lone(obs) if ctx is None else ctx)


EXTRACTOR_KINDS = tuple(c.name for c in (NeuralExtractor, ElaExtractor, HandcraftedExtractor))


def make_slot_extractor(slot: str, theta=None, analyzer_cfg=None):
    """Extractor of one kind; the neural kind needs weights and an analyzer config."""
    if slot == "neural":
        if theta is None or analyzer_cfg is None:
            raise ConfigError("the neural kind needs weights and an analyzer config")
        return NeuralExtractor(theta, analyzer_cfg)
    if slot == "ela":
        return ElaExtractor()
    if slot == "handcrafted":
        return HandcraftedExtractor()
    raise ConfigError(f"unknown extractor kind {slot!r}; one of {EXTRACTOR_KINDS}")


# --- meta-policy ---------------------------------------------------------------


@dataclass(frozen=True)
class PolicyTemplate:
    feature_mode: str  # "per_individual" or "population"
    outputs: tuple[tuple[str, float, float], ...]  # (name, low, high)
    hidden: int = 32


def policy_template_for(optimizer: str, hidden: int = 32) -> PolicyTemplate:
    if optimizer == "de":
        return PolicyTemplate(
            feature_mode="per_individual",
            outputs=(("mutation_factor", 0.0, 1.0), ("crossover_rate", 0.0, 1.0)),
            hidden=hidden,
        )
    if optimizer == "pso":
        return PolicyTemplate(
            feature_mode="population",
            outputs=(("inertia", 0.0, 1.0), ("cognitive", 0.0, 2.0), ("social", 0.0, 2.0)),
            hidden=hidden,
        )
    raise ConfigError(f"unknown optimizer kind {optimizer!r}")


def policy_layout(template: PolicyTemplate, in_width: int) -> tuple:
    """Packing order of a policy vector: w1, b1, w2, b2."""
    h, k = template.hidden, len(template.outputs)
    return (("w1", (in_width, h)), ("b1", (h,)), ("w2", (h, k)), ("b2", (k,)))


def policy_param_count(template: PolicyTemplate, in_width: int) -> int:
    return layout_size(policy_layout(template, in_width))


@dataclass
class MetaPolicy:
    """Two-layer perceptron with tanh hidden units and sigmoid-squashed
    outputs mapped into each control parameter's range."""

    template: PolicyTemplate
    in_width: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def raw_outputs(self, features: np.ndarray) -> np.ndarray:
        hidden = np.tanh(features @ self.w1 + self.b1)
        logits = hidden @ self.w2 + self.b2
        e = np.exp(-np.abs(logits))  # stable sigmoid: no overflow either side
        squashed = np.where(logits >= 0, 1.0, e) / (1.0 + e)
        lows = np.array([lo for _, lo, _ in self.template.outputs])
        highs = np.array([hi for _, _, hi in self.template.outputs])
        return lows + (highs - lows) * squashed


def policy_decode(vector: np.ndarray, template: PolicyTemplate, in_width: int) -> MetaPolicy:
    vector = np.asarray(vector, dtype=float).reshape(-1)
    lay = policy_layout(template, in_width)
    return MetaPolicy(template=template, in_width=in_width, **unpack(vector, lay))


# --- tasks ---------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """One meta-optimization task: optimizer kind, problem split, budgets."""

    id: str
    optimizer: str  # "de" or "pso"
    dimension: int
    train_functions: tuple[int, ...]
    test_functions: tuple[int, ...]
    population_size: int = 50
    budget: int = 2000  # step-evaluation budget; horizon = budget // population
    noise: Optional[NoiseModel] = None
    analyzer_slot: str = "neural"
    policy_hidden: int = 32
    inner_variant: str = "sep_cmaes"
    inner_population: int = 6
    inner_epochs: int = 3
    episodes_per_eval: int = 1

    def __post_init__(self):
        if isinstance(self.noise, dict):
            object.__setattr__(self, "noise", NoiseModel(**self.noise))
        object.__setattr__(self, "train_functions", tuple(self.train_functions))
        object.__setattr__(self, "test_functions", tuple(self.test_functions))
        self.template()  # raises ConfigError on an unknown optimizer kind
        # Training and evaluation always evolve the neural encoder; the field
        # stays because run digests, baseline-cache keys and checkpoints hold it.
        if self.analyzer_slot != "neural":
            raise ConfigError(
                f"task {self.id}: analyzer_slot must be 'neural', got {self.analyzer_slot!r}"
            )
        for name in ("population_size", "episodes_per_eval", "policy_hidden"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"task {self.id}: {name} must be positive, got {getattr(self, name)}"
                )
        least = MIN_POPULATION[self.optimizer]
        if self.population_size < least:
            raise ConfigError(f"task {self.id}: {self.optimizer} needs population_size >= {least}")
        if self.inner_epochs < 0:
            raise ConfigError(f"task {self.id}: inner_epochs must be >= 0, got {self.inner_epochs}")
        try:
            self.inner_es_config(dim=1, seed=0)
        except ConfigError as exc:
            raise ConfigError(f"task {self.id}: inner ES: {exc}") from None
        if not self.train_functions:
            raise ConfigError(f"task {self.id}: empty train set")
        for name in ("train_functions", "test_functions"):
            check_functions(getattr(self, name), self.dimension, f"task {self.id}: {name}")
        overlap = set(self.train_functions) & set(self.test_functions)
        if overlap:
            raise ConfigError(
                f"task {self.id}: train and test sets overlap on {sorted(overlap)}"
            )
        if self.budget < self.population_size:
            raise ConfigError(f"task {self.id}: budget smaller than one step")

    @property
    def horizon(self) -> int:
        return self.budget // self.population_size

    def template(self) -> PolicyTemplate:
        return policy_template_for(self.optimizer, self.policy_hidden)

    def inner_es_config(self, dim: int, seed: int) -> EsConfig:
        """The inner ES over policy vectors of length ``dim``, started at zero."""
        return EsConfig(
            variant=self.inner_variant,
            dim=dim,
            population=self.inner_population,
            initial_sigma=0.3,
            initial_mean_mode="zero",
            seed=seed,
        )


def make_instance(task: TaskSpec, function_id: int, instance_seed: int) -> Problem:
    """Problem instance with a derived random offset and noise stream."""
    offset_rng = np.random.Generator(
        np.random.PCG64(derive_seed(instance_seed, "offset"))
    )
    offset = sample_offset(function_id, task.dimension, offset_rng)
    spec = ProblemSpec(
        function_id=function_id,
        dimension=task.dimension,
        offset=offset,
        noise=task.noise,
        seed=derive_seed(instance_seed, "noise"),
    )
    return make_problem(spec)


# --- episode rollout -----------------------------------------------------------


@dataclass
class StepRecord:
    digest: str
    config: dict
    reward: float


@dataclass
class EpisodeResult:
    f_star: float
    fe_used: int
    steps: list = field(default_factory=list)


def _policy_config(
    task: TaskSpec, policy: MetaPolicy, per: Optional[np.ndarray], pop: np.ndarray, m: int
):
    """Map extracted features to an optimizer config via the policy, or to
    (None, {}) when a feature or a policy output is not finite.

    Extractors without per-candidate features broadcast the population
    feature, which collapses per-individual control to a uniform setting.
    """
    if policy.template.feature_mode == "per_individual":
        feats = per if per is not None else np.tile(pop, (m, 1))
    else:
        feats = pop[None, :]
    out = policy.raw_outputs(feats)
    if not (np.isfinite(feats).all() and np.isfinite(out).all()):
        return None, {}
    if task.optimizer == "de":
        return DeConfig(F=out[:, 0], Cr=out[:, 1]), {
            "F_mean": float(out[:, 0].mean()),
            "Cr_mean": float(out[:, 1].mean()),
        }
    scalars = out[0]
    cfg = PsoConfig(inertia=scalars[0], cognitive=scalars[1], social=scalars[2])
    return cfg, {"inertia": cfg.inertia, "cognitive": cfg.cognitive, "social": cfg.social}


def run_episode(
    task: TaskSpec,
    extractor,
    policy: MetaPolicy,
    problem: Problem,
    seed: int,
    on_step=None,
) -> EpisodeResult:
    """One full rollout: observe, extract features, decide, step, reward.

    The initial population evaluation is bookkept outside the step budget:
    the budget governs policy-controlled steps, so the horizon is exactly
    budget // population_size decisions.  The per-step reward is the
    improvement of the best-so-far objective normalized by the initial best
    magnitude, floored at zero; a non-finite feature or control ends the
    episode with reward and ``f_star`` NaN.  ``fe_used`` is what the problem
    counted after the initial population.  ``on_step(obs, pop, cfg_summary)``,
    when given, sees each step's observation, pooled features and decision.
    """
    if policy.in_width != extractor.width:
        raise ConfigError(
            f"policy expects feature width {policy.in_width}, extractor "
            f"{extractor.name!r} produces {extractor.width}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    m = task.population_size
    state = init_state(problem, m, rng)
    fe0 = problem.fe_count
    denom = max(abs(state.best_y), 1e-12)
    worst_so_far = float(np.max(state.y))
    prev_best = state.best_y
    steps_since_improvement = 0
    result = EpisodeResult(f_star=np.nan, fe_used=0)
    for t in range(task.horizon):
        obs = Observation(
            X=state.X.copy(), y=state.y.copy(), lb=problem.lower, ub=problem.upper
        )
        ctx = RunContext(
            obs=obs,
            t=t,
            horizon=task.horizon,
            best_so_far=state.best_y,
            prev_best=prev_best,
            worst_so_far=worst_so_far,
            steps_since_improvement=steps_since_improvement,
        )
        per, pop = extractor.extract(obs, ctx)
        cfg, cfg_summary = _policy_config(task, policy, per, pop, m)
        if cfg is None:
            result.steps.append(StepRecord(array_digest(state.X), cfg_summary, np.nan))
            break
        if on_step is not None:
            on_step(obs, pop, cfg_summary)
        before = state.best_y
        if task.optimizer == "de":
            de_step(state, cfg, problem, rng)
        else:
            pso_step(state, cfg, problem, rng)
        reward = max(0.0, (before - state.best_y) / denom)
        worst_so_far = max(worst_so_far, float(np.max(state.y)))
        steps_since_improvement = (
            0 if state.best_y < before else steps_since_improvement + 1
        )
        prev_best = before
        result.steps.append(
            StepRecord(digest=array_digest(state.X), config=cfg_summary, reward=reward)
        )
    else:  # every step ran
        result.f_star = state.best_y
    result.fe_used = problem.fe_count - fe0
    return result


def episode_return(result: EpisodeResult) -> float:
    return float(sum(s.reward for s in result.steps))


# --- meta-training -------------------------------------------------------------


@dataclass
class MetaTrainResult:
    vector: np.ndarray  # the policy's flat weights, `policy_layout` order
    policy: MetaPolicy
    best_return: float
    fe_used: int
    history: list  # (epoch, best return so far)


def train_instance_schedule(task: TaskSpec, seed_base: int, epoch: int):
    """Deterministic per-epoch schedule of train problems and episode seeds."""
    picks = []
    for e in range(task.episodes_per_eval):
        idx = (epoch * task.episodes_per_eval + e) % len(task.train_functions)
        fid = task.train_functions[idx]
        inst_seed = derive_seed(seed_base, "train-instance", epoch, e)
        ep_seed = derive_seed(seed_base, "train-episode", epoch, e)
        picks.append((fid, inst_seed, ep_seed))
    return picks


def mean_return(task: TaskSpec, extractor, policy: MetaPolicy, picks) -> tuple[float, int]:
    """Mean episode return of one policy over scheduled picks, and its FEs."""
    total = 0.0
    fe_used = 0
    for fid, inst_seed, ep_seed in picks:
        problem = make_instance(task, fid, inst_seed)
        ep = run_episode(task, extractor, policy, problem, ep_seed)
        total += episode_return(ep)
        fe_used += ep.fe_used
    return total / len(picks), fe_used


def meta_train(
    task: TaskSpec,
    extractor,
    seed: int,
    epochs: Optional[int] = None,
) -> MetaTrainResult:
    """Optimize the policy by an inner evolution strategy on episode returns.

    Deterministic given (task, extractor, seed).  Returns the best policy
    vector the inner ES evaluated (its ``best_x``), or its mean when no
    epoch runs, with that vector decoded.
    """
    template = task.template()
    n_params = policy_param_count(template, extractor.width)
    epochs = task.inner_epochs if epochs is None else epochs
    inner_cfg = task.inner_es_config(n_params, derive_seed(seed, "inner-es"))
    state = es_init(inner_cfg)
    fe_used = 0
    history = []
    for epoch in range(epochs):
        candidates = es_sample(state)
        picks = train_instance_schedule(task, seed, epoch)
        returns = np.empty(inner_cfg.population)
        for i, vec in enumerate(candidates):
            policy = policy_decode(vec, template, extractor.width)
            returns[i], fe = mean_return(task, extractor, policy, picks)
            fe_used += fe
        es_update(state, candidates, returns)
        history.append((epoch, state.best_f))
    best = state.mean if state.best_x is None else state.best_x
    return MetaTrainResult(
        vector=best,
        policy=policy_decode(best, template, extractor.width),
        best_return=state.best_f,
        fe_used=fe_used,
        history=history,
    )


# --- relative performance -------------------------------------------------------


@dataclass(frozen=True)
class BaselineStats:
    """Cached per-problem mean/std of the baseline pipeline's final values."""

    task_id: str
    q_runs: int
    seed_base: int
    stats: dict  # function id -> (mu, sigma)

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "q_runs": self.q_runs,
            "seed_base": self.seed_base,
            "stats": {str(fid): [mu, sigma] for fid, (mu, sigma) in self.stats.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BaselineStats":
        return cls(
            task_id=d["task_id"],
            q_runs=d["q_runs"],
            seed_base=d["seed_base"],
            stats={int(fid): (v[0], v[1]) for fid, v in d["stats"].items()},
        )


def z_score(f_star: float, mu_p: float, sigma_p: float) -> float:
    """Negated, baseline-normalized gap: -(f* - mu) / sigma.

    A near-zero sigma (deterministic baseline) caps the score at +-Z_CAP, or
    0 when f* coincides with the baseline mean.
    """
    if sigma_p < SIGMA_FLOOR:
        if abs(f_star - mu_p) < SIGMA_FLOOR:
            return 0.0
        return float(np.sign(mu_p - f_star) * Z_CAP)
    return -(f_star - mu_p) / sigma_p


def run_test_episodes(
    task: TaskSpec, extractor, policy: MetaPolicy, q_runs: int, seed_base: int
) -> tuple[dict[int, np.ndarray], int]:
    """Final objective per (test problem, run) under canonical seeds, and the FEs spent.

    Both the baseline and candidate evaluations go through this helper, so a
    shared seed base reproduces identical problem instances and episodes.
    """
    out = {}
    fe_used = 0
    for fid in task.test_functions:
        values = np.empty(q_runs)
        for q in range(q_runs):
            inst_seed = derive_seed(seed_base, task.id, "test-instance", fid, q)
            ep_seed = derive_seed(seed_base, task.id, "test-episode", fid, q)
            problem = make_instance(task, fid, inst_seed)
            ep = run_episode(task, extractor, policy, problem, ep_seed)
            values[q] = ep.f_star
            fe_used += ep.fe_used
        out[fid] = values
    return out, fe_used


def train_and_test(
    task: TaskSpec, extractor, q_runs: int, seed_base: int
) -> tuple[MetaTrainResult, dict[int, np.ndarray], int]:
    """Meta-train a policy on the extractor's features under the canonical
    seed, then run the test episodes with it."""
    trained = meta_train(task, extractor, seed=derive_seed(seed_base, task.id, "metatrain"))
    fstars, fe_test = run_test_episodes(task, extractor, trained.policy, q_runs, seed_base)
    return trained, fstars, fe_test


def compute_baseline(task: TaskSpec, q_runs: int, seed_base: int) -> BaselineStats:
    """Meta-train the baseline pipeline once and freeze its test statistics."""
    _, fstars, _ = train_and_test(task, HandcraftedExtractor(), q_runs, seed_base)
    stats = {
        fid: (float(np.mean(v)), float(np.std(v))) for fid, v in fstars.items()
    }
    return BaselineStats(task_id=task.id, q_runs=q_runs, seed_base=seed_base, stats=stats)


@dataclass
class UpsilonResult:
    value: float
    per_problem: dict  # function id -> mean z-score
    z_table: dict  # function id -> list of per-run z-scores
    fe_meta_train: int
    fe_test: int


def upsilon_from_fstars(
    task: TaskSpec, baseline: BaselineStats, fstars: dict
) -> tuple[float, dict, dict]:
    """Score final values against baseline stats: (mean, per problem, z table).

    Per problem, the mean z-score is accumulated as -(mean f* - mu) / sigma,
    which equals the mean of per-run z-scores and is exactly zero when the
    candidate reproduces the baseline runs bit for bit.
    """
    per_problem = {}
    z_table = {}
    for fid, values in fstars.items():
        mu_p, sigma_p = baseline.stats[fid]
        z_table[fid] = [z_score(float(v), mu_p, sigma_p) for v in values]
        if sigma_p < SIGMA_FLOOR:
            per_problem[fid] = float(np.mean(z_table[fid]))
        else:
            per_problem[fid] = -(float(np.mean(values)) - mu_p) / sigma_p
    value = float(np.mean([per_problem[fid] for fid in task.test_functions]))
    return value, per_problem, z_table


def check_baseline(task: TaskSpec, baseline: BaselineStats) -> None:
    """Raise ConfigError unless `baseline` has stats for every test problem."""
    missing = [fid for fid in task.test_functions if fid not in baseline.stats]
    if missing:
        raise ConfigError(
            f"baseline stats for task {task.id} missing problems {missing}"
        )


def relative_performance(
    extractor, task: TaskSpec, baseline: BaselineStats, q_runs: int, seed_base: int
) -> UpsilonResult:
    """Mean z-score of the candidate pipeline against the cached baseline."""
    check_baseline(task, baseline)
    trained, fstars, fe_test = train_and_test(task, extractor, q_runs, seed_base)
    value, per_problem, z_table = upsilon_from_fstars(task, baseline, fstars)
    return UpsilonResult(
        value=value,
        per_problem=per_problem,
        z_table=z_table,
        fe_meta_train=trained.fe_used,
        fe_test=fe_test,
    )
