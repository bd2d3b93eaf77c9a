"""Evolution strategies behind a single init / sample / update interface.

Five variants share rank-based recombination with log-decreasing weights over
the top floor(N/2) candidates and a maximization convention (higher fitness
is better; minimizers negate at the call site):

- ``cmaes``:      full covariance matrix adaptation (rank-one + rank-mu),
                  cumulative step-size adaptation.
- ``sep_cmaes``:  diagonal covariance only, learning rates scaled by (D+2)/3.
- ``r1es``:       a single adapted principal direction mixed into isotropic
                  sampling; step size by the population success rule.
- ``rmes``:       like r1es with a small set of directions kept apart in
                  generation time.
- ``fast_cmaes``: evolution-path mixture sampling plus a FIFO archive of
                  recent mean shifts, one archive direction re-used per
                  offspring; step size by the population success rule.

The low-memory variants follow the published mixture-sampling family; the
direction-replacement and archive rules here are simplifications, documented
in the README.  All updates depend on fitness only through ranks, so any
strictly increasing transform of the fitness sequence leaves the adapted
state bit-identical.  States serialize to JSON-able dictionaries for
checkpointing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .utils import csv_text, f8_from_b64, f8_to_b64

logger = logging.getLogger(__name__)

RMES_DIRECTIONS = 2
RMES_GENERATION_GAP = 20
FAST_ARCHIVE_SIZE = 5

# Population success rule constants (rank-based step-size control).
PSR_TARGET = 0.3
PSR_CUMULATION = 0.3
PSR_DAMPING = 1.0


class EsVariant(str, Enum):
    CMAES = "cmaes"
    SEP_CMAES = "sep_cmaes"
    FAST_CMAES = "fast_cmaes"
    R1ES = "r1es"
    RMES = "rmes"


@dataclass(frozen=True)
class EsConfig:
    variant: EsVariant
    dim: int
    population: int
    initial_sigma: float = 0.3
    initial_mean_mode: str = "uniform_random"  # or "zero"
    path_lr: Optional[float] = None  # default 2 / (dim + 5)
    seed: int = 0
    stall_generations: int = 50

    def __post_init__(self):
        variants = [v.value for v in EsVariant]
        if self.variant not in variants:
            raise ConfigError(f"unknown ES variant {self.variant!r}; one of {variants}")
        object.__setattr__(self, "variant", EsVariant(self.variant))
        if self.population < 4:
            raise ConfigError("ES population must be at least 4")
        if not (math.isfinite(self.initial_sigma) and self.initial_sigma > 0):
            raise ConfigError(f"initial sigma must be finite and > 0, got {self.initial_sigma}")
        if self.initial_mean_mode not in ("zero", "uniform_random"):
            raise ConfigError(f"unknown initial mean mode {self.initial_mean_mode!r}")
        if self.path_lr is None:
            object.__setattr__(self, "path_lr", 2.0 / (self.dim + 5.0))
        if not 0.0 <= self.path_lr <= 2.0:  # also rejects NaN
            raise ConfigError(f"path_lr must be in [0, 2], got {self.path_lr}")


def recombination_weights(population: int) -> tuple[np.ndarray, float]:
    """Normalized log-decreasing weights over the top floor(N/2) candidates."""
    mu = population // 2
    raw = np.log(population / 2.0 + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / float(np.sum(weights**2))
    return weights, mu_eff


@dataclass
class EsState:
    cfg: EsConfig
    mean: np.ndarray
    sigma: float
    gen: int = 0
    rng: np.random.Generator = field(default=None, repr=False)
    best_x: Optional[np.ndarray] = None
    best_f: float = -np.inf
    gens_since_improvement: int = 0
    stalled: bool = False
    # full covariance
    C: Optional[np.ndarray] = field(default=None, repr=False)
    eig_basis: Optional[np.ndarray] = field(default=None, repr=False)
    eig_scale: Optional[np.ndarray] = field(default=None, repr=False)
    # diagonal covariance
    C_diag: Optional[np.ndarray] = field(default=None, repr=False)
    # shared paths
    p_sigma: Optional[np.ndarray] = field(default=None, repr=False)
    p_c: Optional[np.ndarray] = field(default=None, repr=False)
    # mixture-sampling variants
    path: Optional[np.ndarray] = field(default=None, repr=False)
    directions: list = field(default_factory=list, repr=False)
    direction_gens: list = field(default_factory=list)
    archive: list = field(default_factory=list, repr=False)
    psr_s: float = 0.0
    prev_fitness: Optional[np.ndarray] = field(default=None, repr=False)


def es_init(cfg: EsConfig, mean: Optional[np.ndarray] = None) -> EsState:
    """Fresh state: configured mean mode, initial sigma, zero paths.

    An explicit ``mean`` overrides the configured mode (used when warm
    starting from a previously trained vector).
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if mean is not None:
        mean = np.asarray(mean, dtype=float).reshape(-1).copy()
        if mean.shape[0] != cfg.dim:
            raise ConfigError(f"mean has length {mean.shape[0]}, expected {cfg.dim}")
    elif cfg.initial_mean_mode == "zero":
        mean = np.zeros(cfg.dim)
    else:
        mean = rng.uniform(-1.0, 1.0, cfg.dim)
    state = EsState(cfg=cfg, mean=mean, sigma=cfg.initial_sigma, rng=rng)
    d = cfg.dim
    if cfg.variant == EsVariant.CMAES:
        state.C = np.eye(d)
        state.eig_basis = np.eye(d)
        state.eig_scale = np.ones(d)
        state.p_sigma = np.zeros(d)
        state.p_c = np.zeros(d)
    elif cfg.variant == EsVariant.SEP_CMAES:
        state.C_diag = np.ones(d)
        state.p_sigma = np.zeros(d)
        state.p_c = np.zeros(d)
    else:
        state.path = np.zeros(d)
    return state


def _mixture_c_cov(dim: int) -> float:
    return 1.0 / (3.0 * math.sqrt(dim) + 5.0)


def es_sample(state: EsState, n: Optional[int] = None) -> np.ndarray:
    """Draw n candidates from the current search distribution."""
    cfg = state.cfg
    n = cfg.population if n is None else n
    d = cfg.dim
    z = state.rng.standard_normal((n, d))
    if cfg.variant == EsVariant.CMAES:
        steps = (z * state.eig_scale) @ state.eig_basis.T
    elif cfg.variant == EsVariant.SEP_CMAES:
        steps = z * np.sqrt(state.C_diag)
    else:
        c_cov = _mixture_c_cov(d)
        steps = z
        if cfg.variant == EsVariant.RMES:
            if state.directions:
                r = state.rng.standard_normal((n, len(state.directions)))
                for j, direction in enumerate(state.directions):
                    steps = (
                        math.sqrt(1.0 - c_cov) * steps
                        + math.sqrt(c_cov) * r[:, j : j + 1] * direction
                    )
        else:  # R1ES and FAST_CMAES follow the evolution path
            r = state.rng.standard_normal(n)
            steps = math.sqrt(1.0 - c_cov) * steps + math.sqrt(c_cov) * r[:, None] * state.path
        if cfg.variant == EsVariant.FAST_CMAES and state.archive:
            picks = state.rng.integers(len(state.archive), size=n)
            r2 = state.rng.standard_normal(n)
            chosen = np.stack([state.archive[k] for k in picks])
            c_a = c_cov / 2.0
            steps = math.sqrt(1.0 - c_a) * steps + math.sqrt(c_a) * r2[:, None] * chosen
    return state.mean[None, :] + state.sigma * steps


def _rank_order(fitness: np.ndarray) -> np.ndarray:
    """Indices sorted best-first (maximization); ties keep index order."""
    return np.argsort(-fitness, kind="stable")


def sanitize_fitness(fitness: np.ndarray) -> np.ndarray:
    """Fitness as ranked: NaN and +inf become -inf, the worst rank, which -inf already holds."""
    fitness = np.asarray(fitness, dtype=float).reshape(-1)
    bad = np.isnan(fitness) | (fitness == np.inf)
    if np.any(bad):
        logger.warning(
            "%d non-finite fitness values assigned worst rank", int(bad.sum())
        )
        fitness = np.where(bad, -np.inf, fitness)
    return fitness


def _psr_update(state: EsState, fitness: np.ndarray) -> None:
    """Population success rule: compare merged ranks of this generation
    against the previous one; contract on stagnation, expand on progress."""
    if state.prev_fitness is not None:
        lam = fitness.shape[0]
        merged = np.concatenate([fitness, state.prev_fitness])
        ranks = np.empty(merged.shape[0])
        ranks[np.argsort(merged, kind="stable")] = np.arange(merged.shape[0])
        q = (ranks[:lam].mean() - ranks[lam:].mean()) / lam
        state.psr_s = (1.0 - PSR_CUMULATION) * state.psr_s + PSR_CUMULATION * (
            q - PSR_TARGET
        )
        state.sigma *= math.exp(state.psr_s / PSR_DAMPING)
    state.prev_fitness = fitness.copy()


def es_update(state: EsState, candidates: np.ndarray, fitness: np.ndarray) -> EsState:
    """One adaptation step from an evaluated generation (maximization)."""
    cfg = state.cfg
    candidates = np.asarray(candidates, dtype=float)
    fitness = sanitize_fitness(fitness)
    if candidates.shape[0] != fitness.shape[0]:
        raise ConfigError("candidate and fitness counts differ")
    n = candidates.shape[0]
    d = cfg.dim
    weights, mu_eff = recombination_weights(n)
    mu = weights.shape[0]
    order = _rank_order(fitness)
    elite = candidates[order[:mu]]

    if fitness[order[0]] > state.best_f:
        state.best_f = float(fitness[order[0]])
        state.best_x = candidates[order[0]].copy()
        state.gens_since_improvement = 0
    else:
        state.gens_since_improvement += 1
        if state.gens_since_improvement >= cfg.stall_generations:
            state.stalled = True

    old_mean = state.mean
    new_mean = weights @ elite
    y_w = (new_mean - old_mean) / state.sigma
    chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))

    if cfg.variant in (EsVariant.CMAES, EsVariant.SEP_CMAES):
        c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
        d_sigma = (
            1.0
            + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0)
            + c_sigma
        )
        c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
        c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
        c_mu = min(
            1.0 - c_1,
            2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff),
        )
        if cfg.variant == EsVariant.SEP_CMAES:
            c_1 = min(1.0, c_1 * (d + 2.0) / 3.0)
            c_mu = min(1.0 - c_1, c_mu * (d + 2.0) / 3.0)

        ys = (elite - old_mean[None, :]) / state.sigma
        if cfg.variant == EsVariant.CMAES:
            inv_sqrt_yw = state.eig_basis @ (
                (state.eig_basis.T @ y_w) / state.eig_scale
            )
        else:
            inv_sqrt_yw = y_w / np.sqrt(state.C_diag)
        state.p_sigma = (1.0 - c_sigma) * state.p_sigma + math.sqrt(
            c_sigma * (2.0 - c_sigma) * mu_eff
        ) * inv_sqrt_yw
        norm_ps = float(np.linalg.norm(state.p_sigma))
        h_sigma = norm_ps / math.sqrt(
            1.0 - (1.0 - c_sigma) ** (2 * (state.gen + 1))
        ) < (1.4 + 2.0 / (d + 1.0)) * chi_n
        state.p_c = (1.0 - c_c) * state.p_c + (
            math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w if h_sigma else 0.0
        )
        correction = (1.0 - h_sigma) * c_c * (2.0 - c_c)
        if cfg.variant == EsVariant.CMAES:
            rank_mu = (ys * weights[:, None]).T @ ys
            state.C = (
                (1.0 - c_1 - c_mu) * state.C
                + c_1 * (np.outer(state.p_c, state.p_c) + correction * state.C)
                + c_mu * rank_mu
            )
            state.C = (state.C + state.C.T) / 2.0
            _refresh_eigensystem(state)
        else:
            rank_mu_diag = weights @ (ys * ys)
            state.C_diag = (
                (1.0 - c_1 - c_mu) * state.C_diag
                + c_1 * (state.p_c**2 + correction * state.C_diag)
                + c_mu * rank_mu_diag
            )
            np.maximum(state.C_diag, 1e-20, out=state.C_diag)
        state.sigma *= math.exp((c_sigma / d_sigma) * (norm_ps / chi_n - 1.0))
    else:
        c_path = cfg.path_lr
        state.path = (1.0 - c_path) * state.path + math.sqrt(
            c_path * (2.0 - c_path) * mu_eff
        ) * y_w
        if cfg.variant == EsVariant.RMES:
            state.directions.append(state.path.copy())
            state.direction_gens.append(state.gen)
            if len(state.directions) > RMES_DIRECTIONS:
                gaps = np.diff(state.direction_gens)
                k = int(np.argmin(gaps))
                drop = k if gaps[k] < RMES_GENERATION_GAP else 0
                state.directions.pop(drop)
                state.direction_gens.pop(drop)
        elif cfg.variant == EsVariant.FAST_CMAES:
            state.archive.append(y_w.copy())
            if len(state.archive) > FAST_ARCHIVE_SIZE:
                state.archive.pop(0)
        _psr_update(state, fitness)

    state.mean = new_mean
    state.gen += 1
    return state


def _refresh_eigensystem(state: EsState) -> None:
    vals, vecs = np.linalg.eigh(state.C)
    if not np.all(np.isfinite(vals)) or vals.min() <= 0:
        load = abs(float(np.nanmin(vals))) + 1e-12
        logger.warning("covariance not positive definite; diagonal loading %.3e", load)
        state.C = state.C + np.eye(state.cfg.dim) * load
        vals, vecs = np.linalg.eigh(state.C)
        vals = np.maximum(vals, 1e-30)
    state.eig_basis = vecs
    state.eig_scale = np.sqrt(vals)


# --- serialization -----------------------------------------------------------


def _enc(value):
    """JSON form of an EsState field: arrays become shape plus base64 float64,
    lists are encoded element-wise, anything else is kept as it is."""
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "data": f8_to_b64(value)}
    if isinstance(value, list):
        return [_enc(v) for v in value]
    return value


def _dec(value):
    if isinstance(value, dict):
        return f8_from_b64(value["data"]).reshape(value["shape"])
    if isinstance(value, list):
        return [_dec(v) for v in value]
    return value


# The config and the generator are stored under "cfg" and "rng_state".
_STATE_FIELDS = tuple(f.name for f in fields(EsState) if f.name not in ("cfg", "rng"))


def state_to_dict(state: EsState) -> dict:
    d = {name: _enc(getattr(state, name)) for name in _STATE_FIELDS}
    d["cfg"] = asdict(state.cfg)
    d["rng_state"] = state.rng.bit_generator.state
    return d


def state_from_dict(d: dict) -> EsState:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = d["rng_state"]
    values = {name: _dec(d[name]) for name in _STATE_FIELDS}
    return EsState(cfg=EsConfig(**d["cfg"]), rng=rng, **values)


# --- minimization driver ------------------------------------------------------


@dataclass
class MinimizeResult:
    x: np.ndarray
    f: float
    evaluations: int
    generations: int
    stalled: bool
    trace: list  # (generation, sigma, best_f) rows


def minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    cfg: EsConfig,
    max_evaluations: int,
    target: Optional[float] = None,
) -> MinimizeResult:
    """Ask/tell loop for minimization: fitness is the negated objective.

    ``objective`` maps a (N, D) batch to N values.  Stops on the evaluation
    budget, the target value, or the stall detector.  The best point is the
    state's ``best_x``, so a non-finite value, ranked worst, is never it.
    """
    state = es_init(cfg)
    evals = 0
    trace = []
    while evals + cfg.population <= max_evaluations:
        X = es_sample(state)
        values = np.asarray(objective(X), dtype=float).reshape(-1)
        evals += cfg.population
        es_update(state, X, -values)
        trace.append((state.gen, state.sigma, -state.best_f))
        if target is not None and -state.best_f <= target:
            break
        if state.stalled:
            break
    return MinimizeResult(
        x=state.best_x,
        f=-state.best_f,
        evaluations=evals,
        generations=state.gen,
        stalled=state.stalled,
        trace=trace,
    )


def trace_to_csv(trace: list) -> str:
    return csv_text(["generation", "sigma", "best_f"], trace)
