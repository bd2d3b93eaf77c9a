"""Configurable population optimizers whose control parameters arrive per step.

Both optimizers mutate an explicit state object and re-evaluate through the
problem so that evaluation accounting stays exact.  Random draws follow a
documented order (see each step function) so that fixed-seed trajectories can
be reproduced by an independent trace.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .problems import Problem, evaluate_batch

logger = logging.getLogger(__name__)

# PSO velocities are clamped to this fraction of the box width per dimension.
VELOCITY_CLAMP_FRACTION = 0.2
MIN_POPULATION = {"de": 4, "pso": 2}  # DE draws three donors besides the target


def _control_range(name: str, values: np.ndarray) -> tuple[float, float]:
    """Smallest and largest of a control's values.  A NaN or an infinity,
    which clamping cannot repair, raises `ConfigError` naming the control."""
    lo, hi = float(np.min(values)), float(np.max(values))  # both propagate NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name} is not finite")
    return lo, hi


@dataclass
class DeConfig:
    """Per-individual differential-evolution controls.

    F is the mutation factor in [0, 1) and Cr the crossover rate in [0, 1];
    out-of-range values are clamped with a warning, and a NaN or infinite
    one raises `ConfigError`.  F = 0 is allowed and degenerates the mutant
    to an exact copy of the first donor.
    """

    F: np.ndarray
    Cr: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float).reshape(-1)
        Cr = np.asarray(self.Cr, dtype=float).reshape(-1)
        f_lo, f_hi = _control_range("DE control F", F)
        cr_lo, cr_hi = _control_range("DE control Cr", Cr)
        if f_lo < 0 or f_hi >= 1:
            logger.warning("DE mutation factor outside [0, 1); clamping")
            F = np.clip(F, 0.0, 1.0 - 1e-12)
        if cr_lo < 0 or cr_hi > 1:
            logger.warning("DE crossover rate outside [0, 1]; clamping")
            Cr = np.clip(Cr, 0.0, 1.0)
        self.F = F
        self.Cr = Cr


@dataclass
class PsoConfig:
    """Population-wide particle-swarm controls; out-of-range values are
    clamped with a warning, and a NaN or infinite one raises `ConfigError`."""

    inertia: float
    cognitive: float
    social: float

    def __post_init__(self):
        for name in ("inertia", "cognitive", "social"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"PSO control {name} is not finite")
        if not 0.0 <= self.inertia <= 1.0:
            logger.warning("PSO inertia outside [0, 1]; clamping")
            self.inertia = float(np.clip(self.inertia, 0.0, 1.0))
        if self.cognitive < 0 or self.social < 0:
            logger.warning("PSO attraction coefficients must be >= 0; clamping")
            self.cognitive = max(0.0, self.cognitive)
            self.social = max(0.0, self.social)


@dataclass
class OptimizerState:
    """Population state; PSO additionally tracks velocities and bests."""

    X: np.ndarray
    y: np.ndarray
    best_x: np.ndarray = None
    best_y: float = np.inf
    velocities: Optional[np.ndarray] = field(default=None, repr=False)
    personal_best_x: Optional[np.ndarray] = field(default=None, repr=False)
    personal_best_y: Optional[np.ndarray] = field(default=None, repr=False)


def init_state(problem: Problem, m: int, rng: np.random.Generator) -> OptimizerState:
    """Uniform population inside the box, evaluated once."""
    X = rng.uniform(problem.lower, problem.upper, size=(m, problem.dimension))
    y = evaluate_batch(problem, X)
    best = int(np.argmin(y))
    return OptimizerState(
        X=X,
        y=y,
        best_x=X[best].copy(),
        best_y=float(y[best]),
        velocities=np.zeros_like(X),
        personal_best_x=X.copy(),
        personal_best_y=y.copy(),
    )


def de_step(
    state: OptimizerState, cfg: DeConfig, problem: Problem, rng: np.random.Generator
) -> OptimizerState:
    """One rand/1/bin generation with greedy selection.

    Draw order per individual i: a permutation of the other indices (first
    three entries are the donors), then d crossover uniforms, then one
    guaranteed-cross dimension index.  Boundary repair clamps to the box.
    """
    m, d = state.X.shape
    if m < MIN_POPULATION["de"]:
        raise ConfigError("differential evolution needs a population of at least 4")
    if cfg.F.shape[0] != m or cfg.Cr.shape[0] != m:
        raise ConfigError("DE config length does not match population size")
    donors = np.empty((m, 3), dtype=np.intp)
    uniforms = np.empty((m, d))
    forced = np.empty(m, dtype=np.intp)
    for i in range(m):
        donors[i] = rng.permutation(m - 1)[:3]
        rng.random(out=uniforms[i])
        forced[i] = rng.integers(d)
    # Position p among the indices other than i is index p + (p >= i).
    donors += donors >= np.arange(m)[:, None]
    X = state.X
    mutants = X[donors[:, 0]] + cfg.F[:, None] * (X[donors[:, 1]] - X[donors[:, 2]])
    cross = uniforms < cfg.Cr[:, None]
    cross[np.arange(m), forced] = True
    trials = np.where(cross, mutants, X)
    np.clip(trials, problem.lower, problem.upper, out=trials)
    trial_y = evaluate_batch(problem, trials)
    accept = trial_y < state.y
    state.X[accept] = trials[accept]
    state.y[accept] = trial_y[accept]
    best = int(np.argmin(state.y))
    if state.y[best] < state.best_y:
        state.best_y = float(state.y[best])
        state.best_x = state.X[best].copy()
    return state


def pso_step(
    state: OptimizerState, cfg: PsoConfig, problem: Problem, rng: np.random.Generator
) -> OptimizerState:
    """One velocity/position update with clamped velocities and positions.

    Draw order: one (m, d) uniform block for the cognitive term, then one for
    the social term.
    """
    m, d = state.X.shape
    if m < MIN_POPULATION["pso"]:
        raise ConfigError("particle swarm needs a population of at least 2")
    u1 = rng.random((m, d))
    u2 = rng.random((m, d))
    state.velocities = (
        cfg.inertia * state.velocities
        + cfg.cognitive * u1 * (state.personal_best_x - state.X)
        + cfg.social * u2 * (state.best_x[None, :] - state.X)
    )
    v_max = VELOCITY_CLAMP_FRACTION * (problem.upper - problem.lower)
    np.clip(state.velocities, -v_max, v_max, out=state.velocities)
    state.X = np.clip(state.X + state.velocities, problem.lower, problem.upper)
    state.y = evaluate_batch(problem, state.X)
    improved = state.y < state.personal_best_y
    state.personal_best_x[improved] = state.X[improved]
    state.personal_best_y[improved] = state.y[improved]
    best = int(np.argmin(state.personal_best_y))
    if state.personal_best_y[best] < state.best_y:
        state.best_y = float(state.personal_best_y[best])
        state.best_x = state.personal_best_x[best].copy()
    return state
