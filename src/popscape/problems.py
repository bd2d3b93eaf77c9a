"""Synthetic black-box problem suite on the box [-5, 5]^d.

Each problem is a published closed-form benchmark function shifted by a
per-instance random offset O, so y = f(x - O).  No rotation or asymmetry
transforms are applied; the offset is the only instance-level randomization.
Function ids follow the standard 24-function benchmark numbering so that
train/test splits can be expressed as id sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

LOWER_BOUND = -5.0
UPPER_BOUND = 5.0

# Offsets are sampled so the shifted optimum stays at least 1 unit inside
# the search box.
OFFSET_MARGIN = 1.0


class NoiseKind(str, Enum):
    GAUSSIAN_MULTIPLICATIVE = "gaussian_multiplicative"
    CAUCHY_ADDITIVE = "cauchy_additive"


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic corruption of objective values.

    gaussian_multiplicative: y -> y * exp(level * z), z ~ N(0, 1)
    cauchy_additive:         y -> y + clip(level * c, +-1e6), c ~ standard Cauchy
    """

    kind: NoiseKind
    level: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", NoiseKind(self.kind))
        except ValueError:
            kinds = [k.value for k in NoiseKind]
            raise ConfigError(f"unknown noise kind {self.kind!r}; one of {kinds}") from None
        if not (np.isfinite(self.level) and self.level >= 0):
            raise ConfigError(f"noise level must be finite and >= 0, got {self.level}")

    def apply(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.kind == NoiseKind.GAUSSIAN_MULTIPLICATIVE:
            z = rng.standard_normal(values.shape)
            return values * np.exp(self.level * z)
        c = rng.standard_cauchy(values.shape)
        return values + np.clip(self.level * c, -1e6, 1e6)


def _sphere(z: np.ndarray) -> np.ndarray:
    return np.sum(z * z, axis=1)


def _ellipsoidal(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    exponents = 6.0 * np.arange(d) / (d - 1) if d > 1 else np.zeros(1)
    return (z * z) @ (10.0 ** exponents)


def _rastrigin(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    return 10.0 * (d - np.sum(np.cos(2.0 * np.pi * z), axis=1)) + np.sum(z * z, axis=1)


def _rosenbrock(z: np.ndarray) -> np.ndarray:
    a, b = z[:, :-1], z[:, 1:]
    return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)


def _step_ellipsoidal(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    rounded = np.where(
        np.abs(z) > 0.5, np.floor(0.5 + z), np.floor(0.5 + 10.0 * z) / 10.0
    )
    exponents = 2.0 * np.arange(d) / (d - 1) if d > 1 else np.zeros(1)
    weighted = (rounded * rounded) @ (10.0 ** exponents)
    return 0.1 * np.maximum(np.abs(z[:, 0]) / 1e4, weighted)


def _sharp_ridge(z: np.ndarray) -> np.ndarray:
    return z[:, 0] ** 2 + 100.0 * np.sqrt(np.sum(z[:, 1:] ** 2, axis=1))


_WEIERSTRASS_K = np.arange(21)
_WEIERSTRASS_A = 0.5 ** _WEIERSTRASS_K
_WEIERSTRASS_B = 3.0 ** _WEIERSTRASS_K
_WEIERSTRASS_BIAS = float(np.sum(_WEIERSTRASS_A * np.cos(np.pi * _WEIERSTRASS_B)))


def _weierstrass(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    inner = np.cos(2.0 * np.pi * _WEIERSTRASS_B * (z[..., None] + 0.5)) @ _WEIERSTRASS_A
    return np.sum(inner, axis=1) - d * _WEIERSTRASS_BIAS


def _schaffers_f7(z: np.ndarray) -> np.ndarray:
    s = np.sqrt(z[:, :-1] ** 2 + z[:, 1:] ** 2)
    term = np.sqrt(s) * (1.0 + np.sin(50.0 * s ** 0.2) ** 2)
    return np.mean(term, axis=1) ** 2


_SCHWEFEL_OPT = 4.209687462275036
_SCHWEFEL_BIAS = 418.9828872724339


def _schwefel(z: np.ndarray) -> np.ndarray:
    u = 100.0 * z
    core = _SCHWEFEL_BIAS * z.shape[1] - np.sum(u * np.sin(np.sqrt(np.abs(u))), axis=1)
    penalty = np.sum(np.maximum(0.0, np.abs(u) - 500.0) ** 2, axis=1) * 1e-4
    return core / 100.0 + penalty


def _griewank_rosenbrock(z: np.ndarray) -> np.ndarray:
    a, b = z[:, :-1], z[:, 1:]
    s = 100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2
    d = z.shape[1]
    return 10.0 / (d - 1) * np.sum(s / 4000.0 - np.cos(s), axis=1) + 10.0


_KATSUURA_POW = 2.0 ** np.arange(1, 33)


def _katsuura(z: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    v = z[..., None] * _KATSUURA_POW
    digits = np.sum(np.abs(v - np.round(v)) / _KATSUURA_POW, axis=2)
    j = np.arange(1, d + 1)
    prod = np.prod((1.0 + j * digits) ** (10.0 / d ** 1.2), axis=1)
    return 10.0 / d ** 2 * prod - 10.0 / d ** 2


@dataclass(frozen=True)
class FunctionDef:
    fid: int
    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    base_optimum: float  # optimum coordinate in shifted (z) space, per dimension
    min_dimension: int = 1


def _make_linear_slope(signs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    d = signs.shape[0]
    magnitude = 10.0 ** (np.arange(d) / (d - 1)) if d > 1 else np.ones(1)
    s = signs * magnitude

    def evaluate(z: np.ndarray) -> np.ndarray:
        return np.sum(5.0 * np.abs(s) - s * z, axis=1)

    return evaluate


FUNCTIONS: dict[int, FunctionDef] = {
    f.fid: f
    for f in [
        FunctionDef(1, "sphere", _sphere, 0.0),
        FunctionDef(2, "ellipsoidal", _ellipsoidal, 0.0),
        FunctionDef(3, "rastrigin", _rastrigin, 0.0),
        FunctionDef(5, "linear_slope", _sphere, 5.0),  # evaluate replaced per instance
        FunctionDef(7, "step_ellipsoidal", _step_ellipsoidal, 0.0),
        FunctionDef(8, "rosenbrock", _rosenbrock, 1.0, min_dimension=2),
        FunctionDef(13, "sharp_ridge", _sharp_ridge, 0.0, min_dimension=2),
        FunctionDef(16, "weierstrass", _weierstrass, 0.0),
        FunctionDef(17, "schaffers_f7", _schaffers_f7, 0.0, min_dimension=2),
        FunctionDef(19, "griewank_rosenbrock", _griewank_rosenbrock, 1.0, min_dimension=2),
        FunctionDef(20, "schwefel", _schwefel, _SCHWEFEL_OPT),
        FunctionDef(23, "katsuura", _katsuura, 0.0),
    ]
}

def bbob_split() -> tuple[frozenset[int], frozenset[int]]:
    """Train/test id split of the 24-function benchmark suite, narrowed to
    the functions implemented in `FUNCTIONS`."""
    implemented = frozenset(FUNCTIONS)
    train = frozenset({1, 2, 5, 7, 13, 16, 17, 18, 21, 22, 23, 24})
    test = frozenset({3, 4, 6, 8, 9, 10, 11, 12, 14, 15, 19, 20})
    return train & implemented, test & implemented


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of one problem instance."""

    function_id: int
    dimension: int
    offset: np.ndarray
    noise: Optional[NoiseModel] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "offset", np.asarray(self.offset, dtype=float).reshape(-1)
        )

    @property
    def lower(self) -> np.ndarray:
        return _bound(self.dimension, LOWER_BOUND)

    @property
    def upper(self) -> np.ndarray:
        return _bound(self.dimension, UPPER_BOUND)


@functools.lru_cache(maxsize=64)
def _bound(dimension: int, value: float) -> np.ndarray:
    """The box bound as a vector, built once per (dimension, value) and
    read-only because every spec of that dimension shares it."""
    out = np.full(dimension, value)
    out.flags.writeable = False
    return out


def sample_offset(
    function_id: int, dimension: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw an offset that keeps the shifted optimum >= OFFSET_MARGIN inside the box.

    The sampling window is [-4, 4] per dimension, intersected with the window
    that keeps ``base_optimum + O`` within [-4, 4].  The linear slope keeps a
    zero offset: its optimum sits on the box boundary by construction and its
    instance-level randomization is the per-dimension slope sign instead.
    """
    fdef = _function_def(function_id)
    if fdef.name == "linear_slope":
        return np.zeros(dimension)
    margin = UPPER_BOUND - OFFSET_MARGIN
    lo = max(-margin, -margin - fdef.base_optimum)
    hi = min(margin, margin - fdef.base_optimum)
    return rng.uniform(lo, hi, size=dimension)


def _function_def(function_id: int) -> FunctionDef:
    try:
        return FUNCTIONS[int(function_id)]
    except (KeyError, TypeError):
        known = sorted(FUNCTIONS)
        raise ConfigError(
            f"unknown function id {function_id!r}; implemented ids: {known}"
        ) from None


def check_functions(function_ids, dimension: int, where: str) -> None:
    """Raise ConfigError naming ``where`` unless every id is implemented and
    defined at ``dimension``."""
    for fid in function_ids:
        try:
            fdef = _function_def(fid)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if dimension < fdef.min_dimension:
            raise ConfigError(
                f"{where}: {fdef.name} requires dimension >= {fdef.min_dimension}, "
                f"got {dimension}"
            )


@dataclass
class Problem:
    """A problem instance with evaluation accounting.

    Single-writer: one optimization run owns one instance.  ``fe_count``
    grows by exactly the batch size on every evaluation.
    """

    spec: ProblemSpec
    fe_count: int = 0
    _evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    _rng: np.random.Generator = field(repr=False, default=None)
    _slope_corner: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def lower(self) -> np.ndarray:
        return self.spec.lower

    @property
    def upper(self) -> np.ndarray:
        return self.spec.upper

    def optimum_position(self) -> np.ndarray:
        """Location of the shifted optimum (boundary corner for the slope)."""
        fdef = _function_def(self.spec.function_id)
        if fdef.name == "linear_slope":
            return self._slope_corner
        return fdef.base_optimum + self.spec.offset


def make_problem(spec: ProblemSpec) -> Problem:
    """Instantiate the shifted function y = f(x - O) with fresh accounting."""
    check_functions([spec.function_id], spec.dimension, "problem")
    fdef = _function_def(spec.function_id)
    if spec.offset.shape != (spec.dimension,):
        raise ConfigError(
            f"offset shape {spec.offset.shape} does not match dimension {spec.dimension}"
        )
    if np.any(np.abs(spec.offset) >= UPPER_BOUND):
        raise ConfigError("offset must lie strictly inside the search box")

    problem = Problem(spec=spec)
    if fdef.name == "linear_slope":
        sign_rng = np.random.Generator(np.random.PCG64(spec.seed))
        signs = np.where(sign_rng.random(spec.dimension) < 0.5, -1.0, 1.0)
        problem._evaluate = _make_linear_slope(signs)
        problem._slope_corner = 5.0 * signs
    else:
        problem._evaluate = fdef.evaluate
    problem._rng = np.random.Generator(np.random.PCG64(spec.seed))
    return problem


def evaluate_batch(problem: Problem, X: np.ndarray) -> np.ndarray:
    """Evaluate m candidates, update accounting, apply noise if configured."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    if d != problem.dimension:
        raise ConfigError(f"candidates have dimension {d}, expected {problem.dimension}")
    if np.any(X < LOWER_BOUND - 1e-12) or np.any(X > UPPER_BOUND + 1e-12):
        raise ValueError("candidates outside the search box")
    y = problem._evaluate(X - problem.spec.offset)
    if problem.spec.noise is not None:
        y = problem.spec.noise.apply(y, problem._rng)
    problem.fe_count += m
    return y
