"""Outer neuroevolution of the population encoder over a set of tasks.

Per generation, every sampled weight vector is scored by its mean relative
performance across all tasks (each score requires meta-training a fresh
policy with the candidate features, then testing it).  The N x K pipelines
are pure functions of (theta, task, derived seeds), so they can run in any
order or in parallel without changing results.  Baseline statistics are
meta-trained once per task and frozen; they do not depend on the candidate.

Every generation writes a resumable checkpoint; resuming reproduces the
uninterrupted run bit for bit because each generation's work depends only on
the evolution-strategy state and seeds derived from the generation index.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .analyzer import AnalyzerConfig, param_count, save_checkpoint
from .errors import ConfigError, IntegrityError
from .es import (
    EsConfig, es_init, es_sample, es_update, sanitize_fitness, state_from_dict, state_to_dict
)
from .metabbo import (
    BaselineStats,
    NeuralExtractor,
    TaskSpec,
    UpsilonResult,
    check_baseline,
    compute_baseline,
    mean_return,
    policy_decode,
    relative_performance,
    run_test_episodes,
    train_and_test,
    train_instance_schedule,
    upsilon_from_fstars,
)
# Not called here; perfbench/tracing.py patches these names in this namespace.
from .metabbo import meta_train, run_episode  # noqa: F401
from .utils import (
    array_digest,
    csv_text,
    derive_seed,
    f8_to_b64,
    json_sha256,
    read_json_object,
    read_sealed,
    write_atomic,
    write_sealed,
)

TRAINER_CHECKPOINT_FORMAT = "popscape-trainer"
TRAINER_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainingRunConfig:
    tasks: tuple[TaskSpec, ...]
    analyzer: AnalyzerConfig = AnalyzerConfig()
    outer_variant: str = "fast_cmaes"
    outer_population: int = 10
    max_generations: int = 50
    initial_sigma: float = 0.3
    initial_mean_mode: str = "uniform_random"
    path_lr: Optional[float] = None
    q_runs: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ConfigError("training needs at least one task")
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate task ids: {ids}")
        if self.q_runs < 1:
            raise ConfigError(f"q_runs must be at least 1, got {self.q_runs}")
        self.es_config()  # raises ConfigError on bad outer ES settings

    def es_config(self) -> EsConfig:
        return EsConfig(
            variant=self.outer_variant,
            dim=param_count(self.analyzer),
            population=self.outer_population,
            initial_sigma=self.initial_sigma,
            initial_mean_mode=self.initial_mean_mode,
            path_lr=self.path_lr,
            seed=derive_seed(self.seed, "outer-es"),
        )

    def digest(self) -> str:
        """Resume-compatibility key.

        Excludes max_generations: per-generation work only depends on the
        evolution-strategy state and seeds derived from the generation index,
        so a checkpoint may be resumed under a longer horizon.
        """
        d = asdict(self)
        d.pop("max_generations")
        return json_sha256(d)[:16]


# --- baselines ----------------------------------------------------------------


def compute_baselines(
    tasks, q_runs: int, seed: int, cache_path: Optional[Path] = None
) -> dict[str, BaselineStats]:
    """Baseline statistics per task, served from the cache when the key
    (digest of the whole task spec, Q, seed base) already has an entry, so a
    task that keeps its id but changes dimension or budget is recomputed.
    A cache file that does not parse to a JSON object, or an entry under a
    task's key that is not what `compute_baseline` wrote for that task,
    raises IntegrityError."""
    cache: dict[str, dict] = {}
    if cache_path is not None and Path(cache_path).exists():
        cache = read_json_object(cache_path)
    out: dict[str, BaselineStats] = {}
    dirty = False
    for task in tasks:
        seed_base = derive_seed(seed, "baseline")
        key = f"{task.id}|{json_sha256(asdict(task))[:16]}|q{q_runs}|s{seed_base}"
        if key in cache:
            out[task.id] = _cached_baseline(cache_path, key, cache[key], task, q_runs, seed_base)
            continue
        stats = compute_baseline(task, q_runs, seed_base)
        out[task.id] = stats
        cache[key] = stats.to_dict()
        dirty = True
    if cache_path is not None and dirty:
        write_atomic(cache_path, json.dumps(cache, indent=1, sort_keys=True))
    return out


def _cached_baseline(
    path, key: str, entry, task, q_runs: int, seed_base: int
) -> BaselineStats:
    try:
        stats = BaselineStats.from_dict(entry)
        sound = (
            (stats.task_id, stats.q_runs, stats.seed_base) == (task.id, q_runs, seed_base)
            and set(task.test_functions) <= set(stats.stats)
            and all(
                len(pair) == 2 and all(type(v) in (int, float) for v in pair)
                for pair in entry["stats"].values()
            )
        )
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        sound = False
    if not sound:
        raise IntegrityError(f"{path}: baseline cache entry {key!r} is damaged")
    return stats


# --- fitness -------------------------------------------------------------------


def pipeline_score(
    theta: np.ndarray,
    analyzer_cfg: AnalyzerConfig,
    task: TaskSpec,
    baseline: BaselineStats,
    q_runs: int,
    seed_base: int,
) -> UpsilonResult:
    """Relative performance of one candidate on one task; pure and picklable."""
    extractor = NeuralExtractor(theta, analyzer_cfg)
    return relative_performance(extractor, task, baseline, q_runs, seed_base)


def _pipeline_worker(payload) -> tuple[float, int, int]:
    result = pipeline_score(*payload)
    return result.value, result.fe_meta_train, result.fe_test


# --- training loop --------------------------------------------------------------


@dataclass
class GenerationRecord:
    generation: int
    fitness: list
    gen_best: float
    best_so_far: float
    best_digest: str
    fe_meta_train: int
    fe_test: int
    wall_time: float = 0.0


@dataclass
class TrainResult:
    theta: np.ndarray
    fitness: float
    generation: int
    history: list
    outdir: Path


def _write_history(outdir: Path, records: list, n: int) -> None:
    header = ["generation", *(f"fit_{i}" for i in range(n))]
    header += ["gen_best", "best_so_far", "best_digest", "fe_meta_train", "fe_test"]
    rows = ([r.generation, *r.fitness, r.gen_best, r.best_so_far, r.best_digest,
             r.fe_meta_train, r.fe_test] for r in records)
    write_atomic(outdir / "history.csv", csv_text(header, rows))
    timing = ([r.generation, f"{r.wall_time:.3f}"] for r in records)
    write_atomic(outdir / "timings.csv", csv_text(["generation", "seconds"], timing))


def _checkpoint_path(outdir: Path, generation: int) -> Path:
    return outdir / "checkpoints" / f"gen_{generation:04d}.json"


def _best_candidate(state, initial_mean) -> dict:
    """The ES's best candidate as the checkpoint's ``best`` entry; before any
    finite fitness, the initial mean at generation -1."""
    found = state.best_x is not None
    return {
        "fitness": state.best_f,
        "generation": state.gen - 1 - state.gens_since_improvement,
        "digest": array_digest(state.best_x) if found else "",
        "theta": state.best_x if found else initial_mean,
    }


def _save_trainer_checkpoint(outdir, run, state, best, records, generation) -> None:
    path = _checkpoint_path(outdir, generation)
    path.parent.mkdir(parents=True, exist_ok=True)
    stored_best = {k: v for k, v in best.items() if k != "theta"}
    stored_best["theta_b64"] = f8_to_b64(best["theta"])
    write_sealed(
        path,
        {
            "format": TRAINER_CHECKPOINT_FORMAT,
            "version": TRAINER_CHECKPOINT_VERSION,
            "run_digest": run.digest(),
            "run": asdict(run),
            "generation": generation,
            "es_state": state_to_dict(state),
            "best": stored_best,
            "records": [asdict(r) for r in records],
        },
    )


def load_trainer_checkpoint(path) -> dict:
    return read_sealed(path, TRAINER_CHECKPOINT_FORMAT)


def latest_checkpoint(outdir: Path) -> Optional[Path]:
    files = [p for p in (Path(outdir) / "checkpoints").glob("gen_*.json") if p.stem[4:].isdigit()]
    return max(files, key=lambda p: int(p.stem[4:]), default=None)


def train(
    run: TrainingRunConfig,
    outdir,
    jobs: int = 1,
    resume: bool = False,
) -> TrainResult:
    """Run (or resume) the outer neuroevolution loop.

    Writes per-generation checkpoints, a deterministic history CSV, a
    separate timing CSV, and the best weight vector as an analyzer
    checkpoint.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    baselines = compute_baselines(
        run.tasks, run.q_runs, run.seed, cache_path=outdir / "baselines.json"
    )

    state = es_init(run.es_config())
    initial_mean = state.mean
    records: list[GenerationRecord] = []
    start_gen = 0
    if resume:
        ckpt_file = latest_checkpoint(outdir)
        if ckpt_file is None:
            raise ConfigError(f"nothing to resume in {outdir}")
        payload = load_trainer_checkpoint(ckpt_file)
        if payload["run_digest"] != run.digest():
            raise ConfigError(
                "checkpoint was produced by a different run configuration"
            )
        state = state_from_dict(payload["es_state"])
        records = [GenerationRecord(**r) for r in payload["records"]]
        start_gen = payload["generation"] + 1
        # Mends a history write torn after its checkpoint was written.
        _write_history(outdir, records, run.outer_population)

    n = run.outer_population
    for gen in range(start_gen, run.max_generations):
        t0 = time.perf_counter()
        candidates = es_sample(state, n)
        units = [
            (theta, run.analyzer, task, baselines[task.id], run.q_runs,
             derive_seed(run.seed, "fitness", gen, i))
            for i, theta in enumerate(candidates)
            for task in run.tasks
        ]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_pipeline_worker, units))
        else:
            results = [_pipeline_worker(u) for u in units]
        # Candidate-major, task-minor: row i holds candidate i's task scores.
        values, fe_meta, fe_test = zip(*results)
        fits = np.mean(np.reshape(values, (n, len(run.tasks))), axis=1)
        ranked = sanitize_fitness(fits)
        es_update(state, candidates, ranked)
        best = _best_candidate(state, initial_mean)
        record = GenerationRecord(
            generation=gen,
            fitness=[float(v) for v in fits],
            gen_best=float(ranked.max()),
            best_so_far=best["fitness"],
            best_digest=best["digest"],
            fe_meta_train=sum(fe_meta),
            fe_test=sum(fe_test),
            wall_time=time.perf_counter() - t0,
        )
        records.append(record)
        _save_trainer_checkpoint(outdir, run, state, best, records, gen)
        _write_history(outdir, records, n)

    best = _best_candidate(state, initial_mean)
    save_checkpoint(
        outdir / "analyzer_best.json",
        run.analyzer,
        best["theta"],
        provenance={
            "generation": best["generation"],
            "seed": run.seed,
            "fitness": best["fitness"],
        },
    )
    return TrainResult(
        theta=best["theta"],
        fitness=best["fitness"],
        generation=best["generation"],
        history=records,
        outdir=outdir,
    )


# --- zero-shot and fine-tuning workflows -----------------------------------------


@dataclass
class EvaluationReport:
    mode: str
    upsilon: float
    per_problem: dict
    z_table: dict
    trajectory: list = field(default_factory=list)  # (epoch, upsilon, best_so_far)


def zero_shot(
    theta: np.ndarray,
    analyzer_cfg: AnalyzerConfig,
    task: TaskSpec,
    q_runs: int,
    seed: int,
    baseline: Optional[BaselineStats] = None,
) -> EvaluationReport:
    """Freeze the encoder weights; meta-train only the policy and score it."""
    seed_base = derive_seed(seed, "evaluate")
    if baseline is None:
        baseline = compute_baseline(task, q_runs, derive_seed(seed, "baseline"))
    ups = pipeline_score(theta, analyzer_cfg, task, baseline, q_runs, seed_base)
    return EvaluationReport(
        mode="zero_shot",
        upsilon=ups.value,
        per_problem=ups.per_problem,
        z_table=ups.z_table,
    )


def fine_tune(
    theta: np.ndarray,
    analyzer_cfg: AnalyzerConfig,
    task: TaskSpec,
    q_runs: int,
    seed: int,
    epochs: int = 5,
    population: int = 6,
    sigma: float = 0.1,
    baseline: Optional[BaselineStats] = None,
) -> EvaluationReport:
    """Co-evolve the concatenated (encoder, policy) vector from the trained
    encoder and its zero-shot policy; epoch 0 is the zero-shot result."""
    seed_base = derive_seed(seed, "evaluate")
    if baseline is None:
        baseline = compute_baseline(task, q_runs, derive_seed(seed, "baseline"))
    check_baseline(task, baseline)
    extractor0 = NeuralExtractor(theta, analyzer_cfg)
    trained, fstars0, _ = train_and_test(task, extractor0, q_runs, seed_base)
    ups0, per_problem, z_table = upsilon_from_fstars(task, baseline, fstars0)

    theta = np.asarray(theta, dtype=float)
    joint0 = np.concatenate([theta, trained.vector])
    n_theta = theta.shape[0]

    def decode(joint):
        ext = NeuralExtractor(joint[:n_theta], analyzer_cfg)
        return ext, policy_decode(joint[n_theta:], task.template(), ext.width)

    es_cfg = EsConfig(
        variant="fast_cmaes",
        dim=joint0.shape[0],
        population=population,
        initial_sigma=sigma,
        seed=derive_seed(seed, task.id, "finetune-es"),
    )
    state = es_init(es_cfg, mean=joint0)
    trajectory = [(0, ups0, ups0)]
    best_ups = ups0
    ft_seed = derive_seed(seed, task.id, "finetune")
    for epoch in range(1, epochs + 1):
        candidates = es_sample(state)
        picks = train_instance_schedule(task, ft_seed, epoch)
        returns = np.empty(population)
        for i, joint in enumerate(candidates):
            returns[i], _ = mean_return(task, *decode(joint), picks)
        returns = sanitize_fitness(returns)
        ext, pol = decode(candidates[int(np.argmax(returns))])
        fstars, _ = run_test_episodes(task, ext, pol, q_runs, seed_base)
        ups_e, pp_e, zt_e = upsilon_from_fstars(task, baseline, fstars)
        if ups_e > best_ups:
            best_ups = ups_e
            per_problem, z_table = pp_e, zt_e
        trajectory.append((epoch, ups_e, best_ups))
        es_update(state, candidates, returns)
    return EvaluationReport(
        mode="fine_tune",
        upsilon=best_ups,
        per_problem=per_problem,
        z_table=z_table,
        trajectory=trajectory,
    )
