"""Inputs of the on-disk format golden files in ``tests/data``.

``PYTHONPATH=src python -m tests.golden`` rewrites the files from the code
on the path.  The committed ones were written before the checkpoint, state
and config writers moved onto the shared codec in ``popscape.utils``, so
``tests/test_codec.py`` holds every later writer to the same bytes.
``desk_episodes.json`` was written before the training-size encoder forward
and the DE step were rewritten, so ``tests/test_metabbo.py`` holds the
rewrites to the same episodes, bit for bit.  ``ela_suite.json`` was written
before the classical suite shared one distance matrix per call, so
``tests/test_ela.py`` holds every feature to the same bits; both compute the
suite in a child process with two BLAS threads (`ela_suites_pinned`).
``evaluation.json`` was written before the rollout-scoring loops of
``metabbo`` and ``trainer`` were merged, so ``tests/test_trainer.py`` and
``tests/test_analysis.py`` hold the evaluate and analyze workflows to the
same bits.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from popscape.analysis import exploration_study, pearson_matrix
from popscape.analyzer import AnalyzerConfig, load_checkpoint, param_count, save_checkpoint
from popscape.ela import full_suite_features, nearest_better_distances, nearest_neighbor_tour
from popscape.es import EsConfig, EsVariant, es_init, es_sample, es_update, state_to_dict
from popscape.metabbo import (
    TaskSpec,
    make_instance,
    make_slot_extractor,
    policy_decode,
    policy_param_count,
    run_episode,
)
from popscape.problems import NoiseKind, NoiseModel
from popscape.trainer import TrainingRunConfig, fine_tune, train, zero_shot
from popscape.utils import array_digest

DATA = Path(__file__).parent / "data"

ANALYZER = AnalyzerConfig(hidden_dim=4, num_heads=2)
PROVENANCE = {"generation": 3, "seed": 17, "fitness": -0.25}

# Files a parent-written run directory is compared on after resuming.
RUN_FILES = ("history.csv", "baselines.json", "analyzer_best.json")


def analyzer_theta() -> np.ndarray:
    """Random weights led by values whose bits a text format could lose."""
    theta = np.random.default_rng(3).standard_normal(param_count(ANALYZER))
    nan_payload = np.array([0x7FF8_0000_0000_BEEF], dtype="<u8").view("<f8")[0]
    theta[:5] = [-0.0, np.inf, -np.inf, nan_payload, 5e-324]
    return theta


def golden_run(max_generations: int = 2) -> TrainingRunConfig:
    """Two tiny tasks, the PSO one noisy."""
    tasks = (
        TaskSpec(
            id="de_golden", optimizer="de", dimension=3,
            train_functions=(1,), test_functions=(3,),
            population_size=6, budget=36, inner_epochs=1, inner_population=4,
        ),
        TaskSpec(
            id="pso_golden", optimizer="pso", dimension=3,
            train_functions=(2,), test_functions=(20,),
            population_size=6, budget=36, inner_epochs=1, inner_population=4,
            noise=NoiseModel(NoiseKind.CAUCHY_ADDITIVE, 0.1),
        ),
    )
    return TrainingRunConfig(
        tasks=tasks, analyzer=ANALYZER, outer_population=4,
        max_generations=max_generations, q_runs=2, seed=23,
    )


def desk_episode(optimizer: str) -> dict:
    """One training-size (m=50, d=10) episode under fixed neural weights.

    Every step's record and the final value, as JSON-ready values.
    """
    function_id = {"de": 1, "pso": 2}[optimizer]
    task = TaskSpec(
        id=f"{optimizer}_golden_desk", optimizer=optimizer, dimension=10,
        train_functions=(function_id,), test_functions=(),
        population_size=50, budget=2000,
    )
    cfg = AnalyzerConfig()
    theta = np.random.default_rng(5).normal(0, 0.3, param_count(cfg))
    extractor = make_slot_extractor("neural", theta, cfg)
    policy_vec = np.random.default_rng(6).normal(
        0, 1, policy_param_count(task.template(), extractor.width)
    )
    policy = policy_decode(policy_vec, task.template(), extractor.width)
    problem = make_instance(task, function_id, 31)
    result = run_episode(task, extractor, policy, problem, seed=37)
    return {"f_star": result.f_star, "steps": [asdict(s) for s in result.steps]}


# (m, d) of the classical-suite golden samples; each is pinned as drawn and
# with duplicate points and tied objectives.
ELA_SHAPES = ((1000, 10), (100, 100), (50, 10), (7, 3))


def ela_sample(m: int, d: int, ties: bool) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1000 * m + d)
    X = rng.uniform(-5, 5, (m, d))
    y = np.sum(X * X, axis=1) + rng.normal(0, 1, m)
    if ties:
        X[m - 1], X[m - 2] = X[0], X[1]  # two duplicate pairs
        y[2] = y[3]
        y[m - 3] = y[1]
    return X, y


def ela_suite(m: int, d: int, ties: bool) -> dict:
    """Every full-suite feature (as float hex, missing as None), plus digests
    of the nearest-neighbor and nearest-better distances and the IC tour."""
    X, y = ela_sample(m, d, ties)
    feats = full_suite_features(X, y, -5.0, 5.0)
    nn, nb = nearest_better_distances(X, y)
    return {
        "features": {k: None if v is None else float(v).hex() for k, v in feats.items()},
        "nn": array_digest(nn),
        "nb": array_digest(nb),
        "tour": array_digest(nearest_neighbor_tour(X, y)),
    }


def ela_suites() -> dict:
    return {
        f"m{m}_d{d}{'_ties' if ties else ''}": ela_suite(m, d, ties)
        for m, d in ELA_SHAPES
        for ties in (False, True)
    }


# BLAS threads `ela_suite.json` was recorded under.  Its (100, 100) meta-model
# and PCA features come out in other last bits on one OpenBLAS thread.
ELA_BLAS_THREADS = "2"


def ela_suites_pinned() -> dict:
    """`ela_suites`, computed in a fresh process whose BLAS runs on
    `ELA_BLAS_THREADS` threads: the count is fixed when BLAS loads."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env.update(
        (name, ELA_BLAS_THREADS)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")])
    )
    code = "import json; from tests.golden import ela_suites; print(json.dumps(ela_suites()))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def evaluation_task() -> TaskSpec:
    """A tiny DE task for the evaluate and analyze workflows."""
    return TaskSpec(
        id="de_golden_eval", optimizer="de", dimension=5,
        train_functions=(1, 2), test_functions=(3, 8),
        population_size=10, budget=100, inner_epochs=2, inner_population=4,
    )


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def report_hex(report) -> dict:
    """An `EvaluationReport` with every float as float hex."""
    return {
        "mode": report.mode,
        "upsilon": float(report.upsilon).hex(),
        "per_problem": {str(k): float(v).hex() for k, v in report.per_problem.items()},
        "z_table": {str(k): _hex(v) for k, v in report.z_table.items()},
        "trajectory": [[e, float(u).hex(), float(b).hex()] for e, u, b in report.trajectory],
    }


def evaluation_reports() -> dict:
    """Zero-shot and two-epoch fine-tune reports of the golden run's best
    encoder on `evaluation_task`."""
    cfg, theta, _ = load_checkpoint(DATA / "run" / "analyzer_best.json")
    task = evaluation_task()
    return {
        "zero_shot": report_hex(zero_shot(theta, cfg, task, 2, 41)),
        "fine_tune": report_hex(fine_tune(theta, cfg, task, 2, 41, epochs=2)),
    }


def study_summary() -> dict:
    """The exploration study's labels, projections and correlation matrix."""
    cfg, theta, _ = load_checkpoint(DATA / "run" / "analyzer_best.json")
    study = exploration_study(evaluation_task(), theta, cfg, function_id=3, runs=2, seed=41)
    matrix = pearson_matrix(study.ela, study.neural)
    return {
        "labels": study.labels,
        "neural_projection": _hex(study.neural_projection),
        "ela_projection": _hex(study.ela_projection),
        "correlation": _hex(matrix.entries),
        "counts": matrix.counts.ravel().tolist(),
    }


def evaluation() -> dict:
    return {**evaluation_reports(), "study": study_summary()}


def es_state_after_two_updates(variant: EsVariant):
    state = es_init(EsConfig(variant=variant, dim=5, population=6, seed=7))
    for _ in range(2):
        X = es_sample(state)
        es_update(state, X, -np.sum(X * X, axis=1))
    return state


def es_state_text(state) -> str:
    return json.dumps(state_to_dict(state), indent=1, sort_keys=True)


def main(out: Path = DATA) -> None:
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "analyzer.json", ANALYZER, analyzer_theta(), PROVENANCE)
    for variant in EsVariant:
        state = es_state_after_two_updates(variant)
        (out / f"es_state_{variant.value}.json").write_text(es_state_text(state))
    episodes = {kind: desk_episode(kind) for kind in ("de", "pso")}
    (out / "desk_episodes.json").write_text(json.dumps(episodes, indent=1, sort_keys=True))
    (out / "ela_suite.json").write_text(json.dumps(ela_suites_pinned(), indent=1, sort_keys=True))
    run_dir = out / "run"
    (out / "evaluation.json").write_text(json.dumps(evaluation(), indent=1, sort_keys=True))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    with tempfile.TemporaryDirectory() as tmp:
        train(golden_run(), tmp)
        shutil.copy(Path(tmp) / "checkpoints" / "gen_0000.json", run_dir)
        for name in RUN_FILES:
            shutil.copy(Path(tmp) / name, run_dir)
    (run_dir / "config.json").write_text(
        json.dumps(asdict(golden_run()), indent=1, sort_keys=True)
    )


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else DATA)
