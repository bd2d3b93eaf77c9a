import dataclasses
import json

import numpy as np
import pytest

from popscape.analyzer import AnalyzerConfig, load_checkpoint, param_count
from popscape.errors import ConfigError, IntegrityError
from popscape.metabbo import TaskSpec, UpsilonResult, compute_baseline
from popscape.trainer import (
    TrainingRunConfig,
    compute_baselines,
    fine_tune,
    latest_checkpoint,
    load_trainer_checkpoint,
    train,
    zero_shot,
)
from popscape import analyzer
from popscape import trainer as trainer_module
from popscape.utils import derive_seed

from .golden import DATA, evaluation_reports, report_hex


def tiny_tasks():
    return (
        TaskSpec(
            id="de_tiny", optimizer="de", dimension=4,
            train_functions=(1,), test_functions=(3,),
            population_size=8, budget=80, inner_epochs=1, inner_population=4,
        ),
        TaskSpec(
            id="pso_tiny", optimizer="pso", dimension=4,
            train_functions=(2,), test_functions=(20,),
            population_size=8, budget=80, inner_epochs=1, inner_population=4,
        ),
    )


def tiny_run(**overrides):
    defaults = dict(
        tasks=tiny_tasks(),
        analyzer=AnalyzerConfig(),
        outer_population=4,
        max_generations=2,
        q_runs=2,
        seed=11,
    )
    defaults.update(overrides)
    return TrainingRunConfig(**defaults)


# --- fitness aggregation ------------------------------------------------------


def test_train_fitness_is_mean_of_task_scores(tmp_path, monkeypatch):
    """Each candidate's fitness in the history is the mean of its task
    scores, taken in task order."""
    offsets = {"de_tiny": 0.1, "pso_tiny": 0.2, "de_tiny_b": 0.3}
    scores = {}  # seed base (one per generation and candidate) -> task id -> score

    def fake_pipeline(theta, cfg, task, baseline, q, seed_base):
        value = offsets[task.id] * (1.0 + abs(float(theta[0])))
        scores.setdefault(seed_base, {})[task.id] = value
        return UpsilonResult(
            value=value, per_problem={}, z_table={}, fe_meta_train=0, fe_test=0
        )

    def no_baselines(tasks, *args, **kwargs):
        return {t.id: None for t in tasks}

    monkeypatch.setattr(trainer_module, "pipeline_score", fake_pipeline)
    monkeypatch.setattr(trainer_module, "compute_baselines", no_baselines)
    tasks = tiny_tasks() + (dataclasses.replace(tiny_tasks()[0], id="de_tiny_b"),)
    run = tiny_run(tasks=tasks)
    result = train(run, tmp_path / "run")
    assert len(result.history) == run.max_generations
    for record in result.history:
        assert len(record.fitness) == run.outer_population
        for i, fit in enumerate(record.fitness):
            per_task = scores[derive_seed(run.seed, "fitness", record.generation, i)]
            assert fit == float(np.mean([per_task[t.id] for t in run.tasks]))


# --- training loop ---------------------------------------------------------------


def test_loop_accounting_one_generation(tmp_path):
    run = tiny_run(max_generations=1)
    result = train(run, tmp_path / "run")
    assert len(result.history) == 1
    assert len(result.history[0].fitness) == 4
    assert latest_checkpoint(tmp_path / "run").name == "gen_0000.json"
    header = (tmp_path / "run" / "history.csv").read_text().splitlines()[0]
    assert header.startswith("generation,fit_0,fit_1,fit_2,fit_3")


def test_latest_checkpoint_is_the_highest_generation(tmp_path):
    assert latest_checkpoint(tmp_path) is None
    (tmp_path / "checkpoints").mkdir()
    for name in ("gen_9999.json", "gen_10000.json", "gen_backup.json"):
        (tmp_path / "checkpoints" / name).write_text("{}")
    assert latest_checkpoint(tmp_path).name == "gen_10000.json"


def test_best_so_far_non_decreasing(tmp_path):
    run = tiny_run(max_generations=3)
    result = train(run, tmp_path / "run")
    series = [r.best_so_far for r in result.history]
    assert all(b >= a for a, b in zip(series, series[1:]))
    assert result.fitness == series[-1]


def test_nan_candidate_never_hides_the_best_finite_one(tmp_path, monkeypatch):
    """A NaN fitness ranks worst, as in the ES update: gen_best, best_so_far,
    the result and analyzer_best.json take the best finite candidate."""
    run = tiny_run(tasks=tiny_tasks()[:1])
    nan_bases = {derive_seed(run.seed, "fitness", g, 0) for g in range(run.max_generations)}
    scored = {}  # seed base (one per generation and candidate) -> (theta, score)

    def fake_pipeline(theta, cfg, task, baseline, q, seed_base):
        value = np.nan if seed_base in nan_bases else float(theta[0])
        scored[seed_base] = (theta.copy(), value)
        return UpsilonResult(
            value=value, per_problem={}, z_table={}, fe_meta_train=0, fe_test=0
        )

    monkeypatch.setattr(trainer_module, "pipeline_score", fake_pipeline)
    def no_baselines(tasks, *args, **kwargs):
        return {t.id: None for t in tasks}

    monkeypatch.setattr(trainer_module, "compute_baselines", no_baselines)
    result = train(run, tmp_path / "run")
    best_so_far = -np.inf
    for record in result.history:
        assert np.isnan(record.fitness[0])
        assert record.gen_best == max(record.fitness[1:])
        best_so_far = max(best_so_far, record.gen_best)
        assert record.best_so_far == best_so_far
    generation, i = max(
        ((g, i) for g in range(run.max_generations) for i in range(1, run.outer_population)),
        key=lambda gi: scored[derive_seed(run.seed, "fitness", *gi)][1],
    )
    theta, value = scored[derive_seed(run.seed, "fitness", generation, i)]
    assert (result.fitness, result.generation) == (value, generation)
    assert np.array_equal(result.theta, theta)
    _, stored, provenance = load_checkpoint(tmp_path / "run" / "analyzer_best.json")
    assert np.array_equal(stored, theta)
    assert (provenance["fitness"], provenance["generation"]) == (value, generation)


def test_fe_accounting_per_generation(tmp_path):
    run = tiny_run(max_generations=1)
    result = train(run, tmp_path / "run")
    record = result.history[0]
    expected_meta = sum(
        t.inner_epochs * t.inner_population * t.episodes_per_eval * t.budget
        for t in run.tasks
    ) * run.outer_population
    expected_test = sum(
        len(t.test_functions) * run.q_runs * t.budget for t in run.tasks
    ) * run.outer_population
    assert record.fe_meta_train == expected_meta
    assert record.fe_test == expected_test


def test_rerun_reproduces_history_bit_exactly(tmp_path):
    run = tiny_run()
    train(run, tmp_path / "a")
    train(run, tmp_path / "b")
    assert (tmp_path / "a" / "history.csv").read_text() == (
        tmp_path / "b" / "history.csv"
    ).read_text()


def test_interrupt_and_resume_matches_uninterrupted(tmp_path):
    full = tiny_run(max_generations=3)
    train(full, tmp_path / "full")
    partial = tiny_run(max_generations=1)
    train(partial, tmp_path / "resumed")
    train(full, tmp_path / "resumed", resume=True)
    assert (tmp_path / "full" / "history.csv").read_text() == (
        tmp_path / "resumed" / "history.csv"
    ).read_text()
    a = load_checkpoint(tmp_path / "full" / "analyzer_best.json")
    b = load_checkpoint(tmp_path / "resumed" / "analyzer_best.json")
    assert np.array_equal(a[1], b[1])


def test_chunked_layer0_run_reruns_and_resumes_bit_exactly(tmp_path, monkeypatch):
    # at population 324 and d = 10, layer 0's cross-solution scores chunk;
    # from a zero mean the candidates' (slice, head)s take both the rank-2
    # core's Taylor path and its tiles
    calls = {"_taylor_rows": 0, "_tiled_rows": 0}

    def counted(name):
        core = getattr(analyzer, name)

        def spy(*args):
            calls[name] += 1
            return core(*args)

        return spy

    for name in calls:
        monkeypatch.setattr(analyzer, name, counted(name))
    tasks = tuple(
        dataclasses.replace(t, dimension=10, population_size=324, budget=3 * 324)
        for t in tiny_tasks()
    )
    full = tiny_run(tasks=tasks, initial_mean_mode="zero")
    train(full, tmp_path / "a")
    assert calls["_taylor_rows"] > 0 and calls["_tiled_rows"] > 0
    train(full, tmp_path / "b")
    partial = dataclasses.replace(full, max_generations=1)
    train(partial, tmp_path / "resumed")
    train(full, tmp_path / "resumed", resume=True)
    for name in ("history.csv", "analyzer_best.json"):
        first = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == first
        assert (tmp_path / "resumed" / name).read_bytes() == first


def test_resume_rejects_different_config(tmp_path):
    train(tiny_run(max_generations=1), tmp_path / "run")
    other = tiny_run(max_generations=2, seed=99)
    with pytest.raises(ConfigError):
        train(other, tmp_path / "run", resume=True)


def test_resume_with_nothing_to_resume(tmp_path):
    with pytest.raises(ConfigError):
        train(tiny_run(), tmp_path / "empty", resume=True)


def test_corrupt_checkpoint_detected(tmp_path):
    run = tiny_run(max_generations=1)
    train(run, tmp_path / "run")
    ckpt = latest_checkpoint(tmp_path / "run")
    text = ckpt.read_text().replace('"generation": 0', '"generation": 1', 1)
    ckpt.write_text(text)
    with pytest.raises(IntegrityError):
        load_trainer_checkpoint(ckpt)


def test_parallel_evaluation_matches_serial(tmp_path):
    run = tiny_run(max_generations=1)
    train(run, tmp_path / "serial", jobs=1)
    train(run, tmp_path / "parallel", jobs=2)
    assert (tmp_path / "serial" / "history.csv").read_text() == (
        tmp_path / "parallel" / "history.csv"
    ).read_text()


def test_final_artifact_is_loadable_checkpoint(tmp_path):
    run = tiny_run(max_generations=1)
    result = train(run, tmp_path / "run")
    cfg, theta, provenance = load_checkpoint(tmp_path / "run" / "analyzer_best.json")
    assert cfg == run.analyzer
    assert np.array_equal(theta, result.theta)
    assert provenance["seed"] == run.seed
    assert theta.shape == (param_count(run.analyzer),)


# --- baseline caching ---------------------------------------------------------------


def test_baseline_cache_idempotent(tmp_path, monkeypatch):
    run = tiny_run()
    cache = tmp_path / "baselines.json"
    first = compute_baselines(run.tasks, run.q_runs, run.seed, cache_path=cache)

    calls = []
    real = trainer_module.compute_baseline

    def counting(task, q, seed_base):
        calls.append(task.id)
        return real(task, q, seed_base)

    monkeypatch.setattr(trainer_module, "compute_baseline", counting)
    second = compute_baselines(run.tasks, run.q_runs, run.seed, cache_path=cache)
    assert calls == []  # everything served from the cache
    for tid in ("de_tiny", "pso_tiny"):
        assert first[tid].stats == second[tid].stats


def test_baseline_cache_survives_reload_bit_exact(tmp_path):
    run = tiny_run()
    cache = tmp_path / "baselines.json"
    first = compute_baselines(run.tasks, run.q_runs, run.seed, cache_path=cache)
    raw = json.loads(cache.read_text())
    reloaded = compute_baselines(run.tasks, run.q_runs, run.seed, cache_path=cache)
    for tid in first:
        for fid in first[tid].stats:
            assert first[tid].stats[fid] == reloaded[tid].stats[fid]
    assert json.loads(cache.read_text()) == raw


def test_baseline_cache_misses_on_changed_task_with_same_id(tmp_path):
    run = tiny_run()
    cache = tmp_path / "baselines.json"
    task = run.tasks[0]
    compute_baselines([task], run.q_runs, run.seed, cache_path=cache)
    changed = dataclasses.replace(task, dimension=6, budget=120)
    served = compute_baselines([changed], run.q_runs, run.seed, cache_path=cache)
    fresh = compute_baseline(changed, run.q_runs, derive_seed(run.seed, "baseline"))
    assert served[task.id].stats == fresh.stats


# --- evaluation workflows --------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_theta(tmp_path_factory):
    run = tiny_run(max_generations=1)
    result = train(run, tmp_path_factory.mktemp("train") / "run")
    return result.theta


def test_zero_shot_deterministic(trained_theta):
    task = tiny_tasks()[0]
    a = zero_shot(trained_theta, AnalyzerConfig(), task, q_runs=2, seed=5)
    b = zero_shot(trained_theta, AnalyzerConfig(), task, q_runs=2, seed=5)
    assert a.upsilon == b.upsilon
    assert a.z_table == b.z_table


def test_fine_tune_epoch_zero_equals_zero_shot(trained_theta):
    task = tiny_tasks()[0]
    zs = zero_shot(trained_theta, AnalyzerConfig(), task, q_runs=2, seed=5)
    ft = fine_tune(
        trained_theta, AnalyzerConfig(), task, q_runs=2, seed=5, epochs=2, population=4
    )
    assert ft.trajectory[0][1] == zs.upsilon
    assert ft.trajectory[0][0] == 0
    # with no epoch the report is the zero-shot one, every float bit for bit
    ft0 = fine_tune(
        trained_theta, AnalyzerConfig(), task, q_runs=2, seed=5, epochs=0, population=4
    )
    scored = ("upsilon", "per_problem", "z_table")
    assert {k: report_hex(ft0)[k] for k in scored} == {k: report_hex(zs)[k] for k in scored}


def test_fine_tune_best_so_far_non_decreasing(trained_theta):
    task = tiny_tasks()[0]
    ft = fine_tune(
        trained_theta, AnalyzerConfig(), task, q_runs=2, seed=5, epochs=3, population=4
    )
    bests = [b for _, _, b in ft.trajectory]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    assert len(ft.trajectory) == 4
    assert ft.upsilon == bests[-1]


def test_fine_tune_never_tests_a_non_finite_policy(trained_theta, monkeypatch):
    """Each epoch tests its best candidate; one whose policy has a NaN output
    bias scores a NaN return, ranked worst, so it is never the one tested."""
    # With Cr as 0 such a DE candidate scored a finite return, and at this
    # seed the best one of epoch 1.
    decode, run_tests = trainer_module.policy_decode, trainer_module.run_test_episodes
    tested = []

    def poisoned(vector, template, in_width):
        policy = decode(vector, template, in_width)
        if np.floor(vector[0] * 1e4) % 2:  # about half of the candidates
            policy.b2[-1] = np.nan
        return policy

    def spy(task, extractor, policy, q_runs, seed_base):
        tested.append(policy)
        return run_tests(task, extractor, policy, q_runs, seed_base)

    monkeypatch.setattr(trainer_module, "policy_decode", poisoned)
    monkeypatch.setattr(trainer_module, "run_test_episodes", spy)
    ft = fine_tune(
        trained_theta, AnalyzerConfig(), tiny_tasks()[0], q_runs=2, seed=0, epochs=2,
        population=4,
    )
    assert len(tested) == 2
    assert all(np.all(np.isfinite(policy.b2)) for policy in tested)
    assert all(np.isfinite(ups) for _, ups, _ in ft.trajectory)


def test_evaluation_reports_match_golden():
    """Zero-shot and fine-tune reports, every float bit for bit."""
    stored = json.loads((DATA / "evaluation.json").read_text())
    got = evaluation_reports()
    assert got == {mode: stored[mode] for mode in got}
