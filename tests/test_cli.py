import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from popscape.analyzer import Observation, load_checkpoint
from popscape.trainer import TrainingRunConfig
from popscape.cli import (
    EXIT_CONFIG,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_RUNTIME,
    load_task_config,
    load_train_config,
    main,
    parse_observation_file,
)


def test_every_public_name_resolves():
    import popscape

    for name in popscape.__all__:
        assert getattr(popscape, name) is not None, name


def train_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "q_runs": 2,
        "outer": {"population": 4, "max_generations": 1},
        "tasks": [
            {
                "id": "de_cli",
                "optimizer": "de",
                "dimension": 4,
                "train_functions": [1],
                "test_functions": [3],
                "population_size": 8,
                "budget": 80,
                "inner_epochs": 1,
                "inner_population": 4,
            }
        ],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    config = train_config(tmp)
    rc = main(["train", "--config", str(config), "--run-dir", str(tmp / "run")])
    assert rc == EXIT_OK
    return tmp / "run"


def test_train_writes_run_directory(run_dir):
    names = {p.name for p in run_dir.iterdir()}
    assert {"analyzer_best.json", "history.csv", "config.json", "checkpoints"} <= names


def test_train_missing_field_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1}))
    rc = main(["train", "--config", str(bad)])
    assert rc == EXIT_CONFIG
    assert "config.tasks" in capsys.readouterr().err


def test_train_unknown_field_exit_two(tmp_path, capsys):
    cfg = json.loads(train_config(tmp_path).read_text())
    cfg["surprise"] = 1
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(bad)])
    assert rc == EXIT_CONFIG
    assert "surprise" in capsys.readouterr().err


def test_resume_continues_to_identical_history(tmp_path):
    config2 = train_config(tmp_path)
    cfg = json.loads(config2.read_text())
    cfg["outer"]["max_generations"] = 2
    full_cfg = tmp_path / "full.json"
    full_cfg.write_text(json.dumps(cfg))

    assert main(["train", "--config", str(full_cfg), "--run-dir", str(tmp_path / "full")]) == EXIT_OK
    assert main(["train", "--config", str(config2), "--run-dir", str(tmp_path / "part")]) == EXIT_OK
    assert main(["train", "--config", str(full_cfg), "--resume", str(tmp_path / "part")]) == EXIT_OK
    assert (tmp_path / "full" / "history.csv").read_text() == (
        tmp_path / "part" / "history.csv"
    ).read_text()


def two_generation_config(tmp_path, name, **task_overrides):
    cfg = json.loads(train_config(tmp_path).read_text())
    cfg["outer"]["max_generations"] = 2
    cfg["tasks"][0].update(task_overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_noisy_task_trains_and_names_the_best_generation(tmp_path, capsys):
    config = two_generation_config(
        tmp_path, "noisy.json", noise={"kind": "cauchy_additive", "level": 0.1}
    )
    assert main(["train", "--config", str(config), "--run-dir", str(tmp_path / "run")]) == EXIT_OK
    _, _, provenance = load_checkpoint(tmp_path / "run" / "analyzer_best.json")
    summary = (
        f"best fitness {provenance['fitness']:.6f} "
        f"at generation {provenance['generation']}"
    )
    assert summary in capsys.readouterr().out.splitlines()


def test_unknown_noise_kind_exit_two(tmp_path, capsys):
    config = two_generation_config(tmp_path, "bogus.json", noise={"kind": "bogus", "level": 0.1})
    assert main(["train", "--config", str(config), "--run-dir", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("population_size", 0), ("population_size", -8), ("episodes_per_eval", 0)]
)
def test_nonpositive_task_size_exit_two_naming_field(tmp_path, capsys, field, value):
    # these crashed with exit 3 (an empty reduction, a negative array size,
    # a division by zero) before `TaskSpec` rejected them
    config = two_generation_config(tmp_path, "sizes.json", **{field: value})
    assert main(["train", "--config", str(config), "--run-dir", str(tmp_path / "run")]) == EXIT_CONFIG
    assert f"task de_cli: {field} must be positive, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("torn", ["gen_0001.json", "history.csv"])
def test_torn_write_keeps_files_and_resume_completes(tmp_path, monkeypatch, torn):
    full_cfg = two_generation_config(tmp_path, "full.json")
    assert main(["train", "--config", str(full_cfg), "--run-dir", str(tmp_path / "full")]) == EXIT_OK
    run = tmp_path / "part"
    assert main(["train", "--config", str(train_config(tmp_path)), "--run-dir", str(run)]) == EXIT_OK
    names = ("checkpoints/gen_0000.json", "history.csv", "baselines.json")
    kept = {name: (run / name).read_bytes() for name in names}

    real_replace = os.replace
    gen1 = run / "checkpoints" / "gen_0001.json"

    def replace_failing_in_generation_1(src, dst):
        # Generation 1 writes gen_0001.json, then history.csv.
        if Path(dst).name == torn and (torn == gen1.name or gen1.exists()):
            raise OSError("no space left on device")
        real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", replace_failing_in_generation_1)
        rc = main(["train", "--config", str(full_cfg), "--resume", str(run)])
    assert rc == EXIT_RUNTIME
    assert gen1.exists() == (torn == "history.csv")
    assert {name: (run / name).read_bytes() for name in names} == kept
    assert main(["train", "--config", str(full_cfg), "--resume", str(run)]) == EXIT_OK
    assert (run / "history.csv").read_text() == (tmp_path / "full" / "history.csv").read_text()


@pytest.mark.parametrize("damage", ['{"trunc', "[1, 2]"], ids=["truncated", "not_object"])
def test_damaged_baseline_cache_exit_four_naming_file(tmp_path, capsys, damage):
    run = tmp_path / "run"
    assert main(["train", "--config", str(train_config(tmp_path)), "--run-dir", str(run)]) == EXIT_OK
    cache = run / "baselines.json"
    cache.write_text(damage)
    full_cfg = two_generation_config(tmp_path, "full.json")
    assert main(["train", "--config", str(full_cfg), "--resume", str(run)]) == EXIT_INTEGRITY
    assert str(cache) in capsys.readouterr().err
    assert cache.read_text() == damage


def _drop_stats(entry):
    del entry["stats"]


def _drop_one_problem(entry):
    entry["stats"].pop(sorted(entry["stats"])[0])


def _text_values(entry):
    for fid in entry["stats"]:
        entry["stats"][fid] = ["1.0", "2.0"]


@pytest.mark.parametrize("damage", [_drop_stats, _drop_one_problem, _text_values],
                         ids=["no_stats", "missing_problem", "text_values"])
def test_damaged_baseline_entry_exit_four_naming_file_and_key(tmp_path, capsys, damage):
    run = tmp_path / "run"
    assert main(["train", "--config", str(train_config(tmp_path)), "--run-dir", str(run)]) == EXIT_OK
    cache = run / "baselines.json"
    entries = json.loads(cache.read_text())
    key = sorted(entries)[0]
    damage(entries[key])
    cache.write_text(json.dumps(entries))
    damaged = cache.read_text()
    full_cfg = two_generation_config(tmp_path, "full.json")
    assert main(["train", "--config", str(full_cfg), "--resume", str(run)]) == EXIT_INTEGRITY
    err = capsys.readouterr().err
    assert str(cache) in err and key in err
    assert cache.read_text() == damaged


def write_observation_file(path, observations, lb, ub) -> None:
    """Write observations in the format `parse_observation_file` reads."""
    d = observations[0].dimension if observations else len(np.atleast_1d(lb))
    lb = np.broadcast_to(np.asarray(lb, dtype=float), (d,))
    ub = np.broadcast_to(np.asarray(ub, dtype=float), (d,))
    lines = [
        "# d=%d lb=%s ub=%s"
        % (
            d,
            ",".join(repr(float(v)) for v in lb),
            ",".join(repr(float(v)) for v in ub),
        ),
        ",".join(["obs"] + [f"x_{j}" for j in range(1, d + 1)] + ["y"]),
    ]
    for i, obs in enumerate(observations):
        for row, y in zip(obs.X, obs.y):
            cells = [str(i)] + [repr(float(v)) for v in row] + [repr(float(y))]
            lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def obs_file(tmp_path, count=2):
    rng = np.random.default_rng(8)
    observations = [
        Observation(
            X=rng.uniform(-5, 5, (6, 3)),
            y=rng.normal(size=6),
            lb=-5 * np.ones(3),
            ub=5 * np.ones(3),
        )
        for _ in range(count)
    ]
    path = tmp_path / "obs.csv"
    write_observation_file(path, observations, -5.0, 5.0)
    return path


def test_observation_file_round_trip(tmp_path):
    path = obs_file(tmp_path)
    parsed = parse_observation_file(path)
    assert len(parsed) == 2
    assert parsed[0].X.shape == (6, 3)


def test_extract_neural_width_matches_checkpoint(run_dir, tmp_path):
    path = obs_file(tmp_path)
    out = tmp_path / "features.csv"
    rc = main([
        "extract", "--extractor", str(run_dir / "analyzer_best.json"),
        "--input", str(path), "--output", str(out),
    ])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    cfg, _, _ = load_checkpoint(run_dir / "analyzer_best.json")
    assert len(lines[0].split(",")) == cfg.hidden_dim
    assert len(lines) == 3  # header + 2 observations


def test_extract_is_deterministic(run_dir, tmp_path):
    path = obs_file(tmp_path)
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    for out in (out1, out2):
        assert main([
            "extract", "--extractor", "ela", "--input", str(path), "--output", str(out)
        ]) == EXIT_OK
    assert out1.read_text() == out2.read_text()


def test_extract_empty_observations_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# d=2 lb=-5.0 ub=5.0\nobs,x_1,x_2,y\n")
    out = tmp_path / "out.csv"
    assert main(["extract", "--extractor", "handcrafted", "--input", str(path), "--output", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1


def test_extract_malformed_line_numbered(tmp_path, capsys):
    path = tmp_path / "bad_obs.csv"
    path.write_text("# d=2 lb=-5.0 ub=5.0\nobs,x_1,x_2,y\n0,1.0,oops,3.0\n")
    rc = main(["extract", "--extractor", "ela", "--input", str(path), "--output", str(tmp_path / "o.csv")])
    assert rc == EXIT_CONFIG
    assert "line 3" in capsys.readouterr().err


def test_zero_shot_never_modifies_checkpoint(run_dir, tmp_path):
    checkpoint = run_dir / "analyzer_best.json"
    before = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
    task = tmp_path / "task.json"
    task.write_text(json.dumps({
        "id": "de_eval", "optimizer": "de", "dimension": 4,
        "train_functions": [1], "test_functions": [3],
        "population_size": 8, "budget": 80,
        "inner_epochs": 1, "inner_population": 4,
    }))
    out = tmp_path / "report.json"
    rc = main([
        "evaluate", "--checkpoint", str(checkpoint), "--task", str(task),
        "--mode", "zero_shot", "--q", "2", "--seed", "3", "--output", str(out),
    ])
    assert rc == EXIT_OK
    assert hashlib.sha256(checkpoint.read_bytes()).hexdigest() == before
    report = json.loads(out.read_text())
    assert "z_table" in report and "3" in report["z_table"]
    assert len(report["z_table"]["3"]) == 2  # per-run z-scores


def test_fine_tune_epoch_zero_matches_zero_shot(run_dir, tmp_path):
    checkpoint = run_dir / "analyzer_best.json"
    task = tmp_path / "task_ft.json"
    task.write_text(json.dumps({
        "id": "de_eval", "optimizer": "de", "dimension": 4,
        "train_functions": [1], "test_functions": [3],
        "population_size": 8, "budget": 80,
        "inner_epochs": 1, "inner_population": 4,
    }))
    zs_out = tmp_path / "zs.json"
    ft_out = tmp_path / "ft.json"
    assert main([
        "evaluate", "--checkpoint", str(checkpoint), "--task", str(task),
        "--mode", "zero_shot", "--q", "2", "--seed", "3", "--output", str(zs_out),
    ]) == EXIT_OK
    assert main([
        "evaluate", "--checkpoint", str(checkpoint), "--task", str(task),
        "--mode", "fine_tune", "--q", "2", "--seed", "3", "--epochs", "2",
        "--output", str(ft_out),
    ]) == EXIT_OK
    zs = json.loads(zs_out.read_text())
    ft = json.loads(ft_out.read_text())
    assert ft["trajectory"][0]["upsilon"] == zs["upsilon"]
    bests = [p["best_so_far"] for p in ft["trajectory"]]
    assert all(b >= a for a, b in zip(bests, bests[1:]))


def test_corrupt_checkpoint_exit_four(run_dir, tmp_path, capsys):
    corrupted = tmp_path / "broken.json"
    text = (run_dir / "analyzer_best.json").read_text()
    corrupted.write_text(text.replace('"version": 1', '"version": 2', 1))
    task = tmp_path / "task2.json"
    task.write_text(json.dumps({
        "id": "x", "optimizer": "de", "dimension": 4,
        "train_functions": [1], "test_functions": [3],
        "population_size": 8, "budget": 80,
    }))
    rc = main([
        "evaluate", "--checkpoint", str(corrupted), "--task", str(task),
        "--mode", "zero_shot",
    ])
    assert rc == EXIT_INTEGRITY


def test_bench_grid_table(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [[20, 3], [30, 4]], "runs": 10}))
    out = tmp_path / "timings.csv"
    assert main(["bench", "--grid", str(grid), "--output", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "extractor,m20_d3,m30_d4"
    assert len(lines) == 1 + 3  # one row per extractor
    detail = (tmp_path / "timings_detail.csv").read_text().splitlines()
    assert len(detail) == 1 + 3 * 2  # header + 3 extractors x 2 cells


@pytest.mark.parametrize("cell", [[20], ["a", 3]], ids=["one_value", "not_int"])
def test_bench_bad_cell_exit_two_naming_cell(tmp_path, capsys, cell):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [[20, 3], cell], "runs": 10}))
    out = tmp_path / "timings.csv"
    assert main(["bench", "--grid", str(grid), "--output", str(out)]) == EXIT_CONFIG
    assert "grid.cells[1]: expected two positive ints" in capsys.readouterr().err
    assert not out.exists()


def output_command(command, run_dir, tmp_path):
    """Arguments that run `command` on tiny inputs, and the files it writes."""
    if command == "extract":
        out = tmp_path / "features.csv"
        args = ["--extractor", "handcrafted", "--input", str(obs_file(tmp_path))]
        return args + ["--output", str(out)], [out]
    if command == "bench":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [[20, 3]], "runs": 10, "kinds": ["handcrafted"]}))
        out = tmp_path / "timings.csv"
        return ["--grid", str(grid), "--output", str(out)], [out, tmp_path / "timings_detail.csv"]
    task = tmp_path / "task.json"
    task.write_text(json.dumps(full_task()))
    checkpoint = str(run_dir / "analyzer_best.json")
    if command == "evaluate":
        out = tmp_path / "report.json"
        args = ["--checkpoint", checkpoint, "--task", str(task), "--mode", "zero_shot"]
        return args + ["--q", "2", "--output", str(out)], [out]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(
        {"checkpoint": checkpoint, "task": str(task), "function_id": 3, "runs": 1}
    ))
    outdir = tmp_path / "rq3"
    outdir.mkdir()
    args = ["--kind", "rq3", "--inputs", str(inputs), "--output-dir", str(outdir)]
    return args, [outdir / "neural_points.csv", outdir / "ela_points.csv"]


@pytest.mark.parametrize("command", ["extract", "bench", "evaluate", "analyze"])
def test_failed_output_write_keeps_previous_file(command, run_dir, tmp_path, monkeypatch):
    args, outputs = output_command(command, run_dir, tmp_path)
    for path in outputs:
        path.write_text("previous\n")
    write_text = Path.write_text

    def torn(self, data, *a, **k):
        write_text(self, data[: len(data) // 2], *a, **k)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", torn)
    assert main([command, *args]) == EXIT_RUNTIME
    monkeypatch.undo()
    assert [path.read_text() for path in outputs] == ["previous\n"] * len(outputs)
    assert [tmp for path in outputs for tmp in path.parent.glob("*.tmp")] == []


def test_analyze_rq3_exports_point_clouds(run_dir, tmp_path):
    task = tmp_path / "task3.json"
    task.write_text(json.dumps({
        "id": "de_an", "optimizer": "de", "dimension": 4,
        "train_functions": [1], "test_functions": [3],
        "population_size": 8, "budget": 80,
        "inner_epochs": 1, "inner_population": 4,
    }))
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({
        "checkpoint": str(run_dir / "analyzer_best.json"),
        "task": str(task), "function_id": 3, "runs": 2, "seed": 1,
    }))
    outdir = tmp_path / "rq3"
    assert main(["analyze", "--kind", "rq3", "--inputs", str(inputs), "--output-dir", str(outdir)]) == EXIT_OK
    neural = (outdir / "neural_points.csv").read_text().splitlines()
    ela = (outdir / "ela_points.csv").read_text().splitlines()
    assert neural[0] == "label,pc1,pc2"
    assert len(neural) == len(ela) == 1 + 2 * 10  # 2 runs x 10 steps
    for line in neural[1:] + ela[1:]:
        _, pc1, pc2 = line.split(",")
        float(pc1), float(pc2)


def test_analyze_correlation_exports_named_matrix(run_dir, tmp_path):
    task = tmp_path / "task4.json"
    task.write_text(json.dumps({
        "id": "de_an2", "optimizer": "de", "dimension": 4,
        "train_functions": [1], "test_functions": [3],
        "population_size": 8, "budget": 80,
        "inner_epochs": 1, "inner_population": 4,
    }))
    inputs = tmp_path / "inputs2.json"
    inputs.write_text(json.dumps({
        "checkpoint": str(run_dir / "analyzer_best.json"),
        "task": str(task), "function_id": 3, "runs": 2, "seed": 1,
    }))
    outdir = tmp_path / "corr"
    assert main(["analyze", "--kind", "correlation", "--inputs", str(inputs), "--output-dir", str(outdir)]) == EXIT_OK
    lines = (outdir / "correlation.csv").read_text().splitlines()
    assert lines[0].startswith("feature,nf_0,nf_1")
    assert len(lines) == 1 + 25  # in-run feature rows
    assert (outdir / "correlation_counts.csv").exists()


# --- config field types -------------------------------------------------------------

GOLDEN_CHECKPOINT = Path(__file__).parent / "data" / "run" / "analyzer_best.json"


def full_task() -> dict:
    """A task config that sets every field."""
    return {
        "id": "de_full", "optimizer": "de", "dimension": 4,
        "train_functions": [1], "test_functions": [3],
        "population_size": 8, "budget": 80,
        "noise": {"kind": "gaussian_multiplicative", "level": 0.1},
        "analyzer_slot": "neural", "policy_hidden": 8, "inner_variant": "sep_cmaes",
        "inner_population": 4, "inner_epochs": 1, "episodes_per_eval": 1,
    }


def full_train_config() -> dict:
    """A train config that sets every field."""
    return {
        "seed": 5, "q_runs": 2,
        "analyzer": {"hidden_dim": 4, "num_heads": 2, "num_layers": 1, "ff_inner_dim": 4},
        "outer": {
            "variant": "fast_cmaes", "population": 4, "max_generations": 1,
            "initial_sigma": 0.3, "initial_mean_mode": "uniform_random", "path_lr": 0.5,
        },
        "tasks": [full_task()],
    }


def _keys(field) -> tuple:
    return field if isinstance(field, tuple) else (field,)


TASK_NUMBERS = (
    "dimension", "population_size", "budget", "policy_hidden",
    "inner_population", "inner_epochs", "episodes_per_eval",
    ("noise", "level"),
)
TASK_OTHERS = (
    "id", "optimizer", "train_functions", "test_functions",
    "analyzer_slot", "inner_variant", ("noise", "kind"),
)
TASK_REQUIRED = TASK_NUMBERS + TASK_OTHERS


def in_task(fields) -> tuple:
    return tuple(("tasks", 0) + _keys(f) for f in fields)


TRAIN_NUMBERS = (
    "seed", "q_runs",
    ("analyzer", "hidden_dim"), ("analyzer", "num_heads"), ("analyzer", "num_layers"),
    ("outer", "population"), ("outer", "max_generations"), ("outer", "initial_sigma"),
) + in_task(TASK_NUMBERS)
TRAIN_REQUIRED = TRAIN_NUMBERS + (
    "tasks", ("outer", "variant"), ("outer", "initial_mean_mode"),
) + in_task(TASK_OTHERS)
GRID_REQUIRED = ("cells", "runs", "kinds", "seed")
INPUTS_REQUIRED = ("checkpoint", "task", "function_id", "runs", "seed")


def dotted(root: str, field) -> str:
    return root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in _keys(field))


def with_value(data: dict, field, value) -> dict:
    *parents, last = _keys(field)
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    return data


def run_with_config(tmp_path, command: str, data: dict) -> int:
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(data))
    argv = {
        "train": ["train", "--config", str(path), "--run-dir", str(tmp_path / "run")],
        "evaluate": [
            "evaluate", "--checkpoint", str(GOLDEN_CHECKPOINT), "--task", str(path),
            "--mode", "zero_shot",
        ],
        "bench": ["bench", "--grid", str(path), "--output", str(tmp_path / "t.csv")],
        "analyze": [
            "analyze", "--kind", "rq3", "--inputs", str(path),
            "--output-dir", str(tmp_path / "out"),
        ],
    }[command]
    return main(argv)


def full_grid() -> dict:
    return {"cells": [[20, 3]], "runs": 10, "kinds": ["handcrafted"], "checkpoint": None, "seed": 0}


def full_inputs(tmp_path) -> dict:
    task = tmp_path / "task.json"
    task.write_text(json.dumps(full_task()))
    return {
        "checkpoint": str(GOLDEN_CHECKPOINT), "task": str(task),
        "function_id": 3, "runs": 2, "seed": 1,
    }


CASES = (
    [("train", "config", f) for f in TRAIN_REQUIRED]
    + [("evaluate", "task", f) for f in TASK_REQUIRED]
    + [("bench", "grid", f) for f in GRID_REQUIRED]
    + [("analyze", "inputs", f) for f in INPUTS_REQUIRED]
)
BOOL_CASES = (
    [("train", "config", f) for f in TRAIN_NUMBERS]
    + [("evaluate", "task", f) for f in TASK_NUMBERS]
    + [("bench", "grid", f) for f in ("runs", "seed")]
    + [("analyze", "inputs", f) for f in ("function_id", "runs", "seed")]
)


def base_config(command: str, tmp_path) -> dict:
    return {
        "train": full_train_config,
        "evaluate": full_task,
        "bench": full_grid,
        "analyze": lambda: full_inputs(tmp_path),
    }[command]()


@pytest.mark.parametrize(
    "command,root,field", CASES, ids=[dotted(root, f) for _, root, f in CASES]
)
def test_null_in_required_field_exit_two_naming_path(tmp_path, capsys, command, root, field):
    data = with_value(base_config(command, tmp_path), field, None)
    assert run_with_config(tmp_path, command, data) == EXIT_CONFIG
    assert f"{dotted(root, field)}: expected " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,root,field", BOOL_CASES, ids=[dotted(root, f) for _, root, f in BOOL_CASES]
)
def test_bool_for_number_exit_two_naming_path(tmp_path, capsys, command, root, field):
    data = with_value(base_config(command, tmp_path), field, True)
    assert run_with_config(tmp_path, command, data) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{dotted(root, field)}: expected " in err and "got bool" in err


def test_optional_fields_accept_null(tmp_path):
    cfg = full_train_config()
    cfg["outer"]["path_lr"] = None
    cfg["analyzer"]["ff_inner_dim"] = None
    cfg["tasks"][0]["noise"] = None
    path = tmp_path / "optional.json"
    path.write_text(json.dumps(cfg))
    run = load_train_config(path)
    assert run.path_lr is None and run.tasks[0].noise is None
    assert run.analyzer.ff_inner_dim == run.analyzer.hidden_dim == 4
    task = tmp_path / "task.json"
    task.write_text(json.dumps(cfg["tasks"][0]))
    assert load_task_config(task) == run.tasks[0]


def test_null_mappings_and_absent_fields_take_dataclass_defaults(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"analyzer": None, "outer": None, "tasks": [full_task()]}))
    run = load_train_config(path)
    assert run == TrainingRunConfig(tasks=run.tasks)


def test_full_config_sets_every_field(tmp_path):
    path = tmp_path / "full.json"
    path.write_text(json.dumps(full_train_config()))
    run = load_train_config(path)
    assert (run.outer_variant, run.outer_population, run.max_generations) == ("fast_cmaes", 4, 1)
    assert (run.initial_sigma, run.initial_mean_mode, run.path_lr) == (0.3, "uniform_random", 0.5)
    assert (run.q_runs, run.seed, run.analyzer.num_heads) == (2, 5, 2)
    assert run.tasks[0].noise.level == 0.1 and run.tasks[0].policy_hidden == 8


# --- inputs rejected before any work ----------------------------------------------


def forbid(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a stub that records its calls."""
    calls = []
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args))
    return calls


@pytest.mark.parametrize("q_runs", [0, -1])
def test_train_nonpositive_q_runs_exit_two_before_training(tmp_path, capsys, monkeypatch, q_runs):
    # q_runs 0 trained to NaN fitness and baselines; -1 failed with exit 3
    import popscape.cli as cli

    trained = forbid(monkeypatch, cli, "train")
    config = train_config(tmp_path, q_runs=q_runs)
    assert main(["train", "--config", str(config), "--run-dir", str(tmp_path / "run")]) == EXIT_CONFIG
    assert f"q_runs must be at least 1, got {q_runs}" in capsys.readouterr().err
    assert trained == [] and not (tmp_path / "run").exists()


BAD_SETTINGS = (
    (("outer", "variant"), "fast_cmaess", "unknown ES variant 'fast_cmaess'; one of"),
    (("outer", "population"), 3, "ES population must be at least 4"),
    (("tasks", 0, "inner_variant"), "sep", "task de_full: inner ES: unknown ES variant 'sep'"),
    (("tasks", 0, "inner_population"), 3, "task de_full: inner ES: ES population must be"),
    (("tasks", 0, "inner_epochs"), -1, "task de_full: inner_epochs must be >= 0, got -1"),
    (("tasks", 0, "population_size"), 3, "task de_full: de needs population_size >= 4"),
    (("outer", "path_lr"), -1.0, "path_lr must be in [0, 2], got -1.0"),
    (("outer", "path_lr"), 2.5, "path_lr must be in [0, 2], got 2.5"),
    (("analyzer", "ff_inner_dim"), -4, "ff_inner_dim must be >= 1, got -4"),
    (("analyzer", "ff_inner_dim"), 0, "ff_inner_dim must be >= 1, got 0"),
    (("tasks", 0, "policy_hidden"), -1, "task de_full: policy_hidden must be positive, got -1"),
    (("tasks", 0, "policy_hidden"), 0, "task de_full: policy_hidden must be positive, got 0"),
)


def bad_setting_id(field, value) -> str:
    """The field's path, plus its value where several rows set that field."""
    repeated = [f for f, _, _ in BAD_SETTINGS].count(field) > 1
    return dotted("config", field) + (f"={value}" if repeated else "")


@pytest.mark.parametrize(
    "field,value,message", BAD_SETTINGS, ids=[bad_setting_id(f, v) for f, v, _ in BAD_SETTINGS]
)
def test_bad_training_setting_exit_two_before_baselines(tmp_path, capsys, monkeypatch, field, value, message):
    # these computed and wrote baselines.json first, then exited 2 or (a raw
    # ValueError for the variants) 3
    import popscape.cli as cli

    trained = forbid(monkeypatch, cli, "train")
    data = with_value(full_train_config(), field, value)
    assert run_with_config(tmp_path, "train", data) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert trained == [] and not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command,field,value,literal",
    [("train", ("outer", "initial_sigma"), np.nan, "NaN"),
     ("evaluate", ("noise", "level"), np.inf, "Infinity"),
     ("evaluate", ("noise", "level"), -np.inf, "-Infinity")],
    ids=["train-NaN", "evaluate-Infinity", "evaluate-minus-Infinity"],
)
def test_non_finite_json_literal_exit_two_before_any_work(
    tmp_path, capsys, monkeypatch, command, field, value, literal
):
    # json.loads parsed these: a NaN initial sigma trained to all-NaN fitness
    # with exit 0, and an infinite noise level reached the episodes
    import popscape.cli as cli

    work = forbid(monkeypatch, cli, {"train": "train", "evaluate": "zero_shot"}[command])
    data = with_value(base_config(command, tmp_path), field, value)
    assert run_with_config(tmp_path, command, data) == EXIT_CONFIG
    assert f"{literal} is not a JSON number" in capsys.readouterr().err
    assert work == [] and not (tmp_path / "run").exists()


@pytest.mark.parametrize("q", [0, -1])
@pytest.mark.parametrize("mode", ["zero_shot", "fine_tune"])
def test_evaluate_nonpositive_q_exit_two_before_any_episode(tmp_path, capsys, monkeypatch, mode, q):
    # --q 0 printed an upsilon of NaN with exit 0
    import popscape.cli as cli

    scored = forbid(monkeypatch, cli, mode)
    task = tmp_path / "task.json"
    task.write_text(json.dumps(full_task()))
    rc = main([
        "evaluate", "--checkpoint", str(GOLDEN_CHECKPOINT), "--task", str(task),
        "--mode", mode, "--q", str(q),
    ])
    assert rc == EXIT_CONFIG
    assert f"--q must be at least 1, got {q}" in capsys.readouterr().err
    assert scored == []


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_non_neural_analyzer_slot_exit_two_naming_field(tmp_path, capsys, command):
    # the slot was never read: "ela" trained the neural encoder and exited 0
    data = base_config(command, tmp_path)
    task = data["tasks"][0] if command == "train" else data
    task["analyzer_slot"] = "ela"
    assert run_with_config(tmp_path, command, data) == EXIT_CONFIG
    assert "task de_full: analyzer_slot must be 'neural', got 'ela'" in capsys.readouterr().err


def test_bench_negative_seed_exit_two_naming_field(tmp_path, capsys):
    # exited 3 from the random generator's "expected non-negative integer"
    data = dict(full_grid(), seed=-1)
    assert run_with_config(tmp_path, "bench", data) == EXIT_CONFIG
    assert "grid.seed: expected a non-negative int, got -1" in capsys.readouterr().err


def test_bench_unknown_kind_exit_two_before_any_cell_is_timed(tmp_path, capsys, monkeypatch):
    # the handcrafted cells used to be timed before "bogus" failed
    import popscape.analysis as analysis

    built = forbid(monkeypatch, analysis, "make_bench_extractor")
    data = dict(full_grid(), kinds=["handcrafted", "bogus"])
    assert run_with_config(tmp_path, "bench", data) == EXIT_CONFIG
    assert "grid.kinds[1]: unknown extractor kind 'bogus'" in capsys.readouterr().err
    assert built == [] and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("runs", [0, -1])
def test_analyze_nonpositive_runs_exit_two_before_meta_training(tmp_path, capsys, monkeypatch, runs):
    # meta-training ran first, then "feature rows do not match feature names"
    import popscape.analysis as analysis

    trained = forbid(monkeypatch, analysis, "meta_train")
    data = dict(full_inputs(tmp_path), runs=runs)
    assert run_with_config(tmp_path, "analyze", data) == EXIT_CONFIG
    assert f"inputs.runs: expected a positive int, got {runs}" in capsys.readouterr().err
    assert trained == []


@pytest.mark.parametrize("runs", [9, 0])
def test_bench_runs_below_ten_exit_two_before_any_extractor_is_built(tmp_path, capsys, monkeypatch, runs):
    # every extractor was built and warmed up before bench_walltime exited 2
    import popscape.analysis as analysis

    built = forbid(monkeypatch, analysis, "make_bench_extractor")
    data = dict(full_grid(), runs=runs)
    assert run_with_config(tmp_path, "bench", data) == EXIT_CONFIG
    assert f"grid.runs: expected at least 10, got {runs}" in capsys.readouterr().err
    assert built == [] and not (tmp_path / "t.csv").exists()


BAD_FUNCTIONS = [
    ("test_functions", 4, "unknown function id 4"),
    ("train_functions", 8, "rosenbrock requires dimension >= 2, got 1"),
]


@pytest.mark.parametrize("field,fid,message", BAD_FUNCTIONS, ids=["unimplemented", "too_few_dims"])
def test_evaluate_bad_function_id_exit_two_before_meta_training(tmp_path, capsys, monkeypatch, field, fid, message):
    # evaluate meta-trained and ran test episodes before make_instance raised
    import popscape.metabbo as metabbo

    trained = forbid(monkeypatch, metabbo, "meta_train")
    data = dict(full_task(), dimension=1, **{field: [fid]})
    assert run_with_config(tmp_path, "evaluate", data) == EXIT_CONFIG
    assert f"task de_full: {field}: {message}" in capsys.readouterr().err
    assert trained == []


@pytest.mark.parametrize("field,fid,message", BAD_FUNCTIONS, ids=["unimplemented", "too_few_dims"])
def test_analyze_bad_function_id_exit_two_before_meta_training(tmp_path, capsys, monkeypatch, field, fid, message):
    # exploration_study meta-trained before make_instance raised
    import popscape.analysis as analysis

    trained = forbid(monkeypatch, analysis, "meta_train")
    data = dict(full_inputs(tmp_path), function_id=fid)
    Path(data["task"]).write_text(json.dumps(dict(full_task(), dimension=1)))
    assert run_with_config(tmp_path, "analyze", data) == EXIT_CONFIG
    assert f"inputs.function_id: {message}" in capsys.readouterr().err
    assert trained == []


# --- observation files rejected before any extraction ------------------------------

EXTRACTORS = {"neural": str(GOLDEN_CHECKPOINT), "ela": "ela", "handcrafted": "handcrafted"}


def extract(path, kind, out) -> int:
    return main(["extract", "--extractor", EXTRACTORS[kind], "--input", str(path), "--output", str(out)])


@pytest.mark.parametrize("place,line", [("x", 3), ("y", 4), ("bound", 1)])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", EXTRACTORS)
def test_extract_non_finite_value_exit_two_naming_line(tmp_path, capsys, kind, value, place, line):
    # a nan objective wrote nan neural features and a plausible handcrafted
    # row with exit 0 and exited 3 for ela; a nan bound or inf position wrote
    # nan rows with exit 0
    path = obs_file(tmp_path)
    lines = path.read_text().splitlines()
    if place == "bound":
        lines[0] = lines[0].replace("lb=-5.0", f"lb={value}")
    else:
        cells = lines[line - 1].split(",")
        cells[1 if place == "x" else -1] = value
        lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "f.csv"
    assert extract(path, kind, out) == EXIT_CONFIG
    assert f"{path}: line {line}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bound", ["lb", "ub"])
def test_extract_bound_count_neither_one_nor_d_exit_two_naming_line_1(tmp_path, capsys, bound):
    # exited 3 with numpy's broadcast message
    header = "# d=3 lb=-5.0 ub=5.0".replace(f"{bound}=", f"{bound}=0.0,")
    path = tmp_path / "obs.csv"
    path.write_text(header + "\nobs,x_1,x_2,x_3,y\n0,1,2,3,4\n0,0,0,0,1\n")
    assert extract(path, "ela", tmp_path / "f.csv") == EXIT_CONFIG
    assert f"{path}: line 1: {bound} has 2 values, expected 1 or 3" in capsys.readouterr().err


@pytest.mark.parametrize("d", [0, -1])
def test_extract_nonpositive_dimension_exit_two_naming_line_1(tmp_path, capsys, d):
    # d=0 exited 3 with "float division by zero"; d=-1 blamed line 3's columns
    path = tmp_path / "obs.csv"
    path.write_text(f"# d={d} lb=-5.0 ub=5.0\nobs,y\n0,1.0\n0,2.0\n")
    assert extract(path, "handcrafted", tmp_path / "f.csv") == EXIT_CONFIG
    assert f"{path}: line 1: d must be positive, got {d}" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["lb=5.0 ub=-5.0", "lb=-5.0,1.0,-5.0 ub=5.0,1.0,5.0"])
@pytest.mark.parametrize("rows", [["0,1,2,3,4", "0,0,0,0,1"], []], ids=["rows", "header_only"])
def test_extract_bounds_not_ordered_exit_two_naming_line_1(tmp_path, capsys, bounds, rows):
    # named neither the file nor the line; a header-only file exited 0 and
    # wrote a header-only CSV
    path = tmp_path / "obs.csv"
    path.write_text("\n".join([f"# d=3 {bounds}", "obs,x_1,x_2,x_3,y", *rows]) + "\n")
    out = tmp_path / "f.csv"
    assert extract(path, "handcrafted", out) == EXIT_CONFIG
    assert f"{path}: line 1: bounds must satisfy lb < ub" in capsys.readouterr().err
    assert not out.exists()


def test_extract_single_row_population_exit_two_naming_obs_and_line(tmp_path, capsys):
    # printed "observation needs at least 2 candidates" without file, line or obs id
    path = tmp_path / "obs.csv"
    path.write_text(
        "# d=3 lb=-5.0 ub=5.0\nobs,x_1,x_2,x_3,y\n0,1,2,3,4\n7,1,1,1,1\n0,0,0,0,1\n"
    )
    out = tmp_path / "f.csv"
    assert extract(path, "ela", out) == EXIT_CONFIG
    assert f"{path}: line 4: observation 7 needs at least 2 candidates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", EXTRACTORS)
def test_extract_single_value_bounds_apply_to_every_dimension(tmp_path, kind):
    full = obs_file(tmp_path)
    single = tmp_path / "single.csv"
    lines = full.read_text().splitlines()
    single.write_text("\n".join(["# d=3 lb=-5.0 ub=5.0"] + lines[1:]) + "\n")
    assert lines[0] == "# d=3 lb=-5.0,-5.0,-5.0 ub=5.0,5.0,5.0"
    outs = [tmp_path / "full_f.csv", tmp_path / "single_f.csv"]
    assert extract(full, kind, outs[0]) == extract(single, kind, outs[1]) == EXIT_OK
    assert outs[0].read_text() == outs[1].read_text()
