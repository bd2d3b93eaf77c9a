"""Command-line entry point.

Subcommands: ``train`` (outer neuroevolution from a config file),
``evaluate`` (zero-shot or fine-tuning of a trained checkpoint on a task),
``extract`` (features from an observation file), ``bench`` (wall-time
grid), and ``analyze`` (exploration/exploitation clouds or feature
correlation).  Exit codes: 0 success, 2 configuration error, 3 runtime
error, 4 integrity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from .analyzer import AnalyzerConfig, Observation, load_checkpoint
from .analysis import (
    bench_grid,
    correlation_to_csv,
    exploration_study,
    pearson_matrix,
    point_cloud_csv,
    strong_pairs,
    timings_to_csv,
    timings_to_table_csv,
)
from .ela import features_to_csv
from .errors import ConfigError, IntegrityError
from .metabbo import EXTRACTOR_KINDS, ElaExtractor, HandcraftedExtractor, NeuralExtractor, TaskSpec
from .problems import check_functions
from .trainer import TrainingRunConfig, fine_tune, resume_checkpoint, train, zero_shot
from .utils import csv_text, write_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INTEGRITY = 4

OUTPUT_ROOT_ENV = "POPSCAPE_OUT"


# --- config loading and validation ---------------------------------------------

# A schema maps each key to (type, required).  The config dataclasses give
# theirs through `_schema`; a type is a JSON scalar type, ``list``, ``dict``,
# a ``str`` enum, a dataclass (a nested mapping), ``tuple[X, ...]`` (a list
# of X) or ``Optional[X]`` (X or null).


def _schema(cls) -> dict:
    """The schema of a config dataclass: a field without a default is required."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    }


_RUN_SCHEMA = _schema(TrainingRunConfig)
_TOP_LEVEL = ("tasks", "q_runs", "seed")
# The ``outer`` mapping holds the remaining scalar fields, named without the
# ``outer_`` prefix.
_OUTER_FIELDS = {
    name.removeprefix("outer_"): name
    for name in _RUN_SCHEMA
    if name not in _TOP_LEVEL + ("analyzer",)
}
_OUTER_SCHEMA = {key: _RUN_SCHEMA[name] for key, name in _OUTER_FIELDS.items()}
_TRAIN_SCHEMA = {
    **{key: _RUN_SCHEMA[key] for key in _TOP_LEVEL},
    "analyzer": (typing.Optional[AnalyzerConfig], False),
    "outer": (typing.Optional[dict], False),
}


def _check_value(value, kind, path: str) -> None:
    """Raise ConfigError naming ``path`` unless ``value`` is of type ``kind``."""
    if typing.get_origin(kind) is typing.Union:
        if value is None:
            return
        (kind,) = [k for k in typing.get_args(kind) if k is not type(None)]
    if dataclasses.is_dataclass(kind):
        _check_keys(value, _schema(kind), path)
        return
    if typing.get_origin(kind) is tuple:
        _check_value(value, list, path)
        for i, item in enumerate(value):
            _check_value(item, typing.get_args(kind)[0], f"{path}[{i}]")
        return
    if issubclass(kind, str):  # str itself or a str enum
        kind = str
    accepted = (float, int) if kind is float else kind
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")


def _check_keys(data: dict, schema: dict, path: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in data:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown field")
    for key, (kind, required) in schema.items():
        if key in data:
            _check_value(data[key], kind, f"{path}.{key}")
        elif required:
            raise ConfigError(f"{path}.{key}: required field missing")


def _read_json(path, what: str):
    def reject(literal):  # json.loads would otherwise parse NaN and +-Infinity
        raise ConfigError(f"{path}: {literal} is not a JSON number")
    try:
        return json.loads(Path(path).read_text(), parse_constant=reject)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def load_train_config(path) -> TrainingRunConfig:
    data = _read_json(path, "config")
    _check_keys(data, _TRAIN_SCHEMA, "config")
    outer = data.get("outer") or {}
    _check_keys(outer, _OUTER_SCHEMA, "config.outer")
    given = {key: data[key] for key in ("q_runs", "seed") if key in data}
    given.update({_OUTER_FIELDS[key]: value for key, value in outer.items()})
    return TrainingRunConfig(
        tasks=tuple(TaskSpec(**t) for t in data["tasks"]),
        analyzer=AnalyzerConfig(**(data.get("analyzer") or {})),
        **given,
    )


def _load(path, cls, root: str):
    """The `cls` a JSON file describes, checked against `_schema(cls)` under `root`."""
    data = _read_json(path, root)
    _check_keys(data, _schema(cls), root)
    return cls(**data)


def load_task_config(path) -> TaskSpec:
    return _load(path, TaskSpec, "task")


@dataclasses.dataclass(frozen=True)
class BenchGrid:
    """A ``bench`` grid file: (m, d) cells and how to time each extractor."""

    cells: tuple[list, ...]  # each [m, d]
    runs: int = 10
    kinds: tuple[str, ...] = EXTRACTOR_KINDS
    checkpoint: typing.Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        for i, cell in enumerate(self.cells):
            if not (len(cell) == 2 and all(type(v) is int and v > 0 for v in cell)):
                raise ConfigError(f"grid.cells[{i}]: expected two positive ints, got {cell!r}")
        if self.runs < 10:
            raise ConfigError(f"grid.runs: expected at least 10, got {self.runs}")
        for i, kind in enumerate(self.kinds):
            if kind not in EXTRACTOR_KINDS:
                raise ConfigError(
                    f"grid.kinds[{i}]: unknown extractor kind {kind!r}; one of {EXTRACTOR_KINDS}"
                )
        if self.seed < 0:
            raise ConfigError(f"grid.seed: expected a non-negative int, got {self.seed}")


@dataclasses.dataclass(frozen=True)
class AnalyzeInputs:
    """An ``analyze`` inputs file: a checkpoint, a task file and the study size."""

    checkpoint: str
    task: str
    function_id: int
    runs: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError(f"inputs.runs: expected a positive int, got {self.runs}")


# --- observation file format -----------------------------------------------------


def parse_observation_file(path) -> list[Observation]:
    """Observation CSV: a ``# d=.. lb=.. ub=..`` header line, then columns
    obs,x_1..x_d,y.  Rows sharing an obs id form one population of at least
    2 rows.  d is positive, each bound holds 1 or d values, lb < ub in every
    dimension, and every number is finite."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("#"):
        raise ConfigError(f"{path}: line 1: expected '# d=.. lb=.. ub=..' header")
    meta = {}
    for token in lines[0][1:].split():
        if "=" not in token:
            raise ConfigError(f"{path}: line 1: malformed token {token!r}")
        key, val = token.split("=", 1)
        meta[key] = val
    try:
        d = int(meta["d"])
        lb = np.array([float(v) for v in meta["lb"].split(",")])
        ub = np.array([float(v) for v in meta["ub"].split(",")])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: line 1: bad header ({exc})") from exc
    if d < 1:
        raise ConfigError(f"{path}: line 1: d must be positive, got {d}")
    for name, bound in (("lb", lb), ("ub", ub)):
        if bound.size not in (1, d):
            raise ConfigError(f"{path}: line 1: {name} has {bound.size} values, expected 1 or {d}")
        if not np.all(np.isfinite(bound)):
            raise ConfigError(f"{path}: line 1: {name} is not finite")
    if np.any(lb >= ub):
        raise ConfigError(f"{path}: line 1: bounds must satisfy lb < ub in every dimension")
    expected_cols = ["obs"] + [f"x_{j}" for j in range(1, d + 1)] + ["y"]
    if len(lines) < 2 or lines[1].split(",") != expected_cols:
        raise ConfigError(
            f"{path}: line 2: expected header {','.join(expected_cols)}"
        )
    groups: dict[int, list[list[float]]] = {}
    first_line: dict[int, int] = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != d + 2:
            raise ConfigError(f"{path}: line {lineno}: expected {d + 2} columns")
        try:
            obs_id = int(cells[0])
            values = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{path}: line {lineno}: expected finite values")
        first_line.setdefault(obs_id, lineno)
        groups.setdefault(obs_id, []).append(values)
    observations = []
    for obs_id, rows in groups.items():
        if len(rows) < 2:
            line = first_line[obs_id]
            raise ConfigError(f"{path}: line {line}: observation {obs_id} needs at least 2 candidates")
        rows = np.asarray(rows)
        observations.append(
            Observation(X=rows[:, :d], y=rows[:, d], lb=lb, ub=ub)
        )
    return observations


# --- commands ---------------------------------------------------------------------


def _run_directory(args, seed: int) -> Path:
    if args.run_dir:
        run_dir = Path(args.run_dir)
    else:
        root = Path(args.outdir or os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run_dir = root / f"run-{stamp}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def cmd_train(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    run = load_train_config(args.config)
    if args.resume:
        run_dir = Path(args.resume)
        if not run_dir.exists():
            raise ConfigError(f"resume directory {run_dir} does not exist")
        resume_checkpoint(run, run_dir)  # refuse before config.json is rewritten
    else:
        run_dir = _run_directory(args, run.seed)
    config_text = json.dumps(dataclasses.asdict(run), indent=1, sort_keys=True)
    write_atomic(run_dir / "config.json", config_text)
    result = train(run, run_dir, jobs=args.jobs, resume=bool(args.resume))
    print(f"run directory: {result.outdir}")
    print(f"best fitness {result.fitness:.6f} at generation {result.generation}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.q < 1:
        raise ConfigError(f"--q must be at least 1, got {args.q}")
    if args.epochs < 0:
        raise ConfigError(f"--epochs must be at least 0, got {args.epochs}")
    config, theta, provenance = load_checkpoint(args.checkpoint)
    task = load_task_config(args.task)
    if args.mode == "zero_shot":
        report = zero_shot(theta, config, task, args.q, args.seed)
    else:
        report = fine_tune(
            theta, config, task, args.q, args.seed, epochs=args.epochs
        )
    payload = {
        "mode": report.mode,
        "task": task.id,
        "upsilon": report.upsilon,
        "per_problem": {str(k): v for k, v in report.per_problem.items()},
        "z_table": {str(k): v for k, v in report.z_table.items()},
        "trajectory": [
            {"epoch": e, "upsilon": u, "best_so_far": b}
            for e, u, b in report.trajectory
        ],
        "checkpoint_provenance": provenance,
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.output:
        write_atomic(args.output, text)
    print(text)
    return EXIT_OK


def cmd_extract(args) -> int:
    observations = parse_observation_file(args.input)
    if args.extractor == "ela":
        extractor = ElaExtractor()
    elif args.extractor == "handcrafted":
        extractor = HandcraftedExtractor()
    else:
        config, theta, _ = load_checkpoint(args.extractor)
        extractor = NeuralExtractor(theta, config)
    rows = [dict(zip(extractor.names, extractor.extract(obs)[1])) for obs in observations]
    write_atomic(args.output, features_to_csv(rows, extractor.names))
    print(f"wrote {len(rows)} feature rows to {args.output}")
    return EXIT_OK


def cmd_bench(args) -> int:
    grid = _load(args.grid, BenchGrid, "grid")
    theta = cfg = None
    if grid.checkpoint:
        cfg, theta, _ = load_checkpoint(grid.checkpoint)
    rows = bench_grid(
        cells=grid.cells,
        runs=grid.runs,
        kinds=grid.kinds,
        analyzer_cfg=cfg,
        theta=theta,
        seed=grid.seed,
    )
    out = Path(args.output)
    write_atomic(out, timings_to_table_csv(rows))
    detail = out.with_name(out.stem + "_detail.csv")
    write_atomic(detail, timings_to_csv(rows))
    print(f"wrote timing table to {out} (per-run detail in {detail})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    inputs = _load(args.inputs, AnalyzeInputs, "inputs")
    config, theta, _ = load_checkpoint(inputs.checkpoint)
    task = load_task_config(inputs.task)
    check_functions([inputs.function_id], task.dimension, "inputs.function_id")
    study = exploration_study(
        task,
        theta,
        config,
        function_id=inputs.function_id,
        runs=inputs.runs,
        seed=inputs.seed,
    )
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.kind == "rq3":
        for name, points in (("neural", study.neural_projection), ("ela", study.ela_projection)):
            write_atomic(outdir / f"{name}_points.csv", point_cloud_csv(points, study.labels))
        print(f"wrote labeled point clouds to {outdir}")
    else:
        matrix = pearson_matrix(study.ela, study.neural)
        write_atomic(outdir / "correlation.csv", correlation_to_csv(matrix))
        counts = csv_text(
            ["feature", *matrix.col_names],
            ([name, *row] for name, row in zip(matrix.row_names, matrix.counts)),
        )
        write_atomic(outdir / "correlation_counts.csv", counts)
        strong = strong_pairs(matrix)
        print(
            f"wrote correlation matrix to {outdir} "
            f"({len(strong)} strongly correlated pairs at |r| >= 0.6)"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popscape",
        description="Learned landscape features for meta-black-box optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the outer neuroevolution loop")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="existing run directory")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--outdir", default=None, help="output root (default $%s or ./runs)" % OUTPUT_ROOT_ENV)
    p.add_argument("--run-dir", default=None, help="exact run directory (overrides --outdir)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="zero-shot or fine-tune a checkpoint on a task")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--mode", choices=("zero_shot", "fine_tune"), required=True)
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("extract", help="features from an observation file")
    p.add_argument(
        "--extractor",
        required=True,
        help="checkpoint path, or one of: ela, handcrafted",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("bench", help="wall-time benchmark over an (m, d) grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("analyze", help="exploration study or feature correlation")
    p.add_argument("--kind", choices=("rq3", "correlation"), required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
