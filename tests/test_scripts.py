import json
import os
import re
import subprocess
import sys
from pathlib import Path

from popscape.es import EsVariant

ROOT = Path(__file__).resolve().parent.parent


def script_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))


def test_es_comparison_writes_one_trace_per_problem_and_variant(tmp_path):
    env = script_env()
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "es_comparison.py"), "--dim", "3",
         "--budget", "160", "--seeds", "1", "--outdir", str(tmp_path)],
        env=env, check=True, capture_output=True,
    )
    expected = {
        f"{problem}_{variant.value}.csv"
        for problem in ("sphere", "ellipsoid", "rosenbrock")
        for variant in EsVariant
    }
    assert {p.name for p in tmp_path.iterdir()} == expected
    for name in expected:
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert header == "generation,sigma,best_f"
        assert len(rows) == 10  # 160 evaluations / population 16


def test_desk_train_prints_the_generation_of_the_best_fitness(tmp_path):
    # the golden run's tasks: its best fitness comes in generation 0 of 2
    task = {"dimension": 3, "population_size": 6, "budget": 36,
            "inner_epochs": 1, "inner_population": 4}
    config = {
        "seed": 23, "q_runs": 2,
        "analyzer": {"hidden_dim": 4, "num_heads": 2, "num_layers": 1, "ff_inner_dim": 4},
        "outer": {"variant": "fast_cmaes", "population": 4, "max_generations": 2},
        "tasks": [
            {**task, "id": "de_golden", "optimizer": "de",
             "train_functions": [1], "test_functions": [3]},
            {**task, "id": "pso_golden", "optimizer": "pso",
             "train_functions": [2], "test_functions": [20],
             "noise": {"kind": "cauchy_additive", "level": 0.1}},
        ],
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "desk_train.py"),
         "--config", str(tmp_path / "config.json"), "--outdir", str(tmp_path / "run")],
        env=script_env(), check=True, capture_output=True, text=True,
    ).stdout
    printed = int(re.search(r"best fitness \S+ \(generation (-?\d+)\)", out).group(1))
    best = json.loads((tmp_path / "run" / "analyzer_best.json").read_text())
    last = int((tmp_path / "run" / "history.csv").read_text().splitlines()[-1].split(",")[0])
    assert printed == best["provenance"]["generation"] != last
