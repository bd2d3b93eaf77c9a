import os
import subprocess
import sys
from pathlib import Path

from popscape.es import EsVariant

ROOT = Path(__file__).resolve().parent.parent


def test_es_comparison_writes_one_trace_per_problem_and_variant(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
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
