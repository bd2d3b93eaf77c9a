"""popscape benchmark: desk training and large-population extraction.

    python3 perfbench/run.py --workload desk_serial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the repository root.  One workload prints its metrics by name and
unit, then one JSON line {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
`--workload all` runs every workload in its own process, one after the
other, and adds the derived cross-workload lines.  See perfbench/README.md.
"""

import time

STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
import shutil
import tempfile
from pathlib import Path

# Set before numpy loads; --jobs workers inherit them.  One BLAS thread per
# process.  No huge-page advice from numpy: whether a large array gets huge
# pages depends on the machine's memory state, which moved the large
# extraction timings by 10-20% from one process to the next.
SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(SETTINGS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("desk_serial", "desk_jobs2", "extract_large")


def environment(seed):
    import numpy as np
    import workloads

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a checkout without .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "settings": {var: os.environ.get(var) for var in SETTINGS},
        "git_commit": commit,
        "src_sha256": workloads.src_digest(),
    }


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import WarningCounter

    workloads.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workloads.OUT))
    warnings = WarningCounter()
    try:
        with warnings.attached():
            import_s = time.perf_counter() - STARTED
            if args.workload == "extract_large":
                result = workloads.extract(args.seed, args.seconds, args.trace)
            else:
                jobs = 2 if args.workload == "desk_jobs2" else 1
                result = workloads.desk(args.seed, args.seconds, args.trace, jobs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    # Start-up is printed, not part of setup_s: it is one noisy sample per run.
    print(f"import_s (process start to the workload call) = {import_s!r} s")
    for note in result["notes"]:
        print(note)
    print(f"optimizers.clamp_warnings (whole run) = {warnings.count}")
    print(f"error_rate = {result['failed']} / {result['attempted']} = "
          f"{result['failed'] / max(result['attempted'], 1):.6g}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if result["metrics"] and not matches_manifest(result["metrics"], args.trace):
        return 1
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] and result["metrics"] else 1


def matches_manifest(metrics, trace):
    """Whether the metrics are exactly BENCHMARK.json's list for this mode,
    each in its unit."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got == want:
        return True
    print(f"metrics differ from BENCHMARK.json: missing {sorted(want.keys() - got.keys())}, "
          f"extra {sorted(got.keys() - want.keys())}, units "
          f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}", file=sys.stderr)
    return False


def run_all(args):
    """Every workload in its own process, then the cross-workload lines."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            status = 1
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("== derived")

    def value(workload, metric):
        return results.get(workload, {}).get("metrics", {}).get(metric, {}).get("value")

    serial, jobs2 = value("desk_serial", "round_s"), value("desk_jobs2", "round_s")
    if serial and jobs2:
        print(f"scaling_efficiency = gen_s(desk_serial) / (2 * gen_s(desk_jobs2)) = "
              f"{serial:.3f} / (2 * {jobs2:.3f}) = {serial / (2 * jobs2):.3f}")
    wall = value("desk_jobs2", "trainer.pool.wall_s")
    busy = (value("desk_serial", "trainer.pipeline_score.de.busy_s") or 0.0) + (
        value("desk_serial", "trainer.pipeline_score.pso.busy_s") or 0.0
    )
    if wall and busy:
        print(f"dispatch_overhead_s = pool.wall_s(desk_jobs2) - pipeline busy(desk_serial) / 2"
              f" = {wall:.3f} - {busy:.3f} / 2 = {wall - busy / 2:.3f}")
    total = {
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}:{k}": m for w, r in results.items() for k, m in r["metrics"].items()
        },
    }
    print(json.dumps(total))
    return 0 if total["correct"] and len(results) == len(WORKLOADS) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (SRC / "popscape", ROOT / "configs" / "desk.json") if not p.exists()]
    if missing:
        print(f"run from a popscape checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
