"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload desk_serial --seeds 101-110 --seconds 10 \
        --out perfbench/results/spread_desk_serial.json

Run from the repository root.  Runs `run.py` once per seed, one run after the
other, and writes for each metric its values, median, quartiles
(`statistics.quantiles(values, n=4)`) and IQR/median, with each run's wall
time and result fields.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="first-last")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs, values = [], {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **{
            k: result[k] for k in ("correct", "attempted", "failed")}})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {wall:.1f} s, " + ", ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        summary[name] = {"bound": bounds.get(name), "median": median, "q1": q1, "q3": q3,
                         "iqr_over_median": (q3 - q1) / median, "values": vals}
        print(f"{name}: median {median:.4g}, IQR/median {(q3 - q1) / median:.3f}, "
              f"bound {bounds.get(name)}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "runs": runs,
         "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
