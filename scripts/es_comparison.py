#!/usr/bin/env python3
"""Compare the five evolution-strategy variants on standard minimization
problems and export their convergence traces as CSV."""

import argparse
from pathlib import Path

import numpy as np

from popscape.es import EsConfig, EsVariant, minimize, trace_to_csv
from popscape.problems import FUNCTIONS

PROBLEMS = {
    "sphere": FUNCTIONS[1].evaluate,
    "ellipsoid": FUNCTIONS[2].evaluate,
    "rosenbrock": FUNCTIONS[8].evaluate,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=20)
    parser.add_argument("--budget", type=int, default=40000)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--outdir", default="es_traces")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"{'problem':<12} {'variant':<12} {'median f':>12} {'evals':>8}")
    for name, fn in PROBLEMS.items():
        for variant in EsVariant:
            finals = []
            for seed in range(args.seeds):
                cfg = EsConfig(
                    variant=variant, dim=args.dim, population=16, seed=seed
                )
                result = minimize(fn, cfg, args.budget)
                finals.append(result.f)
                if seed == 0:
                    path = outdir / f"{name}_{variant.value}.csv"
                    path.write_text(trace_to_csv(result.trace))
            print(
                f"{name:<12} {variant.value:<12} "
                f"{float(np.median(finals)):>12.3e} {result.evaluations:>8}"
            )
    print(f"traces written to {outdir}/")


if __name__ == "__main__":
    main()
