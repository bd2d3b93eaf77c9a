#!/usr/bin/env python3
"""Desk-scale training run: two tasks (DE + PSO), ten outer generations.

Trains the population encoder by neuroevolution, then evaluates the best
weights zero-shot on a held-out DE task with noisy objectives.  Takes a few
minutes on one core; scale --jobs up on bigger machines.
"""

import argparse
import time
from pathlib import Path

from popscape.cli import load_train_config
from popscape.metabbo import TaskSpec
from popscape.problems import NoiseKind, NoiseModel
from popscape.trainer import train, zero_shot


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(Path(__file__).parent.parent / "configs" / "desk.json"))
    parser.add_argument("--outdir", default="runs/desk")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    run = load_train_config(args.config)
    started = time.time()
    result = train(run, args.outdir, jobs=args.jobs)
    print(f"trained {run.max_generations} generations in {time.time() - started:.0f}s")
    print(f"best fitness {result.fitness:.4f} (generation {result.generation})")
    print(f"artifacts in {result.outdir}")

    unseen = TaskSpec(
        id="de_noisy_unseen",
        optimizer="de",
        dimension=10,
        train_functions=(1, 17),
        test_functions=(8,),
        population_size=50,
        budget=2000,
        noise=NoiseModel(NoiseKind.GAUSSIAN_MULTIPLICATIVE, 0.05),
        inner_epochs=2,
        inner_population=4,
    )
    report = zero_shot(result.theta, run.analyzer, unseen, q_runs=3, seed=run.seed)
    print(f"zero-shot relative performance on unseen noisy task: {report.upsilon:+.3f}")
    for fid, z in report.per_problem.items():
        print(f"  problem {fid}: mean z-score {z:+.3f}")


if __name__ == "__main__":
    main()
