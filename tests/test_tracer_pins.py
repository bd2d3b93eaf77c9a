"""The names the benchmark tracer patches must stay where it looks for them.

``perfbench/tracing.py`` swaps every entry point in its ``SPANS`` table in
each listed namespace (``owner.__dict__[attr]``) and puts the originals back
on exit.  A module that stops importing such a name breaks only traced
benchmark runs, so this test runs the install/restore cycle on every suite
run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def pinned(tracing):
    """(owner, attribute) of every entry point the tracer swaps."""
    from popscape import analyzer, ela, trainer

    pins = [(owner, attr) for _, owners, attr in tracing.SPANS for owner in owners]
    return pins + [
        (analyzer, "attn_block"),
        (ela, "_pairwise_distances"),
        (trainer, "ProcessPoolExecutor"),
    ]


def test_every_pinned_name_exists(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in pinned(tracing)
        if attr not in owner.__dict__
    ]
    assert not missing, f"names perfbench/tracing.py patches are gone: {missing}"


def test_install_patches_and_restores_every_pin(tracing):
    pins = pinned(tracing)
    originals = [owner.__dict__[attr] for owner, attr in pins]
    with tracing.Tracer().install():
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr), original in zip(pins, originals)
        )
    assert all(
        owner.__dict__[attr] is original for (owner, attr), original in zip(pins, originals)
    )


def test_traced_train_and_extractor_run_every_hook(tracing, tmp_path):
    """Hooks read their entry points' positional arguments and results, so a
    changed signature breaks only traced runs; run a tiny traced generation
    and extractor call and check that the counters the hooks keep moved."""
    from popscape.analysis import make_bench_extractor, random_observations
    from popscape.analyzer import AnalyzerConfig
    from popscape.metabbo import TaskSpec
    from popscape.trainer import TrainingRunConfig, train

    task = TaskSpec(
        id="de_traced", optimizer="de", dimension=3,
        train_functions=(1,), test_functions=(3,),
        population_size=6, budget=12, inner_epochs=1, inner_population=4,
    )
    run = TrainingRunConfig(
        tasks=(task,),
        analyzer=AnalyzerConfig(hidden_dim=4, num_heads=1, num_layers=1, ff_inner_dim=4),
        outer_population=4,
        max_generations=1,
        q_runs=1,
        seed=3,
    )
    tracer = tracing.Tracer()
    with tracer.install():
        train(run, tmp_path / "run")
        make_bench_extractor("neural")(random_observations(8, 3, 1)[0])
    stats = tracer.stats
    assert stats["trainer.checkpoint_io.bytes"] > 0
    assert stats["problems.evaluate_batch.fe"] > 0
    assert stats["analyzer.cross_solution.score_bytes"] > 0
