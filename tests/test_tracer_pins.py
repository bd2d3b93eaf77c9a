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
