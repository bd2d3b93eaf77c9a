"""Blocks with more than one chunk, and the classical suite, run on the
process's CPUs; their output must not depend on how many workers ran it.

Every comparison is `np.array_equal` between one worker (no thread at all)
and eight, more than most machines' cores, with the interpreter switching
threads as often as it can, so a worker reading or writing another's slices
would show.  Forwards are also compared with one chunk per stage, which
runs the plain numpy expressions instead of the chunk buffers.  Each call
runs under a timeout, so a worker that never returns fails its test instead
of hanging the suite.
"""

import subprocess
import sys
import threading

import numpy as np
import pytest

from popscape import analyzer, ela, utils
from popscape.analyzer import AnalyzerConfig, Observation, attn_block, decode_params, param_count
from popscape.ela import full_suite_features

from . import test_analyzer, test_ela
from .golden import ela_sample

TIMEOUT_S = 120


def within_timeout(fn):
    """fn's result, computed on a thread of its own that must finish within
    `TIMEOUT_S`; its exception, if it raised."""
    box = {}

    def run():
        try:
            box["out"] = fn()
        except BaseException as exc:  # handed to the test's thread
            box["exc"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), f"call did not return within {TIMEOUT_S} s"
    if "exc" in box:
        raise box["exc"]
    return box["out"]


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count `attn_block` and the suite see, and record how
    many tasks each `run_split` call got; threads switch every microsecond
    meanwhile."""
    splits = []
    split = utils.run_split

    def counted(tasks):
        splits.append(len(tasks))
        return split(tasks)

    for module in (analyzer, ela):
        monkeypatch.setattr(module, "run_split", counted)

    def set_count(n):
        for module in (analyzer, ela):
            monkeypatch.setattr(module, "cpu_workers", lambda: n)
        splits.clear()
        return splits

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield set_count
    finally:
        sys.setswitchinterval(interval)


def net_and_observation(m, d, heads=1, layers=1, scale=0.2, seed=5):
    cfg = AnalyzerConfig(num_heads=heads, num_layers=layers)
    rng = np.random.default_rng(seed)
    net = decode_params(rng.normal(0.0, scale, param_count(cfg)), cfg)
    X = rng.uniform(-5, 5, (m, d))
    return net, Observation(X=X, y=rng.normal(size=m), lb=-5.0, ub=5.0)


def features_at(workers, count, net, obs):
    splits = workers(count)
    fs = within_timeout(lambda: net.features(obs))
    return np.concatenate([fs.per_candidate.ravel(), fs.population]), list(splits)


FORWARD_CASES = {
    # (m, d, heads, layers, weight scale, EXACT_BLOCK_BYTES or None)
    "m1000_d10": (1000, 10, 1, 1, 0.2, None),
    "m100_d100": (100, 100, 1, 1, 0.2, None),
    "m1000_d100": (1000, 100, 1, 1, 0.2, None),
    "m330_d10_2heads_2layers": (330, 10, 2, 2, 0.2, None),
    # layer 0's three slices take the rank-2 tiles; at the default size they
    # form one chunk, so each runs alone here
    "m1000_d3_tiles": (1000, 3, 1, 1, 3.0, 600_000),
}
# one stage of 1000 slices of 100 x 100 scores in one chunk holds 80 MB
TOO_LARGE_FOR_ONE_CHUNK = {"m1000_d100"}


@pytest.mark.parametrize("case", list(FORWARD_CASES))
def test_forward_is_bit_identical_at_any_worker_count(monkeypatch, workers, case):
    m, d, heads, layers, scale, block_bytes = FORWARD_CASES[case]
    net, obs = net_and_observation(m, d, heads, layers, scale)
    tiles = []
    if case.endswith("tiles"):
        tiled = analyzer._tiled_rows
        monkeypatch.setattr(analyzer, "_tiled_rows", lambda *a: tiles.append(1) or tiled(*a))
    default = analyzer.EXACT_BLOCK_BYTES
    if case not in TOO_LARGE_FOR_ONE_CHUNK:
        monkeypatch.setattr(analyzer, "EXACT_BLOCK_BYTES", 1 << 62)
        one_chunk, no_split = features_at(workers, 8, net, obs)
        assert not no_split  # one chunk per stage: nothing to split
    monkeypatch.setattr(analyzer, "EXACT_BLOCK_BYTES", block_bytes or default)
    serial, no_split = features_at(workers, 1, net, obs)
    eight, splits = features_at(workers, 8, net, obs)
    assert np.array_equal(eight, serial)
    if case not in TOO_LARGE_FOR_ONE_CHUNK:
        assert np.array_equal(serial, one_chunk)
    assert set(no_split) == {1}  # one worker runs every chunk on the caller
    assert splits and all(n > 1 for n in splits)
    if case.endswith("tiles"):
        assert len(tiles) == 3 * 3  # every (slice, head) in each of three forwards


@pytest.mark.parametrize("m, d", [(1000, 10), (100, 100)])
def test_full_suite_is_bit_identical_at_any_worker_count(workers, m, d):
    X, y = ela_sample(m, d, ties=True)
    workers(1)
    serial = within_timeout(lambda: full_suite_features(X, y, -5.0, 5.0))
    splits = workers(8)
    split = within_timeout(lambda: full_suite_features(X, y, -5.0, 5.0))
    assert splits == [2]
    assert list(split) == list(serial) == list(ela.FULL_SUITE_FEATURE_NAMES)
    values = [np.array([np.nan if v is None else v for v in f.values()]) for f in (split, serial)]
    assert np.array_equal(*values, equal_nan=True)


@pytest.mark.parametrize("count", [1, 2, 8])
def test_full_suite_runs_two_fixed_lists(monkeypatch, workers, count):
    # with a second CPU, one thread computes level sets and then information
    # content, and the caller the other six groups in feature order; with
    # one, the caller computes all eight and no thread starts
    ran = []
    suite_groups = ela._suite_groups

    def recorded(name, call):
        def run():
            ran.append((name, threading.get_ident()))
            return call()

        return run

    monkeypatch.setattr(
        ela, "_suite_groups",
        lambda *a: {name: recorded(name, call) for name, call in suite_groups(*a).items()},
    )
    X, y = ela_sample(100, 10, ties=False)
    splits = workers(count)
    caller = within_timeout(lambda: [threading.get_ident(), full_suite_features(X, y)])[0]
    names = list(suite_groups(X, y, None, None))  # feature order
    here = [name for name, ident in ran if ident == caller]
    away = [(name, ident) for name, ident in ran if ident != caller]
    if count == 1:
        assert splits == [1]
        assert here == names and not away
    else:
        assert splits == [2]
        thread_groups = ["level_set", "information_content"]
        assert here == [name for name in names if name not in thread_groups]
        assert [name for name, _ in away] == thread_groups
        assert len({ident for _, ident in away}) == 1


@pytest.mark.parametrize(
    "peak_test",
    [
        test_analyzer.test_large_forward_holds_cache_sized_chunks,
        test_analyzer.test_large_forward_drops_its_embedding,
        test_analyzer.test_rank2_forward_peak_memory_no_higher_than_exact,
        test_analyzer.test_rank2_core_holds_one_tile_of_scores,
        test_ela.test_suite_holds_one_square_array,
    ],
    ids=lambda t: t.__name__,
)
def test_traced_peaks_hold_at_eight_workers(workers, peak_test):
    # the workers' chunk buffers are capped in bytes, not by the CPU count,
    # so each traced-peak bound holds as it is on a machine with eight CPUs
    splits = workers(8)
    within_timeout(peak_test)
    if peak_test is not test_analyzer.test_rank2_core_holds_one_tile_of_scores:
        assert splits and max(splits) > 1  # the measured calls did split


def test_threaded_calls_leave_no_thread_behind(workers):
    net, obs = net_and_observation(1000, 10)
    X, y = ela_sample(1000, 10, ties=False)
    before = threading.active_count()
    splits = workers(2)
    net.features(obs)
    full_suite_features(X, y)
    assert splits  # threads were started ...
    assert threading.active_count() == before  # ... and joined


def test_import_starts_no_thread():
    code = (
        "import threading, popscape, popscape.analysis, popscape.cli\n"
        "print(threading.active_count())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=TIMEOUT_S,
    )
    assert out.stdout.strip() == "1"


def test_worker_task_raises_under_callers_errstate():
    # exp(1000) overflows, which raises only where the caller's errstate
    # holds; a thread that did not copy the caller's context would warn
    def overflow():
        return np.exp(np.array([1000.0]))

    def split_under(**errstate):
        with np.errstate(**errstate):
            return utils.run_split([lambda: None, overflow])

    with pytest.raises(FloatingPointError):
        within_timeout(lambda: split_under(all="raise"))
    assert np.isinf(within_timeout(lambda: split_under(over="ignore"))[1][0])


def test_worker_chunks_raise_under_callers_errstate(workers):
    # an inf in every chunk's slices makes inf - inf in each softmax, and
    # every worker raises where the caller's errstate holds
    net, _ = net_and_observation(10, 3)
    p = net.layers[0].cross_dimension
    x = np.random.default_rng(3).normal(size=(1000, 10, 16))

    def raising(x):
        with np.errstate(all="raise"):
            return attn_block(x, p)

    splits = workers(2)
    within_timeout(lambda: raising(x.copy()))  # finite: nothing to raise
    assert splits == [2]
    x[::100] = np.inf
    with pytest.raises(FloatingPointError):
        within_timeout(lambda: raising(x))


def test_run_split_returns_in_task_order_and_joins_every_thread():
    before = threading.active_count()
    started = threading.Event()

    def waits():
        assert started.wait(TIMEOUT_S)
        return "waited"

    def fails():
        started.set()
        raise ValueError("second task")

    assert utils.run_split([lambda: "caller", lambda: 2, lambda: 3]) == ["caller", 2, 3]
    with pytest.raises(ValueError, match="second task"):
        utils.run_split([lambda: "caller", fails, waits])
    assert threading.active_count() == before
