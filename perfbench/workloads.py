"""The benchmark workloads: desk training and large-population extraction.

Each workload calls popscape's public API from one process and waits for
every result before issuing the next call (a closed loop with one caller).
Functions return a dict with the result fields run.py prints plus
human-readable `notes`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from popscape import analysis, cli, trainer
from popscape.analyzer import AnalyzerConfig, param_count
from popscape.ela import FULL_SUITE_FEATURE_NAMES
from popscape.utils import derive_seed

import reference
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk.json"
OUT = ROOT / ".bench_out"  # run directories, and serial histories kept between runs
EXTRACT_SETUPS = 3  # extract's setup_s is the median over this many set-ups
MIN_GENERATIONS = 2  # gen_s is a median of at least this many generations
# Per-layer metrics of the set-up phase; every other one covers the work
# being measured.
SETUP_METRICS = (
    "trainer.compute_baselines.busy_s",
    "ela.handcrafted_state.calls",
    "ela.handcrafted_state.busy_s",
)


def src_digest() -> str:
    """Digest of popscape's sources, so nothing kept between runs outlives them."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "popscape").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(setup_s, round_s, rss_mb):
    """The end-to-end metrics every workload reports.  A round is the
    workload's unit of repeated work: one outer generation on desk, one call
    at each extraction cell on extract."""
    return {
        "setup_s": _metric(setup_s, "s"),
        "round_s": _metric(round_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


class Desk:
    """`configs/desk.json` with the workload seed, trained one generation per
    `train` call (each later call resumes), so every call's wall time is one
    generation including its checkpoint and history writes."""

    def __init__(self, seed: int, jobs: int, scratch: Path):
        self.jobs, self.scratch = jobs, scratch
        self.config = json.loads(DESK_CONFIG.read_text())
        self.config["seed"] = seed
        self.notes = []

    def fresh_run(self, baselines_from=None):
        """A new run directory holding the generated config; optionally seeded
        with baselines computed earlier in this process for the same config."""
        outdir = Path(tempfile.mkdtemp(prefix="desk-", dir=self.scratch))
        (outdir / "config.json").write_text(json.dumps(self.config, indent=1))
        run = cli.load_train_config(outdir / "config.json")
        if baselines_from is not None:
            shutil.copy(baselines_from / "baselines.json", outdir / "baselines.json")
        return run, outdir

    def setup(self):
        """Config generation and baselines in a fresh run directory."""
        t0 = time.perf_counter()
        run, outdir = self.fresh_run()
        trainer.compute_baselines(
            run.tasks, run.q_runs, run.seed, cache_path=outdir / "baselines.json"
        )
        return run, outdir, time.perf_counter() - t0

    def generation(self, run, outdir, gen, jobs):
        t0 = time.perf_counter()
        result = trainer.train(
            dataclasses.replace(run, max_generations=gen + 1), outdir, jobs=jobs,
            resume=gen > 0,
        )
        return result, time.perf_counter() - t0

    def pipelines_per_generation(self, run):
        return run.outer_population * len(run.tasks)

    def closed_form_fe(self, run):
        """(meta-train, test) FE per generation: every episode spends the
        task's horizon x population evaluations."""
        n = run.outer_population
        fe_meta = n * sum(
            t.inner_epochs * t.inner_population * t.episodes_per_eval
            * t.horizon * t.population_size
            for t in run.tasks
        )
        fe_test = n * sum(run.q_runs * len(t.test_functions) * t.budget for t in run.tasks)
        return fe_meta, fe_test

    def matches_serial(self, outdir):
        """Whether this run's history.csv equals the serial one of the same
        config on the generations both have.  The serial history is the one
        an earlier desk run in this checkout kept; without one, desk_serial
        keeps its own, and a --jobs run makes generation 0 with jobs=1 in a
        fresh directory and keeps that."""
        kept = OUT / f"serial-history-{self.config['seed']}-{src_digest()}.csv"
        ours = (outdir / "history.csv").read_text()
        if kept.exists():
            serial = kept.read_text()
        else:
            if self.jobs == 1:
                serial = ours
            else:
                ref_run, ref_dir = self.fresh_run(baselines_from=outdir)
                self.generation(ref_run, ref_dir, 0, 1)
                serial = (ref_dir / "history.csv").read_text()
            partial = kept.with_suffix(".tmp")
            partial.write_text(serial)
            os.replace(partial, kept)  # a killed run leaves no partial history
        ours, serial = ours.splitlines(), serial.splitlines()
        n = min(len(ours), len(serial))
        return ours[:n] == serial[:n]

    def check_history(self, run, result):
        """Failed pipelines in a train result, and whether every generation
        spent the closed-form FE."""
        expected = self.closed_form_fe(run)
        failed, ok = 0, True
        for rec in result.history:
            # A candidate's fitness is the mean over its task pipelines; a
            # non-finite mean counts all of them as failed.
            failed += len(run.tasks) * sum(not math.isfinite(v) for v in rec.fitness)
            if (rec.fe_meta_train, rec.fe_test) != expected:
                self.notes.append(
                    f"generation {rec.generation}: FE {rec.fe_meta_train}/"
                    f"{rec.fe_test}, closed form {expected[0]}/{expected[1]}"
                )
                ok = False
        return failed, ok


def desk(seed, seconds, trace, jobs, scratch):
    bench = Desk(seed, jobs, scratch)
    if trace:
        return _desk_traced(bench)
    run, outdir, elapsed = bench.setup()
    setups, baseline_texts = [elapsed], {(outdir / "baselines.json").read_text()}

    def another_setup():
        # Set-ups in fresh directories between generations: the samples span
        # the run, as the generations do, instead of one stretch of seconds.
        _, extra_dir, elapsed = bench.setup()
        setups.append(elapsed)
        baseline_texts.add((extra_dir / "baselines.json").read_text())

    per_gen = bench.pipelines_per_generation(run)
    gen_times, attempted, failed, result, correct = [], 0, 0, None, True
    start = time.perf_counter()
    while len(gen_times) < run.max_generations:
        attempted += per_gen
        try:
            result, elapsed = bench.generation(run, outdir, len(gen_times), jobs)
        except Exception:
            traceback.print_exc()
            failed += per_gen
            correct = False
            break
        gen_times.append(elapsed)
        another_setup()
        if time.perf_counter() - start >= seconds and len(gen_times) >= MIN_GENERATIONS:
            break
    rss = peak_rss_mb()
    if len(baseline_texts) != 1:
        bench.notes.append("baselines differ between set-ups of the same config")
        correct = False
    if result is not None:
        bad, fe_ok = bench.check_history(run, result)
        failed += bad
        correct = correct and fe_ok and len(result.history) == len(gen_times)
    if result is not None and not bench.matches_serial(outdir):
        bench.notes.append("history.csv differs from the serial run's")
        correct = False
    if not gen_times:
        return dict(correct=False, attempted=attempted, failed=failed, metrics={},
                    notes=bench.notes)
    gen_s = float(np.median(gen_times))
    bench.notes.append(f"gen_s samples: {len(gen_times)} generations {gen_times}")
    bench.notes.append(f"gen_s = {gen_s!r} s (reported as round_s)")
    bench.notes.append(f"setup_s samples: {len(setups)} {setups}")
    fe = sum(bench.closed_form_fe(run))
    bench.notes.append(f"derived fe_per_s = {fe} FE / gen_s = {fe / gen_s:.1f}")
    return dict(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics=_end_to_end(np.median(setups), gen_s, rss),
        notes=bench.notes,
    )


def _desk_traced(bench):
    """Set-up traced once, then generation 0 untraced and traced in two fresh
    run directories; both must write the same history."""
    setup_tracer, gen_tracer = Tracer(), Tracer()
    with setup_tracer.install():
        run, outdir, _ = bench.setup()
    traced_run, traced_dir = bench.fresh_run(baselines_from=outdir)
    _, untraced_s = bench.generation(run, outdir, 0, bench.jobs)
    with gen_tracer.install():
        result, traced_s = bench.generation(traced_run, traced_dir, 0, bench.jobs)
    correct = (outdir / "history.csv").read_text() == (
        traced_dir / "history.csv"
    ).read_text()
    if not correct:
        bench.notes.append("tracing changed history.csv")
    failed, fe_ok = bench.check_history(run, result)
    extra = gen_tracer.accounting(traced_s, untraced_s)
    extra.update({k: setup_tracer.stats.get(k, 0.0) for k in SETUP_METRICS})
    return dict(
        correct=correct and fe_ok,
        attempted=2 * bench.pipelines_per_generation(run),
        failed=failed,
        metrics=gen_tracer.metrics(extra),
        notes=bench.notes,
    )


# --- extraction ------------------------------------------------------------------

# (extractor kind, m, d) and the share of the run each cell is timed for.
# round_s is the sum of the per-cell medians; each cell's median and the p90
# of the smaller encoder cells are printed with their sample counts.
CELLS = (
    ("neural", 1000, 10, 0.15),
    ("neural", 100, 100, 0.05),
    ("neural", 1000, 100, 0.60),
    ("ela", 1000, 10, 0.10),
    ("ela", 100, 100, 0.10),
)
OBSERVATIONS_PER_CELL = 2
MIN_SAMPLES = 3
P90_CELLS = (("neural", 1000, 10), ("neural", 100, 100))
TRACED_CALLS = {(1000, 100): 1}  # every other cell: 5 traced calls


def _cell_name(kind, m, d):
    return f"{'neural_s' if kind == 'neural' else 'ela_s'}.m{m}_d{d}"


class Extract:
    """Extractors from `analysis.make_bench_extractor`, weights and
    observations generated from the workload seed."""

    def __init__(self, seed):
        self.seed = seed
        self.cfg = AnalyzerConfig()
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "bench-theta")))
        self.theta = rng.normal(0.0, 0.2, param_count(self.cfg))
        self.first = {}  # (cell, observation index) -> first output

    def setup(self):
        t0 = time.perf_counter()
        self.fns = {
            kind: analysis.make_bench_extractor(kind, self.cfg, self.theta)
            for kind in ("neural", "ela")
        }
        self.obs = {
            cell: analysis.random_observations(
                cell[1], cell[2], OBSERVATIONS_PER_CELL,
                seed=derive_seed(self.seed, "bench-obs", cell[1], cell[2]),
            )
            for cell in CELLS
        }
        self.first = {}
        for cell in CELLS:
            self.first[cell, 0] = self.fns[cell[0]](self.obs[cell][0])
        return time.perf_counter() - t0

    def call(self, cell, index):
        """Time one call; True when its output has the right shape, is finite
        and repeats the first output on the same observation."""
        kind = cell[0]
        t0 = time.perf_counter()
        out = self.fns[kind](self.obs[cell][index])
        elapsed = time.perf_counter() - t0
        width = self.cfg.hidden_dim if kind == "neural" else len(FULL_SUITE_FEATURE_NAMES)
        ok = out.shape == (width,) and bool(np.all(np.isfinite(out)))
        first = self.first.setdefault((cell, index), out)
        return elapsed, ok and np.array_equal(out, first)

    def reference_misses(self):
        """(cell, observation index) pairs whose output misses the reference."""
        misses = []
        for (cell, index), out in self.first.items():
            obs = self.obs[cell][index]
            if cell[0] == "neural":
                c = self.cfg
                want = reference.neural_population(
                    obs, self.theta, c.hidden_dim, c.num_heads, c.num_layers,
                    c.ff_inner_dim,
                )
                got = out
            else:
                ref = reference.classical_subset(obs)
                want = np.array(list(ref.values()))
                got = out[[FULL_SUITE_FEATURE_NAMES.index(n) for n in ref]]
            if not np.all(np.abs(got - want) <= reference.TOLERANCE):
                misses.append((cell, index))
        return misses


def _failed_calls(bench, calls, notes):
    """Calls that failed on their own or whose observation misses the
    reference; each call counts once."""
    misses = set(bench.reference_misses())
    for cell, index in misses:
        notes.append(f"{_cell_name(*cell[:3])} observation {index} misses the reference")
    return sum(
        not ok or (cell, index) in misses for cell in CELLS for index, ok in calls[cell]
    )


def extract(seed, seconds, trace):
    bench = Extract(seed)
    notes = []
    calls = {cell: [] for cell in CELLS}  # (observation index, passed) per call
    if trace:
        bench.setup()
        plan = [
            (cell, i % OBSERVATIONS_PER_CELL)
            for cell in CELLS for i in range(TRACED_CALLS.get(cell[1:3], 5))
        ]

        def one_round():
            t0 = time.perf_counter()
            for cell, index in plan:
                calls[cell].append((index, bench.call(cell, index)[1]))
            return time.perf_counter() - t0

        untraced_s = one_round()
        tracer = Tracer()
        with tracer.install():
            traced_s = one_round()
        failed = _failed_calls(bench, calls, notes)
        return dict(
            correct=not failed,
            attempted=sum(map(len, calls.values())),
            failed=failed,
            metrics=tracer.metrics(tracer.accounting(traced_s, untraced_s)),
            notes=notes,
        )

    setups = [bench.setup() for _ in range(EXTRACT_SETUPS)]
    samples = {cell: [] for cell in CELLS}
    spent = dict.fromkeys(CELLS, 0.0)
    start = time.perf_counter()
    while True:
        # Interleave cells so each gets its share of the run; past the
        # deadline, only cells still short of MIN_SAMPLES run.
        due = CELLS if time.perf_counter() - start < seconds else [
            c for c in CELLS if len(calls[c]) < MIN_SAMPLES
        ]
        if not due:
            break
        cell = min(due, key=lambda c: spent[c] / c[3])
        index = len(calls[cell]) % OBSERVATIONS_PER_CELL
        try:
            elapsed, ok = bench.call(cell, index)
        except Exception:
            traceback.print_exc()
            calls[cell].append((index, False))
            spent[cell] += 1.0  # a failing cell still uses up its share
            continue
        calls[cell].append((index, ok))
        spent[cell] += elapsed
        samples[cell].append(elapsed)
    rss = peak_rss_mb()
    attempted = sum(map(len, calls.values()))
    failed = _failed_calls(bench, calls, notes)

    medians = {}
    for cell in CELLS:
        name, values = _cell_name(*cell[:3]), samples[cell]
        if not values:
            continue
        medians[name] = float(np.median(values))
        notes.append(f"{name}: {len(values)} samples, median {medians[name]!r} s")
        if cell[:3] in P90_CELLS:
            notes.append(f"{name}.p90 = {float(np.percentile(values, 90))!r} s")
    if "neural_s.m1000_d10" in medians and "ela_s.m1000_d10" in medians:
        ratio = medians["ela_s.m1000_d10"] / medians["neural_s.m1000_d10"]
        notes.append(
            f"derived neural_vs_classical.m1000_d10 = ela_s / neural_s = {ratio:.2f}x "
            "(acceptance criterion 6 needs >= 5x)"
        )
    notes.append(f"setup_s samples: {len(setups)} {setups}")
    if len(medians) < len(CELLS):  # a cell without a single good call has no round
        return dict(correct=False, attempted=attempted, failed=failed, metrics={},
                    notes=notes)
    return dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=_end_to_end(np.median(setups), sum(medians.values()), rss),
        notes=notes,
    )
