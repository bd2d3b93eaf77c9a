"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` swaps each layer entry point for a timing wrapper in every
module namespace that calls it (``metabbo`` imports ``de_step`` by name,
``analysis`` imports ``full_suite_features`` by name, and so on) and puts the
originals back on exit, so untraced runs execute the unmodified program.

A span's busy time is its wall time; its self time excludes the spans nested
inside it, so the self times of different spans never overlap.  The
remainder accounting sums the self times that emitted metrics carry
(`REPORTED_SELF`) and leaves the rest of the traced round as the remainder.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from popscape import analysis, analyzer, ela, metabbo, optimizers, problems, trainer


def _pipeline_span(args):
    """pipeline_score(theta, analyzer_cfg, task, ...) spans, split by task."""
    return f"trainer.pipeline_score.{args[2].optimizer}"


# (span name or name function, namespaces that call the entry point, attribute).
SPANS = (
    ("problems.evaluate_batch", (problems, optimizers), "evaluate_batch"),
    ("optimizers.de_step", (optimizers, metabbo), "de_step"),
    ("optimizers.pso_step", (optimizers, metabbo), "pso_step"),
    ("analyzer.forward", (analyzer.PopulationEncoder,), "features"),
    ("analyzer.pie_normalize", (analyzer,), "pie_normalize"),
    ("analyzer.embed", (analyzer,), "embed"),
    ("analyzer.positional_encoding", (analyzer,), "positional_encoding"),
    ("analyzer.pool", (analyzer,), "ts_attn_forward"),
    ("metabbo.run_episode", (metabbo, trainer, analysis), "run_episode"),
    ("utils.array_digest", (metabbo, trainer), "array_digest"),
    ("metabbo.policy", (metabbo.MetaPolicy,), "raw_outputs"),
    ("metabbo.meta_train", (metabbo, trainer, analysis), "meta_train"),
    ("metabbo.run_test_episodes", (metabbo, trainer), "run_test_episodes"),
    ("es.inner.sample", (metabbo,), "es_sample"),
    ("es.inner.update", (metabbo,), "es_update"),
    ("es.outer.sample", (trainer,), "es_sample"),
    ("es.outer.update", (trainer,), "es_update"),
    ("trainer.compute_baselines", (trainer,), "compute_baselines"),
    ("ela.handcrafted_state", (ela, metabbo, analysis), "handcrafted_state"),
    ("ela.fdc", (ela,), "fdc_features"),
    ("ela.dispersion", (ela,), "dispersion_features"),
    ("ela.information_content", (ela,), "information_content"),
    ("ela.nbc", (ela,), "nbc_features"),
    ("ela.distribution", (ela,), "distribution_features"),
    ("ela.meta_model", (ela,), "meta_model_features"),
    ("ela.level_set", (ela,), "level_set_features"),
    ("ela.principal_component", (ela,), "principal_component_features"),
    (_pipeline_span, (trainer,), "pipeline_score"),
    ("trainer.checkpoint_io", (trainer,), "_save_trainer_checkpoint"),
    ("trainer.checkpoint_io", (trainer,), "_write_history"),
    ("trainer.checkpoint_io", (trainer,), "save_checkpoint"),
)

# Emitted per-layer metrics: (name, unit).  Missing entries read as 0, which
# is what a layer the workload never calls reports.
PER_LAYER = (
    ("problems.evaluate_batch.calls", "count"),
    ("problems.evaluate_batch.fe", "count"),
    ("problems.evaluate_batch.busy_s", "s"),
    ("optimizers.de_step.calls", "count"),
    ("optimizers.de_step.self_s", "s"),
    ("optimizers.pso_step.calls", "count"),
    ("optimizers.pso_step.self_s", "s"),
    ("optimizers.clamp_warnings", "count"),
    ("analyzer.forward.calls", "count"),
    ("analyzer.forward.busy_s", "s"),
    ("analyzer.pie_normalize.busy_s", "s"),
    ("analyzer.embed.busy_s", "s"),
    ("analyzer.positional_encoding.calls", "count"),
    ("analyzer.positional_encoding.busy_s", "s"),
    ("analyzer.pool.self_s", "s"),
    ("analyzer.cross_solution.busy_s", "s"),
    ("analyzer.cross_solution.score_bytes", "B"),
    ("analyzer.cross_dimension.busy_s", "s"),
    ("analyzer.cross_dimension.score_bytes", "B"),
    ("metabbo.run_episode.calls", "count"),
    ("metabbo.run_episode.self_s", "s"),
    ("utils.array_digest.calls", "count"),
    ("utils.array_digest.busy_s", "s"),
    ("metabbo.policy.calls", "count"),
    ("metabbo.policy.busy_s", "s"),
    ("metabbo.policy.nonfinite", "count"),
    ("metabbo.meta_train.busy_s", "s"),
    ("metabbo.run_test_episodes.busy_s", "s"),
    ("es.inner.sample_s", "s"),
    ("es.inner.update_s", "s"),
    ("es.outer.sample_s", "s"),
    ("es.outer.update_s", "s"),
    ("trainer.compute_baselines.busy_s", "s"),
    ("ela.handcrafted_state.calls", "count"),
    ("ela.handcrafted_state.busy_s", "s"),
    ("ela.fdc.busy_s", "s"),
    ("ela.dispersion.busy_s", "s"),
    ("ela.information_content.busy_s", "s"),
    ("ela.nbc.busy_s", "s"),
    ("ela.distribution.busy_s", "s"),
    ("ela.meta_model.busy_s", "s"),
    ("ela.level_set.busy_s", "s"),
    ("ela.principal_component.busy_s", "s"),
    ("ela.pairwise_distance_builds", "count"),
    ("trainer.pipeline_score.de.calls", "count"),
    ("trainer.pipeline_score.de.busy_s", "s"),
    ("trainer.pipeline_score.pso.calls", "count"),
    ("trainer.pipeline_score.pso.busy_s", "s"),
    ("trainer.checkpoint_io.busy_s", "s"),
    ("trainer.checkpoint_io.bytes", "B"),
    ("trainer.pool.wall_s", "s"),
    ("trace.round_s", "s"),
    ("trace.untraced_round_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.remainder_s", "s"),
)

# Spans whose self time an emitted metric carries: a `.self_s` metric, or the
# `.busy_s` (or alias) of a span with no traced span nested inside it.  The
# self times of the container spans (pipeline_score, meta_train,
# run_test_episodes, analyzer.forward) and of `ela.handcrafted_state` inside a
# generation are in no emitted metric, so they fall into the remainder.
REPORTED_SELF = (
    "problems.evaluate_batch",
    "optimizers.de_step",
    "optimizers.pso_step",
    "analyzer.pie_normalize",
    "analyzer.embed",
    "analyzer.positional_encoding",
    "analyzer.pool",
    "analyzer.cross_solution",
    "analyzer.cross_dimension",
    "metabbo.run_episode",
    "utils.array_digest",
    "metabbo.policy",
    "es.inner.sample",
    "es.inner.update",
    "es.outer.sample",
    "es.outer.update",
    "trainer.checkpoint_io",
    "trainer.pool",
    "ela.fdc",
    "ela.dispersion",
    "ela.information_content",
    "ela.nbc",
    "ela.distribution",
    "ela.meta_model",
    "ela.level_set",
    "ela.principal_component",
)

# Metric name -> accumulator key, where they differ.
_ALIASES = {
    "es.inner.sample_s": "es.inner.sample.busy_s",
    "es.inner.update_s": "es.inner.update.busy_s",
    "es.outer.sample_s": "es.outer.sample.busy_s",
    "es.outer.update_s": "es.outer.update.busy_s",
    "trainer.pool.wall_s": "trainer.pool.busy_s",
}


class WarningCounter(logging.Handler):
    """Counts the optimizers' clamp warnings instead of printing them."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1

    @contextmanager
    def attached(self):
        log = logging.getLogger(optimizers.__name__)
        saved = log.propagate
        log.addHandler(self)
        log.propagate = False
        try:
            yield self
        finally:
            log.removeHandler(self)
            log.propagate = saved


class Tracer:
    """Accumulates busy/self seconds and counts per span name."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._stack = []  # per open span: seconds covered by its children
        self._attn_calls = 0  # attn_block calls within the current forward

    def _close(self, name, t0, child_s):
        dt = time.perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        s = self.stats
        s[name + ".calls"] += 1
        s[name + ".busy_s"] += dt
        s[name + ".self_s"] += dt - child_s

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span, t0, frame[0])
            if after is not None:
                after(args, out)
            return out

        return traced

    # --- layer-specific hooks --------------------------------------------------

    def _attn_name(self, args):
        x, num_heads = args[0], (args[2] if len(args) > 2 else 1)
        *batch, length, _ = x.shape
        stage = "cross_solution" if self._attn_calls % 2 == 0 else "cross_dimension"
        self._attn_calls += 1
        # float64 score tensor: batch x heads x L x L
        self.stats[f"analyzer.{stage}.score_bytes"] += (
            int(np.prod(batch)) * num_heads * length * length * 8
        )
        return f"analyzer.{stage}"

    def _forward_start(self, fn):
        def reset(*args, **kwargs):
            self._attn_calls = 0
            return fn(*args, **kwargs)

        return reset

    def _counted_distances(self, fn):
        def counted(*args, **kwargs):
            self.stats["ela.pairwise_distance_builds"] += 1
            return fn(*args, **kwargs)

        return counted

    def _after(self, attr):
        """Counter update run on an entry point's result, if it has one."""
        s = self.stats

        def fe(args, out):
            s["problems.evaluate_batch.fe"] += len(out)

        def nonfinite(args, out):
            s["metabbo.policy.nonfinite"] += not np.all(np.isfinite(out))

        def written(paths):
            def add(args, out):
                s["trainer.checkpoint_io.bytes"] += sum(p.stat().st_size for p in paths(args))

            return add

        return {
            "evaluate_batch": fe,
            "raw_outputs": nonfinite,
            "save_checkpoint": written(lambda a: [Path(a[0])]),
            "_save_trainer_checkpoint": written(
                lambda a: [trainer._checkpoint_path(a[0], a[5])]
            ),
            "_write_history": written(
                lambda a: [Path(a[0]) / "history.csv", Path(a[0]) / "timings.csv"]
            ),
        }.get(attr)

    def _timed_pool(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            def __enter__(self):
                self._frame = [0.0]
                tracer._stack.append(self._frame)
                self._t0 = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close("trainer.pool", self._t0, self._frame[0])

        return TimedPool

    @contextmanager
    def install(self):
        """Wrap every entry point in SPANS; restore the originals on exit."""
        saved = []

        def swap(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for name, owners, attr in SPANS:
            for owner in owners:
                wrapped = self.wrap(name, owner.__dict__[attr], self._after(attr))
                if attr == "ts_attn_forward":
                    wrapped = self._forward_start(wrapped)
                swap(owner, attr, wrapped)
        swap(analyzer, "attn_block", self.wrap(self._attn_name, analyzer.attn_block))
        swap(ela, "_pairwise_distances", self._counted_distances(ela._pairwise_distances))
        swap(trainer, "ProcessPoolExecutor", self._timed_pool())
        warnings = WarningCounter()
        try:
            with warnings.attached():
                yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.stats["optimizers.clamp_warnings"] += warnings.count

    def reported_self_s(self):
        """Seconds of self time that the emitted metrics carry."""
        return sum(self.stats.get(span + ".self_s", 0.0) for span in REPORTED_SELF)

    def accounting(self, traced_s, untraced_s):
        """The trace.* metrics of one traced round, timed against the same
        work run untraced."""
        reported = self.reported_self_s()
        return {
            "trace.round_s": traced_s,
            "trace.untraced_round_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.self_sum_s": reported,
            "trace.remainder_s": traced_s - reported,
        }

    def metrics(self, extra):
        """Every PER_LAYER metric, reading `extra` first, then the spans."""
        out = {}
        for name, unit in PER_LAYER:
            key = _ALIASES.get(name, name)
            value = extra[name] if name in extra else self.stats.get(key, 0.0)
            out[name] = {"value": float(value), "unit": unit}
        return out
