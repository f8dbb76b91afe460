"""Outside-in layer tracing for the astro benchmark.

Wraps public functions of the astro modules with span recorders at run time,
without touching the package source. This works because callers reach these
functions through module or class attributes (``flowgen.sample_clip``,
``tg.backward``, ``AdamW.step``, ...), so replacing the attribute intercepts
every call. A target that no longer exists is reported as missing instead of
failing the run; a target that exists but was never called reports zero.

Each span records its name, start, end, parent span and the run it belongs
to. Spans stay in memory until the benchmark writes them out. Self time is a
span's duration minus the durations of its direct children; tracing is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from contextlib import contextmanager

import numpy as np

# (span name, "module:attribute path") for every wrapped function.
TARGETS = (
    ("cli.build_world", "cli:build_world"),
    ("flowgen.pretrain_base", "flowgen:pretrain_base"),
    ("flowgen.sample_batch", "flowgen:TrajectoryCorpus.sample_batch"),
    ("flowgen.forward", "flowgen:predict_clean_batch"),
    ("flowgen.sample_clip", "flowgen:sample_clip"),
    ("streamctx.group_rollout", "streamctx:group_rollout"),
    ("streamctx.push_clip", "streamctx:push_clip"),
    ("longtune.train_window_epoch", "longtune:train_window_epoch"),
    ("longtune.rollout_prefix", "longtune:rollout_prefix"),
    ("longtune.window_rollout", "longtune:window_rollout"),
    ("rewardlab.eval_rewards", "rewardlab:eval_rewards"),
    ("nftcore.train_epoch", "nftcore:train_epoch"),
    ("nftcore.score_group", "nftcore:score_group"),
    ("nftcore.build_group_loss", "nftcore:build_group_loss"),
    ("nftcore.optimize_group", "nftcore:optimize_group"),
    ("nftcore.ema_update", "nftcore:ema_update"),
    ("tensorgrad.backward", "tensorgrad:backward"),
    ("tensorgrad.global_norm", "tensorgrad:global_norm"),
    ("tensorgrad.clip_global_norm", "tensorgrad:clip_global_norm"),
    ("tensorgrad.adamw", "tensorgrad:AdamW.step"),
    ("runio.log_metrics", "runio:log_metrics"),
    ("runio.save_checkpoint", "runio:save_checkpoint"),
)

# Spans that open a phase; every span below one of them belongs to it.
PHASE_ROOTS = {
    "flowgen.pretrain_base": "pretrain",
    "nftcore.train_epoch": "epoch",
    "longtune.train_window_epoch": "epoch",
}

# Span fields, stored as lists for speed: name, parent, start, end, child
# time, phase, run, count.
NAME, PARENT, START, END, CHILD, PHASE, RUN, COUNT = range(8)


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _grad_norm(grads) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


# Per-span counts taken from a call's arguments and result, outside the timed
# interval: span name -> (metric the count feeds, count function). A counter
# that fails (say, after a signature change) marks its metric missing rather
# than failing the run.
COUNTERS = {
    "flowgen.forward": ("flowgen.forward.rows_per_call",
                        lambda a, k, r: np.shape(_arg(a, k, 1, "xt_flat"))[0]),
    "rewardlab.eval_rewards": ("rewardlab.eval_rewards.candidates",
                               lambda a, k, r: len(_arg(a, k, 0, "clips"))),
    "nftcore.build_group_loss": ("nftcore.graph_nodes", lambda a, k, r: len(r[0])),
    "tensorgrad.clip_global_norm": ("tensorgrad.clip_fraction", lambda a, k, r: int(
        _grad_norm(_arg(a, k, 0, "grads")) > _arg(a, k, 1, "max_norm"))),
    "runio.save_checkpoint": ("runio.checkpoint_bytes",
                              lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
}


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = -1
        self.missing: set[str] = set()  # targets that no longer exist
        self.missing_counts: set[str] = set()  # metrics whose counter failed
        self.nonfinite = 0
        self._seen_errors: set[int] = set()
        self._nonfinite_type = package.tensorgrad.NonFiniteError

    def _resolve(self, path: str):
        module_name, _, attr_path = path.partition(":")
        owner = getattr(self.package, module_name, None)
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return None, attr
        return owner, attr

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        phase_root = PHASE_ROOTS.get(name)
        counted_metric, counter = COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            phase = phase_root or (spans[parent][PHASE] if parent >= 0 else None)
            idx = len(spans)
            span = [name, parent, 0.0, 0.0, 0.0, phase, self.run, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except self._nonfinite_type as err:
                if id(err) not in self._seen_errors:
                    self._seen_errors.add(id(err))
                    self.nonfinite += 1
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]
            if counter is not None:
                try:
                    span[COUNT] = counter(args, kwargs, result)
                except Exception:  # noqa: BLE001 - a broken counter must not stop the run
                    self.missing_counts.add(counted_metric)
            return result

        return traced

    @contextmanager
    def installed(self, run: int):
        """Patch every target for one traced run; restore the originals after."""
        self.run = run
        restore = []
        try:
            for name, path in TARGETS:
                owner, attr = self._resolve(path)
                if owner is None:
                    self.missing.add(name)
                    continue
                original = owner.__dict__.get(attr, getattr(owner, attr))
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
            self.stack.clear()

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines: run, id, name, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"run": s[RUN], "id": i, "name": s[NAME],
                                     "parent": s[PARENT], "start": s[START],
                                     "end": s[END]}) + "\n")


def _stats(spans, phase: str):
    """name -> [calls, self seconds, count total] over spans of one phase."""
    out: dict[str, list] = {}
    for s in spans:
        if s[PHASE] != phase:
            continue
        row = out.setdefault(s[NAME], [0, 0.0, 0])
        row[0] += 1
        row[1] += (s[END] - s[START]) - s[CHILD]
        if s[COUNT] is not None:
            row[2] += s[COUNT]
    return out


# Per-layer metrics: name -> (unit, better). Values come from layer_metrics.
LAYER_METRICS = {
    "flowgen.forward.calls": ("count", "lower"),
    "flowgen.forward.rows_per_call": ("rows", "higher"),
    "flowgen.forward.ms": ("ms", "lower"),
    "flowgen.sample_clip.ms": ("ms", "lower"),
    "flowgen.pretrain.step_ms": ("ms/step", "lower"),
    "flowgen.pretrain.sample_batch_ms": ("ms/step", "lower"),
    "flowgen.pretrain.forward_ms": ("ms/step", "lower"),
    "flowgen.pretrain.backward_ms": ("ms/step", "lower"),
    "flowgen.pretrain.adamw_ms": ("ms/step", "lower"),
    "streamctx.group_rollout.ms": ("ms", "lower"),
    "streamctx.push_clip.calls": ("count", "lower"),
    "streamctx.push_clip.ms": ("ms", "lower"),
    "longtune.rollout_prefix.ms": ("ms", "lower"),
    "longtune.prefix_clips": ("count", "lower"),
    "longtune.window_rollout.ms": ("ms", "lower"),
    "rewardlab.eval_rewards.ms": ("ms", "lower"),
    "rewardlab.eval_rewards.candidates": ("count", "lower"),
    "rewardlab.mask_fraction": ("ratio", "lower"),
    "nftcore.score_group.ms": ("ms", "lower"),
    "nftcore.build_group_loss.ms": ("ms", "lower"),
    "nftcore.graph_nodes": ("count", "lower"),
    "nftcore.optimize_group.ms": ("ms", "lower"),
    "nftcore.ema_update.ms": ("ms", "lower"),
    "nftcore.train_epoch.ms": ("ms", "lower"),
    "tensorgrad.backward.ms": ("ms", "lower"),
    "tensorgrad.adamw.ms": ("ms", "lower"),
    "tensorgrad.global_norm.calls_per_step": ("count", "lower"),
    "tensorgrad.global_norm.ms": ("ms", "lower"),
    "tensorgrad.clip_global_norm.ms": ("ms", "lower"),
    "tensorgrad.clip_fraction": ("ratio", "lower"),
    "tensorgrad.nonfinite": ("count", "lower"),
    "runio.log_metrics.ms": ("ms", "lower"),
    "runio.save_checkpoint.ms": ("ms", "lower"),
    "runio.checkpoint_bytes": ("bytes", "lower"),
    "cli.build_world.ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.missing": ("count", "lower"),
}

# Metrics each target feeds; a missing target marks these metrics missing.
FEEDS = {
    "cli.build_world": ["cli.build_world.ms"],
    "flowgen.pretrain_base": ["flowgen.pretrain.step_ms"],
    "flowgen.sample_batch": ["flowgen.pretrain.sample_batch_ms"],
    "flowgen.forward": ["flowgen.forward.calls", "flowgen.forward.rows_per_call",
                        "flowgen.forward.ms", "flowgen.pretrain.forward_ms"],
    "flowgen.sample_clip": ["flowgen.sample_clip.ms", "longtune.prefix_clips"],
    "streamctx.group_rollout": ["streamctx.group_rollout.ms"],
    "streamctx.push_clip": ["streamctx.push_clip.calls", "streamctx.push_clip.ms"],
    "longtune.rollout_prefix": ["longtune.rollout_prefix.ms", "longtune.prefix_clips"],
    "longtune.window_rollout": ["longtune.window_rollout.ms"],
    "rewardlab.eval_rewards": ["rewardlab.eval_rewards.ms",
                               "rewardlab.eval_rewards.candidates"],
    "nftcore.train_epoch": ["nftcore.train_epoch.ms", "trace.coverage"],
    "nftcore.score_group": ["nftcore.score_group.ms"],
    "nftcore.build_group_loss": ["nftcore.build_group_loss.ms", "nftcore.graph_nodes"],
    "nftcore.optimize_group": ["nftcore.optimize_group.ms",
                               "tensorgrad.global_norm.calls_per_step"],
    "nftcore.ema_update": ["nftcore.ema_update.ms"],
    "tensorgrad.backward": ["tensorgrad.backward.ms", "flowgen.pretrain.backward_ms"],
    "tensorgrad.global_norm": ["tensorgrad.global_norm.ms",
                               "tensorgrad.global_norm.calls_per_step"],
    "tensorgrad.clip_global_norm": ["tensorgrad.clip_global_norm.ms",
                                    "tensorgrad.clip_fraction"],
    "tensorgrad.adamw": ["tensorgrad.adamw.ms", "flowgen.pretrain.adamw_ms"],
    "runio.log_metrics": ["runio.log_metrics.ms"],
    "runio.save_checkpoint": ["runio.save_checkpoint.ms", "runio.checkpoint_bytes"],
}


def layer_metrics(tracer: Tracer, epochs: int, pretrain_steps: int, runs: int,
                  epoch_wall_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over every traced run, plus the names marked missing.

    Epoch metrics are per epoch (mean over all traced epochs), pretraining
    metrics per step, and build_world/checkpoint metrics per run.
    epoch_wall_s is the traced runs' summed epoch wall time, taken from the
    per-epoch callbacks; trace.coverage is the share of it spent in spans
    below the epoch root, so it excludes the epoch functions' own bodies and
    the untraced loop around them. trace.overhead_frac is filled in by the
    caller, which also times untraced runs.
    """
    ep = _stats(tracer.spans, "epoch")
    pre = _stats(tracer.spans, "pretrain")
    top = _stats(tracer.spans, None)

    def calls(table, name):
        return table.get(name, [0, 0.0, 0])[0]

    def ms(table, name, per):
        return 1000.0 * table.get(name, [0, 0.0, 0])[1] / max(per, 1)

    def count(table, name):
        return table.get(name, [0, 0.0, 0])[2]

    steps = max(pretrain_steps, 1)
    forward_calls = calls(ep, "flowgen.forward")
    opt_steps = calls(ep, "nftcore.optimize_group")
    clip_calls = calls(ep, "tensorgrad.clip_global_norm")
    prefix_clips = sum(1 for s in tracer.spans if s[NAME] == "flowgen.sample_clip"
                       and s[PARENT] >= 0
                       and tracer.spans[s[PARENT]][NAME] == "longtune.rollout_prefix")
    roots = {"nftcore.train_epoch", "longtune.train_window_epoch"}
    below_root = sum(row[1] for name, row in ep.items() if name not in roots)
    # log_metrics runs between epochs, outside the epoch root, but is part of
    # the epoch wall time the user pays.
    below_root += top.get("runio.log_metrics", [0, 0.0, 0])[1]

    values = {
        "flowgen.forward.calls": forward_calls / max(epochs, 1),
        "flowgen.forward.rows_per_call": count(ep, "flowgen.forward") / max(forward_calls, 1),
        "flowgen.forward.ms": ms(ep, "flowgen.forward", epochs),
        "flowgen.sample_clip.ms": ms(ep, "flowgen.sample_clip", epochs),
        # Every pretraining span lies inside pretrain_base, so their self
        # times add up to its whole duration.
        "flowgen.pretrain.step_ms": sum(ms(pre, n, steps) for n in pre),
        "flowgen.pretrain.sample_batch_ms": ms(pre, "flowgen.sample_batch", steps),
        "flowgen.pretrain.forward_ms": ms(pre, "flowgen.forward", steps),
        "flowgen.pretrain.backward_ms": ms(pre, "tensorgrad.backward", steps),
        "flowgen.pretrain.adamw_ms": ms(pre, "tensorgrad.adamw", steps),
        "streamctx.group_rollout.ms": ms(ep, "streamctx.group_rollout", epochs),
        "streamctx.push_clip.calls": calls(ep, "streamctx.push_clip") / max(epochs, 1),
        "streamctx.push_clip.ms": ms(ep, "streamctx.push_clip", epochs),
        "longtune.rollout_prefix.ms": ms(ep, "longtune.rollout_prefix", epochs),
        "longtune.prefix_clips": prefix_clips / max(epochs, 1),
        "longtune.window_rollout.ms": ms(ep, "longtune.window_rollout", epochs),
        "rewardlab.eval_rewards.ms": ms(ep, "rewardlab.eval_rewards", epochs),
        "rewardlab.eval_rewards.candidates":
            count(ep, "rewardlab.eval_rewards") / max(epochs, 1),
        "nftcore.score_group.ms": ms(ep, "nftcore.score_group", epochs),
        "nftcore.build_group_loss.ms": ms(ep, "nftcore.build_group_loss", epochs),
        "nftcore.graph_nodes": count(ep, "nftcore.build_group_loss")
        / max(calls(ep, "nftcore.build_group_loss"), 1),
        "nftcore.optimize_group.ms": ms(ep, "nftcore.optimize_group", epochs),
        "nftcore.ema_update.ms": ms(ep, "nftcore.ema_update", epochs),
        "nftcore.train_epoch.ms": ms(ep, "nftcore.train_epoch", epochs),
        "tensorgrad.backward.ms": ms(ep, "tensorgrad.backward", epochs),
        "tensorgrad.adamw.ms": ms(ep, "tensorgrad.adamw", epochs),
        "tensorgrad.global_norm.calls_per_step":
            calls(ep, "tensorgrad.global_norm") / max(opt_steps, 1),
        "tensorgrad.global_norm.ms": ms(ep, "tensorgrad.global_norm", epochs),
        "tensorgrad.clip_global_norm.ms": ms(ep, "tensorgrad.clip_global_norm", epochs),
        "tensorgrad.clip_fraction": count(ep, "tensorgrad.clip_global_norm")
        / max(clip_calls, 1),
        "tensorgrad.nonfinite": tracer.nonfinite / max(epochs, 1),
        "runio.log_metrics.ms": ms(top, "runio.log_metrics", epochs),
        "runio.save_checkpoint.ms": ms(top, "runio.save_checkpoint", runs),
        "runio.checkpoint_bytes": count(top, "runio.save_checkpoint") / max(runs, 1),
        "cli.build_world.ms": ms(top, "cli.build_world", runs),
        "trace.coverage": below_root / epoch_wall_s if epoch_wall_s > 0 else 0.0,
    }
    missing = sorted({m for t in tracer.missing for m in FEEDS.get(t, [t])}
                     | tracer.missing_counts)
    for name in missing:
        if name in values:
            values[name] = 0.0
    values["trace.missing"] = float(len(missing))
    return values, missing
