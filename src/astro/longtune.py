"""Streaming tuning: optimize a window of the stream, not the whole thing.

This is the one rollout path of both modes. Each epoch picks a clip-aligned
window start uniformly at random (seeded per epoch, so parallel workers
agree), rolls the behavior policy out to the window once for all prompts
together, then runs the usual group optimization on just the window's
clips. Everything before the window is detached history: plain arrays with
no graph, which condition the candidates through bounded context summaries
and carry no gradients, so the live graph never grows with the prefix
length. Short mode is the one-clip stream: its window is clip 0, with an
empty context and no prefix.
"""

from __future__ import annotations

import time

import numpy as np

from . import flowgen, nftcore, runio, streamctx
from . import rng as rngmod
from .config import RunConfig


def epoch_window(cfg: RunConfig, epoch: int) -> tuple[int, int]:
    """The epoch's shared window as (start_clip, n_clips); the start is drawn
    uniformly from [0, total_clips - window_clips] on the (seed, epoch)
    window substream, so workers agree. Short mode draws nothing: its window
    is the single clip at clip 0.
    """
    if cfg.mode == "short":
        return 0, 1
    stream = rngmod.substream(cfg.seed, rngmod.WINDOW_STREAM, epoch)
    return int(stream.integers(0, cfg.total_clips - cfg.window_clips + 1)), cfg.window_clips


def rollout_prefix(theta_old: dict[str, np.ndarray], prompts: list[flowgen.Prompt],
                   start_clip: int, cfg: RunConfig, schedule: flowgen.TimestepSchedule,
                   epoch: int) -> streamctx.ContextBatch:
    """Generate every prompt's stream up to the shared window start, under the behavior policy.

    streamctx.decode_clips decodes all prompts' prefixes together, and the
    last clip is pushed here; prompt p draws only from its own PREFIX_STREAM
    key, once, for the whole (start_clip, len(schedule), clip width) budget,
    and clip k reads its slice k. Returns the prompts' contexts as one
    batch, row p for prompt p. The batch is detached: it holds plain array
    copies and no graph. It keeps only what a summary reads, the sink and
    the newest frame, so the cost of carrying history is constant in
    start_clip. At start_clip 0 the contexts are empty and no stream is
    opened.
    """
    ctx = streamctx.ContextBatch.empty(len(prompts), cfg.sink_size, cfg.frame_dim)
    if start_clip == 0:
        return ctx
    keys = [(cfg.seed, rngmod.PREFIX_STREAM, epoch, p.pid) for p in prompts]
    noise = rngmod.normal_blocks(keys, (start_clip, len(schedule), cfg.clip_len * cfg.frame_dim))
    vecs = np.stack([p.vec for p in prompts])
    with nftcore.abort_on_nonfinite(epoch, prompts, 1):
        clips, _, ctx = streamctx.decode_clips(theta_old, ctx, vecs, schedule, noise)
    return ctx.push(clips[:, -1])


def window_rollout(theta_old: dict[str, np.ndarray], prompts: list[flowgen.Prompt],
                   n_clips: int, cfg: RunConfig, schedule: flowgen.TimestepSchedule,
                   epoch: int, prefix: streamctx.ContextBatch) -> nftcore.GroupData:
    """Branch every prompt's group at the window: each candidate extends its own context.

    prefix is the prompts' contexts at the window start, as rollout_prefix
    makes them; streamctx.group_rollout decodes the window's n_clips clips
    for all prompts' candidates at once. Returns its two stacks as the
    epoch's GroupData: every candidate's window clips and the context
    summary that conditioned each clip, in prompt order.
    """
    keys = [streamctx.group_base_key(cfg.seed, epoch, p.pid) for p in prompts]
    with nftcore.abort_on_nonfinite(epoch, prompts, cfg.group_size):
        clips, summaries = streamctx.group_rollout(theta_old, prefix, prompts, cfg.group_size,
                                                   schedule, keys, n_clips)
    return nftcore.GroupData(prompts, clips, summaries)


def train_window_epoch(run: nftcore.RunState, prompts: list[flowgen.Prompt], cfg: RunConfig,
                       schedule: flowgen.TimestepSchedule) -> runio.MetricsRecord:
    """One epoch of either mode: shared window choice, prefix and window
    rollout under theta_old, then optimization on the window's groups.
    run.timings then holds this epoch's wall seconds per phase: prefix,
    rollout (the window alone), judges, loss_inputs, loss_forward, backward,
    clip, adamw, ema, and total."""
    t_start = time.perf_counter()
    run.timings.clear()
    epoch = run.epoch
    start_clip, n_clips = epoch_window(cfg, epoch)
    theta_old = run.theta_old
    prefix = rollout_prefix(theta_old, prompts, start_clip, cfg, schedule, epoch)
    since = run.timings.lap("prefix", t_start)
    data = window_rollout(theta_old, prompts, n_clips, cfg, schedule, epoch, prefix)
    run.timings.lap("rollout", since)
    record = nftcore.train_epoch(run, data, cfg, schedule)
    record.window_start = start_clip
    run.timings["total"] = time.perf_counter() - t_start
    return record
