"""Bounded streaming context: permanent sink frames plus a rolling recent window.

The first `sink` frames ever generated are kept for good; after that only the
most recent `window` frames survive. Pushing returns a new ContextWindow, so
group rollouts can share one frozen context without copy discipline bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flowgen
from . import rng as rngmod


@dataclass(frozen=True)
class ContextWindow:
    sink: tuple[np.ndarray, ...]
    rolling: tuple[np.ndarray, ...]
    total_generated: int
    sink_size: int
    window_size: int
    frame_dim: int

    def frame_count(self) -> int:
        return len(self.sink) + len(self.rolling)

    def frames(self) -> np.ndarray:
        """All retained frames, oldest first, as a (count, frame_dim) stack."""
        parts = list(self.sink) + list(self.rolling)
        if not parts:
            return np.zeros((0, self.frame_dim))
        return np.stack(parts)

    def summary(self) -> np.ndarray:
        """Fixed-size conditioning vector: mean sink frame, then the newest frame."""
        if self.sink:
            sink_mean = np.mean(self.sink, axis=0)
        else:
            sink_mean = np.zeros(self.frame_dim)
        if self.rolling:
            last = self.rolling[-1]
        elif self.sink:
            last = self.sink[-1]
        else:
            last = np.zeros(self.frame_dim)
        return np.concatenate([sink_mean, last])


def empty_context(sink_size: int = 3, window_size: int = 21, frame_dim: int = 8) -> ContextWindow:
    if sink_size < 0 or window_size < 1:
        raise ValueError("need sink_size >= 0 and window_size >= 1")
    return ContextWindow(sink=(), rolling=(), total_generated=0,
                         sink_size=sink_size, window_size=window_size, frame_dim=frame_dim)


def push_clip(ctx: ContextWindow, clip: np.ndarray) -> ContextWindow:
    """New context with the clip's frames appended under the eviction policy.

    Frames absorbed by the sink during warmup never enter the rolling window,
    so a frame is retained exactly once.
    """
    clip = np.asarray(clip, dtype=np.float64)
    if clip.ndim != 2 or clip.shape[1] != ctx.frame_dim:
        raise ValueError(f"clip shape {clip.shape} does not match frame_dim {ctx.frame_dim}")
    frames = [np.array(row) for row in clip]
    take = max(0, ctx.sink_size - len(ctx.sink))
    sink = ctx.sink + tuple(frames[:take])
    rolling = (ctx.rolling + tuple(frames[take:]))[-ctx.window_size:]
    return ContextWindow(sink=sink, rolling=rolling,
                         total_generated=ctx.total_generated + len(frames),
                         sink_size=ctx.sink_size, window_size=ctx.window_size,
                         frame_dim=ctx.frame_dim)


def group_base_key(seed: int, epoch: int, pid: int) -> tuple[int, ...]:
    """Base of the candidate substream keys; group_rollout appends the candidate index."""
    return (seed, rngmod.CANDIDATE_STREAM, epoch, pid)


def group_rollout(params_old: dict[str, np.ndarray], ctxs: list[ContextWindow],
                  prompts: list[flowgen.Prompt], group_size: int,
                  schedule: flowgen.TimestepSchedule, base_keys: list[tuple[int, ...]],
                  n_clips: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode n_clips clips for each of group_size candidates per prompt.

    Every candidate of prompt p starts from the frozen context ctxs[p] and
    extends its own copy, pushing each clip before decoding the next (never
    after the last), so ctxs are left unchanged. Clip k of every prompt's
    candidates is decoded together, prompt-major, one batched forward per
    schedule step; candidate i of prompt p draws only from its own substream
    keyed by base_keys[p] + (i,), so candidates are independent of each
    other, of group_size and of the other prompts. Returns the clips, a
    (len(prompts), group_size, n_clips, clip_len, frame_dim) stack, and the
    context summaries that conditioned them, (len(prompts), group_size,
    n_clips, 2 * frame_dim).
    """
    if group_size < 2:
        raise ValueError("group_size must be at least 2")
    streams = rngmod.substreams([key + (i,) for key in base_keys for i in range(group_size)])
    vecs = np.repeat(np.stack([p.vec for p in prompts]), group_size, axis=0)
    summary = np.repeat(np.stack([ctx.summary() for ctx in ctxs]), group_size, axis=0)
    cand_ctxs = [ctx for ctx in ctxs for _ in range(group_size)]
    clips, summaries = [], []
    for k in range(n_clips):
        if k:
            cand_ctxs = [push_clip(ctx, clip) for ctx, clip in zip(cand_ctxs, clips[-1])]
            summary = np.stack([ctx.summary() for ctx in cand_ctxs])
        summaries.append(summary)
        clips.append(flowgen.sample_clips(params_old, summary, vecs, schedule, streams))
    shape = (len(ctxs), group_size, n_clips)
    return (np.stack(clips, axis=1).reshape(*shape, *clips[0].shape[1:]),
            np.stack(summaries, axis=1).reshape(*shape, -1))
