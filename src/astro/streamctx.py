"""Bounded streaming context: permanent sink frames plus a rolling recent window.

The first `sink` frames ever generated are kept for good; after that only the
most recent `window` frames survive. Pushing returns a new ContextWindow, so
group rollouts can share one frozen context without copy discipline bugs.
ContextWindow and push_clip are the reference semantics. The rollout runs
on ContextBatch instead: a fixed-size state for many rows at once, holding
only what a summary reads, pushed one clip per row in a single call.
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


@dataclass(frozen=True)
class ContextBatch:
    """The contexts of many rows, reduced to what a summary reads.

    Every row has generated the same number of frames. sink is (rows,
    sink_size, frame_dim), of which the first `filled` slots hold each
    row's sink frames; newest is each row's last generated frame, zeros
    before the first. Row r's summary equals that of the ContextWindow it
    stands for, bit for bit: the sink mean reduces over the frames in
    order, as np.mean over the window's tuple does. Pushing returns a new
    batch and never writes into an array another batch may share.
    """

    sink: np.ndarray
    filled: int
    newest: np.ndarray
    total_generated: int

    @classmethod
    def empty(cls, rows: int, sink_size: int, frame_dim: int) -> ContextBatch:
        """rows contexts that have generated nothing yet."""
        return cls(np.zeros((rows, sink_size, frame_dim)), 0, np.zeros((rows, frame_dim)), 0)

    @classmethod
    def from_windows(cls, ctxs: list[ContextWindow]) -> ContextBatch:
        """One row per context; all must have generated the same frames."""
        first = ctxs[0]
        if any((c.total_generated, c.sink_size, c.frame_dim)
               != (first.total_generated, first.sink_size, first.frame_dim) for c in ctxs):
            raise ValueError("contexts differ in frames generated, sink size or frame_dim")
        sink = np.zeros((len(ctxs), first.sink_size, first.frame_dim))
        newest = np.zeros((len(ctxs), first.frame_dim))
        for row, ctx in enumerate(ctxs):
            frames = ctx.frames()
            sink[row, :len(ctx.sink)] = frames[:len(ctx.sink)]
            if len(frames):
                newest[row] = frames[-1]
        return cls(sink, len(first.sink), newest, first.total_generated)

    def summary(self) -> np.ndarray:
        """(rows, 2 * frame_dim): each row's mean sink frame, then its newest frame."""
        sink = self.sink[:, :self.filled]
        mean = sink.mean(axis=1) if self.filled else np.zeros_like(self.newest)
        return np.concatenate([mean, self.newest], axis=1)

    def push(self, clips: np.ndarray) -> ContextBatch:
        """New batch with clips[r], a (clip_len, frame_dim) clip, appended to row r."""
        clips = np.asarray(clips, dtype=np.float64)
        rows, sink_size, frame_dim = self.sink.shape
        if clips.ndim != 3 or clips.shape[0] != rows or clips.shape[2] != frame_dim:
            raise ValueError(f"clips shape {clips.shape} does not match ({rows}, *, {frame_dim})")
        take = min(sink_size - self.filled, clips.shape[1])
        sink = self.sink
        if take:
            sink = sink.copy()
            sink[:, self.filled:self.filled + take] = clips[:, :take]
        newest = clips[:, -1].copy() if clips.shape[1] else self.newest
        return ContextBatch(sink, self.filled + take, newest,
                            self.total_generated + clips.shape[1])

    def repeat(self, n: int) -> ContextBatch:
        """Each row n times in a row: row r becomes rows r*n .. r*n + n - 1."""
        return ContextBatch(np.repeat(self.sink, n, axis=0), self.filled,
                            np.repeat(self.newest, n, axis=0), self.total_generated)


def group_base_key(seed: int, epoch: int, pid: int) -> tuple[int, ...]:
    """Base of the candidate substream keys; group_rollout appends the candidate index."""
    return (seed, rngmod.CANDIDATE_STREAM, epoch, pid)


def decode_clips(params: dict[str, np.ndarray], ctx: ContextBatch, vecs: np.ndarray,
                 schedule: flowgen.TimestepSchedule, noise: np.ndarray):
    """Decode noise.shape[1] clips in turn for every row of ctx, row r under
    prompt vector vecs[r] and clip k from noise[r, k]: one batched
    sample_clips call per clip, on the summaries of ctx pushed with the
    clips before it (never with the last). Returns the clips (rows, n_clips,
    clip_len, frame_dim), those summaries (rows, n_clips, 2 * frame_dim)
    and the last pushed context."""
    clips, summaries = [], []
    for k in range(noise.shape[1]):
        if k:
            ctx = ctx.push(clips[-1])
        summaries.append(ctx.summary())
        clips.append(flowgen.sample_clips(params, summaries[-1], vecs, schedule, noise[:, k]))
    return np.stack(clips, axis=1), np.stack(summaries, axis=1), ctx


def group_rollout(params_old: dict[str, np.ndarray], ctxs: ContextBatch,
                  prompts: list[flowgen.Prompt], group_size: int,
                  schedule: flowgen.TimestepSchedule, base_keys: list[tuple[int, ...]],
                  n_clips: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode n_clips clips for each of group_size candidates per prompt.

    ctxs holds prompt p's context in row p. decode_clips decodes from it
    repeated group_size times, prompt-major, each candidate of prompt p
    extending its own copy of p's row; ctxs is left unchanged. Candidate i
    of prompt p draws only from its own substream keyed by base_keys[p] +
    (i,), so candidates are independent of each other, of group_size and
    of the other prompts. Each stream is drawn once, for its whole
    (n_clips, len(schedule), clip width) budget. Returns decode_clips'
    clips and summaries with their rows split into (len(prompts), group_size).
    """
    noise = rngmod.normal_blocks([key + (i,) for key in base_keys for i in range(group_size)],
                                 (n_clips, len(schedule), params_old["b3"].shape[1]))
    vecs = np.repeat(np.stack([p.vec for p in prompts]), group_size, axis=0)
    clips, summaries, _ = decode_clips(params_old, ctxs.repeat(group_size), vecs, schedule, noise)
    shape = (len(prompts), group_size, n_clips)
    return clips.reshape(*shape, *clips.shape[2:]), summaries.reshape(*shape, -1)
