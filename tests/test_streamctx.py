"""Bounded-context window semantics: sink retention, rolling eviction, summaries."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from astro import flowgen, streamctx, rng as arng
from astro import tensorgrad as tg
from test_cli import numeric_environment


def frame(v: float, dim: int = 1) -> np.ndarray:
    return np.full(dim, float(v))


def push_frames(ctx, values, dim=1):
    for v in values:
        ctx = streamctx.push_clip(ctx, frame(v, dim).reshape(1, dim))
    return ctx


def flat(frames):
    return [float(f[0]) for f in frames]


def test_steady_state_retention_hand_example():
    # sink=3, window=4, frames 1..10: sink keeps 1,2,3 forever, rolling holds
    # the last four frames 7,8,9,10.
    ctx = streamctx.empty_context(sink_size=3, window_size=4, frame_dim=1)
    ctx = push_frames(ctx, range(1, 11))
    assert flat(ctx.sink) == [1.0, 2.0, 3.0]
    assert flat(ctx.rolling) == [7.0, 8.0, 9.0, 10.0]
    assert ctx.total_generated == 10
    assert ctx.frame_count() == 7


def test_warmup_no_duplication():
    # After 5 frames the first three live in the sink only; rolling holds 4,5.
    ctx = streamctx.empty_context(sink_size=3, window_size=4, frame_dim=1)
    ctx = push_frames(ctx, range(1, 6))
    assert flat(ctx.sink) == [1.0, 2.0, 3.0]
    assert flat(ctx.rolling) == [4.0, 5.0]
    all_vals = flat(ctx.frames())
    assert sorted(all_vals) == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_long_stream_frame_count_is_bounded():
    ctx = streamctx.empty_context(sink_size=3, window_size=21, frame_dim=2)
    rng = np.random.default_rng(0)
    for _ in range(250):
        ctx = streamctx.push_clip(ctx, rng.standard_normal((4, 2)))
    assert ctx.total_generated == 1000
    assert ctx.frame_count() == 24
    assert len(ctx.sink) == 3
    assert len(ctx.rolling) == 21


def test_multi_frame_clip_split_across_sink_boundary():
    # A 4-frame first clip fills the 3 sink slots and starts rolling with the rest.
    ctx = streamctx.empty_context(sink_size=3, window_size=4, frame_dim=1)
    ctx = streamctx.push_clip(ctx, np.arange(1.0, 5.0).reshape(4, 1))
    assert flat(ctx.sink) == [1.0, 2.0, 3.0]
    assert flat(ctx.rolling) == [4.0]


def test_summary_empty_context_is_zero():
    ctx = streamctx.empty_context(frame_dim=8)
    s = ctx.summary()
    assert s.shape == (16,)
    assert np.array_equal(s, np.zeros(16))


def test_summary_mean_sink_and_newest():
    ctx = streamctx.empty_context(sink_size=3, window_size=4, frame_dim=2)
    ctx = streamctx.push_clip(ctx, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]))
    s = ctx.summary()
    assert np.allclose(s[:2], [3.0, 4.0])  # mean of the three sink frames
    assert np.array_equal(s[2:], [7.0, 8.0])  # newest frame


def test_summary_before_rolling_uses_last_sink_frame():
    ctx = streamctx.empty_context(sink_size=3, window_size=4, frame_dim=1)
    ctx = push_frames(ctx, [1.0, 2.0])
    s = ctx.summary()
    assert s[0] == pytest.approx(1.5)
    assert s[1] == 2.0


def test_push_clip_is_functional():
    ctx0 = streamctx.empty_context(sink_size=3, window_size=4, frame_dim=1)
    ctx1 = push_frames(ctx0, [1.0, 2.0, 3.0, 4.0])
    assert ctx0.frame_count() == 0
    assert ctx1.frame_count() == 4
    with pytest.raises(AttributeError):
        ctx1.total_generated = 99  # frozen
    # Frames are the context's own copies: a later write to the clip is invisible.
    clip = np.ones((2, 1))
    ctx2 = streamctx.push_clip(ctx1, clip)
    clip[:] = 7.0
    assert np.array_equal(ctx2.frames()[-2:], np.ones((2, 1)))


def test_push_clip_validates_shape():
    ctx = streamctx.empty_context(frame_dim=8)
    with pytest.raises(ValueError):
        streamctx.push_clip(ctx, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        streamctx.push_clip(ctx, np.zeros(8))
    # Only plain arrays get in, so a context never holds a graph value.
    graph = tg.GradGraph()
    with pytest.raises(TypeError):
        streamctx.push_clip(ctx, graph.parameter("clip", np.zeros((4, 8))))


@pytest.mark.parametrize("sink", [0, 3])
def test_trajectory_summary_matches_real_window_pushes(sink):
    # The analytic summary used for pretraining targets must agree with what a
    # real context window reports after pushing the same target clips; with
    # no sink, both hold a zero sink mean.
    phase, clip_len, frame_dim = 1.1, 4, 8
    ctx = streamctx.empty_context(sink_size=sink, window_size=21, frame_dim=frame_dim)
    for k in range(6):
        analytic = flowgen.trajectory_context_summary(
            phase, k, sink=sink, clip_len=clip_len, frame_dim=frame_dim)
        assert np.allclose(ctx.summary(), analytic, atol=1e-12), f"clip {k}"
        ctx = streamctx.push_clip(
            ctx, flowgen.target_clip(phase, k, clip_len, frame_dim))


@pytest.mark.parametrize("n_clips", [1, 2])
def test_group_rollout_leaves_context_bit_unchanged(n_clips):
    rng = np.random.default_rng(2)
    params = flowgen.init_net(rng, frame_dim=8, clip_len=4, prompt_dim=4, hidden=32)
    sched = flowgen.make_schedule()
    prompt = flowgen.make_prompt(0, arng.substream(0, arng.PROMPT_STREAM, 0))

    ctx = streamctx.empty_context(frame_dim=8)
    for _ in range(2):
        ctx = streamctx.push_clip(ctx, rng.standard_normal((4, 8)))
    batch = streamctx.ContextBatch.from_windows([ctx])
    before_sink, before_newest = batch.sink.copy(), batch.newest.copy()

    (clips,), _ = streamctx.group_rollout(
        params, batch, [prompt], group_size=4, schedule=sched,
        base_keys=[streamctx.group_base_key(0, 0, 0)], n_clips=n_clips)
    assert clips.shape == (4, n_clips, 4, 8)
    assert (batch.filled, batch.total_generated) == (3, 8)
    assert np.array_equal(batch.sink, before_sink)
    assert np.array_equal(batch.newest, before_newest)


def test_group_rollout_candidates_distinct_and_reproducible():
    rng = np.random.default_rng(3)
    params = flowgen.init_net(rng, frame_dim=8, clip_len=4, prompt_dim=4, hidden=32)
    sched = flowgen.make_schedule()
    prompt = flowgen.make_prompt(1, arng.substream(0, arng.PROMPT_STREAM, 1))
    ctx = streamctx.ContextBatch.from_windows([streamctx.empty_context(frame_dim=8)])

    key = streamctx.group_base_key(7, 3, 1)
    (a,), _ = streamctx.group_rollout(params, ctx, [prompt], 4, sched, [key], 1)
    (b,), _ = streamctx.group_rollout(params, ctx, [prompt], 4, sched, [key], 1)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca, cb)
    assert np.any(a[0] != a[1])

    (other_epoch,), _ = streamctx.group_rollout(
        params, ctx, [prompt], 4, sched, [streamctx.group_base_key(7, 4, 1)], 1)
    assert np.any(a[0] != other_epoch[0])


def test_group_rollout_candidate_independent_of_group_size():
    rng = np.random.default_rng(12)
    params = flowgen.init_net(rng, frame_dim=8, clip_len=4, prompt_dim=4, hidden=32)
    sched = flowgen.make_schedule()
    prompt = flowgen.make_prompt(2, arng.substream(0, arng.PROMPT_STREAM, 2))
    ctx = streamctx.ContextBatch.from_windows([streamctx.push_clip(
        streamctx.empty_context(frame_dim=8), rng.standard_normal((4, 8)))])
    key = streamctx.group_base_key(1, 5, 2)
    (four,), _ = streamctx.group_rollout(params, ctx, [prompt], 4, sched, [key], 1)
    (eight,), _ = streamctx.group_rollout(params, ctx, [prompt], 8, sched, [key], 1)
    assert np.max(np.abs(four - eight[:4])) <= 1e-12


@pytest.mark.parametrize("n_clips", [1, 2])
def test_group_rollout_candidate_clip_is_batch_invariant(n_clips):
    # A candidate's clips are the same bits whatever batch decodes them:
    # any group size, and its prompt alone or among eight (training shapes).
    rng = np.random.default_rng(19)
    params = flowgen.init_net(rng, frame_dim=8, clip_len=4, prompt_dim=4, hidden=128)
    sched = flowgen.make_schedule()
    prompts = [flowgen.make_prompt(p, arng.substream(0, arng.PROMPT_STREAM, p))
               for p in range(8)]
    ctxs = [streamctx.push_clip(streamctx.empty_context(frame_dim=8),
                                rng.standard_normal((4, 8))) for _ in prompts]
    keys = [streamctx.group_base_key(0, 5, p) for p in range(8)]
    first = {}
    for g in (2, 3, 8, 24):
        for p_count in (1, 8):
            ctx = streamctx.ContextBatch.from_windows(ctxs[:p_count])
            clips, _ = streamctx.group_rollout(params, ctx, prompts[:p_count], g,
                                               sched, keys[:p_count], n_clips)
            first[g, p_count] = clips[0, :2]
    ref = first[2, 1]
    for (g, p_count), got in first.items():
        assert np.array_equal(got, ref), (f"G={g}, P={p_count} differs from G=2, P=1 "
                                          f"({numeric_environment()})")


def test_candidate_key_layout():
    assert streamctx.group_base_key(5, 2, 9) == (5, arng.CANDIDATE_STREAM, 2, 9)


# --- ContextBatch: the rows-batched state the rollout runs on ---


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("sink,window,clip_len,dim", [
    (3, 4, 2, 8),   # sink warm-up spans two clips, then eviction
    (5, 3, 2, 1),   # one-wide frames
    (4, 21, 3, 2),  # a clip split across the sink boundary
    (0, 4, 2, 8),   # no sink at all
    (3, 1, 2, 8),   # a one-frame rolling window
    (2, 1, 1, 3),
])
def test_batch_summaries_equal_context_window_path_bit_for_bit(sink, window, clip_len, dim):
    rng = np.random.default_rng(sink * 100 + window)
    rows = 5
    ctxs = [streamctx.empty_context(sink, window, dim)] * rows
    batch = streamctx.ContextBatch.from_windows(ctxs)
    for step in range(12):
        assert batch.total_generated == ctxs[0].total_generated == step * clip_len
        assert batch.filled == len(ctxs[0].sink)
        ref = np.stack([ctx.summary() for ctx in ctxs])
        assert np.array_equal(bits(batch.summary()), bits(ref)), f"push {step}"
        # a batch built from the windows mid-stream reads the same summaries
        assert np.array_equal(bits(streamctx.ContextBatch.from_windows(ctxs).summary()),
                              bits(ref))
        clips = rng.standard_normal((rows, clip_len, dim)) * 10.0 ** rng.integers(
            -8, 9, (rows, clip_len, dim))
        ctxs = [streamctx.push_clip(ctx, clip) for ctx, clip in zip(ctxs, clips)]
        batch = batch.push(clips)


def test_empty_batch_equals_batch_of_empty_windows():
    rows, sink_size, dim = 3, 4, 5
    empty = streamctx.ContextBatch.empty(rows, sink_size, dim)
    ref = streamctx.ContextBatch.from_windows(
        [streamctx.empty_context(sink_size, 21, dim)] * rows)
    for field in dataclasses.fields(streamctx.ContextBatch):
        got, want = getattr(empty, field.name), getattr(ref, field.name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.dtype == want.dtype, field.name
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


def test_batch_push_is_functional():
    rng = np.random.default_rng(5)
    ctxs = [streamctx.push_clip(streamctx.empty_context(3, 4, 2), rng.standard_normal((2, 2)))
            for _ in range(3)]
    b0 = streamctx.ContextBatch.from_windows(ctxs)
    s0, sink0, newest0 = b0.summary(), b0.sink.copy(), b0.newest.copy()
    clips = rng.standard_normal((3, 2, 2))
    expect = np.stack([streamctx.push_clip(c, clip).summary() for c, clip in zip(ctxs, clips)])
    b1 = b0.push(clips)
    b2 = b1.push(rng.standard_normal((3, 2, 2)))  # sink full: b2 shares b1's sink
    clips[:] = 7.0  # the batch holds its own copies
    assert np.array_equal(b0.sink, sink0) and np.array_equal(b0.newest, newest0)
    assert np.array_equal(b0.summary(), s0)
    assert np.array_equal(b1.summary(), expect)
    assert b1.sink is not b0.sink and b2.sink is b1.sink
    with pytest.raises(AttributeError):
        b1.filled = 0  # frozen


def test_batch_repeat_is_prompt_major():
    rng = np.random.default_rng(6)
    ctxs = [streamctx.push_clip(streamctx.empty_context(3, 4, 2), rng.standard_normal((4, 2)))
            for _ in range(3)]
    repeated = streamctx.ContextBatch.from_windows(ctxs).repeat(4)
    expect = streamctx.ContextBatch.from_windows([c for c in ctxs for _ in range(4)])
    assert np.array_equal(repeated.summary(), expect.summary())
    assert (repeated.filled, repeated.total_generated) == (expect.filled, 4)


def test_batch_validates_rows_and_shapes():
    batch = streamctx.ContextBatch.from_windows([streamctx.empty_context(frame_dim=8)] * 2)
    for bad in (np.zeros((2, 4, 5)), np.zeros((3, 4, 8)), np.zeros((2, 8))):
        with pytest.raises(ValueError):
            batch.push(bad)
    graph = tg.GradGraph()
    with pytest.raises(TypeError):
        batch.push(graph.parameter("clips", np.zeros((2, 4, 8))))
    ctx = streamctx.empty_context(frame_dim=8)
    with pytest.raises(ValueError):  # rows must have generated the same frames
        streamctx.ContextBatch.from_windows([ctx, streamctx.push_clip(ctx, np.zeros((4, 8)))])
    with pytest.raises(ValueError):
        streamctx.ContextBatch.from_windows([ctx, streamctx.empty_context(frame_dim=4)])

