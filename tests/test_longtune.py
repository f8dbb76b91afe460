"""Streaming window tuning: placement, prefix rollout, and equivalence with
the short path when the stream is a single clip."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.stats import chi2

from astro import flowgen, longtune, nftcore, rewardlab, streamctx, rng as arng
from astro.config import RunConfig
from test_flowgen import per_step_noise


def small_config(**over):
    base = dict(
        seed=0, frame_dim=4, clip_len=2, prompt_dim=4, hidden=16,
        group_size=4, prompts_per_epoch=2, epochs=1, lr=1e-3,
        mode="long", total_clips=6, window_clips=2)
    base.update(over)
    return RunConfig(**base)


def make_world(cfg, n_prompts=2):
    """A fresh run on an untrained base, the schedule and n_prompts prompts."""
    rng = np.random.default_rng(cfg.seed + 100)
    base = flowgen.init_net(rng, cfg.frame_dim, cfg.clip_len, cfg.prompt_dim, cfg.hidden)
    run = nftcore.RunState.fresh(cfg, base)
    schedule = flowgen.make_schedule(cfg.raw_timesteps)
    prompts = [flowgen.make_prompt(i, arng.substream(cfg.seed, arng.PROMPT_STREAM, i),
                                   cfg.prompt_dim)
               for i in range(n_prompts)]
    return run, schedule, prompts


def rollout(theta_old, prompts, window, cfg, schedule, epoch):
    """The epoch's groups as train_window_epoch decodes them: the prefix up to
    window's (start_clip, n_clips) start, then the window."""
    start_clip, n_clips = window
    prefix = longtune.rollout_prefix(theta_old, prompts, start_clip, cfg, schedule, epoch)
    return longtune.window_rollout(theta_old, prompts, n_clips, cfg, schedule, epoch, prefix)


def test_epoch_window_uniform_chi_squared():
    # Training draws one start per epoch, so uniformity is over epochs: at
    # seed 0 over epochs 0..9999, chi-squared is 3.74 for (8, 1) and 1.98
    # for (5, 2), against 99% critical values of 18.48 and 11.34.
    epochs = 10_000
    for total, window in ((8, 1), (5, 2)):
        cfg = small_config(total_clips=total, window_clips=window)
        bins = total - window + 1
        counts = np.zeros(bins)
        for epoch in range(epochs):
            start, n_clips = longtune.epoch_window(cfg, epoch)
            assert n_clips == window
            counts[start] += 1
        expected = epochs / bins
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat <= chi2.ppf(0.99, bins - 1)
        assert counts.min() > 0


def test_epoch_window_covers_full_range():
    cfg = small_config(total_clips=5, window_clips=2)
    starts = {longtune.epoch_window(cfg, epoch)[0] for epoch in range(200)}
    assert starts == {0, 1, 2, 3}


def test_epoch_window_deterministic_and_varying():
    cfg = small_config(total_clips=16)
    a = longtune.epoch_window(cfg, 3)
    b = longtune.epoch_window(cfg, 3)
    assert a == b
    starts = {longtune.epoch_window(cfg, e)[0] for e in range(50)}
    assert len(starts) > 3


def test_rollout_prefix_frame_budget():
    cfg = small_config(total_clips=30)
    run, schedule, prompts = make_world(cfg, n_prompts=2)
    for start in (0, 1, 2, 12, 29):
        ctx = longtune.rollout_prefix(run.theta_old, prompts, start, cfg, schedule,
                                      epoch=0)
        total = start * cfg.clip_len
        assert ctx.total_generated == total
        # the state is fixed-size: the sink, filled up to sink_size, and one newest frame
        assert ctx.sink.shape == (2, cfg.sink_size, cfg.frame_dim)
        assert ctx.filled == min(total, cfg.sink_size)
        assert ctx.newest.shape == (2, cfg.frame_dim)
        assert ctx.summary().shape == (2, 2 * cfg.frame_dim)


def test_rollout_prefix_deterministic():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=2)
    a = longtune.rollout_prefix(run.theta_old, prompts, 3, cfg, schedule, 5)
    b = longtune.rollout_prefix(run.theta_old, prompts, 3, cfg, schedule, 5)
    assert np.array_equal(a.summary(), b.summary())
    assert np.array_equal(a.sink, b.sink)
    c = longtune.rollout_prefix(run.theta_old, prompts, 3, cfg, schedule, 6)
    assert not np.array_equal(a.summary(), c.summary())


def test_window_rollout_row_layout():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=1)
    data = rollout(run.theta_old, [prompts[0]], (2, cfg.window_clips), cfg, schedule, 0)
    g, w = cfg.group_size, cfg.window_clips
    assert data.prompts == [prompts[0]]
    assert data.clips.shape == (1, g, w, cfg.clip_len, cfg.frame_dim)
    assert data.summaries.shape == (1, g, w, 2 * cfg.frame_dim)


def test_window_rollout_candidates_branch_after_shared_prefix():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=1)
    data = rollout(run.theta_old, [prompts[0]], (2, cfg.window_clips), cfg, schedule, 0)
    first_rows = data.summaries[0, :, 0]
    # every candidate's first window clip is conditioned on the same prefix
    assert np.array_equal(first_rows[0], first_rows[1])
    # after generating their own clip the contexts diverge
    second_rows = data.summaries[0, :, 1]
    assert not np.array_equal(second_rows[0], second_rows[1])


def test_window_rollout_deterministic():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=1)
    window = (1, cfg.window_clips)
    a = rollout(run.theta_old, [prompts[0]], window, cfg, schedule, 2)
    b = rollout(run.theta_old, [prompts[0]], window, cfg, schedule, 2)
    assert np.array_equal(a.clips, b.clips)
    assert np.array_equal(a.summaries, b.summaries)


def per_prompt_window_rollout(theta_old, prompt, window, cfg, schedule, epoch):
    """Reference: one prompt's prefix decoded one row per call up to window's
    (start_clip, n_clips) start, then its group's window, each stream drawn
    per schedule step.

    Returns (prefix context, window rows, window context rows), rows
    candidate-major.
    """
    clip_shape = (cfg.clip_len, cfg.frame_dim)
    prefix = streamctx.empty_context(cfg.sink_size, 21, cfg.frame_dim)
    stream = arng.substream(cfg.seed, arng.PREFIX_STREAM, epoch, prompt.pid)
    start_clip, w = window
    for _ in range(start_clip):
        (clip,) = flowgen.sample_clips(theta_old, prefix.summary()[None], prompt.vec,
                                       schedule, per_step_noise([stream], schedule, clip_shape))
        prefix = streamctx.push_clip(prefix, clip)
    g = cfg.group_size
    key = streamctx.group_base_key(cfg.seed, epoch, prompt.pid)
    streams = [arng.substream(*key, i) for i in range(g)]
    ctxs = [prefix] * g
    rows, summaries = [], []
    for _ in range(w):
        summary = np.stack([ctx.summary() for ctx in ctxs])
        clips = flowgen.sample_clips(theta_old, summary, prompt.vec, schedule,
                                     per_step_noise(streams, schedule, clip_shape))
        ctxs = [streamctx.push_clip(ctx, clip) for ctx, clip in zip(ctxs, clips)]
        rows.append(clips.reshape(g, -1))
        summaries.append(summary)
    return (prefix, np.stack(rows, axis=1).reshape(g * w, -1),
            np.stack(summaries, axis=1).reshape(g * w, -1))


def test_window_rollout_matches_per_prompt_reference():
    # The batched prefix runs P rows per forward where the reference runs
    # one, so the two round differently; 1e-12 bounds that.
    cfg = small_config(total_clips=8)
    run, schedule, prompts = make_world(cfg, n_prompts=5)
    window = (5, cfg.window_clips)
    prefixes = longtune.rollout_prefix(run.theta_old, prompts, 5, cfg, schedule, 4)
    data = longtune.window_rollout(run.theta_old, prompts, cfg.window_clips, cfg,
                                   schedule, 4, prefixes)
    assert data.prompts == prompts
    assert prefixes.total_generated == 5 * cfg.clip_len
    rows = cfg.group_size * cfg.window_clips
    for prompt, prefix, clips, summaries in zip(prompts, prefixes.summary(), data.clips,
                                                data.summaries):
        ref_prefix, ref_rows, ref_ctx = per_prompt_window_rollout(
            run.theta_old, prompt, window, cfg, schedule, 4)
        assert ref_prefix.total_generated == prefixes.total_generated
        assert np.max(np.abs(prefix - ref_prefix.summary())) <= 1e-12
        assert np.max(np.abs(clips.reshape(rows, -1) - ref_rows)) <= 1e-12
        assert np.max(np.abs(summaries.reshape(rows, -1) - ref_ctx)) <= 1e-12


def test_group_rollout_matches_per_prompt_window_reference():
    # With no prefix both decode the same G-row batches, so the bits agree.
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=1)
    g, w = cfg.group_size, 3
    prefix, ref_rows, ref_ctx = per_prompt_window_rollout(
        run.theta_old, prompts[0], (0, w), cfg, schedule, 2)
    clips, summaries = streamctx.group_rollout(
        run.theta_old, streamctx.ContextBatch.from_windows([prefix]), prompts, g, schedule,
        [streamctx.group_base_key(cfg.seed, 2, prompts[0].pid)], w)
    assert clips.shape == (1, g, w, cfg.clip_len, cfg.frame_dim)
    assert np.array_equal(clips.reshape(g * w, -1), ref_rows)
    assert np.array_equal(summaries.reshape(g * w, -1), ref_ctx)


def count_calls(monkeypatch, owner, name, log):
    """Replace owner.name with a wrapper that appends each call's arguments to log."""
    original = getattr(owner, name)

    def wrapper(*args):
        log.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("mode,start,window", [
    ("short", 0, 1), ("long", 0, 2), ("long", 3, 2), ("long", 1, 3)])
def test_rollout_work_budget(monkeypatch, mode, start, window):
    # All prompts' contexts form one batch: each prefix clip is one push and
    # one summary for every prompt at once. The window repeats the batch per
    # candidate, reads its summary once, and pushes only between clips,
    # never after the last. The per-context reference path is never taken.
    # Short mode opens no prefix or window stream.
    cfg = small_config(mode=mode, window_clips=window)
    run, schedule, prompts = make_world(cfg, n_prompts=3)
    pushes, summaries, repeats, window_calls, keys, batches = [], [], [], [], [], []
    count_calls(monkeypatch, streamctx.ContextBatch, "push", pushes)
    count_calls(monkeypatch, streamctx.ContextBatch, "summary", summaries)
    count_calls(monkeypatch, streamctx.ContextBatch, "repeat", repeats)
    count_calls(monkeypatch, streamctx, "push_clip", window_calls)
    count_calls(monkeypatch, streamctx.ContextWindow, "summary", window_calls)
    count_calls(monkeypatch, arng, "substream", keys)
    count_calls(monkeypatch, arng, "substreams", batches)
    if mode == "short":
        assert longtune.epoch_window(cfg, 0) == (0, 1)
    rollout(run.theta_old, prompts, (start, window), cfg, schedule, 0)
    p, g = len(prompts), cfg.group_size
    assert len(pushes) == start + window - 1
    assert len(summaries) == start + window
    assert [n for _, n in repeats] == [g]
    assert window_calls == []
    rows = [len(args[1]) for args in pushes]
    assert rows == [p] * start + [p * g] * (window - 1)
    tags = [key[1] for key in keys + [key for (batch,) in batches for key in batch]]
    assert tags.count(arng.PREFIX_STREAM) == p * (start > 0)
    assert tags.count(arng.WINDOW_STREAM) == 0
    assert tags.count(arng.CANDIDATE_STREAM) == p * g


def test_window_rollout_group_independent_of_other_prompts():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=4)
    window = (3, cfg.window_clips)
    together = rollout(run.theta_old, prompts, window, cfg, schedule, 1)
    reversed_order = rollout(run.theta_old, prompts[::-1], window, cfg, schedule, 1)
    for k, prompt in enumerate(prompts):
        alone = rollout(run.theta_old, [prompt], window, cfg, schedule, 1)
        for other, j in ((alone, 0), (reversed_order, len(prompts) - 1 - k)):
            assert np.max(np.abs(other.clips[j] - together.clips[k])) <= 1e-12
            assert np.max(np.abs(other.summaries[j] - together.summaries[k])) <= 1e-12


@pytest.mark.parametrize("start", [0, 3])
def test_window_rollout_abort_names_prompt_whose_rows_blew_up(start):
    # start 0 blows up in the window clips, start 3 already in the prefix
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=4)
    prompts[2] = dataclasses.replace(prompts[2], vec=np.full_like(prompts[2].vec, np.nan))
    with pytest.raises(nftcore.EpochAborted) as exc:
        rollout(run.theta_old, prompts, (start, cfg.window_clips), cfg, schedule, 7)
    assert exc.value.epoch == 7
    assert exc.value.pid == prompts[2].pid


def test_graph_size_independent_of_prefix_length():
    # The point of detached history: optimization cost depends on the window,
    # never on how much stream came before it.
    cfg = small_config(total_clips=40)
    run, schedule, prompts = make_world(cfg, n_prompts=1)
    rng = np.random.default_rng(2)
    sizes, node_counts = [], []
    for start in (0, 4, 16, 38):
        data = rollout(run.theta_old, [prompts[0]], (start, cfg.window_clips), cfg,
                       schedule, 0)
        scored = nftcore.score_group(data, cfg, rewardlab.RewardNormalizer())
        # pin the mask: its occupancy decides whether the KL subgraph exists,
        # which is orthogonal to what this test measures
        scored.mask[:] = True
        eps = rng.standard_normal(data.clips.shape[1:])
        graph, loss, info = nftcore.build_group_loss(run, scored, cfg, 0.8, eps)
        sizes.append(data.clips.shape)
        node_counts.append(info["graph_nodes"])
    assert len(set(sizes)) == 1
    assert len(set(node_counts)) == 1


def test_single_clip_stream_equals_short_path():
    # total_clips=1, window_clips=1 puts the long-mode window at clip 0 with
    # no prefix; it must then reproduce short mode bit for bit.
    runs = []
    for mode in ("short", "long"):
        cfg = small_config(total_clips=1, window_clips=1, mode=mode)
        run, schedule, prompts = make_world(cfg)
        metrics = longtune.train_window_epoch(run, prompts, cfg, schedule)
        runs.append((metrics, run.theta))
    short_m, long_m = runs[0][0].to_json_dict(), runs[1][0].to_json_dict()
    assert long_m["window_start"] == 0
    for key in short_m:
        assert short_m[key] == long_m[key], key
    for k in runs[0][1]:
        assert np.array_equal(runs[0][1][k], runs[1][1][k])


def test_train_window_epoch_reports_window_start():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg)
    metrics = longtune.train_window_epoch(run, prompts, cfg, schedule)
    assert metrics.window_start == longtune.epoch_window(cfg, 0)[0]
    assert run.epoch == 1
