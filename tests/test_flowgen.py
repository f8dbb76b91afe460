"""Generator, schedule, toy trajectory task, and base pretraining checks."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from astro import flowgen, longtune, streamctx, rng as arng
from astro.config import RunConfig


class CountingStream:
    """Generator wrapper that records how many values each standard_normal
    call draws, to audit draw budgets."""

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self.draws = []

    def standard_normal(self, size=None, out=None):
        values = self.gen.standard_normal(size, out=out)
        self.draws.append(np.size(values))
        return values


def per_step_noise(streams, schedule, clip_shape):
    """Reference sampler noise in the per-step draw order: one clip_shape
    draw per row per schedule step, stacked as sample_clips takes it,
    (len(streams), len(schedule), clip width)."""
    return np.stack([np.stack([s.standard_normal(clip_shape) for s in streams])
                     .reshape(len(streams), -1) for _ in range(len(schedule))], axis=1)


def test_shift_map_hand_value():
    # s=5 at t=0.5: 5*0.5 / (1 + 4*0.5) = 2.5/3
    assert abs(flowgen.shift_timestep(0.5, 5.0) - 2.5 / 3.0) <= 1e-15
    assert flowgen.shift_timestep(0.0, 5.0) == 0.0
    assert flowgen.shift_timestep(1.0, 5.0) == 1.0
    assert flowgen.shift_timestep(0.3, 1.0) == pytest.approx(0.3, abs=1e-15)


def test_default_schedule_values():
    sched = flowgen.make_schedule()
    expected = (1.0, 0.9375, 5.0 / 6.0, 0.625)
    assert len(sched) == 4
    for got, want in zip(sched.values, expected):
        assert abs(got - want) <= 1e-15


def test_schedule_validation():
    with pytest.raises(ValueError):
        flowgen.TimestepSchedule(values=(0.5, 0.7))  # not decreasing
    with pytest.raises(ValueError):
        flowgen.TimestepSchedule(values=(1.2, 0.5))  # above 1
    with pytest.raises(ValueError):
        flowgen.TimestepSchedule(values=())


def test_forward_path_endpoints():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((4, 8))
    eps = rng.standard_normal((4, 8))
    assert np.array_equal(flowgen.forward_path(x0, eps, 0.0), x0)
    assert np.array_equal(flowgen.forward_path(x0, eps, 1.0), eps)


def test_forward_path_per_row_t():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((3, 5))
    eps = rng.standard_normal((3, 5))
    t = np.array([0.0, 0.5, 1.0])
    out = flowgen.forward_path(x0, eps, t)
    assert np.array_equal(out[0], x0[0])
    assert np.allclose(out[1], 0.5 * x0[1] + 0.5 * eps[1])
    assert np.array_equal(out[2], eps[2])


def test_forward_path_refuses_nan_t():
    # NaN fails every comparison, so a range test written as "t < 0 or t > 1"
    # would let it through and return NaN rows.
    x0, eps = np.zeros((3, 5)), np.ones((3, 5))
    for t in (np.nan, np.array([0.5, np.nan, 0.25])):
        with pytest.raises(ValueError, match=r"t outside \[0, 1\]"):
            flowgen.forward_path(x0, eps, t)


def test_forward_path_second_moment_monte_carlo():
    # E||x^t||^2 = (1-t)^2 ||x0||^2 + t^2 * dim for standard normal noise.
    rng = np.random.default_rng(2)
    dim = 64
    x0 = rng.standard_normal(dim)
    t = 0.7
    draws = 4000
    eps = rng.standard_normal((draws, dim))
    xt = flowgen.forward_path(np.tile(x0, (draws, 1)), eps, t)
    measured = float(np.mean(np.sum(xt * xt, axis=1)))
    expected = (1 - t) ** 2 * float(np.sum(x0 * x0)) + t * t * dim
    assert abs(measured - expected) / expected <= 0.05


def test_time_features():
    feats = flowgen.time_features(np.array([0.0, 0.5]))
    assert feats.shape == (2, 4)
    assert np.allclose(feats[0], [0.0, 1.0, 0.0, 1.0])
    assert np.allclose(feats[1], [0.5, 0.5, 1.0, np.cos(np.pi / 2)], atol=1e-12)


def test_prompt_vector_unit_norm_and_phase():
    for pid in range(24):
        p = flowgen.make_prompt(pid, arng.substream(0, arng.PROMPT_STREAM, pid))
        assert abs(np.linalg.norm(p.vec) - 1.0) <= 1e-12
        angle = np.arctan2(p.vec[1], p.vec[0])
        assert abs(np.angle(np.exp(1j * (angle - p.phase)))) <= 1e-12


def test_target_frames_sit_on_manifold():
    clip = flowgen.target_clip(phase=0.7, clip_index=3, clip_len=4, frame_dim=8)
    assert clip.shape == (4, 8)
    for frame in clip:
        assert abs(flowgen.manifold_distance(frame)) <= 1e-12
    # consecutive frames advance by the fixed angular step
    a0 = np.arctan2(clip[0, 1], clip[0, 0])
    a1 = np.arctan2(clip[1, 1], clip[1, 0])
    step = np.angle(np.exp(1j * (a1 - a0)))
    assert abs(step - flowgen.ANGULAR_STEP) <= 1e-12


def test_manifold_distance_against_numeric_projection():
    # Independent oracle: minimize the distance to a parametrized circle point
    # over the angle, then compare with the closed form.
    rng = np.random.default_rng(3)
    for _ in range(50):
        frame = rng.standard_normal(8) * rng.uniform(0.1, 3.0)

        def dist_at(theta):
            point = np.zeros(8)
            point[0] = flowgen.RADIUS * np.cos(theta)
            point[1] = flowgen.RADIUS * np.sin(theta)
            return float(np.linalg.norm(frame - point))

        grid = np.linspace(-np.pi, np.pi, 4096)
        coarse = min(grid, key=dist_at)
        res = minimize_scalar(
            dist_at, bounds=(coarse - 0.01, coarse + 0.01), method="bounded",
            options={"xatol": 1e-12})
        assert abs(flowgen.manifold_distance(frame) - res.fun) <= 1e-9


def test_context_summary_zero_at_first_clip():
    s = flowgen.trajectory_context_summary(
        phase=0.2, clip_index=0, sink=3, clip_len=4, frame_dim=8)
    assert s.shape == (16,)
    assert np.array_equal(s, np.zeros(16))


def test_predict_clean_graph_path_matches_numpy_path():
    from astro import tensorgrad as tg

    rng = np.random.default_rng(4)
    params = flowgen.init_net(rng, frame_dim=8, clip_len=4, prompt_dim=4, hidden=32)
    xt = rng.standard_normal((2, 32))
    t = np.array([0.8, 0.5])
    ctx = rng.standard_normal((2, 16))
    pv = rng.standard_normal((2, 4))

    plain = flowgen.predict_clean_batch(params, xt, t, ctx, pv)
    graph = tg.GradGraph()
    node = flowgen.mlp_forward(params, flowgen.assemble_input(xt, t, ctx, pv), graph)
    assert np.array_equal(plain, node.value)


def test_counting_stream():
    counter = CountingStream(arng.substream(0, 1))
    assert counter.draws == []
    counter.standard_normal(5)
    counter.standard_normal((2, 3))
    counter.standard_normal(out=np.empty((4, 2)))
    assert counter.draws == [5, 6, 8]
    # draws pass through unchanged
    plain = arng.substream(0, 1).standard_normal(5)
    again = CountingStream(arng.substream(0, 1)).standard_normal(5)
    assert np.array_equal(plain, again)


def sampler_world(seed, rows=5):
    rng = np.random.default_rng(seed)
    params = flowgen.init_net(rng, frame_dim=8, clip_len=4, prompt_dim=4, hidden=32)
    return params, rng.standard_normal((rows, 16)), flowgen.make_schedule()


def sampler_noise(keys, sched):
    """One clip's noise from each key's stream, drawn per step (per_step_noise)."""
    return per_step_noise([arng.substream(*key) for key in keys], sched, (4, 8))


def test_sample_clips_noise_draw_budget(monkeypatch):
    # Every rollout stream is asked once for its whole budget: n_clips * S * d
    # values for a candidate, start_clip * S * d for a prompt's prefix.
    params, ctx, sched = sampler_world(5)
    cfg = RunConfig(frame_dim=8, clip_len=4, prompt_dim=4, hidden=32, mode="long",
                    total_clips=6, window_clips=3)
    prompts = [flowgen.make_prompt(i, arng.substream(0, arng.PROMPT_STREAM, i), 4)
               for i in range(3)]
    streams = {}

    def counting_substreams(keys):
        gens = [CountingStream(arng.substream(*key)) for key in keys]
        streams.update(zip(map(tuple, keys), gens))
        return gens

    monkeypatch.setattr(arng, "substreams", counting_substreams)
    n_clips, g, width = 3, 4, 4 * 8
    clips, _ = streamctx.group_rollout(
        params, streamctx.ContextBatch.empty(len(prompts), cfg.sink_size, 8), prompts, g,
        sched, [streamctx.group_base_key(0, 0, p.pid) for p in prompts], n_clips)
    assert clips.shape == (len(prompts), g, n_clips, 4, 8)
    assert len(streams) == len(prompts) * g
    assert [c.draws for c in streams.values()] == [[n_clips * len(sched) * width]] * len(streams)
    streams.clear()
    longtune.rollout_prefix(params, prompts, 2, cfg, sched, 0)
    assert sorted(key[1] for key in streams) == [arng.PREFIX_STREAM] * len(prompts)
    assert [c.draws for c in streams.values()] == [[2 * len(sched) * width]] * len(prompts)
    streams.clear()
    longtune.rollout_prefix(params, prompts, 0, cfg, sched, 0)
    assert streams == {}

    noise = sampler_noise([(0, i) for i in range(len(ctx))], sched)
    pv = np.ones(4) / 2.0
    assert flowgen.sample_clips(params, ctx, pv, sched, noise).shape == (len(ctx), 4, 8)
    for bad in (noise[:, :-1], noise[..., :-1], noise[:-1], noise[0], noise[:, None]):
        with pytest.raises(ValueError):
            flowgen.sample_clips(params, ctx, pv, sched, bad)


def test_sample_clips_row_matches_single_row_call():
    params, ctx, sched = sampler_world(11)
    pv = np.ones(4) / 2.0
    keys = [(4, 2, 0, 1, i) for i in range(len(ctx))]
    batch = flowgen.sample_clips(params, ctx, pv, sched, sampler_noise(keys, sched))
    for i in range(len(ctx)):
        (alone,) = flowgen.sample_clips(params, ctx[i:i + 1], pv, sched,
                                        sampler_noise(keys[i:i + 1], sched))
        assert np.max(np.abs(batch[i] - alone)) <= 1e-12


def reference_sample_clips(params, ctx, pv, sched, noise):
    """The sampler as one predict_clean_batch and one forward_path per step."""
    x = noise[:, 0]
    for k, t in enumerate(sched.values):
        pred = flowgen.predict_clean_batch(params, x, t, ctx, pv)
        if k + 1 < len(sched):
            x = flowgen.forward_path(pred, noise[:, k + 1], sched.values[k + 1])
    return pred.reshape(len(noise), 4, 8)


@pytest.mark.parametrize("n", [1, 2, 8, 192])
def test_sample_clips_equals_per_step_reference(n):
    rng = np.random.default_rng(n)
    params = flowgen.init_net(rng, frame_dim=8, clip_len=4, prompt_dim=4, hidden=128)
    sched = flowgen.make_schedule()
    ctx = rng.standard_normal((n, 16))
    noise = rng.standard_normal((n, len(sched), 32))
    for pv in (rng.standard_normal(4), rng.standard_normal((n, 4))):
        assert np.array_equal(flowgen.sample_clips(params, ctx, pv, sched, noise),
                              reference_sample_clips(params, ctx, pv, sched, noise))


def test_sample_clips_deterministic_per_key():
    params, ctx, sched = sampler_world(6, rows=1)
    pv = np.ones(4) / 2.0
    a = flowgen.sample_clips(params, ctx, pv, sched, sampler_noise([(9, 2, 1, 3, 0)], sched))
    b = flowgen.sample_clips(params, ctx, pv, sched, sampler_noise([(9, 2, 1, 3, 0)], sched))
    c = flowgen.sample_clips(params, ctx, pv, sched, sampler_noise([(9, 2, 1, 3, 1)], sched))
    assert np.array_equal(a, b)
    assert np.any(a != c)


def test_sample_clips_needs_one_context_row_per_stream():
    params, ctx, sched = sampler_world(7, rows=3)
    noise = sampler_noise([(0, i) for i in range(2)], sched)
    with pytest.raises(ValueError):
        flowgen.sample_clips(params, ctx, np.ones(4) / 2.0, sched, noise)


def test_corpus_shapes_and_determinism():
    c1 = flowgen.make_corpus(seed=3)
    c2 = flowgen.make_corpus(seed=3)
    c3 = flowgen.make_corpus(seed=4)
    assert len(c1.prompts) == 16
    assert np.array_equal(c1.prompts[0].vec, c2.prompts[0].vec)
    assert np.any(c1.prompts[0].vec != c3.prompts[0].vec)
    x0, ctx, pv = c1.sample_batch(np.random.default_rng(0), 8)
    assert x0.shape == (8, 32)
    assert ctx.shape == (8, 16)
    assert pv.shape == (8, 4)


def test_sample_batch_tables_match_per_example_reference():
    # The reference builds every example from the ground-truth functions,
    # drawing its prompt index, then its clip index, as the tables must too.
    for seed, sink, horizon in ((3, 3, 8), (5, 1, 6), (8, 5, 10)):
        corpus = flowgen.make_corpus(seed=seed, n_prompts=7, horizon=horizon, sink=sink)
        for draw_seed in range(3):
            ref_rng = np.random.default_rng(draw_seed)
            x0_ref, ctx_ref, pv_ref = [], [], []
            for _ in range(13):
                prompt = corpus.prompts[int(ref_rng.integers(len(corpus.prompts)))]
                n = int(ref_rng.integers(corpus.horizon))
                x0_ref.append(flowgen.target_clip(
                    prompt.phase, n, corpus.clip_len, corpus.frame_dim).ravel())
                ctx_ref.append(flowgen.trajectory_context_summary(
                    prompt.phase, n, corpus.sink, corpus.clip_len, corpus.frame_dim))
                pv_ref.append(prompt.vec)
            rng = np.random.default_rng(draw_seed)
            x0, ctx, pv = corpus.sample_batch(rng, 13)
            assert np.array_equal(x0, np.stack(x0_ref))
            assert np.array_equal(ctx, np.stack(ctx_ref))
            assert np.array_equal(pv, np.stack(pv_ref))
            # same draws consumed: both generators continue in lockstep
            assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


@pytest.mark.parametrize("n_prompts,horizon", [(10, 8), (17, 9), (7, 6)])
def test_sample_batch_draws_like_scalar_loop(n_prompts, horizon):
    # One bounded draw for the whole batch picks the indices, and leaves the
    # generator where, one scalar rng.integers call per index would.
    corpus = flowgen.make_corpus(seed=1, n_prompts=n_prompts, horizon=horizon)
    x0_table, ctx_table, pv_table = corpus.tables
    for batch in (1, 16, 33):
        for draw_seed in range(4):
            ref_rng = np.random.default_rng(draw_seed)
            which, clip = [], []
            for _ in range(batch):
                which.append(ref_rng.integers(n_prompts))
                clip.append(ref_rng.integers(horizon))
            rng = np.random.default_rng(draw_seed)
            x0, ctx, pv = corpus.sample_batch(rng, batch)
            assert np.array_equal(x0, x0_table[which, clip])
            assert np.array_equal(ctx, ctx_table[which, clip])
            assert np.array_equal(pv, pv_table[which])
            assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)
            assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("batch_size,raw", [(16, flowgen.RAW_TIMESTEPS), (5, (900.0, 300.0))])
def test_pretrain_batch_is_assemble_input_of_forward_path(monkeypatch, batch_size, raw):
    # The rows each step writes in place, against the batch built from the
    # same draws (batch, levels, then noise) by forward_path and
    # assemble_input.
    corpus = flowgen.make_corpus(seed=2, n_prompts=5, horizon=6, clip_len=3, frame_dim=4)
    schedule = flowgen.make_schedule(raw)
    seen = []
    loss_pass = flowgen.tg.loss_pass

    def recording_loss_pass(tapes, frozen, params, inputs, build):
        seen.append({name: value.copy() for name, value in inputs.items()})
        return loss_pass(tapes, frozen, params, inputs, build)

    monkeypatch.setattr(flowgen.tg, "loss_pass", recording_loss_pass)
    flowgen.pretrain_base(corpus, 7, np.random.default_rng(9), schedule=schedule, hidden=8,
                          batch_size=batch_size)
    rng = np.random.default_rng(9)
    flowgen.init_net(rng, corpus.frame_dim, corpus.clip_len, 4, 8)
    levels = np.array(schedule.values)
    for inputs in seen:
        x0, ctx, pv = corpus.sample_batch(rng, batch_size)
        t = levels[rng.integers(len(levels), size=batch_size)]
        eps = rng.standard_normal(x0.shape)
        want = flowgen.assemble_input(flowgen.forward_path(x0, eps, t), t, ctx, pv)
        assert np.array_equal(inputs["x"], want)
        assert np.array_equal(inputs["x0"], x0)
    assert len(seen) == 7


def test_pretrain_reaches_low_error_within_budget():
    corpus = flowgen.make_corpus(seed=0)
    params, losses = flowgen.pretrain_base(
        corpus, 400, arng.substream(0, arng.PRETRAIN_STREAM))
    mse = flowgen.evaluate_base(
        params, corpus, arng.substream(0, arng.EVAL_STREAM), n_samples=128)
    assert mse <= 0.05
    assert len(losses) == 400


def test_pretrain_loss_curve_decreases():
    # Frozen from observed runs: 50-step block means fall by over 10x start to
    # end and nearly every consecutive pair is nonincreasing.
    corpus = flowgen.make_corpus(seed=0)
    _, losses = flowgen.pretrain_base(
        corpus, 1000, arng.substream(0, arng.PRETRAIN_STREAM))
    blocks = np.array(losses).reshape(20, 50).mean(axis=1)
    assert np.all(blocks[1:] < blocks[0])
    assert np.sum(np.diff(blocks) <= 0) >= 0.8 * (len(blocks) - 1)
    assert blocks[-1] < blocks[0] / 10.0


def test_pretrain_zero_steps_keeps_init():
    corpus = flowgen.make_corpus(seed=0)
    rng = np.random.default_rng(7)
    init = flowgen.init_net(rng, 8, 4, 4, hidden=32)
    snapshot = {k: v.copy() for k, v in init.items()}
    params, losses = flowgen.pretrain_base(
        corpus, 0, arng.substream(0, arng.PRETRAIN_STREAM), hidden=32, init=init)
    assert losses == []
    for k in snapshot:
        assert np.array_equal(params[k], snapshot[k])


def test_pretrain_divergence_raises():
    # Adam-normalized steps move parameters by about lr per step, so the rate
    # must be absurd before squared activations overflow; that is the point
    # where training should refuse to continue rather than emit NaN params.
    corpus = flowgen.make_corpus(seed=0)
    with pytest.raises(flowgen.PretrainDivergence) as exc:
        flowgen.pretrain_base(
            corpus, 50, arng.substream(0, arng.PRETRAIN_STREAM), lr=1e160)
    assert exc.value.step >= 1


def test_pretrain_deterministic():
    corpus = flowgen.make_corpus(seed=0)
    runs = []
    for _ in range(2):
        params, losses = flowgen.pretrain_base(
            corpus, 50, arng.substream(0, arng.PRETRAIN_STREAM))
        runs.append((params, losses))
    assert runs[0][1] == runs[1][1]
    for k in runs[0][0]:
        assert np.array_equal(runs[0][0][k], runs[1][0][k])
