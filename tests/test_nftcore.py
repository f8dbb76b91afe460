"""Soft-label policy optimization: advantages, implicit branches, losses,
reference management, and the epoch loop."""

from __future__ import annotations

import dataclasses
import math
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from astro import flowgen, longtune, nftcore, rewardlab, streamctx, rng as arng
from astro import tensorgrad as tg
from astro.config import RunConfig
from test_flowgen import per_step_noise
from test_longtune import rollout
from test_tensorgrad import one_group_inputs, reference_adamw_step


def small_config(**over):
    base = dict(
        seed=0, frame_dim=4, clip_len=2, prompt_dim=4, hidden=16,
        group_size=4, prompts_per_epoch=2, epochs=1, lr=1e-3)
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


def prepared_inputs(run, scored, cfg, schedule):
    """scored's epoch_loss_inputs at run's epoch, drawn as prepare_epoch draws them."""
    return nftcore.epoch_loss_inputs(
        run.theta_ref, scored,
        *nftcore.draw_noise(cfg, schedule, run.epoch, scored.data))[0]


def stacked(groups):
    """One GroupData holding several GroupData's prompts, in order."""
    return nftcore.GroupData([p for d in groups for p in d.prompts],
                             np.concatenate([d.clips for d in groups]),
                             np.concatenate([d.summaries for d in groups]))


def prompt_group(data, p):
    """Prompt p's group alone, as one-prompt GroupData."""
    return nftcore.GroupData([data.prompts[p]], data.clips[p:p + 1], data.summaries[p:p + 1])


# --- advantages and soft labels ---


def test_advantages_center_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rng.standard_normal(rng.integers(2, 12)) * rng.uniform(0.1, 50)
        adv = nftcore.compute_advantages(r)
        assert abs(float(adv.sum())) <= 1e-12 * max(1.0, float(np.abs(r).sum()))


def test_soft_label_mapping_hand_values():
    adv = np.array([0.0, 2.5, -2.5, 5.0, -5.0, 50.0, -50.0])
    r = nftcore.normalize_advantage(adv)
    assert np.allclose(r, [0.5, 0.75, 0.25, 1.0, 0.0, 1.0, 0.0])
    assert np.all((r >= 0.0) & (r <= 1.0))


def test_all_equal_rewards_give_half_labels():
    adv = nftcore.compute_advantages(np.full(6, 3.7))
    r = nftcore.normalize_advantage(adv)
    assert np.allclose(r, 0.5)


# --- implicit policies ---


def test_implicit_midpoint_recovers_behavior_policy():
    rng = np.random.default_rng(1)
    for beta in (0.1, 0.5, 1.0, 2.0):
        v_theta = rng.standard_normal((4, 8))
        v_old = rng.standard_normal((4, 8))
        v_plus, v_minus = nftcore.implicit_policies(v_theta, v_old, beta)
        mid = 0.5 * (v_plus + v_minus)
        assert np.max(np.abs(mid - v_old)) <= 1e-14


def test_beta_one_positive_branch_is_theta_exactly():
    rng = np.random.default_rng(2)
    v_theta = rng.standard_normal((3, 5))
    v_old = rng.standard_normal((3, 5))
    v_plus, v_minus = nftcore.implicit_policies(v_theta, v_old, 1.0)
    assert np.array_equal(v_plus, v_theta)  # (1-beta) term vanishes exactly
    assert np.allclose(v_minus, 2.0 * v_old - v_theta, atol=1e-15)


def test_degenerate_theta_equals_old_collapses_both_branches():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((2, 6))
    v_plus, v_minus = nftcore.implicit_policies(v, v, 0.7)
    assert np.max(np.abs(v_plus - v)) <= 1e-15
    assert np.max(np.abs(v_minus - v)) <= 1e-15


def test_implicit_policies_validate_beta():
    with pytest.raises(ValueError):
        nftcore.implicit_policies(np.zeros(2), np.zeros(2), 0.0)


# --- losses ---


def test_policy_loss_hand_values():
    ones = np.ones((1, 4))
    v_plus, v_minus = ones, -ones
    # target equals the positive branch: full-confidence label costs nothing
    assert nftcore.policy_loss(1.0, v_plus, v_minus, ones) == pytest.approx(0.0)
    # zero label pays the negative branch distance (-1 - 1)^2 = 4
    assert nftcore.policy_loss(0.0, v_plus, v_minus, ones) == pytest.approx(4.0)
    assert nftcore.policy_loss(0.5, v_plus, v_minus, ones) == pytest.approx(2.0)


def test_policy_loss_constant_offset_squares():
    x0 = np.zeros((1, 8))
    c = 0.3
    loss = nftcore.policy_loss(1.0, x0 + c, x0 - 1.0, x0)
    assert loss == pytest.approx(c * c, abs=1e-15)


def test_policy_loss_rejects_bad_label():
    z = np.zeros((1, 2))
    with pytest.raises(ValueError):
        nftcore.policy_loss(1.5, z, z, z)
    with pytest.raises(ValueError):
        nftcore.policy_loss(-0.1, z, z, z)


def test_batch_policy_loss_equals_per_candidate_mean():
    # The graph loss, with v_theta a trainable leaf, against the per-candidate
    # numpy reference on the same implicit branches.
    rng = np.random.default_rng(4)
    g, width = 5, 12
    r = rng.uniform(0, 1, g)
    v_theta = rng.standard_normal((g, width))
    v_old = rng.standard_normal((g, width))
    x0 = rng.standard_normal((g, width))
    for beta in (1.0, 0.3):
        graph = tg.GradGraph()
        vp_n, vm_n = nftcore.implicit_policies(graph.parameter("vt", v_theta), v_old, beta)
        w = np.repeat(r[:, None], width, axis=1)
        batch = nftcore.batch_policy_loss(vp_n, vm_n, x0, w, 1.0 - w)
        vp, vm = nftcore.implicit_policies(v_theta, v_old, beta)
        per = np.mean([nftcore.policy_loss(r[i], vp[i:i+1], vm[i:i+1], x0[i:i+1])
                       for i in range(g)])
        assert float(batch.value) == pytest.approx(per, rel=1e-12), beta


def test_batch_policy_loss_node_path_matches_numpy():
    # The graph expression against the same row-weighted mean written in numpy.
    rng = np.random.default_rng(5)
    g, width = 3, 6
    r = rng.uniform(0, 1, g)
    v_theta = rng.standard_normal((g, width))
    v_old = rng.standard_normal((g, width))
    x0 = rng.standard_normal((g, width))
    vp, vm = nftcore.implicit_policies(v_theta, v_old, 1.0)
    w = r[:, None]
    plain = np.mean(w * np.square(vp - x0)) + np.mean((1.0 - w) * np.square(vm - x0))

    graph = tg.GradGraph()
    vt_node = graph.parameter("vt", v_theta)
    vp_n, vm_n = nftcore.implicit_policies(vt_node, graph.constant(v_old), 1.0)
    node = nftcore.batch_policy_loss(vp_n, vm_n, x0, np.repeat(w, width, axis=1),
                                     np.repeat(1.0 - w, width, axis=1))
    assert float(node.value) == pytest.approx(plain, rel=1e-14)


def kl_weights(mask, width):
    """The mask weights and scale epoch_loss_inputs builds for selective_kl_loss."""
    return (np.repeat(mask[:, None], width, axis=1).astype(np.float64),
            np.asarray(1.0 / float(mask.sum() * width)))


def test_selective_kl_constant_offset():
    rng = np.random.default_rng(6)
    v_ref = rng.standard_normal((4, 8))
    c = 0.25
    mask = np.array([True, True, False, True])
    graph = tg.GradGraph()
    loss = nftcore.selective_kl_loss(graph.parameter("vt", v_ref + c), v_ref,
                                     *kl_weights(mask, 8))
    assert float(loss.value) == pytest.approx(c * c, abs=1e-15)


def test_selective_kl_only_masked_rows_count():
    v_ref = np.zeros((3, 4))
    v_theta = np.zeros((3, 4))
    v_theta[0] = 2.0   # masked: contributes 4 per element
    v_theta[2] = 99.0  # unmasked: must be invisible
    graph = tg.GradGraph()
    loss = nftcore.selective_kl_loss(graph.parameter("vt", v_theta), v_ref,
                                     *kl_weights(np.array([True, False, False]), 4))
    assert float(loss.value) == pytest.approx(4.0)


def test_selective_kl_empty_mask_is_plain_zero():
    # No masked row: the group's loss reads the inputs a masked group's
    # reads, with m all zeros and scale 1, and its KL value is plain 0.0, so
    # the loss is its policy term bit for bit.
    cfg = small_config(lambda_kl=0.05)
    rng = np.random.default_rng(7)
    run = make_world(cfg)[0]
    scored = synthetic_scored_group(cfg, rng)
    scored.mask[:] = False
    eps = rng.standard_normal(scored.data.clips.shape[1:])
    empty = one_group_inputs(run, scored, cfg, 0.8, eps)
    assert not empty["m"].any() and empty["kl_scale"] == 1.0
    graph, loss, info = nftcore.build_group_loss(run, scored, cfg, 0.8, eps)
    assert info["kl_loss"] == 0.0 and info["masked"] == 0
    assert np.asarray(loss.value).tobytes() == np.float64(info["policy_loss"]).tobytes()
    scored.mask[0, 1] = True
    inputs = one_group_inputs(run, scored, cfg, 0.8, eps)
    assert sorted(empty) == sorted(inputs) == ["kl_scale", "m", "old_minus", "old_plus",
                                               "v_ref", "w", "w_neg", "x", "x0"]
    m, scale = kl_weights(scored.mask[0], inputs["x0"].shape[1])
    assert np.array_equal(inputs["m"], m) and inputs["kl_scale"] == scale
    assert np.array_equal(inputs["w_neg"], 1.0 - inputs["w"])


def test_total_loss_combination():
    assert nftcore.total_loss(2.0, 3.0, 1e-4) == pytest.approx(2.0003)


# --- EMA and reference resets ---


def test_ema_gap_shrinks_geometrically():
    rng = np.random.default_rng(7)
    theta = tg.flatten({"w": rng.standard_normal((4, 4))})
    theta_old = tg.flatten({"w": theta["w"] + rng.standard_normal((4, 4))})
    gap0 = theta_old["w"] - theta["w"]
    gamma = 0.9
    old = theta_old
    for n in range(1, 25):
        nftcore.ema_update(old, theta, gamma)
        expected = gamma ** n * gap0
        assert np.max(np.abs((old["w"] - theta["w"]) - expected)) <= 1e-12


def test_ema_in_place_is_bit_exact_against_expression():
    cfg = small_config(hidden=128, frame_dim=8, clip_len=4)
    run = make_world(cfg)[0]
    rng = np.random.default_rng(8)
    for k in run.theta:
        run.theta[k] += rng.standard_normal(run.theta[k].shape)
    old = run.theta_old
    buffer = old.flat
    for gamma in (0.9, 0.99, 0.3):
        expected = {k: gamma * old[k] + (1.0 - gamma) * run.theta[k] for k in old}
        nftcore.ema_update(old, run.theta, gamma)
        assert old.flat is buffer
        for k in expected:
            assert np.array_equal(old[k], expected[k])
            assert np.shares_memory(old[k], buffer)


def test_ema_allocates_no_vector_sized_temporaries():
    cfg = small_config(hidden=128, frame_dim=8, clip_len=4)
    run = make_world(cfg)[0]

    def tick():
        nftcore.ema_update(run.theta_old, run.theta, 0.9)

    for _ in range(2):
        tick()
    tracemalloc.start()
    try:
        tick()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < run.theta_old.flat.nbytes / 4, peak


def test_ema_validates_gamma():
    p = tg.flatten({"w": np.zeros(2)})
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            nftcore.ema_update(p, p, bad)


def test_reset_trigger_kl_strictly_greater():
    assert not nftcore.maybe_reset_reference(5, 0, 0.05, 0.05, 20)
    assert nftcore.maybe_reset_reference(5, 0, 0.050001, 0.05, 20)


def test_reset_trigger_staleness_strictly_greater():
    assert not nftcore.maybe_reset_reference(20, 0, 0.0, 0.05, 20)  # k - k_last == k_max
    assert nftcore.maybe_reset_reference(21, 0, 0.0, 0.05, 20)


# --- full loss graph against finite differences ---


def synthetic_scored_group(cfg, rng, pid=0):
    """Prompt pid's group of one-clip candidates: random clips, summaries,
    advantages and mask."""
    prompt = flowgen.make_prompt(pid, arng.substream(cfg.seed, arng.PROMPT_STREAM, pid),
                                 cfg.prompt_dim)
    g = cfg.group_size
    data = nftcore.GroupData(
        prompts=[prompt], clips=rng.standard_normal((1, g, 1, cfg.clip_len, cfg.frame_dim)),
        summaries=rng.standard_normal((1, g, 1, 2 * cfg.frame_dim)))
    adv = nftcore.compute_advantages(rng.standard_normal((1, g)) * 2.0)
    mask = rng.random((1, g)) < 0.5
    return nftcore.ScoredGroup(data=data, raw_scores=np.zeros((1, g, 3)),
                               advantages=adv, mask=mask, tau=np.ones(1))


def test_group_loss_gradient_matches_finite_differences():
    cfg = small_config(lambda_kl=0.05)
    rng = np.random.default_rng(8)
    run = make_world(cfg)[0]
    scored = synthetic_scored_group(cfg, rng)
    if not scored.mask.any():
        scored.mask[0, 0] = True  # exercise the KL term too
    t = 0.8
    eps = rng.standard_normal(scored.data.clips.shape[1:])

    graph, loss, info = nftcore.build_group_loss(run, scored, cfg, t, eps)
    grads = tg.backward(graph, loss)
    assert info["masked"] >= 1

    h = 1e-5
    for name in list(run.theta):
        arr = run.theta[name]
        it = np.nditer(arr, flags=["multi_index"])
        fd = np.zeros_like(arr)
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            _, lp, _ = nftcore.build_group_loss(run, scored, cfg, t, eps)
            arr[idx] = orig - h
            _, lm, _ = nftcore.build_group_loss(run, scored, cfg, t, eps)
            arr[idx] = orig
            fd[idx] = (float(lp.value) - float(lm.value)) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
        assert np.max(np.abs(fd - grads[name]) / denom) <= 1e-5, name


def test_group_loss_keeps_old_and_ref_off_graph():
    cfg = small_config()
    rng = np.random.default_rng(9)
    run = make_world(cfg)[0]
    scored = synthetic_scored_group(cfg, rng)
    graph, loss, _ = nftcore.build_group_loss(
        run, scored, cfg, 0.9, rng.standard_normal(scored.data.clips.shape[1:]))
    assert set(graph.params) == set(run.theta)


# --- optimizer step and epoch loop ---


def test_optimize_group_ema_interval():
    cfg = small_config(ema_interval=2)
    rng = np.random.default_rng(10)
    run, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, rng)

    before = tg.flatten(run.theta_old)
    nftcore.optimize_group(run, prepared_inputs(run, scored, cfg, schedule), cfg)
    for k in before:  # step 1, interval 2: no EMA tick yet
        assert np.array_equal(run.theta_old[k], before[k])
    nftcore.optimize_group(run, prepared_inputs(run, scored, cfg, schedule), cfg)
    assert any(not np.array_equal(run.theta_old[k], before[k]) for k in before)
    assert run.optimizer.t == 2


@pytest.fixture
def graphs_without_gc(monkeypatch):
    """Weakrefs to every GradGraph built while the cycle collector is off."""
    refs = []

    class Recorded(tg.GradGraph):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(tg, "GradGraph", Recorded)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def holds_no_values(tapes) -> bool:
    """True when nothing reachable through tapes' containers and attributes is
    an array, a Node or a graph: a tape keeps structure only."""
    stack, seen = [tapes], 0
    while stack:
        item = stack.pop()
        seen += 1
        if isinstance(item, (np.ndarray, tg.Node, tg.GradGraph)):
            return False
        if isinstance(item, tg.Tape):
            stack.append(vars(item))
        elif isinstance(item, (list, tuple, dict)):
            stack.extend(gc.get_referents(item))
    return seen > 1


def test_optimize_group_frees_its_graph_without_gc(graphs_without_gc):
    cfg = small_config()
    run, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, np.random.default_rng(14))
    nftcore.optimize_group(run, prepared_inputs(run, scored, cfg, schedule), cfg)
    assert len(graphs_without_gc) == 1
    assert graphs_without_gc[0]() is None
    # The recorded tape is replayed by the next step: no graph is built.
    assert len(run.tapes) == 1 and holds_no_values(run.tapes)
    nftcore.optimize_group(run, prepared_inputs(run, scored, cfg, schedule), cfg)
    assert len(graphs_without_gc) == 1 and len(run.tapes) == 1


def test_loss_steps_make_no_gradient_vector(monkeypatch):
    # Pretraining makes its gradient vector once per call and a run once at
    # set-up, so only the first step makes any (AdamW's moments): 5 steps make
    # as many as 1, and a second optimize_group makes none.
    layouts, layout = [], tg._layout
    monkeypatch.setattr(tg, "_layout", lambda shapes: layouts.append(1) or layout(shapes))
    corpus = flowgen.make_corpus(seed=0)
    made = []
    for steps in (1, 5):
        layouts.clear()
        flowgen.pretrain_base(corpus, steps, arng.substream(0, arng.PRETRAIN_STREAM), hidden=16)
        made.append(len(layouts))
    assert made[0] == made[1] > 0
    cfg = small_config()
    run, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, np.random.default_rng(14))
    nftcore.optimize_group(run, prepared_inputs(run, scored, cfg, schedule), cfg)
    fixed = prepared_inputs(run, scored, cfg, schedule)
    layouts.clear()
    nftcore.optimize_group(run, fixed, cfg)
    assert layouts == []


def test_pretrain_step_frees_its_graph_without_gc(graphs_without_gc, monkeypatch):
    # Only the first step builds a graph, and it is freed; the tape the
    # later steps replay keeps no activation alive.
    tapes = []

    class Kept(tg.Tape):
        def __init__(self, *args):
            super().__init__(*args)
            tapes.append(self)

    monkeypatch.setattr(tg, "Tape", Kept)
    corpus = flowgen.make_corpus(seed=0)
    flowgen.pretrain_base(corpus, 3, arng.substream(0, arng.PRETRAIN_STREAM), hidden=16)
    assert len(graphs_without_gc) == 1
    assert all(ref() is None for ref in graphs_without_gc)
    assert len(tapes) == 1 and holds_no_values(tapes)


def test_pretrain_overflow_on_replay_raises_pretrain_divergence_at_its_step(monkeypatch):
    # After the second update the first layer sits at the float64 maximum,
    # so the third step, a replay, overflows at its first matmul.
    class Blowup(tg.AdamW):
        def step(self, params, grads):
            super().step(params, grads)
            if self.t == 2:
                params["w1"][...] = np.finfo(np.float64).max

    monkeypatch.setattr(tg, "AdamW", Blowup)
    corpus = flowgen.make_corpus(seed=0)
    calls = []
    pass_ = tg.loss_pass
    monkeypatch.setattr(tg, "loss_pass", lambda tapes, *a: calls.append(len(tapes)) or
                        pass_(tapes, *a))
    with pytest.raises(flowgen.PretrainDivergence) as info:
        flowgen.pretrain_base(corpus, 5, arng.substream(0, arng.PRETRAIN_STREAM), hidden=16)
    assert info.value.step == 2 and calls == [0, 1, 1]
    assert math.isfinite(info.value.last_loss)
    assert "primitive 'matmul'" in str(info.value.__cause__)


def test_optimize_group_computes_grad_norm_once(monkeypatch):
    cfg = small_config()
    run, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, np.random.default_rng(15))
    calls = []
    norm = tg.global_norm
    monkeypatch.setattr(tg, "global_norm", lambda grads: calls.append(1) or norm(grads))
    for max_norm in (1e-9, 1e9):  # clipped and unclipped
        info = nftcore.optimize_group(run, prepared_inputs(run, scored, cfg, schedule),
                                      small_config(max_grad_norm=max_norm))
        assert info["grad_norm"] > 0.0
    assert len(calls) == 2


def test_optimize_group_clipped_step_is_bit_exact_against_per_name_reference():
    # No benchmark workload clips, so pin the clipping branch here: backward's
    # arrays copied, scaled by max_norm / norm, then the per-name AdamW loop.
    cfg = small_config(max_grad_norm=1e-6)
    run, schedule, _ = make_world(cfg)
    opt = run.optimizer
    scored = synthetic_scored_group(cfg, np.random.default_rng(16))
    pid = scored.data.prompts[0].pid
    t = schedule.values[int(arng.substream(cfg.seed, arng.NOISE_T_STREAM, 0, pid)
                            .integers(len(schedule.values)))]
    eps = arng.substream(cfg.seed, arng.EPS_STREAM, 0, pid) \
        .standard_normal(scored.data.clips.shape[1:])
    graph, loss, _ = nftcore.build_group_loss(run, scored, cfg, t, eps)
    grads = {k: g.copy() for k, g in tg.backward(graph, loss).items()}
    norm = float(np.sqrt(sum(float(np.sum(np.square(grads[k]))) for k in sorted(grads))))
    assert norm > 1e3 * cfg.max_grad_norm
    scaled = {k: g * (cfg.max_grad_norm / norm) for k, g in grads.items()}
    theta_ref = {k: v.copy() for k, v in run.theta.items()}
    m_ref, v_ref = {}, {}
    reference_adamw_step(theta_ref, scaled, m_ref, v_ref, 1, cfg.lr, opt.beta1, opt.beta2,
                         opt.eps, opt.weight_decay)

    info = nftcore.optimize_group(run, prepared_inputs(run, scored, cfg, schedule), cfg)
    assert info["grad_norm"] == norm
    for k in theta_ref:
        assert np.array_equal(run.theta[k], theta_ref[k]), k
        assert np.array_equal(opt.m[k], m_ref[k]), k
        assert np.array_equal(opt.v[k], v_ref[k]), k


def test_draw_noise_level_modes():
    # Each group draws t and eps from its own (epoch, pid) substreams.
    sched = flowgen.make_schedule()
    rng = np.random.default_rng(18)
    fixed_cfg = small_config(noise_mode="fixed", fixed_t=0.6)
    data = stacked([synthetic_scored_group(fixed_cfg, rng).data for _ in range(2)])
    data.prompts[1] = dataclasses.replace(data.prompts[1], pid=1)
    assert nftcore.draw_noise(fixed_cfg, sched, 0, data)[0] == [0.6, 0.6]
    cfg = small_config()
    (_, t1), eps1 = nftcore.draw_noise(cfg, sched, 3, data)
    (t2,), eps2 = nftcore.draw_noise(cfg, sched, 3, prompt_group(data, 1))
    assert t1 == t2 and np.array_equal(eps1[1], eps2[0])
    assert t1 in sched.values
    assert np.array_equal(eps2[0], arng.substream(cfg.seed, arng.EPS_STREAM, 3, 1)
                          .standard_normal(data.clips.shape[1:]))
    draws = {nftcore.draw_noise(cfg, sched, e, prompt_group(data, 0))[0][0] for e in range(40)}
    assert len(draws) > 1


def test_score_group_advantage_source():
    cfg = small_config()
    rng = np.random.default_rng(11)
    scored_data = synthetic_scored_group(cfg, rng).data
    norm_a, norm_b = rewardlab.RewardNormalizer(), rewardlab.RewardNormalizer()
    composite = nftcore.score_group(scored_data, cfg, norm_a)
    primary_cfg = small_config(advantage_source="primary")
    primary = nftcore.score_group(scored_data, primary_cfg, norm_b)
    assert not np.allclose(composite.advantages, primary.advantages)
    assert abs(composite.advantages.sum()) <= 1e-12
    assert abs(primary.advantages.sum()) <= 1e-12


def window_groups(cfg, prompts, rng):
    """Groups of window_clips rows per candidate: random candidates (some
    rows masked), identical candidates (every judge column tied, so every
    rank disagreement is 0 and the mask is empty), and random candidates of
    which two are static clips (their motion-quality scores tie at 0)."""
    g, w = cfg.group_size, cfg.window_clips
    shape = (g, w * cfg.clip_len, cfg.frame_dim)
    candidates = [rng.standard_normal(shape), np.broadcast_to(rng.standard_normal(shape[1:]),
                                                              shape).copy(),
                  rng.standard_normal(shape)]
    candidates[2][:2] = rng.standard_normal((2, 1, cfg.frame_dim))
    summaries = [rng.standard_normal((g, w, 2 * cfg.frame_dim)) for _ in prompts]
    return nftcore.GroupData(list(prompts),
                             np.stack(candidates).reshape(-1, g, w, cfg.clip_len, cfg.frame_dim),
                             np.stack(summaries))


def per_group_preparation(run, data, cfg, schedule):
    """The epoch's preparation one group at a time, from the per-group pieces:
    (raw scores, advantages, mask, tau, step inputs) per group. Each judge
    scores the group's own stack; the visual judge is also held to its
    per-frame definition, frame_quality, which rounds differently (math.hypot
    and a BLAS dot) and so agrees to 1e-12, not bit for bit. Row r of a
    group is candidate r // W's."""
    normalizer, epoch = rewardlab.RewardNormalizer(), run.epoch
    g, w = data.clips.shape[1:3]
    row_candidate = np.arange(g * w) // w
    out = []
    for prompt, clips, summaries in zip(data.prompts, data.clips, data.summaries):
        frames = clips.reshape(g, -1, clips.shape[-1])
        x0_rows, ctx_rows = clips.reshape(g * w, -1), summaries.reshape(g * w, -1)
        raw = np.stack([rewardlab.visual_quality(frames), rewardlab.motion_quality(frames),
                        rewardlab.text_alignment(frames, prompt.vec)], axis=1)
        for clip, score in zip(frames, raw[:, rewardlab.VQ]):
            per_frame = np.sort([rewardlab.frame_quality(f) for f in clip])[::-1]
            keep = math.ceil(rewardlab.TOP_FRAME_FRACTION * len(per_frame))
            assert abs(np.mean(per_frame[:keep]) - score) <= 1e-12 * max(1.0, abs(score))
        std = normalizer.update_and_standardize([prompt.pid], raw[None])[0]
        source = (rewardlab.aggregate_composite(std, cfg.reward_weights)
                  if cfg.advantage_source == "composite" else std[:, rewardlab.VQ])
        adv = nftcore.compute_advantages(source)
        ranks = [rewardlab.rank_samples(raw[:, m]) for m in range(rewardlab.N_MODELS)]
        delta = rewardlab.rank_disagreement(ranks[0], ranks[1:])
        tau, mask = rewardlab.uncertainty_mask(delta, cfg.rho0)
        t = schedule.values[int(arng.substream(cfg.seed, arng.NOISE_T_STREAM, epoch, prompt.pid)
                                .integers(len(schedule.values)))]
        eps = arng.substream(cfg.seed, arng.EPS_STREAM, epoch, prompt.pid) \
            .standard_normal(x0_rows.shape)
        x = flowgen.assemble_input(flowgen.forward_path(x0_rows, eps, t), t, ctx_rows,
                                   prompt.vec)
        v_old = flowgen.mlp_forward(run.theta_old, x)
        width = x0_rows.shape[1]
        labels = np.repeat(nftcore.normalize_advantage(adv)[row_candidate, None],
                           width, axis=1)
        inputs = {"x": x, "x0": x0_rows, "old_plus": (1.0 - cfg.beta) * v_old,
                  "old_minus": (1.0 + cfg.beta) * v_old, "w": labels, "w_neg": 1.0 - labels}
        rows_masked = mask[row_candidate]
        inputs.update(v_ref=flowgen.mlp_forward(run.theta_ref, x),
                      m=np.repeat(rows_masked[:, None], width, axis=1).astype(np.float64),
                      kl_scale=np.asarray(1.0 / float(max(rows_masked.sum() * width, 1))))
        out.append((raw, adv, mask, tau, inputs))
    return out


@pytest.mark.parametrize("source", ["composite", "primary"])
def test_prepared_epoch_matches_per_group_reference_bit_for_bit(source):
    cfg = small_config(group_size=6, window_clips=2, total_clips=2, beta=0.7,
                       lambda_kl=0.05, rho0=0.5, advantage_source=source)
    run, schedule, prompts = make_world(cfg, n_prompts=3)
    rng = np.random.default_rng(19)
    run.theta_old.flat += 0.05 * rng.standard_normal(run.theta.flat.shape)
    run.theta_ref.flat -= 0.05 * rng.standard_normal(run.theta.flat.shape)
    run.epoch = 3
    data = window_groups(cfg, prompts, rng)
    want = per_group_preparation(run, data, cfg, schedule)
    got, fixed = nftcore.prepare_epoch(run, data, cfg, schedule)
    # masked rows in groups 0 and 2, in different numbers; none in group 1
    assert 0 < want[0][2].sum() != want[2][2].sum() > 0 and not want[1][2].any()
    assert len(set(want[2][0][:, rewardlab.MQ])) < cfg.group_size
    assert got.data is data and len(fixed) == len(want)
    for p, (prepared, (raw, adv, mask, tau, inputs)) in enumerate(zip(fixed, want)):
        assert np.array_equal(got.raw_scores[p], raw)
        assert np.array_equal(got.advantages[p], adv)
        assert np.array_equal(got.mask[p], mask) and got.tau[p] == tau
        step = nftcore.step_inputs(prepared, run.theta_old, cfg)
        assert sorted(step) == sorted(inputs)
        for name, value in inputs.items():
            assert np.array_equal(step[name], value), name
    assert run.optimizer.t == 0 and len(run.tapes) == 0


def test_masked_and_unmasked_groups_share_one_tape():
    # A group with no masked row reads the same inputs, of the same shapes,
    # as a masked one, so an epoch of both records one loss tape.
    cfg = small_config(group_size=6, window_clips=2, total_clips=2, lambda_kl=0.05, rho0=0.5)
    run, schedule, prompts = make_world(cfg, n_prompts=3)
    rng = np.random.default_rng(19)
    run.theta_old.flat += 0.05 * rng.standard_normal(run.theta.flat.shape)
    run.theta_ref.flat -= 0.05 * rng.standard_normal(run.theta.flat.shape)
    data = window_groups(cfg, prompts, rng)
    mask = nftcore.score_groups(data, cfg, rewardlab.RewardNormalizer()).mask
    assert mask.any(axis=1).tolist() == [True, False, True]
    nftcore.train_epoch(run, data, cfg, schedule)
    assert run.optimizer.t == 3 and len(run.tapes) == 1


@pytest.mark.parametrize("mode", ["short", "long"])
def test_train_epoch_prepares_its_inputs_once(monkeypatch, mode):
    # Inside train_epoch, and not in the rollout before it: one
    # epoch_loss_inputs call, one theta_ref forward over all P groups' rows,
    # then one theta_old forward per step. The loss tapes' own forwards
    # build graphs or replay tapes and do not call the numpy forward.
    cfg = small_config(mode=mode, prompts_per_epoch=3, total_clips=3, window_clips=2)
    run, schedule, prompts = make_world(cfg, n_prompts=3)
    rows = cfg.group_size * (cfg.window_clips if mode == "long" else 1)
    inside, prepared, forwards = [], [], []
    train_epoch, build, forward = (nftcore.train_epoch, nftcore.epoch_loss_inputs,
                                   flowgen.mlp_forward)

    def counted_epoch(*args, **kwargs):
        inside.append(True)
        try:
            return train_epoch(*args, **kwargs)
        finally:
            inside.pop()

    def counted_forward(params, x, graph=None):
        if inside and graph is None:
            forwards.append(len(x))
        return forward(params, x, graph)

    monkeypatch.setattr(nftcore, "train_epoch", counted_epoch)
    monkeypatch.setattr(nftcore, "epoch_loss_inputs",
                        lambda *args: prepared.append(1) or build(*args))
    monkeypatch.setattr(flowgen, "mlp_forward", counted_forward)
    for epoch in range(2):  # the second epoch replays the first one's tapes
        prepared.clear()
        forwards.clear()
        longtune.train_window_epoch(run, prompts, cfg, schedule)
        assert len(prepared) == 1, epoch
        assert forwards == [len(prompts) * rows] + [rows] * len(prompts), epoch


def test_nonfinite_reference_row_aborts_before_the_first_step():
    # One row of prompt k holds an infinite context value, and theta_ref's
    # first layer weighs that context column 0: inf * 0 makes the row's
    # reference prediction NaN, and only that row's. theta_old and theta,
    # whose weights there are not 0, would saturate it or stop at the step's
    # matmul; the epoch instead aborts while preparing, before any step.
    cfg = small_config(window_clips=2, total_clips=2)
    run, schedule, prompts = make_world(cfg, n_prompts=3)
    data = window_groups(cfg, prompts, np.random.default_rng(20))
    k, row, rows = 1, 5, cfg.group_size * cfg.window_clips
    data.summaries[k, row // cfg.window_clips, row % cfg.window_clips, 0] = np.inf
    ctx_col = cfg.clip_len * cfg.frame_dim + 4  # after the noised clip and time features
    run.theta_ref["w1"][ctx_col] = 0.0
    theta = run.theta.flat.copy()
    with pytest.raises(nftcore.EpochAborted) as exc, np.errstate(all="ignore"):
        nftcore.train_epoch(run, data, cfg, schedule)
    assert exc.value.pid == prompts[k].pid
    assert exc.value.cause.row == k * rows + row
    assert run.optimizer.t == 0 and run.epoch == 0
    assert np.array_equal(run.theta.flat, theta)


def test_train_epoch_runs_and_is_deterministic():
    results = []
    for _ in range(2):
        cfg = small_config()
        run, schedule, prompts = make_world(cfg)
        metrics = longtune.train_window_epoch(run, prompts, cfg, schedule)
        results.append((metrics, run.theta))
    m1, m2 = results[0][0].to_json_dict(), results[1][0].to_json_dict()
    for key in m1:
        assert m1[key] == m2[key], key
    for k in results[0][1]:
        assert np.array_equal(results[0][1][k], results[1][1][k])
    assert m1["epoch"] == 0
    assert 0.0 <= m1["mask_fraction"] <= 1.0


def test_train_epoch_advances_state():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg)
    longtune.train_window_epoch(run, prompts, cfg, schedule)
    assert run.epoch == 1
    assert run.optimizer.t == len(prompts)


def test_train_epoch_records_the_epoch_of_a_reset():
    # A reference k_max + 1 epochs old is stale: the epoch resets it to theta
    # and notes its own number as the latest reset.
    cfg = small_config()
    run, schedule, prompts = make_world(cfg)
    run.epoch = cfg.k_max + 1
    record = longtune.train_window_epoch(run, prompts, cfg, schedule)
    assert record.reset and run.last_reset_epoch == cfg.k_max + 1
    assert np.array_equal(run.theta_ref.flat, run.theta.flat)


@pytest.mark.parametrize("tied", [False, True])
def test_train_epoch_record_matches_per_group_reference(tied):
    # The record's reward means, mask fraction and mean tau, against each
    # prompt's group scored alone. When all of a group's candidates tie,
    # its disagreements are all 0: tau is 0 and nothing is masked.
    cfg = small_config(window_clips=2, total_clips=2, rho0=0.5)
    run, schedule, prompts = make_world(cfg, n_prompts=3)
    data = window_groups(cfg, prompts, np.random.default_rng(21))
    if tied:
        data.clips[:] = data.clips[:, :1]
    normalizer = rewardlab.RewardNormalizer()
    alone = [nftcore.score_group(prompt_group(data, p), cfg, normalizer)
             for p in range(len(prompts))]
    record = nftcore.train_epoch(run, data, cfg, schedule)
    raw = np.concatenate([s.raw_scores[0] for s in alone])
    means = raw.mean(axis=0)
    taus = [float(s.tau[0]) for s in alone]
    assert (max(taus) == 0.0) == tied
    assert (record.reward_vq, record.reward_mq, record.reward_ta) == tuple(means)
    assert record.composite == float(means @ np.asarray(cfg.reward_weights))
    assert record.mask_fraction == sum(int(s.mask.sum()) for s in alone) / len(raw)
    assert record.mask_fraction > 0.0 or tied
    assert record.tau == float(np.mean(taus))


def per_prompt_short_group(theta_old, prompt, epoch, cfg, schedule):
    """Reference: one prompt's candidate group decoded on its own, G rows per call,
    each stream drawn per schedule step."""
    ctx = streamctx.empty_context(cfg.sink_size, 21, cfg.frame_dim)
    key = streamctx.group_base_key(cfg.seed, epoch, prompt.pid)
    streams = [arng.substream(*key, i) for i in range(cfg.group_size)]
    summary = np.tile(ctx.summary(), (cfg.group_size, 1))
    noise = per_step_noise(streams, schedule, (cfg.clip_len, cfg.frame_dim))
    return flowgen.sample_clips(theta_old, summary, prompt.vec, schedule, noise)


def short_mode_rollout(theta_old, prompts, epoch, cfg, schedule):
    """Short mode's rollout: the streaming window of one clip at clip 0."""
    return rollout(theta_old, prompts, longtune.epoch_window(cfg, epoch), cfg, schedule, epoch)


def test_short_rollout_matches_per_prompt_reference():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=5)
    g = cfg.group_size
    data = short_mode_rollout(run.theta_old, prompts, 3, cfg, schedule)
    assert data.prompts == prompts
    assert data.clips.shape == (len(prompts), g, 1, cfg.clip_len, cfg.frame_dim)
    assert np.array_equal(data.summaries, np.zeros((len(prompts), g, 1, 2 * cfg.frame_dim)))
    for prompt, clips in zip(prompts, data.clips):
        ref = per_prompt_short_group(run.theta_old, prompt, 3, cfg, schedule)
        assert np.array_equal(clips[:, 0], ref)


def test_short_rollout_group_independent_of_other_prompts():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=4)
    together = short_mode_rollout(run.theta_old, prompts, 1, cfg, schedule)
    reversed_order = short_mode_rollout(run.theta_old, prompts[::-1], 1, cfg, schedule)
    for k, prompt in enumerate(prompts):
        alone = short_mode_rollout(run.theta_old, [prompt], 1, cfg, schedule)
        assert np.array_equal(alone.clips[0], together.clips[k])
        assert np.array_equal(reversed_order.clips[-1 - k], together.clips[k])


def test_train_epoch_abort_names_prompt_whose_rows_blew_up():
    cfg = small_config()
    run, schedule, prompts = make_world(cfg, n_prompts=4)
    prompts[2] = dataclasses.replace(prompts[2], vec=np.full_like(prompts[2].vec, np.nan))
    with pytest.raises(nftcore.EpochAborted) as exc:
        longtune.train_window_epoch(run, prompts, cfg, schedule)
    assert exc.value.pid == prompts[2].pid
    assert isinstance(exc.value.cause, tg.NonFiniteError)


def test_train_epoch_aborts_on_optimization_overflow():
    # Clean rows far outside float range once squared: the loss graph must
    # refuse and the epoch must abort with a diagnostic, not emit NaN params.
    cfg = small_config()
    run, schedule, _ = make_world(cfg)
    rng = np.random.default_rng(12)

    def huge_group(pid):
        data = synthetic_scored_group(cfg, rng, pid).data
        return dataclasses.replace(data, clips=np.full_like(data.clips, 1e200))

    with pytest.raises(nftcore.EpochAborted):
        with np.errstate(all="ignore"):
            nftcore.train_epoch(run, stacked([huge_group(0), huge_group(1)]), cfg, schedule)


def test_first_layer_overflow_aborts_at_its_matmul():
    # theta's first layer at the float64 maximum overflows x @ w1; tanh would
    # saturate it to 1, so the per-primitive check is what catches it.
    cfg = small_config()
    run, schedule, _ = make_world(cfg)
    run.theta["w1"][...] = np.finfo(np.float64).max
    rng = np.random.default_rng(17)
    scored = synthetic_scored_group(cfg, rng)
    with pytest.raises(tg.NonFiniteError, match="primitive 'matmul'"):
        nftcore.optimize_group(run, prepared_inputs(run, scored, cfg, schedule), cfg)
    data = stacked([synthetic_scored_group(cfg, rng, pid).data for pid in range(2)])
    with pytest.raises(nftcore.EpochAborted) as exc:
        nftcore.train_epoch(run, data, cfg, schedule)
    assert exc.value.pid == data.prompts[0].pid
    assert "primitive 'matmul'" in str(exc.value.cause)


def test_first_layer_overflow_on_replay_aborts_at_its_matmul(graphs_without_gc):
    # One clean epoch records a tape per group structure; the next epoch, on
    # the same groups, replays them, and the replay must stop at the matmul.
    cfg = small_config()
    run, schedule, _ = make_world(cfg)
    rng = np.random.default_rng(17)
    data = stacked([synthetic_scored_group(cfg, rng, pid).data for pid in range(2)])
    nftcore.train_epoch(run, data, cfg, schedule)
    built, tapes = len(graphs_without_gc), dict(run.tapes)
    run.theta["w1"][...] = np.finfo(np.float64).max
    with pytest.raises(nftcore.EpochAborted) as exc:
        nftcore.train_epoch(run, data, cfg, schedule)
    assert len(graphs_without_gc) == built and run.tapes == tapes
    assert exc.value.pid == data.prompts[0].pid
    assert "primitive 'matmul'" in str(exc.value.cause)


def test_epoch_mode_ema_ticks_once_per_epoch():
    # ema_interval = prompts_per_epoch: one EMA tick per epoch, after its
    # last step, toward the epoch's final theta.
    cfg = small_config(prompts_per_epoch=3, ema_interval=3)
    run, schedule, prompts = make_world(cfg, n_prompts=3)
    for _ in range(2):
        want = tg.flatten(run.theta_old)
        longtune.train_window_epoch(run, prompts, cfg, schedule)
        nftcore.ema_update(want, run.theta, nftcore.EMA_GAMMA)
        assert np.array_equal(run.theta_old.flat, want.flat)
    assert run.optimizer.t == 6
