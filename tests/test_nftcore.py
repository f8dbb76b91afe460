"""Soft-label policy optimization: advantages, implicit branches, losses,
reference management, and the epoch loop."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from astro import flowgen, longtune, nftcore, rewardlab, streamctx, rng as arng
from astro import tensorgrad as tg
from astro.config import RunConfig
from test_tensorgrad import reference_adamw_step


def small_config(**over):
    base = dict(
        seed=0, frame_dim=4, clip_len=2, prompt_dim=4, hidden=16,
        group_size=4, prompts_per_epoch=2, epochs=1, lr=1e-3)
    base.update(over)
    return RunConfig(**base)


def make_world(cfg, n_prompts=2):
    rng = np.random.default_rng(cfg.seed + 100)
    base = flowgen.init_net(rng, cfg.frame_dim, cfg.clip_len, cfg.prompt_dim, cfg.hidden)
    policies = nftcore.PolicyTriple.from_base(base)
    schedule = flowgen.make_schedule(cfg.raw_timesteps, cfg.shift)
    prompts = [flowgen.make_prompt(i, arng.substream(cfg.seed, arng.PROMPT_STREAM, i),
                                   cfg.prompt_dim)
               for i in range(n_prompts)]
    return policies, schedule, prompts


# --- advantages and soft labels ---


def test_advantages_center_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rng.standard_normal(rng.integers(2, 12)) * rng.uniform(0.1, 50)
        adv = nftcore.compute_advantages(r)
        assert abs(float(adv.sum())) <= 1e-12 * max(1.0, float(np.abs(r).sum()))


def test_advantages_validation():
    with pytest.raises(ValueError):
        nftcore.compute_advantages(np.array([1.0]))
    with pytest.raises(ValueError):
        nftcore.compute_advantages(np.ones((2, 2)))


def test_soft_label_mapping_hand_values():
    adv = np.array([0.0, 2.5, -2.5, 5.0, -5.0, 50.0, -50.0])
    r = nftcore.normalize_advantage(adv, 5.0)
    assert np.allclose(r, [0.5, 0.75, 0.25, 1.0, 0.0, 1.0, 0.0])
    assert np.all((r >= 0.0) & (r <= 1.0))


def test_all_equal_rewards_give_half_labels():
    adv = nftcore.compute_advantages(np.full(6, 3.7))
    r = nftcore.normalize_advantage(adv, 5.0)
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
        batch = nftcore.batch_policy_loss(r, vp_n, vm_n, x0)
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
    node = nftcore.batch_policy_loss(r, vp_n, vm_n, x0)
    assert float(node.value) == pytest.approx(plain, rel=1e-14)


def test_selective_kl_constant_offset():
    rng = np.random.default_rng(6)
    v_ref = rng.standard_normal((4, 8))
    c = 0.25
    mask = np.array([True, True, False, True])
    graph = tg.GradGraph()
    loss = nftcore.selective_kl_loss(graph.parameter("vt", v_ref + c), v_ref, mask)
    assert float(loss.value) == pytest.approx(c * c, abs=1e-15)


def test_selective_kl_only_masked_rows_count():
    v_ref = np.zeros((3, 4))
    v_theta = np.zeros((3, 4))
    v_theta[0] = 2.0   # masked: contributes 4 per element
    v_theta[2] = 99.0  # unmasked: must be invisible
    graph = tg.GradGraph()
    loss = nftcore.selective_kl_loss(graph.parameter("vt", v_theta), v_ref,
                                     np.array([True, False, False]))
    assert float(loss.value) == pytest.approx(4.0)


def test_selective_kl_empty_mask_is_plain_zero():
    v = np.ones((2, 3))
    graph = tg.GradGraph()
    out = nftcore.selective_kl_loss(graph.parameter("vt", v), v + 5.0,
                                    np.array([False, False]))
    assert isinstance(out, float)
    assert out == 0.0


def test_total_loss_combination():
    assert nftcore.total_loss(2.0, 3.0, 1e-4) == pytest.approx(2.0003)
    with pytest.raises(ValueError):
        nftcore.total_loss(1.0, 1.0, -0.1)


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
    policies, _, _ = make_world(cfg)
    rng = np.random.default_rng(8)
    for k in policies.theta:
        policies.theta[k] += rng.standard_normal(policies.theta[k].shape)
    old = policies.theta_old
    buffer = old.flat
    for gamma in (0.9, 0.99, 0.3):
        expected = {k: gamma * old[k] + (1.0 - gamma) * policies.theta[k] for k in old}
        nftcore.ema_update(old, policies.theta, gamma)
        assert old.flat is buffer
        for k in expected:
            assert np.array_equal(old[k], expected[k])
            assert np.shares_memory(old[k], buffer)


def test_ema_allocates_no_vector_sized_temporaries():
    cfg = small_config(hidden=128, frame_dim=8, clip_len=4)
    policies, _, _ = make_world(cfg)

    def tick():
        nftcore.ema_update(policies.theta_old, policies.theta, 0.9)

    for _ in range(2):
        tick()
    tracemalloc.start()
    try:
        tick()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < policies.theta_old.flat.nbytes / 4, peak


def test_ema_validates_gamma():
    p = tg.flatten({"w": np.zeros(2)})
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            nftcore.ema_update(p, p, bad)


def test_reset_trigger_kl_strictly_greater():
    state = nftcore.TrainState(epoch=5, last_reset_epoch=0)
    assert not nftcore.maybe_reset_reference(state, 0.05, 0.05, 20)
    assert state.last_reset_epoch == 0
    assert nftcore.maybe_reset_reference(state, 0.050001, 0.05, 20)
    assert state.last_reset_epoch == 5


def test_reset_trigger_staleness_strictly_greater():
    state = nftcore.TrainState(epoch=20, last_reset_epoch=0)
    assert not nftcore.maybe_reset_reference(state, 0.0, 0.05, 20)  # k - k_last == k_max
    state.epoch = 21
    assert nftcore.maybe_reset_reference(state, 0.0, 0.05, 20)
    assert state.last_reset_epoch == 21


# --- full loss graph against finite differences ---


def synthetic_scored_group(cfg, rng):
    prompt = flowgen.make_prompt(0, arng.substream(cfg.seed, arng.PROMPT_STREAM, 0),
                                 cfg.prompt_dim)
    g = cfg.group_size
    width = cfg.clip_len * cfg.frame_dim
    x0 = rng.standard_normal((g, width))
    ctx = rng.standard_normal((g, 2 * cfg.frame_dim))
    adv = nftcore.compute_advantages(rng.standard_normal(g) * 2.0)
    mask = rng.random(g) < 0.5
    data = nftcore.GroupData(
        prompt=prompt, x0_rows=x0, ctx_rows=ctx,
        row_candidate=np.arange(g),
        clips=[x0[i].reshape(cfg.clip_len, cfg.frame_dim) for i in range(g)])
    return nftcore.ScoredGroup(data=data, raw_scores=np.zeros((g, 3)),
                               advantages=adv, mask=mask, tau=1.0)


def test_group_loss_gradient_matches_finite_differences():
    cfg = small_config(lambda_kl=0.05)
    rng = np.random.default_rng(8)
    policies, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, rng)
    if not scored.mask.any():
        scored.mask[0] = True  # exercise the KL term too
    t = 0.8
    eps = rng.standard_normal(scored.data.x0_rows.shape)

    graph, loss, info = nftcore.build_group_loss(policies, scored, cfg, t, eps)
    grads = tg.backward(graph, loss)
    assert info["masked"] >= 1

    h = 1e-5
    for name in list(policies.theta):
        arr = policies.theta[name]
        it = np.nditer(arr, flags=["multi_index"])
        fd = np.zeros_like(arr)
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            _, lp, _ = nftcore.build_group_loss(policies, scored, cfg, t, eps)
            arr[idx] = orig - h
            _, lm, _ = nftcore.build_group_loss(policies, scored, cfg, t, eps)
            arr[idx] = orig
            fd[idx] = (float(lp.value) - float(lm.value)) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-6)
        assert np.max(np.abs(fd - grads[name]) / denom) <= 1e-5, name


def test_group_loss_keeps_old_and_ref_off_graph():
    cfg = small_config()
    rng = np.random.default_rng(9)
    policies, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, rng)
    graph, loss, _ = nftcore.build_group_loss(
        policies, scored, cfg, 0.9, rng.standard_normal(scored.data.x0_rows.shape))
    assert set(graph.params) == set(policies.theta)


# --- optimizer step and epoch loop ---


def test_optimize_group_ema_interval():
    cfg = small_config(ema_interval=2)
    rng = np.random.default_rng(10)
    policies, schedule, prompts = make_world(cfg)
    state = nftcore.TrainState()
    opt = tg.AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay)
    scored = synthetic_scored_group(cfg, rng)

    before = nftcore.copy_params(policies.theta_old)
    nftcore.optimize_group(policies, scored, state, cfg, schedule, opt, epoch=0)
    for k in before:  # steps=1, interval 2: no EMA tick yet
        assert np.array_equal(policies.theta_old[k], before[k])
    nftcore.optimize_group(policies, scored, state, cfg, schedule, opt, epoch=0)
    assert any(not np.array_equal(policies.theta_old[k], before[k]) for k in before)
    assert state.steps == 2


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


def test_optimize_group_frees_its_graph_without_gc(graphs_without_gc):
    cfg = small_config()
    policies, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, np.random.default_rng(14))
    nftcore.optimize_group(policies, scored, nftcore.TrainState(), cfg, schedule,
                           tg.AdamW(lr=cfg.lr), epoch=0)
    assert len(graphs_without_gc) == 1
    assert graphs_without_gc[0]() is None


def test_pretrain_step_frees_its_graph_without_gc(graphs_without_gc):
    corpus = flowgen.make_corpus(seed=0)
    flowgen.pretrain_base(corpus, 3, arng.substream(0, arng.PRETRAIN_STREAM), hidden=16)
    assert len(graphs_without_gc) == 3
    assert all(ref() is None for ref in graphs_without_gc)


def test_optimize_group_computes_grad_norm_once(monkeypatch):
    cfg = small_config()
    policies, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, np.random.default_rng(15))
    calls = []
    norm = tg.global_norm
    monkeypatch.setattr(tg, "global_norm", lambda grads: calls.append(1) or norm(grads))
    for max_norm in (1e-9, 1e9):  # clipped and unclipped
        info = nftcore.optimize_group(policies, scored, nftcore.TrainState(),
                                      small_config(max_grad_norm=max_norm), schedule,
                                      tg.AdamW(lr=cfg.lr), epoch=0)
        assert info["grad_norm"] > 0.0
    assert len(calls) == 2


def test_optimize_group_clipped_step_is_bit_exact_against_per_name_reference():
    # No benchmark workload clips, so pin the clipping branch here: backward's
    # arrays copied, scaled by max_norm / norm, then the per-name AdamW loop.
    cfg = small_config(max_grad_norm=1e-6)
    policies, schedule, _ = make_world(cfg)
    scored = synthetic_scored_group(cfg, np.random.default_rng(16))
    t = nftcore.draw_noise_level(cfg, schedule, 0, scored.data.prompt.pid)
    eps = arng.substream(cfg.seed, arng.EPS_STREAM, 0, scored.data.prompt.pid) \
        .standard_normal(scored.data.x0_rows.shape)
    graph, loss, _ = nftcore.build_group_loss(policies, scored, cfg, t, eps)
    grads = {k: g.copy() for k, g in tg.backward(graph, loss).items()}
    norm = float(np.sqrt(sum(float(np.sum(np.square(grads[k]))) for k in sorted(grads))))
    assert norm > 1e3 * cfg.max_grad_norm
    scaled = {k: g * (cfg.max_grad_norm / norm) for k, g in grads.items()}
    theta_ref = {k: v.copy() for k, v in policies.theta.items()}
    m_ref, v_ref = {}, {}
    reference_adamw_step(theta_ref, scaled, m_ref, v_ref, 1, cfg.lr, cfg.adam_beta1,
                         cfg.adam_beta2, cfg.adam_eps, cfg.weight_decay)

    opt = tg.AdamW(lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                   eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    info = nftcore.optimize_group(policies, scored, nftcore.TrainState(), cfg, schedule,
                                  opt, epoch=0)
    assert info["grad_norm"] == norm
    for k in theta_ref:
        assert np.array_equal(policies.theta[k], theta_ref[k]), k
        assert np.array_equal(opt.m[k], m_ref[k]), k
        assert np.array_equal(opt.v[k], v_ref[k]), k


def test_draw_noise_level_modes():
    sched = flowgen.make_schedule()
    fixed_cfg = small_config(noise_mode="fixed", fixed_t=0.6)
    assert nftcore.draw_noise_level(fixed_cfg, sched, 0, 0) == 0.6
    cfg = small_config()
    t1 = nftcore.draw_noise_level(cfg, sched, 3, 1)
    t2 = nftcore.draw_noise_level(cfg, sched, 3, 1)
    assert t1 == t2
    assert t1 in sched.values
    draws = {nftcore.draw_noise_level(cfg, sched, e, 0) for e in range(40)}
    assert len(draws) > 1


def test_score_group_advantage_source():
    cfg = small_config()
    rng = np.random.default_rng(11)
    scored_data = synthetic_scored_group(cfg, rng).data
    norm_a, norm_b = rewardlab.RewardNormalizer(), rewardlab.RewardNormalizer()
    risk_a, risk_b = rewardlab.RiskState(), rewardlab.RiskState()
    composite = nftcore.score_group(scored_data, cfg, norm_a, risk_a)
    primary_cfg = small_config(advantage_source="primary")
    primary = nftcore.score_group(scored_data, primary_cfg, norm_b, risk_b)
    assert not np.allclose(composite.advantages, primary.advantages)
    assert abs(composite.advantages.sum()) <= 1e-12
    assert abs(primary.advantages.sum()) <= 1e-12


def test_train_epoch_runs_and_is_deterministic():
    results = []
    for _ in range(2):
        cfg = small_config()
        policies, schedule, prompts = make_world(cfg)
        state = nftcore.TrainState()
        opt = tg.AdamW(lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                       eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
        metrics = longtune.train_window_epoch(
            policies, prompts, state, cfg, schedule,
            rewardlab.RewardNormalizer(), rewardlab.RiskState(rho0=cfg.rho0, rho=cfg.rho0),
            opt)
        results.append((metrics, policies.theta))
    m1, m2 = results[0][0].to_json_dict(), results[1][0].to_json_dict()
    for key in m1:
        assert m1[key] == m2[key], key
    for k in results[0][1]:
        assert np.array_equal(results[0][1][k], results[1][1][k])
    assert m1["epoch"] == 0
    assert 0.0 <= m1["mask_fraction"] <= 1.0


def test_train_epoch_advances_state():
    cfg = small_config()
    policies, schedule, prompts = make_world(cfg)
    state = nftcore.TrainState()
    opt = tg.AdamW(lr=cfg.lr)
    longtune.train_window_epoch(policies, prompts, state, cfg, schedule,
                                rewardlab.RewardNormalizer(), rewardlab.RiskState(), opt)
    assert state.epoch == 1
    assert state.steps == len(prompts)


def per_prompt_short_group(theta_old, prompt, epoch, cfg, schedule):
    """Reference: one prompt's candidate group decoded on its own, G rows per call."""
    ctx = streamctx.empty_context(cfg.sink_size, cfg.window_size, cfg.frame_dim)
    key = streamctx.group_base_key(cfg.seed, epoch, prompt.pid)
    streams = [arng.substream(*key, i) for i in range(cfg.group_size)]
    summary = np.tile(ctx.summary(), (cfg.group_size, 1))
    return flowgen.sample_clips(theta_old, summary, prompt.vec, schedule, streams)


def short_mode_rollout(theta_old, prompts, epoch, cfg, schedule):
    """Short mode's rollout: the streaming window of one clip at clip 0."""
    spec = longtune.epoch_window(cfg, epoch)
    return longtune.window_rollout(theta_old, prompts, spec, cfg, schedule, epoch)


def test_short_rollout_matches_per_prompt_reference():
    cfg = small_config()
    policies, schedule, prompts = make_world(cfg, n_prompts=5)
    g = cfg.group_size
    groups = short_mode_rollout(policies.theta_old, prompts, 3, cfg, schedule)
    assert [d.prompt for d in groups] == prompts
    for prompt, data in zip(prompts, groups):
        ref = per_prompt_short_group(policies.theta_old, prompt, 3, cfg, schedule)
        assert np.array_equal(data.x0_rows, ref.reshape(g, -1))
        assert np.array_equal(np.stack(data.clips), ref)
        assert np.array_equal(data.ctx_rows, np.zeros((g, 2 * cfg.frame_dim)))
        assert np.array_equal(data.row_candidate, np.arange(g))


def test_short_rollout_group_independent_of_other_prompts():
    cfg = small_config()
    policies, schedule, prompts = make_world(cfg, n_prompts=4)
    together = short_mode_rollout(policies.theta_old, prompts, 1, cfg, schedule)
    reversed_order = short_mode_rollout(policies.theta_old, prompts[::-1], 1, cfg,
                                        schedule)[::-1]
    for k, prompt in enumerate(prompts):
        (alone,) = short_mode_rollout(policies.theta_old, [prompt], 1, cfg, schedule)
        assert np.array_equal(alone.x0_rows, together[k].x0_rows)
        assert np.array_equal(reversed_order[k].x0_rows, together[k].x0_rows)


def test_train_epoch_abort_names_prompt_whose_rows_blew_up():
    cfg = small_config()
    policies, schedule, prompts = make_world(cfg, n_prompts=4)
    prompts[2] = dataclasses.replace(prompts[2], vec=np.full_like(prompts[2].vec, np.nan))
    with pytest.raises(nftcore.EpochAborted) as exc:
        longtune.train_window_epoch(policies, prompts, nftcore.TrainState(), cfg, schedule,
                                    rewardlab.RewardNormalizer(), rewardlab.RiskState(),
                                    tg.AdamW(lr=cfg.lr))
    assert exc.value.pid == prompts[2].pid
    assert isinstance(exc.value.cause, tg.NonFiniteError)


def test_train_epoch_aborts_on_optimization_overflow():
    # Clean rows far outside float range once squared: the loss graph must
    # refuse and the epoch must abort with a diagnostic, not emit NaN params.
    cfg = small_config()
    policies, schedule, _ = make_world(cfg)
    rng = np.random.default_rng(12)

    def huge_group():
        data = synthetic_scored_group(cfg, rng).data
        return nftcore.GroupData(
            prompt=data.prompt,
            x0_rows=np.full_like(data.x0_rows, 1e200),
            ctx_rows=data.ctx_rows,
            row_candidate=data.row_candidate,
            clips=data.clips)

    with pytest.raises(nftcore.EpochAborted):
        with np.errstate(all="ignore"):
            nftcore.train_epoch(policies, [huge_group(), huge_group()], nftcore.TrainState(),
                                cfg, schedule, rewardlab.RewardNormalizer(),
                                rewardlab.RiskState(), tg.AdamW(lr=cfg.lr))


def test_first_layer_overflow_aborts_at_its_matmul():
    # theta's first layer at the float64 maximum overflows x @ w1; tanh would
    # saturate it to 1, so the per-primitive check is what catches it.
    cfg = small_config()
    policies, schedule, _ = make_world(cfg)
    policies.theta["w1"][...] = np.finfo(np.float64).max
    rng = np.random.default_rng(17)
    with pytest.raises(tg.NonFiniteError, match="primitive 'matmul'"):
        nftcore.optimize_group(policies, synthetic_scored_group(cfg, rng), nftcore.TrainState(),
                               cfg, schedule, tg.AdamW(lr=cfg.lr), epoch=0)
    groups = [synthetic_scored_group(cfg, rng).data for _ in range(2)]
    with pytest.raises(nftcore.EpochAborted) as exc:
        nftcore.train_epoch(policies, groups, nftcore.TrainState(), cfg, schedule,
                            rewardlab.RewardNormalizer(), rewardlab.RiskState(),
                            tg.AdamW(lr=cfg.lr))
    assert exc.value.pid == groups[0].prompt.pid
    assert "primitive 'matmul'" in str(exc.value.cause)


def test_epoch_mode_ema_ticks_once_per_epoch():
    cfg = small_config(ema_mode="epoch")
    policies, schedule, prompts = make_world(cfg)
    before = nftcore.copy_params(policies.theta_old)
    state = nftcore.TrainState()
    longtune.train_window_epoch(policies, prompts, state, cfg, schedule,
                                rewardlab.RewardNormalizer(), rewardlab.RiskState(),
                                tg.AdamW(lr=cfg.lr))
    # exactly one EMA application: old' = gamma*old + (1-gamma)*theta_final
    # cannot reconstruct theta_final cheaply here, but old must have moved
    assert any(not np.array_equal(policies.theta_old[k], before[k]) for k in before)
