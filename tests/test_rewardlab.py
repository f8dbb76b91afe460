"""Reward models, standardization, ranking, and the uncertainty mask."""

from __future__ import annotations

import numpy as np
import pytest

from astro import flowgen, rewardlab, rng as arng


def on_manifold_clip(n_frames=4, dim=8, phase=0.0):
    return flowgen.target_clip(phase, 0, n_frames, dim)


# --- individual reward models ---


def test_visual_quality_perfect_on_manifold():
    clip = on_manifold_clip()
    assert rewardlab.visual_quality(clip) == pytest.approx(0.0, abs=1e-24)


def test_visual_quality_scores_only_best_frames():
    # 4 frames, top ceil(0.3*4)=2 count. Two perfect frames mask two awful ones.
    clip = on_manifold_clip().copy()
    clip[2] = 100.0
    clip[3] = -100.0
    assert rewardlab.visual_quality(clip) == pytest.approx(0.0, abs=1e-18)
    # while the mean over all frames would be catastrophic
    per_frame = [rewardlab.frame_quality(f) for f in clip]
    assert np.mean(per_frame) < -1000.0


def test_visual_quality_hand_value():
    # frames at radius 2 and radius 1: distances 1 and 0, top-1 of 3 frames
    # picks the best (0), top-2 averages {0, -1}.
    dim = 4
    clip = np.zeros((3, dim))
    clip[0, 0] = 2.0   # distance 1
    clip[1, 0] = 1.0   # distance 0
    clip[2, 0] = 3.0   # distance 2
    # ceil(0.3*3) = 1 -> only the best frame counts
    assert rewardlab.visual_quality(clip) == pytest.approx(0.0, abs=1e-18)


def reference_scores(clip, prompt_vec):
    """The judges written per frame and per clip: the reference for the stacked ones."""
    per_frame = np.array([rewardlab.frame_quality(f) for f in clip])
    keep = int(np.ceil(rewardlab.TOP_FRAME_FRACTION * len(per_frame)))
    vq = float(np.mean(np.sort(per_frame)[::-1][:keep]))
    mq = 0.0
    if len(clip) >= 3:
        s = clip.mean(axis=1)
        dd = s[2:] - 2.0 * s[1:-1] + s[:-2]
        mq = float(-np.mean(dd * dd))
    mean_frame = clip.mean(axis=0)[: len(prompt_vec)]
    denom = float(np.linalg.norm(mean_frame)) * float(np.linalg.norm(prompt_vec))
    ta = 0.0 if denom < 1e-12 else float(np.dot(mean_frame, prompt_vec) / denom)
    return np.array([vq, mq, ta])


def judge_groups(rng):
    """Groups of same-shape clips: random, near the manifold, all transients, all zero."""
    groups = []
    for n in (1, 2, 4, 7, 8, 19):
        groups.append(rng.standard_normal((6, n, 8)) * rng.uniform(0.1, 10.0))
        phases = rng.uniform(0.0, 7.0, size=6)
        groups.append(np.stack([on_manifold_clip(n, 8, ph) for ph in phases])
                      + 1e-3 * rng.standard_normal((6, n, 8)))
        # every frame far off the manifold in every coordinate
        groups.append(rng.choice([-1.0, 1.0], size=(6, n, 8))
                      * rng.uniform(50.0, 500.0, size=(6, n, 8)))
        groups.append(np.zeros((6, n, 8)))  # degenerate alignment
    return groups


def test_stacked_judges_match_per_frame_reference():
    rng = np.random.default_rng(13)
    prompt = flowgen.make_prompt(0, arng.substream(0, arng.PROMPT_STREAM, 0))
    for group in judge_groups(rng):
        want = np.stack([reference_scores(clip, prompt.vec) for clip in group])
        tol = 1e-12 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(rewardlab.eval_rewards(list(group), prompt) - want) <= tol)
        for clip, row, row_tol in zip(group, want, tol):
            assert abs(rewardlab.visual_quality(clip) - row[rewardlab.VQ]) <= row_tol[0]


def test_motion_quality_constant_speed_is_zero():
    # per-frame coordinate means advancing linearly have zero second difference
    clip = np.outer(np.arange(5.0), np.ones(4))
    assert rewardlab.motion_quality(clip) == pytest.approx(0.0, abs=1e-18)


def test_motion_quality_hand_value():
    # means 0, 1, 3 -> second difference 1 -> reward -1
    clip = np.stack([np.zeros(4), np.ones(4), np.full(4, 3.0)])
    assert rewardlab.motion_quality(clip) == pytest.approx(-1.0)


def test_motion_quality_short_clip_neutral():
    assert rewardlab.motion_quality(np.zeros((2, 4))) == 0.0


def test_text_alignment_sign_and_degenerate():
    prompt = flowgen.make_prompt(0, arng.substream(0, arng.PROMPT_STREAM, 0))
    aligned = np.tile(np.concatenate([prompt.vec, np.zeros(4)]), (4, 1))
    assert rewardlab.text_alignment(aligned, prompt.vec) == pytest.approx(1.0)
    anti = -aligned
    assert rewardlab.text_alignment(anti, prompt.vec) == pytest.approx(-1.0)
    assert rewardlab.text_alignment(np.zeros((4, 8)), prompt.vec) == 0.0


def test_eval_rewards_shape():
    prompt = flowgen.make_prompt(0, arng.substream(0, arng.PROMPT_STREAM, 0))
    clips = [on_manifold_clip(phase=p) for p in (0.0, 0.5, 1.0)]
    scores = rewardlab.eval_rewards(clips, prompt)
    assert scores.shape == (3, rewardlab.N_MODELS)


# --- standardization ---


def test_normalizer_running_stats():
    norm = rewardlab.RewardNormalizer()
    batch1 = np.array([[1.0, 10.0, 100.0], [3.0, 10.0, 100.0]])
    z1 = norm.update_and_standardize(0, batch1)
    # after update: mean (2,10,100), biased std (1,0,0) with floor on zeros
    assert np.allclose(z1[:, 0], [-1.0, 1.0])
    assert np.allclose(z1[:, 1], 0.0)
    assert np.allclose(z1[:, 2], 0.0)

    # second batch folds into the same running stats
    batch2 = np.array([[5.0, 10.0, 100.0], [7.0, 10.0, 100.0]])
    z2 = norm.update_and_standardize(0, batch2)
    pooled = np.concatenate([batch1[:, 0], batch2[:, 0]])
    expect = (batch2[:, 0] - pooled.mean()) / pooled.std()
    assert np.allclose(z2[:, 0], expect)


def test_normalizer_is_per_prompt():
    norm = rewardlab.RewardNormalizer()
    norm.update_and_standardize(0, np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    # a fresh prompt id starts from scratch: its own two values standardize to +-1
    z = norm.update_and_standardize(1, np.array([[100.0, 0.0, 0.0], [102.0, 0.0, 0.0]]))
    assert np.allclose(z[:, 0], [-1.0, 1.0])


def test_normalizer_std_floor():
    norm = rewardlab.RewardNormalizer()
    z = norm.update_and_standardize(0, np.full((4, 3), 5.0))
    assert np.all(np.isfinite(z))
    assert np.allclose(z, 0.0)


def test_normalizer_state_roundtrip():
    norm = rewardlab.RewardNormalizer()
    rng = np.random.default_rng(0)
    for pid in (0, 1):
        norm.update_and_standardize(pid, rng.standard_normal((8, 3)))
    clone = rewardlab.RewardNormalizer()
    clone.load_state_dict(norm.state_dict())
    batch = rng.standard_normal((8, 3))
    assert np.array_equal(
        norm.update_and_standardize(0, batch.copy()),
        clone.update_and_standardize(0, batch.copy()))


def numpy_row_welford(count, mean, m2, scores):
    """Reference: the Welford update as numpy ops on one row at a time."""
    for row in np.atleast_2d(scores):
        count += 1
        delta = row - mean
        mean = mean + delta / count
        m2 = m2 + delta * (row - mean)
    return count, mean, m2


def test_normalizer_update_is_bit_exact_against_numpy_row_loop():
    rng = np.random.default_rng(11)
    norm = rewardlab.RewardNormalizer()
    ref = {}
    for _ in range(3000):
        pid = int(rng.integers(4))
        rows = int(rng.integers(1, 25))
        scale = 10.0 ** rng.uniform(-8, 8, size=(1, rewardlab.N_MODELS))
        scores = rng.standard_normal((rows, rewardlab.N_MODELS)) * scale + rng.uniform(-1, 1)
        zero = np.zeros(rewardlab.N_MODELS)
        ref[pid] = numpy_row_welford(*ref.get(pid, (0, zero, zero)), scores)
        norm.update(pid, scores)
        count, mean, m2 = ref[pid]
        assert norm.count[pid] == count
        assert np.array_equal(norm.mean[pid].view(np.uint64), mean.view(np.uint64))
        assert np.array_equal(norm.m2[pid].view(np.uint64), m2.view(np.uint64))


# --- composite and ranks ---


def test_composite_weight_validation():
    z = np.zeros((2, 3))
    with pytest.raises(ValueError):
        rewardlab.aggregate_composite(z, (0.5, 0.5))
    with pytest.raises(ValueError):
        rewardlab.aggregate_composite(z, (0.5, 0.6, 0.2))
    with pytest.raises(ValueError):
        rewardlab.aggregate_composite(z, (-0.2, 0.6, 0.6))


def test_composite_single_model_selection():
    z = np.array([[1.0, -5.0, 3.0], [2.0, 7.0, -1.0]])
    out = rewardlab.aggregate_composite(z, (1.0, 0.0, 0.0))
    assert np.allclose(out, [1.0, 2.0])


def test_rank_samples_best_is_one_and_ties_by_index():
    scores = np.array([0.3, 0.9, 0.3, 0.1])
    ranks = rewardlab.rank_samples(scores)
    # 0.9 first; the two 0.3s tie and resolve in index order
    assert list(ranks) == [2, 1, 3, 4]


def test_rank_disagreement_value():
    primary = np.array([1, 2, 3, 4])
    aux = np.array([[4, 3, 2, 1], [2, 1, 4, 3]])
    delta = rewardlab.rank_disagreement(primary, aux)
    assert np.allclose(delta, [1 - 3.0, 2 - 2.0, 3 - 3.0, 4 - 2.0])


# --- uncertainty mask ---


def test_uncertainty_mask_hand_example():
    # nonnegative deltas {2, 0.5, 3}, rho=0.25 -> 75th percentile by linear
    # interpolation = 2.5; only delta=3 exceeds it.
    delta = np.array([2.0, -1.0, 0.5, 3.0])
    tau, mask = rewardlab.uncertainty_mask(delta, 0.25)
    assert tau == pytest.approx(2.5)
    assert list(mask) == [False, False, False, True]


def test_uncertainty_mask_all_negative():
    tau, mask = rewardlab.uncertainty_mask(np.array([-1.0, -0.5]), 0.2)
    assert tau == np.inf
    assert not mask.any()


def test_uncertainty_mask_threshold_is_strict():
    # all nonnegative deltas equal: tau equals that value, nothing exceeds it
    tau, mask = rewardlab.uncertainty_mask(np.array([1.0, 1.0, 1.0]), 0.5)
    assert tau == 1.0
    assert not mask.any()


def test_uncertainty_mask_rho_one_masks_above_minimum():
    delta = np.array([0.5, 1.0, 2.0])
    tau, mask = rewardlab.uncertainty_mask(delta, 1.0)
    assert tau == 0.5
    assert list(mask) == [False, True, True]


def test_uncertainty_mask_rho_validation():
    with pytest.raises(ValueError):
        rewardlab.uncertainty_mask(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        rewardlab.uncertainty_mask(np.array([1.0]), 1.5)


def test_uncertainty_mask_tau_is_numpy_percentile_bit_for_bit():
    # The closed form against np.percentile(method="linear") on 20k draws:
    # half-integer deltas with ties as rank_disagreement makes them from
    # three judges' ranks, continuous deltas, n = 1, rho = 1 and random rho.
    rng = np.random.default_rng(4)
    for draw in range(20_000):
        n = int(rng.integers(1, 25))
        if draw % 2:
            ranks = [rng.permutation(n) + 1 for _ in range(3)]
            delta = rewardlab.rank_disagreement(ranks[0], ranks[1:])
        else:
            delta = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        rho = 1.0 if draw % 7 == 0 else float(rng.uniform(1e-3, 1.0))
        tau, mask = rewardlab.uncertainty_mask(delta, rho)
        nonneg = delta[delta >= 0.0]
        if nonneg.size == 0:
            assert tau == np.inf and not mask.any()
            continue
        expected = float(np.percentile(nonneg, 100.0 * (1.0 - rho), method="linear"))
        assert np.float64(tau).tobytes() == np.float64(expected).tobytes(), (delta, rho)
        assert np.array_equal(mask, delta > expected)


def test_masked_fraction_tracks_rho():
    # Over many random draws the masked share of nonnegative deltas stays
    # close to rho (linear-interpolation percentile, strict threshold).
    rng = np.random.default_rng(1)
    rho = 0.2
    fractions = []
    for _ in range(500):
        delta = rng.standard_normal(64)
        tau, mask = rewardlab.uncertainty_mask(delta, rho)
        nonneg = int(np.sum(delta >= 0))
        if nonneg:
            fractions.append(mask.sum() / nonneg)
        assert mask.sum() <= int(np.ceil(rho * nonneg)) + 1
    assert abs(np.mean(fractions) - rho) <= 0.05


# --- risk state ---


def test_risk_buffer_bounded_and_fifo():
    state = rewardlab.RiskState()
    for i in range(40):
        rewardlab.update_risk_ratio(state, np.array([float(i)]))
    assert len(state.buffer) == rewardlab.RISK_BUFFER_CAP
    assert state.buffer[0][0] == 8.0   # batches 0..7 evicted
    assert state.buffer[-1][0] == 39.0
    assert state.rho == state.rho0 == 0.2


def test_risk_strategy_hook():
    calls = []

    def shrink(state):
        calls.append(len(state.buffer))
        return max(0.05, state.rho * 0.5)

    state = rewardlab.RiskState(strategy=shrink)
    rewardlab.update_risk_ratio(state, np.array([1.0]))
    rewardlab.update_risk_ratio(state, np.array([2.0]))
    assert calls == [1, 2]
    assert state.rho == pytest.approx(0.05)
    assert state.rho0 == 0.2


def test_risk_strategy_must_return_valid_ratio():
    state = rewardlab.RiskState(strategy=lambda s: 0.0)
    with pytest.raises(ValueError):
        rewardlab.update_risk_ratio(state, np.array([1.0]))
