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
        assert np.all(np.abs(rewardlab.eval_rewards([group], [prompt])[0] - want) <= tol)
        for clip, row, row_tol in zip(group, want, tol):
            assert abs(rewardlab.visual_quality(clip) - row[rewardlab.VQ]) <= row_tol[0]


def test_every_judge_scores_a_clip_the_same_wherever_it_sits():
    # A clip's scores are the same bits whether it is judged alone, in its
    # group, or in a (P, G) stack of groups, by each judge and by
    # eval_rewards: its ranks, and so its mask, cannot depend on the batch.
    rng = np.random.default_rng(28)
    for n_frames in (1, 2, 3, 4, 7, 8, 19):
        frame_dim = int(rng.choice([2, 8, 16]))
        prompt_dim = int(rng.integers(2, frame_dim + 1))
        n_prompts, g = (int(n) for n in rng.integers(2, 9, size=2))
        stack = (rng.standard_normal((n_prompts, g, n_frames, frame_dim))
                 * rng.uniform(0.1, 10.0, size=(n_prompts, g, 1, 1)))
        prompts = [flowgen.make_prompt(p, arng.substream(0, arng.PROMPT_STREAM, p), prompt_dim)
                   for p in range(n_prompts)]
        vecs = np.stack([prompt.vec for prompt in prompts])

        def judged(clips, vec):
            return np.stack([rewardlab.visual_quality(clips), rewardlab.motion_quality(clips),
                             rewardlab.text_alignment(clips, vec)], axis=-1)
        pairs, ev = list(zip(stack, prompts)), rewardlab.eval_rewards
        alone = np.stack([[judged(clip, prompt.vec) for clip in group] for group, prompt in pairs])

        def same(where, scores):
            assert np.array_equal(alone, np.asarray(scores)), (n_frames, where)
        same("group", [judged(group, prompt.vec) for group, prompt in pairs])
        same("alone, eval_rewards", [[ev([[clip]], [prompt])[0, 0] for clip in group]
                                     for group, prompt in pairs])
        same("group, eval_rewards", [ev([group], [prompt])[0] for group, prompt in pairs])
        same("stack", judged(stack, vecs[:, None]))
        same("stack, eval_rewards", ev(stack, prompts))


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
    scores = rewardlab.eval_rewards([clips], [prompt])[0]
    assert scores.shape == (3, rewardlab.N_MODELS)


# --- standardization ---


def test_normalizer_running_stats():
    norm = rewardlab.RewardNormalizer()
    batch1 = np.array([[1.0, 10.0, 100.0], [3.0, 10.0, 100.0]])
    z1 = norm.update_and_standardize([0], batch1[None])[0]
    # after update: mean (2,10,100), biased std (1,0,0) with floor on zeros
    assert np.allclose(z1[:, 0], [-1.0, 1.0])
    assert np.allclose(z1[:, 1], 0.0)
    assert np.allclose(z1[:, 2], 0.0)

    # second batch folds into the same running stats
    batch2 = np.array([[5.0, 10.0, 100.0], [7.0, 10.0, 100.0]])
    z2 = norm.update_and_standardize([0], batch2[None])[0]
    pooled = np.concatenate([batch1[:, 0], batch2[:, 0]])
    expect = (batch2[:, 0] - pooled.mean()) / pooled.std()
    assert np.allclose(z2[:, 0], expect)


def test_normalizer_is_per_prompt():
    norm = rewardlab.RewardNormalizer()
    norm.update_and_standardize([0], np.array([[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]]))
    # a fresh prompt id starts from scratch: its own two values standardize to +-1
    z = norm.update_and_standardize([1], np.array([[[100.0, 0.0, 0.0], [102.0, 0.0, 0.0]]]))
    assert np.allclose(z[0, :, 0], [-1.0, 1.0])


def test_normalizer_std_floor():
    norm = rewardlab.RewardNormalizer()
    z = norm.update_and_standardize([0], np.full((1, 4, 3), 5.0))
    assert np.all(np.isfinite(z))
    assert np.allclose(z, 0.0)


def test_normalizer_state_roundtrip():
    # A normalizer rebuilt from its four arrays, as a checkpoint restores
    # it, continues bit for bit.
    norm = rewardlab.RewardNormalizer()
    rng = np.random.default_rng(0)
    norm.update_and_standardize([1, 0], rng.standard_normal((2, 8, 3)))
    assert norm.pids.tolist() == [0, 1] and norm.count.tolist() == [8.0, 8.0]
    clone = rewardlab.RewardNormalizer(norm.pids.copy(), norm.count.copy(), norm.mean.copy(),
                                       norm.m2.copy())
    batch = rng.standard_normal((1, 8, 3))
    assert np.array_equal(
        norm.update_and_standardize([0], batch.copy()),
        clone.update_and_standardize([0], batch.copy()))


def numpy_row_welford(count, mean, m2, scores):
    """Reference: the Welford update as numpy ops on one row at a time."""
    for row in np.atleast_2d(scores):
        count += 1
        delta = row - mean
        mean = mean + delta / count
        m2 = m2 + delta * (row - mean)
    return count, mean, m2


def test_normalizer_update_is_bit_exact_against_numpy_row_loop():
    # Batches of 1-8 distinct pids in random order, pids first seen
    # mid-stream, 1-24 rows and scales from 1e-8 to 1e8: the statistics and
    # the standardized scores equal the per-pid numpy row loop bit for bit.
    rng = np.random.default_rng(11)
    norm = rewardlab.RewardNormalizer()
    ref = {}
    zero = np.zeros(rewardlab.N_MODELS)

    def bits(a):
        return np.asarray(a, dtype=np.float64).view(np.uint64)

    for step in range(600):
        pool = 4 if step < 200 else 12  # pids 4-11 first appear mid-stream
        pids = rng.permutation(pool)[:int(rng.integers(1, 9))]
        rows = int(rng.integers(1, 25))
        scale = 10.0 ** rng.uniform(-8, 8, size=(len(pids), 1, rewardlab.N_MODELS))
        scores = (rng.standard_normal((len(pids), rows, rewardlab.N_MODELS)) * scale
                  + rng.uniform(-1, 1, size=(len(pids), 1, 1)))
        z = norm.update_and_standardize(pids, scores)
        for pid, block, z_block in zip(pids.tolist(), scores, z):
            ref[pid] = numpy_row_welford(*ref.get(pid, (0, zero, zero)), block)
            count, mean, m2 = ref[pid]
            want = (block - mean) / np.maximum(np.sqrt(m2 / count), rewardlab.STD_FLOOR)
            assert np.array_equal(bits(z_block), bits(want))
        assert norm.pids.tolist() == sorted(ref)
        for i, pid in enumerate(norm.pids.tolist()):
            count, mean, m2 = ref[pid]
            assert norm.count[i] == count
            assert np.array_equal(bits(norm.mean[i]), bits(mean))
            assert np.array_equal(bits(norm.m2[i]), bits(m2))


def test_normalizer_refuses_a_pid_named_twice():
    norm = rewardlab.RewardNormalizer()
    with pytest.raises(ValueError, match="twice"):
        norm.update_and_standardize([3, 1, 3], np.zeros((3, 4, rewardlab.N_MODELS)))
    assert norm.pids.size == 0


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 2), (3, 4, 3), (2, 0, 3), (2, 1, 4, 3)])
def test_normalizer_refuses_scores_not_shaped_prompts_rows_judges(shape):
    norm = rewardlab.RewardNormalizer()
    with pytest.raises(ValueError, match=r"not \(P, rows, 3\)"):
        norm.update_and_standardize([0, 1], np.zeros(shape))
    assert norm.pids.size == 0


# --- composite and ranks ---


def test_composite_single_model_selection():
    z = np.array([[1.0, -5.0, 3.0], [2.0, 7.0, -1.0]])
    out = rewardlab.aggregate_composite(z, (1.0, 0.0, 0.0))
    assert np.allclose(out, [1.0, 2.0])


def test_rank_samples_best_is_one_and_ties_by_index():
    scores = np.array([0.3, 0.9, 0.3, 0.1])
    ranks = rewardlab.rank_samples(scores)
    # 0.9 first; the two 0.3s tie and resolve in index order
    assert list(ranks) == [2, 1, 3, 4]


def test_stacked_ranks_match_per_group_lexsort():
    # Ranking a stack along its last axis breaks ties by candidate index,
    # as a lexsort on (index, -score) of each group alone does; 0.0 and
    # -0.0 tie. Groups of 40 are past the size at which an unstable sort
    # still keeps ties in order.
    rng = np.random.default_rng(14)
    scores = rng.integers(-2, 3, size=(4, 3, 40)).astype(np.float64)
    scores[0, 0, :2] = [0.0, -0.0]
    ranks = rewardlab.rank_samples(scores)
    for idx in np.ndindex(scores.shape[:-1]):
        want = np.empty(scores.shape[-1], dtype=np.int64)
        want[np.lexsort((np.arange(scores.shape[-1]), -scores[idx]))] = np.arange(1, 41)
        assert np.array_equal(ranks[idx], want), idx


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
    # Rank disagreements sum to 0, so a judged group always has a
    # nonnegative one; a delta without any has no threshold.
    with pytest.raises(ValueError, match="nonnegative"):
        rewardlab.uncertainty_mask(np.array([-1.0, -0.5]), 0.2)


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
        nonneg = delta[delta >= 0.0]
        if nonneg.size == 0:
            assert draw % 2 == 0  # only the continuous draws can lack one
            with pytest.raises(ValueError):
                rewardlab.uncertainty_mask(delta, rho)
            continue
        tau, mask = rewardlab.uncertainty_mask(delta, rho)
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
