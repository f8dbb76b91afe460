"""Multi-model rewards, group-wise ranking, and rank-disagreement masking.

Three scalar judges score each candidate: visual quality (how close the
best frames sit to the target manifold), motion quality (smoothness of a
fixed scalar projection over time), and text alignment (cosine between the
mean frame and the prompt embedding). The primary judge is visual quality.
Disagreement between the primary judge's ranking and the others' marks
candidates whose reward estimate is unreliable; those are the ones the
selective regularizer pins to the reference policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import flowgen

VQ, MQ, TA = 0, 1, 2
N_MODELS = 3
TOP_FRAME_FRACTION = 0.3
STD_FLOOR = 1e-6


def frame_quality(frame: np.ndarray) -> float:
    """Negative squared distance to the target manifold; 0 is perfect."""
    dist = flowgen.manifold_distance(frame)
    return -dist * dist


# Each judge scores one clip, (n_frames, frame_dim), or every clip of a
# stack, (..., n_frames, frame_dim), at once: one score per clip, the same
# bits wherever the clip sits, as every reduction runs along its own axes.


def visual_quality(frames: np.ndarray):
    """Mean frame quality over the best top-fraction frames (count by ceiling).

    Scoring only the strongest frames tolerates transients; it is also the
    exploitable part of this judge, which is the point of having the others.
    """
    frames = np.asarray(frames, dtype=np.float64)
    # frame_quality of every frame
    radial = np.hypot(frames[..., 0], frames[..., 1]) - flowgen.RADIUS
    dist = np.sqrt(radial * radial + np.sum(frames[..., 2:] * frames[..., 2:], axis=-1))
    per_frame = -dist * dist
    keep = math.ceil(TOP_FRAME_FRACTION * per_frame.shape[-1])
    top = np.sort(per_frame, axis=-1)[..., ::-1][..., :keep]
    return top.mean(axis=-1)


def motion_quality(frames: np.ndarray):
    """Negative mean squared second difference of the mean-coordinate projection."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-2] < 3:
        return np.zeros(frames.shape[:-2])[()]
    s = frames.mean(axis=-1)
    dd = s[..., 2:] - 2.0 * s[..., 1:-1] + s[..., :-2]
    return -np.mean(dd * dd, axis=-1)


def text_alignment(frames: np.ndarray, prompt_vec: np.ndarray):
    """Cosine between the mean frame (restricted to prompt width) and the
    prompt, or a stack of prompts broadcast against the clips' leading axes."""
    prompt_vec = np.asarray(prompt_vec, dtype=np.float64)
    mean_frame = np.asarray(frames, dtype=np.float64).mean(axis=-2)[..., : prompt_vec.shape[-1]]
    denom = np.linalg.norm(mean_frame, axis=-1) * np.linalg.norm(prompt_vec, axis=-1)
    degenerate = denom < 1e-12
    cos = np.sum(mean_frame * prompt_vec, axis=-1) / np.where(degenerate, 1.0, denom)
    return np.where(degenerate, 0.0, cos)[()]


def eval_rewards(clips: np.ndarray, prompts: list[flowgen.Prompt]) -> np.ndarray:
    """Raw (P, group_size, N_MODELS) scores, column order VQ, MQ, TA, of a
    (P, group_size, n_frames, frame_dim) stack of P groups' clips, group p
    judged against prompts[p]."""
    frames, vecs = np.asarray(clips, dtype=np.float64), np.stack([p.vec for p in prompts])
    return np.stack([visual_quality(frames), motion_quality(frames),
                     text_alignment(frames, vecs[:, None])], axis=-1)


@dataclass
class RewardNormalizer:
    """Running per-prompt mean and (biased) variance per judge, by Welford
    accumulation, held as the arrays a checkpoint saves: row i holds prompt
    pids[i]'s count (n,), mean and m2 (n, N_MODELS), rows in ascending pid
    order.

    Scores are standardized against statistics that include the current
    batch, with the std floored so early constant batches stay finite.
    """

    pids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    count: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mean: np.ndarray = field(default_factory=lambda: np.zeros((0, N_MODELS)))
    m2: np.ndarray = field(default_factory=lambda: np.zeros((0, N_MODELS)))

    def update_and_standardize(self, pids, scores: np.ndarray) -> np.ndarray:
        """Fold each prompt's rows of scores, (P, rows, N_MODELS) with row p
        for pids[p], into its statistics in row order, then standardize them.
        A pid not seen before starts from zero statistics; one named twice is
        refused. The arithmetic is the scalar Welford loop's, for all prompts
        at once."""
        pids = np.asarray(pids, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if (pids.ndim != 1 or scores.ndim != 3 or scores.shape[::2] != (len(pids), N_MODELS)
                or scores.shape[1] == 0):
            raise ValueError(f"scores of shape {scores.shape} are not (P, rows, {N_MODELS}) "
                             f"for P = {pids.size} pids")
        named = set(pids.tolist())
        if len(named) != len(pids):
            raise ValueError(f"pids {pids.tolist()} name a prompt twice")
        new = sorted(named.difference(self.pids.tolist()))
        if new:  # zero rows, each at its place in pid order
            at = np.searchsorted(self.pids, new)
            self.pids, self.count = np.insert(self.pids, at, new), np.insert(self.count, at, 0.0)
            self.mean, self.m2 = (np.insert(a, at, 0.0, axis=0) for a in (self.mean, self.m2))
        rows = np.searchsorted(self.pids, pids)
        count, mean, m2 = self.count[rows], self.mean[rows], self.m2[rows]
        delta, step = np.empty_like(mean), np.empty_like(mean)
        for x in scores.transpose(1, 0, 2):  # mean += (x - mean) / count, etc., in place
            count += 1.0
            np.subtract(x, mean, out=delta)
            mean += np.divide(delta, count[:, None], out=step)
            m2 += np.multiply(delta, np.subtract(x, mean, out=step), out=step)
        self.count[rows], self.mean[rows], self.m2[rows] = count, mean, m2
        std = np.sqrt(m2 / count[:, None])
        return (scores - mean[:, None]) / np.maximum(std, STD_FLOOR)[:, None]


def aggregate_composite(standardized: np.ndarray, weights) -> np.ndarray:
    """Convex combination of standardized judge scores by a config's
    reward_weights (one per judge, nonnegative, summing to 1); rows in,
    scalars out."""
    return np.atleast_2d(standardized) @ np.asarray(weights, dtype=np.float64)


def rank_samples(scores: np.ndarray) -> np.ndarray:
    """Ranks within each group along the last axis, 1 = highest score, ties
    broken by candidate index: the inverse of a stable sort's order."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")
    return np.argsort(order, axis=-1) + 1


def rank_disagreement(primary_ranks: np.ndarray, aux_ranks: list[np.ndarray]) -> np.ndarray:
    """Primary rank minus the mean auxiliary rank, per candidate, of one
    group or of a stack of groups.

    Positive means the primary judge likes the candidate less than the
    others do; large positive values flag unreliable reward estimates.
    """
    aux = np.stack([np.asarray(r, dtype=np.float64) for r in aux_ranks])
    return np.asarray(primary_ranks, dtype=np.float64) - aux.mean(axis=0)


def uncertainty_mask(delta: np.ndarray, rho: float) -> tuple[float, np.ndarray]:
    """Threshold tau at the 100*(1-rho) percentile of nonnegative disagreements.

    Returns (tau, mask) with mask[i] = delta[i] > tau, rho being a config's
    rho0, in (0, 1]. A group's rank disagreements sum to 0, so one of them
    is always nonnegative; a delta with none raises ValueError.
    """
    delta = np.asarray(delta, dtype=np.float64)
    nonneg = sorted(delta[delta >= 0.0].tolist())
    if not nonneg:
        raise ValueError("no nonnegative disagreement to threshold")
    # np.percentile(nonneg, 100 * (1 - rho), method="linear") in numpy's own
    # arithmetic, without its per-call overhead: the virtual index between
    # two sorted neighbours, then numpy's two-sided lerp. Past the last
    # index numpy takes the last value twice, with gamma = index + 1.
    last = len(nonneg) - 1
    index = last * ((100.0 * (1.0 - rho)) / 100)
    if index >= last:
        lo, hi, gamma = last, last, index + 1
    else:
        lo = math.floor(index)
        hi, gamma = lo + 1, index - lo
    a, b = nonneg[lo], nonneg[hi]
    diff = b - a
    tau = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    return tau, delta > tau
