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
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import flowgen

VQ, MQ, TA = 0, 1, 2
N_MODELS = 3
TOP_FRAME_FRACTION = 0.3
STD_FLOOR = 1e-6
RISK_BUFFER_CAP = 32


def frame_quality(frame: np.ndarray) -> float:
    """Negative squared distance to the target manifold; 0 is perfect."""
    dist = flowgen.manifold_distance(frame)
    return -dist * dist


# Each judge scores one clip, (n_frames, frame_dim), or every clip of a
# stack, (..., n_frames, frame_dim), at once: one score per clip.


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
    """Cosine between the mean frame (restricted to prompt width) and the prompt."""
    prompt_vec = np.asarray(prompt_vec, dtype=np.float64)
    mean_frame = np.asarray(frames, dtype=np.float64).mean(axis=-2)[..., : len(prompt_vec)]
    denom = np.linalg.norm(mean_frame, axis=-1) * np.linalg.norm(prompt_vec)
    degenerate = denom < 1e-12
    cos = (mean_frame @ prompt_vec) / np.where(degenerate, 1.0, denom)
    return np.where(degenerate, 0.0, cos)[()]


def eval_rewards(clips: list[np.ndarray], prompt: flowgen.Prompt) -> np.ndarray:
    """Raw (group_size, N_MODELS) score matrix; column order VQ, MQ, TA.

    The group's clips share one shape and are judged as one stack.
    """
    frames = np.stack(clips)
    return np.stack([visual_quality(frames), motion_quality(frames),
                     text_alignment(frames, prompt.vec)], axis=1)


class RewardNormalizer:
    """Running per-prompt mean/std per judge, Welford accumulation.

    Scores are standardized against statistics that include the current
    batch, with the std floored so early constant batches stay finite.
    """

    def __init__(self, n_models: int = N_MODELS, std_floor: float = STD_FLOOR):
        self.n_models = n_models
        self.std_floor = std_floor
        self.count: dict[int, int] = {}
        self.mean: dict[int, np.ndarray] = {}
        self.m2: dict[int, np.ndarray] = {}

    def update(self, pid: int, scores: np.ndarray) -> None:
        scores = np.atleast_2d(scores)
        if scores.shape[1] != self.n_models:
            raise ValueError(f"expected {self.n_models} score columns, got {scores.shape[1]}")
        # Python floats are IEEE doubles, so this loop makes the bits a
        # numpy loop over the rows would, without its per-row overhead.
        count = self.count.get(pid, 0)
        mean = self.mean.get(pid, np.zeros(self.n_models)).tolist()
        m2 = self.m2.get(pid, np.zeros(self.n_models)).tolist()
        for row in np.asarray(scores, dtype=np.float64).tolist():
            count += 1
            for j, x in enumerate(row):
                delta = x - mean[j]
                mean[j] += delta / count
                m2[j] += delta * (x - mean[j])
        self.count[pid], self.mean[pid], self.m2[pid] = count, np.array(mean), np.array(m2)

    def standardize(self, pid: int, scores: np.ndarray) -> np.ndarray:
        if self.count.get(pid, 0) == 0:
            raise ValueError(f"no running statistics for prompt {pid}")
        std = np.sqrt(self.m2[pid] / self.count[pid])
        return (np.atleast_2d(scores) - self.mean[pid]) / np.maximum(std, self.std_floor)

    def update_and_standardize(self, pid: int, scores: np.ndarray) -> np.ndarray:
        self.update(pid, scores)
        return self.standardize(pid, scores)

    def state_dict(self) -> dict:
        pids = sorted(self.count)
        return {
            "pids": list(pids),
            "count": np.array([self.count[p] for p in pids], dtype=np.float64),
            "mean": (np.stack([self.mean[p] for p in pids])
                     if pids else np.zeros((0, self.n_models))),
            "m2": (np.stack([self.m2[p] for p in pids])
                   if pids else np.zeros((0, self.n_models))),
        }

    def load_state_dict(self, state: dict) -> None:
        self.count, self.mean, self.m2 = {}, {}, {}
        for i, pid in enumerate(int(p) for p in state["pids"]):
            self.count[pid] = int(round(float(state["count"][i])))
            self.mean[pid] = np.array(state["mean"][i], dtype=np.float64)
            self.m2[pid] = np.array(state["m2"][i], dtype=np.float64)


def aggregate_composite(standardized: np.ndarray, weights) -> np.ndarray:
    """Convex combination of standardized judge scores; rows in, scalars out."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (N_MODELS,):
        raise ValueError(f"need exactly {N_MODELS} weights")
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    return np.atleast_2d(standardized) @ weights


def rank_samples(scores: np.ndarray) -> np.ndarray:
    """Ranks within a group, 1 = highest score, ties broken by candidate index."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(scores)), -scores))
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[order] = np.arange(1, len(scores) + 1)
    return ranks


def rank_disagreement(primary_ranks: np.ndarray, aux_ranks: list[np.ndarray]) -> np.ndarray:
    """Primary rank minus the mean auxiliary rank, per candidate.

    Positive means the primary judge likes the candidate less than the
    others do; large positive values flag unreliable reward estimates.
    """
    if len(aux_ranks) == 0:
        raise ValueError("need at least one auxiliary ranking")
    aux = np.stack([np.asarray(r, dtype=np.float64) for r in aux_ranks])
    return np.asarray(primary_ranks, dtype=np.float64) - aux.mean(axis=0)


def uncertainty_mask(delta: np.ndarray, rho: float) -> tuple[float, np.ndarray]:
    """Threshold tau at the 100*(1-rho) percentile of nonnegative disagreements.

    Returns (tau, mask) with mask[i] = delta[i] > tau. With no nonnegative
    disagreement the percentile is vacuous: tau = +inf and the mask is empty.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    delta = np.asarray(delta, dtype=np.float64)
    nonneg = sorted(delta[delta >= 0.0].tolist())
    if not nonneg:
        return math.inf, np.zeros(delta.shape, dtype=bool)
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


@dataclass
class RiskState:
    """Risk ratio plus a bounded buffer of recent disagreement batches.

    rho stays at rho0 under the default constant policy; an adaptive policy
    can be plugged in as `strategy(state) -> new rho` and sees the buffer.
    """

    rho0: float = 0.2
    rho: float = 0.2
    buffer: deque = field(default_factory=lambda: deque(maxlen=RISK_BUFFER_CAP))
    strategy: Callable[["RiskState"], float] | None = None


def update_risk_ratio(state: RiskState, delta_batch: np.ndarray) -> RiskState:
    """Push one disagreement batch; oldest falls out past capacity."""
    state.buffer.append(np.array(delta_batch, dtype=np.float64))
    if state.strategy is not None:
        new_rho = float(state.strategy(state))
        if not 0.0 < new_rho <= 1.0:
            raise ValueError("risk strategy returned rho outside (0, 1]")
        state.rho = new_rho
    return state
