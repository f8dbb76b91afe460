"""Group-relative policy optimization for the few-step generator.

Each epoch rolls out candidate groups under the slow-moving policy, scores
them with the reward judges, converts group-centered advantages into soft
labels, and regresses the trainable policy so that its implied positive
branch moves toward well-scored clean clips and its negative branch away
from poorly-scored ones. Candidates whose judge rankings disagree are pulled
toward a frozen reference policy instead of being trusted; the reference
refreshes when that pull grows too large or too stale.

The engine takes its groups from a rollout function. The streaming path
in longtune supplies it for both modes (short mode is a one-clip window at
clip 0 with an empty context), so this module never decodes candidates
itself.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import flowgen, rewardlab
from . import rng as rngmod
from . import tensorgrad as tg
from .config import RunConfig


def copy_params(params: dict[str, np.ndarray]) -> tg.FlatParams:
    """An independent flat copy; plain name-keyed dicts are accepted too."""
    return tg.flatten(params)


@dataclass
class PolicyTriple:
    """Trainable policy, EMA behavior policy, and frozen reference, each flat."""

    theta: tg.FlatParams
    theta_old: tg.FlatParams
    theta_ref: tg.FlatParams

    @classmethod
    def from_base(cls, base: dict[str, np.ndarray]) -> "PolicyTriple":
        return cls(theta=copy_params(base), theta_old=copy_params(base),
                   theta_ref=copy_params(base))


@dataclass
class TrainState:
    epoch: int = 0
    last_reset_epoch: int = 0
    steps: int = 0


# --- advantage shaping ---


def compute_advantages(rewards: np.ndarray) -> np.ndarray:
    """Group-centered rewards; they sum to zero by construction."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 1 or rewards.size < 2:
        raise ValueError("need a 1-D group of at least two rewards")
    return rewards - rewards.mean()


def normalize_advantage(adv, a_max: float):
    """Map advantages into soft labels in [0, 1]; zero advantage lands on 0.5."""
    if a_max <= 0:
        raise ValueError("a_max must be positive")
    return np.clip(np.asarray(adv, dtype=np.float64) / a_max, -1.0, 1.0) / 2.0 + 0.5


# --- implicit policies and losses ---


def implicit_policies(v_theta, v_old, beta: float):
    """Positive/negative interpolated predictions around the behavior policy.

    beta=1 makes the positive branch the trainable prediction itself and the
    negative branch its reflection through the behavior prediction.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    v_plus = (1.0 - beta) * v_old + beta * v_theta
    v_minus = (1.0 + beta) * v_old - beta * v_theta
    return v_plus, v_minus


def policy_loss(r_tilde: float, v_plus, v_minus, target_x0):
    """Soft-label regression: r~ toward the target on the positive branch,
    (1 - r~) away via the negative branch. Mean-reduced over elements.

    Per-candidate numpy reference for batch_policy_loss.
    """
    if not 0.0 <= r_tilde <= 1.0:
        raise ValueError("r_tilde must lie in [0, 1]")
    return (r_tilde * float(np.mean(np.square(v_plus - target_x0)))
            + (1.0 - r_tilde) * float(np.mean(np.square(v_minus - target_x0))))


def batch_policy_loss(r_tilde_rows: np.ndarray, v_plus, v_minus, x0_rows: np.ndarray):
    """Mean over candidates of per-candidate policy_loss, in one graph expression.

    v_plus and v_minus are graph nodes; the labels and clean rows are arrays.
    Row-weighting by a constant matrix is algebraically the per-candidate
    mean: mean(W * sq) == mean_i(w_i * mean_j(sq_ij)).
    """
    width = x0_rows.shape[1]
    w = np.repeat(np.asarray(r_tilde_rows, dtype=np.float64)[:, None], width, axis=1)
    dp = v_plus - x0_rows
    dm = v_minus - x0_rows
    return (dp.square() * w).mean() + (dm.square() * (1.0 - w)).mean()


def selective_kl_loss(v_theta, v_ref: np.ndarray, mask_rows: np.ndarray):
    """Mean over masked candidates of the element-mean squared prediction gap.

    v_theta is a graph node and v_ref an array. Returns plain 0.0 when the
    mask is empty; nothing is regularized then.
    """
    mask_rows = np.asarray(mask_rows, dtype=bool)
    n_masked = int(mask_rows.sum())
    if n_masked == 0:
        return 0.0
    width = v_ref.shape[1]
    m = np.repeat(mask_rows[:, None], width, axis=1).astype(np.float64)
    return ((v_theta - v_ref).square() * m).sum() / float(n_masked * width)


def total_loss(policy, kl, lambda_kl: float):
    if lambda_kl < 0:
        raise ValueError("lambda_kl must be nonnegative")
    return policy + lambda_kl * kl


# --- reference / EMA management ---


def ema_update(theta_old: tg.FlatParams, theta: tg.FlatParams, gamma: float) -> None:
    """Soft update in place: theta_old becomes gamma * theta_old + (1 - gamma) * theta.

    Both policies must share one flat layout; the update is three
    whole-vector ops into theta_old's scratch vector, with the rounding of
    the per-element expression above.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if theta_old.keys() != theta.keys() or theta_old.flat.shape != theta.flat.shape:
        raise ValueError("EMA needs two policies with the same parameter layout")
    old = theta_old.flat
    pull = theta_old.scratch()
    old *= gamma
    np.multiply(theta.flat, 1.0 - gamma, out=pull)
    old += pull


def maybe_reset_reference(state: TrainState, l_kl: float, tau_kl: float, k_max: int) -> bool:
    """Strictly-greater triggers: KL drift past tau_kl, or staleness past k_max epochs."""
    if l_kl > tau_kl or (state.epoch - state.last_reset_epoch) > k_max:
        state.last_reset_epoch = state.epoch
        return True
    return False


# --- group construction and scoring ---


@dataclass
class GroupData:
    """One prompt's candidate group, flattened to training rows.

    Rows are candidate-major: candidate i occupies rows [i*W, (i+1)*W) where
    W is the number of clips each candidate generated. clips[i] stacks
    candidate i's frames for the reward judges.
    """

    prompt: flowgen.Prompt
    x0_rows: np.ndarray
    ctx_rows: np.ndarray
    row_candidate: np.ndarray
    clips: list[np.ndarray]


@dataclass
class ScoredGroup:
    data: GroupData
    raw_scores: np.ndarray
    advantages: np.ndarray
    mask: np.ndarray
    tau: float


def score_group(data: GroupData, cfg: RunConfig, normalizer: rewardlab.RewardNormalizer,
                risk: rewardlab.RiskState) -> ScoredGroup:
    """Judge, standardize, center into advantages, and mark rank disagreement."""
    raw = rewardlab.eval_rewards(data.clips, data.prompt)
    std = normalizer.update_and_standardize(data.prompt.pid, raw)
    if cfg.advantage_source == "composite":
        source = rewardlab.aggregate_composite(std, cfg.reward_weights)
    else:
        source = std[:, rewardlab.VQ]
    advantages = compute_advantages(source)
    ranks = [rewardlab.rank_samples(raw[:, m]) for m in range(rewardlab.N_MODELS)]
    delta = rewardlab.rank_disagreement(
        ranks[rewardlab.VQ], [r for m, r in enumerate(ranks) if m != rewardlab.VQ])
    rewardlab.update_risk_ratio(risk, delta)
    tau, mask = rewardlab.uncertainty_mask(delta, risk.rho)
    return ScoredGroup(data=data, raw_scores=raw, advantages=advantages, mask=mask, tau=tau)


# --- optimization ---


def draw_noise_level(cfg: RunConfig, schedule: flowgen.TimestepSchedule, epoch: int,
                     pid: int) -> float:
    if cfg.noise_mode == "fixed":
        return cfg.fixed_t
    stream = rngmod.substream(cfg.seed, rngmod.NOISE_T_STREAM, epoch, pid)
    return float(schedule.values[int(stream.integers(len(schedule.values)))])


def build_group_loss(policies: PolicyTriple, scored: ScoredGroup, cfg: RunConfig,
                     t: float, eps: np.ndarray):
    """Assemble one mini-batch loss graph. Returns (graph, loss node, info).

    The network input is assembled once and fed to all three policies. Only
    theta lives on the graph; the behavior and reference predictions are
    computed off-graph and enter as constants, as does everything downstream
    of the rollout (clean rows, context rows, prompt).
    """
    data = scored.data
    x_t = flowgen.forward_path(data.x0_rows, eps, t)
    x = flowgen.assemble_input(x_t, t, data.ctx_rows, data.prompt.vec)
    graph = tg.GradGraph()
    v_theta = flowgen.mlp_forward(policies.theta, x, graph)
    v_old = flowgen.mlp_forward(policies.theta_old, x)
    v_ref = flowgen.mlp_forward(policies.theta_ref, x)
    r_tilde = normalize_advantage(scored.advantages, cfg.a_max)
    r_rows = r_tilde[data.row_candidate]
    mask_rows = scored.mask[data.row_candidate]
    v_plus, v_minus = implicit_policies(v_theta, v_old, cfg.beta)
    pol = batch_policy_loss(r_rows, v_plus, v_minus, data.x0_rows)
    kl = selective_kl_loss(v_theta, v_ref, mask_rows)
    loss = total_loss(pol, kl, cfg.lambda_kl)
    info = {
        "policy_loss": float(pol.value),
        "kl_loss": float(kl.value) if isinstance(kl, tg.Node) else float(kl),
        "masked": int(mask_rows.sum()),
        "graph_nodes": len(graph),
    }
    return graph, loss, info


def optimize_group(policies: PolicyTriple, scored: ScoredGroup, state: TrainState,
                   cfg: RunConfig, schedule: flowgen.TimestepSchedule,
                   optimizer: tg.AdamW, epoch: int) -> dict:
    """One optimizer step on one prompt group; EMA tick if configured per step."""
    pid = scored.data.prompt.pid
    t = draw_noise_level(cfg, schedule, epoch, pid)
    eps_stream = rngmod.substream(cfg.seed, rngmod.EPS_STREAM, epoch, pid)
    eps = eps_stream.standard_normal(scored.data.x0_rows.shape)
    graph, loss, info = build_group_loss(policies, scored, cfg, t, eps)
    grads = tg.backward(graph, loss)
    info["grad_norm"] = tg.global_norm(grads)
    grads = tg.clip_global_norm(grads, cfg.max_grad_norm, info["grad_norm"])
    optimizer.step(policies.theta, grads)
    state.steps += 1
    if cfg.ema_mode == "step" and state.steps % cfg.ema_interval == 0:
        ema_update(policies.theta_old, policies.theta, cfg.gamma)
    return info


class EpochAborted(RuntimeError):
    """An epoch hit non-finite numerics; carries a diagnostic snapshot."""

    def __init__(self, epoch: int, pid: int, cause: Exception):
        super().__init__(f"epoch {epoch} aborted at prompt {pid}: {cause}")
        self.epoch = epoch
        self.pid = pid
        self.cause = cause


@contextmanager
def abort_on_nonfinite(epoch: int, prompts: list[flowgen.Prompt], rows_per_prompt: int):
    """Raise a NonFiniteError from a prompt-major batch as EpochAborted.

    The batch holds rows_per_prompt rows per prompt, in prompt order; the
    abort names the prompt owning the first non-finite row (the first prompt
    when the error carries no row).
    """
    try:
        yield
    except tg.NonFiniteError as err:
        owner = prompts[(err.row or 0) // rows_per_prompt]
        raise EpochAborted(epoch, owner.pid, err) from err


def train_epoch(policies: PolicyTriple, prompts: list[flowgen.Prompt], state: TrainState,
                cfg: RunConfig, schedule: flowgen.TimestepSchedule,
                normalizer: rewardlab.RewardNormalizer, risk: rewardlab.RiskState,
                optimizer: tg.AdamW, rollout_fn) -> dict:
    """One full epoch: one rollout pass over all prompts, scoring, then per-group optimization.

    rollout_fn(theta_old, prompts, epoch) -> list[GroupData] rolls out every
    prompt's candidate group under theta_old at once and returns the groups in
    prompt order; longtune.train_window_epoch passes its window rollout,
    which serves both modes. The rollout raises EpochAborted naming the prompt
    whose rows went non-finite; a bare NonFiniteError from it is charged to
    the first prompt. Groups are then scored one by one, in prompt order, so
    the normalizer and risk state update exactly as in a per-prompt loop.
    Returns the epoch metrics; advances state.epoch.
    """
    t_start = time.perf_counter()
    epoch = state.epoch
    try:
        groups = rollout_fn(policies.theta_old, prompts, epoch)
    except tg.NonFiniteError as err:
        raise EpochAborted(epoch, prompts[0].pid, err) from err
    scored_groups = [score_group(data, cfg, normalizer, risk) for data in groups]

    infos = []
    for scored in scored_groups:
        try:
            infos.append(optimize_group(policies, scored, state, cfg, schedule,
                                        optimizer, epoch))
        except tg.NonFiniteError as err:
            raise EpochAborted(epoch, scored.data.prompt.pid, err) from err

    kl_epoch = float(np.mean([i["kl_loss"] for i in infos]))
    reset = maybe_reset_reference(state, kl_epoch, cfg.tau_kl, cfg.k_max)
    if reset:
        policies.theta_ref = copy_params(policies.theta)
    if cfg.ema_mode == "epoch":
        ema_update(policies.theta_old, policies.theta, cfg.gamma)

    raw_all = np.concatenate([g.raw_scores for g in scored_groups])
    raw_means = raw_all.mean(axis=0)
    finite_taus = [g.tau for g in scored_groups if math.isfinite(g.tau)]
    n_candidates = sum(len(g.mask) for g in scored_groups)
    metrics = {
        "epoch": epoch,
        "reward_vq": float(raw_means[rewardlab.VQ]),
        "reward_mq": float(raw_means[rewardlab.MQ]),
        "reward_ta": float(raw_means[rewardlab.TA]),
        "composite": float(raw_means @ np.asarray(cfg.reward_weights)),
        "policy_loss": float(np.mean([i["policy_loss"] for i in infos])),
        "kl_loss": kl_epoch,
        "mask_fraction": float(sum(int(g.mask.sum()) for g in scored_groups) / n_candidates),
        "tau": float(np.mean(finite_taus)) if finite_taus else None,
        "rho": risk.rho,
        "grad_norm": float(np.mean([i["grad_norm"] for i in infos])),
        "reset": reset,
        "wall_time": time.perf_counter() - t_start,
    }
    state.epoch += 1
    return metrics
