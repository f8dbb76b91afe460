"""Group-relative policy optimization for the few-step generator.

Each epoch rolls out candidate groups under the slow-moving policy, scores
them with the reward judges, converts group-centered advantages into soft
labels, and regresses the trainable policy so that its implied positive
branch moves toward well-scored clean clips and its negative branch away
from poorly-scored ones. Candidates whose judge rankings disagree are pulled
toward a frozen reference policy instead of being trusted; the reference
refreshes when that pull grows too large or too stale.

The engine takes its groups as data, already rolled out: the streaming
path in longtune decodes them for both modes (short mode is a one-clip
window at clip 0 with an empty context), so this module never decodes
candidates itself. The epoch's groups are one GroupData, the rollout's
(P, G, W, ...) stacks, which the judges and the loss inputs read whole. An
epoch first prepares, for all groups at once, what no optimizer step
changes (judging, ranks, masks, noise draws, the frozen reference's
predictions); each group's step then runs the behavior policy's forward,
the loss tape, clipping, AdamW and the EMA tick.
Everything a run carries from one epoch to the next is one RunState: the
trainable theta, EMA behavior theta_old and resetting reference theta_ref,
the optimizer, counters and reward statistics. An epoch takes it, advances
it in place, and returns its runio.MetricsRecord.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import flowgen, rewardlab, runio
from . import rng as rngmod
from . import tensorgrad as tg
from .config import RunConfig


# Checkpoint name prefixes of a run's five flat buffers, in file order.
BUFFER_PREFIXES = ("theta/", "theta_old/", "theta_ref/", "opt/m/", "opt/v/")
# The checkpoint's extra entries that RunState.from_arrays reads, and their checks.
EXTRA_FIELDS = {"opt_t": runio.SIZE, "last_reset_epoch": runio.SIZE, "norm_pids": runio.SIZES}
EMA_GAMMA = 0.9  # theta_old's EMA rate: theta_old <- gamma * theta_old + (1 - gamma) * theta
A_MAX = 5.0  # the advantage magnitude at which a soft label saturates at 0 or 1


@dataclass
class RunState:
    """Everything a run carries across epochs, each value held once and in
    the form its checkpoint saves: the optimizer's t is the step count, and
    the normalizer's arrays are the norm/ arrays; epoch is the next epoch to
    run and last_reset_epoch the latest reference reset's. fresh() starts
    one from a pretrained base; to_arrays()/from_arrays() are its checkpoint
    round-trip, with array names slash-scoped by component. tapes (the
    recorded loss tapes by structure key), grads (the vector in theta's
    layout that each step's backward writes its gradients into, valid until
    the next step's) and timings (the current epoch's wall seconds per phase)
    are working state, never checkpointed."""

    theta: tg.FlatParams
    theta_old: tg.FlatParams
    theta_ref: tg.FlatParams
    optimizer: tg.AdamW
    normalizer: rewardlab.RewardNormalizer
    epoch: int = 0
    last_reset_epoch: int = 0
    tapes: dict = field(default_factory=dict, repr=False)
    grads: tg.FlatParams = field(init=False, repr=False)
    timings: runio.PhaseTimes = field(default_factory=runio.PhaseTimes, repr=False)

    def __post_init__(self):
        self.grads = self.theta.empty_like()

    @classmethod
    def fresh(cls, cfg: RunConfig, base: dict[str, np.ndarray]) -> "RunState":
        """Epoch 0: every policy a copy of base, no moments, no reward statistics."""
        return cls(theta=tg.flatten(base), theta_old=tg.flatten(base),
                   theta_ref=tg.flatten(base), optimizer=tg.AdamW(lr=cfg.lr),
                   normalizer=rewardlab.RewardNormalizer())

    def to_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """(arrays, extra) for runio.save_checkpoint; the arrays are views of this state."""
        opt, norm = self.optimizer, self.normalizer
        buffers = (self.theta, self.theta_old, self.theta_ref, opt.m, opt.v)
        arrays = {prefix + k: v for prefix, params in zip(BUFFER_PREFIXES, buffers)
                  for k, v in params.items()}
        arrays.update({"norm/count": norm.count, "norm/mean": norm.mean, "norm/m2": norm.m2})
        extra = {"opt_t": opt.t, "last_reset_epoch": self.last_reset_epoch,
                 "norm_pids": norm.pids.tolist()}
        return arrays, extra

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], meta: dict,
                    cfg: RunConfig) -> "RunState":
        """Inverse of to_arrays, each policy and moment one flat buffer again.

        A checkpoint of another seed is refused: its random streams would mix
        with cfg's. So is one in which any of the five buffers has another
        network shape than cfg's; the moments may be absent only before the
        optimizer's first step (opt_t 0). So is a reward normalizer that is
        not one row per prompt and one column per judge, or whose prompts are
        not in ascending order. So is one that lacks a norm/ array or an extra
        entry this method reads, or whose entry fails its EXTRA_FIELDS check,
        or whose last_reset_epoch is past its epoch: the staleness reset would
        then not fire until the run got there. Entries it does not read (older
        checkpoints carry a risk buffer, a rho and a steps, a copy of opt_t)
        are ignored."""
        if meta["seed"] != cfg.seed:
            raise ValueError(f"checkpoint was written with seed {meta['seed']}; "
                             f"cannot resume it with seed {cfg.seed}")
        extra = meta["extra"]
        missing = [f"norm/{k}" for k in ("count", "mean", "m2") if f"norm/{k}" not in arrays]
        missing += [f"extra.{k}" for k in EXTRA_FIELDS if k not in extra]
        if missing:
            raise ValueError(f"checkpoint lacks {', '.join(missing)}")
        wrong = runio.wrong_fields(extra, EXTRA_FIELDS, "extra.")
        if wrong:
            raise ValueError(f"checkpoint {'; '.join(wrong)}")
        if extra["last_reset_epoch"] > meta["epoch"]:
            raise ValueError(f"checkpoint extra.last_reset_epoch {extra['last_reset_epoch']} "
                             f"is past its epoch {meta['epoch']}")
        opt_t = extra["opt_t"]
        buffers = [tg.flatten({k[len(prefix):]: a for k, a in arrays.items()
                               if k.startswith(prefix)}) for prefix in BUFFER_PREFIXES]
        shapes = flowgen.net_shapes(cfg.frame_dim, cfg.clip_len, cfg.prompt_dim, cfg.hidden)
        for prefix, params in zip(BUFFER_PREFIXES, buffers):
            if not params and prefix.startswith("opt/") and opt_t == 0:
                continue
            for name in (*shapes, *sorted(params.keys() - shapes.keys())):
                got = params[name].shape if name in params else None
                if got != shapes.get(name):
                    raise ValueError(f"checkpoint {prefix[:-1]} parameter {name!r} has shape "
                                     f"{got}; the config implies {shapes.get(name)}")
        pids, judges = np.array(extra["norm_pids"], dtype=np.int64), rewardlab.N_MODELS
        if np.any(np.diff(pids) <= 0):
            raise ValueError(f"checkpoint norm_pids {pids.tolist()} are not ascending")
        norm = {k: arrays[f"norm/{k}"] for k in ("count", "mean", "m2")}
        for (name, got), want in zip(norm.items(), [pids.shape] + [(len(pids), judges)] * 2):
            if got.shape != want:
                raise ValueError(f"checkpoint norm/{name} has shape {got.shape}; "
                                 f"{len(pids)} prompts and {judges} judges imply {want}")
        run = cls.fresh(cfg, {})
        run.theta, run.theta_old, run.theta_ref, run.optimizer.m, run.optimizer.v = buffers
        run.grads = run.theta.empty_like()
        run.optimizer.t = opt_t
        run.epoch, run.last_reset_epoch = meta["epoch"], extra["last_reset_epoch"]
        run.normalizer = rewardlab.RewardNormalizer(pids, **norm)
        return run


# --- advantage shaping ---


def compute_advantages(rewards: np.ndarray) -> np.ndarray:
    """Group-centered rewards along the last axis; each group sums to zero."""
    rewards = np.asarray(rewards, dtype=np.float64)
    return rewards - rewards.mean(axis=-1, keepdims=True)


def normalize_advantage(adv):
    """Map advantages into soft labels in [0, 1], saturating at +/-A_MAX;
    zero advantage lands on 0.5."""
    return np.clip(np.asarray(adv, dtype=np.float64) / A_MAX, -1.0, 1.0) / 2.0 + 0.5


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


def batch_policy_loss(v_plus, v_minus, x0_rows, w, w_neg):
    """Mean over candidates of per-candidate policy_loss, in one graph expression.

    w holds each row's soft label across its width and w_neg is 1 - w.
    Row-weighting is algebraically the per-candidate mean:
    mean(W * sq) == mean_i(w_i * mean_j(sq_ij)).
    """
    dp = v_plus - x0_rows
    dm = v_minus - x0_rows
    return (dp.square() * w).mean() + (dm.square() * w_neg).mean()


def selective_kl_loss(v_theta, v_ref, m, scale):
    """Mean over masked candidates of the element-mean squared prediction gap:
    m is the row mask across the width and scale is 1 / (n_masked * width),
    or 1 when no row is masked, so that an empty mask gives 0."""
    return ((v_theta - v_ref).square() * m).sum() * scale


def total_loss(policy, kl, lambda_kl: float):
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


def maybe_reset_reference(epoch: int, last_reset_epoch: int, l_kl: float, tau_kl: float,
                          k_max: int) -> bool:
    """Strictly-greater triggers: KL drift past tau_kl, or staleness past k_max epochs."""
    return l_kl > tau_kl or epoch - last_reset_epoch > k_max


# --- group construction and scoring ---


@dataclass
class GroupData:
    """The epoch's candidate groups, one per prompt, as the rollout made them.

    clips is (P, G, W, clip_len, frame_dim): candidate i of prompt p made the
    W window clips clips[p, i]. summaries is (P, G, W, 2 * frame_dim): the
    context summary that conditioned each clip. A prompt's training rows are
    its G * W (candidate, clip) pairs, candidate-major, so row r belongs to
    candidate r // W; the judges see each candidate's W clips as one stack
    of frames.
    """

    prompts: list[flowgen.Prompt]
    clips: np.ndarray
    summaries: np.ndarray


@dataclass
class ScoredGroup:
    """The epoch's groups judged: raw scores (P, G, N_MODELS), advantages and
    rank-disagreement mask (P, G), and each group's mask threshold tau (P,)."""

    data: GroupData
    raw_scores: np.ndarray
    advantages: np.ndarray
    mask: np.ndarray
    tau: np.ndarray


def score_groups(data: GroupData, cfg: RunConfig,
                 normalizer: rewardlab.RewardNormalizer) -> ScoredGroup:
    """Judge, standardize, center into advantages, and mark rank disagreement.
    Judges, the normalizer, centering and ranks run once on the (P, G)
    stack; each group is masked (at risk ratio cfg.rho0) per prompt."""
    n_prompts, g = data.clips.shape[:2]
    raw = rewardlab.eval_rewards(data.clips.reshape(n_prompts, g, -1, data.clips.shape[-1]),
                                 data.prompts)
    std = normalizer.update_and_standardize([prompt.pid for prompt in data.prompts], raw)
    if cfg.advantage_source == "composite":
        source = rewardlab.aggregate_composite(std, cfg.reward_weights)
    else:
        source = std[..., rewardlab.VQ]
    advantages = compute_advantages(source)
    ranks = rewardlab.rank_samples(np.moveaxis(raw, -1, 0))
    delta = rewardlab.rank_disagreement(
        ranks[rewardlab.VQ], [r for m, r in enumerate(ranks) if m != rewardlab.VQ])
    tau, mask = zip(*[rewardlab.uncertainty_mask(d, cfg.rho0) for d in delta])
    return ScoredGroup(data, raw, advantages, np.array(mask), np.array(tau))


def score_group(data: GroupData, cfg: RunConfig,
                normalizer: rewardlab.RewardNormalizer) -> ScoredGroup:
    return score_groups(data, cfg, normalizer)


# --- optimization ---


def draw_noise(cfg: RunConfig, schedule: flowgen.TimestepSchedule, epoch: int,
               data: GroupData) -> tuple[list[float], np.ndarray]:
    """Each group's noise level t and its forward-path noise eps, shaped like
    data.clips, from the prompt's own (epoch, pid) substreams; each group's
    eps is one draw (rng.normal_blocks)."""
    eps = rngmod.normal_blocks([(cfg.seed, rngmod.EPS_STREAM, epoch, prompt.pid)
                                for prompt in data.prompts], data.clips.shape[1:])
    if cfg.noise_mode == "fixed":
        return [cfg.fixed_t] * len(data.prompts), eps
    n = len(schedule.values)
    streams = rngmod.substreams([(cfg.seed, rngmod.NOISE_T_STREAM, epoch, prompt.pid)
                                 for prompt in data.prompts])
    return [float(schedule.values[int(s.integers(n))]) for s in streams], eps


def epoch_loss_inputs(theta_ref: dict[str, np.ndarray], scored: ScoredGroup,
                      ts, eps: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Each group's loss inputs that no optimizer step changes, built in one
    pass over all groups' rows: the network input x at noise level ts[p] and
    noise eps[p], the clean rows x0, the label weights w and 1 - w, theta_ref's
    prediction v_ref, the mask weights m and their scale kl_scale,
    1 / (n_masked * width), or 1 with no row masked (m is then all zeros)."""
    data = scored.data
    n_prompts, g, n_clips = data.clips.shape[:3]
    rows = g * n_clips
    x0 = data.clips.reshape(n_prompts * rows, -1)
    width = x0.shape[1]
    t = np.repeat(ts, rows)
    x = flowgen.assemble_input(flowgen.forward_path(x0, eps.reshape(x0.shape), t), t,
                               data.summaries.reshape(len(x0), -1),
                               np.repeat(np.stack([p.vec for p in data.prompts]), rows, axis=0))
    v_ref = flowgen.mlp_forward(theta_ref, x)
    labels = normalize_advantage(scored.advantages)
    w = np.repeat(np.repeat(labels, n_clips, axis=1).reshape(-1, 1), width, axis=1)
    masked = np.repeat(scored.mask, n_clips, axis=1)
    arrays = {"x": x, "x0": x0, "w": w, "w_neg": 1.0 - w, "v_ref": v_ref,
              "m": np.repeat(masked.reshape(-1, 1), width, axis=1).astype(np.float64)}
    kl_scale = 1.0 / np.maximum(masked.sum(axis=1) * width, 1)
    return [{**{name: a[p * rows:(p + 1) * rows] for name, a in arrays.items()},
             "kl_scale": np.asarray(kl_scale[p])} for p in range(n_prompts)]


def step_inputs(fixed: dict[str, np.ndarray], theta_old: dict[str, np.ndarray],
                cfg: RunConfig) -> dict[str, np.ndarray]:
    """A step's loss inputs: fixed's and (1 -/+ beta) * v_old at theta_old now."""
    v_old = flowgen.mlp_forward(theta_old, fixed["x"])
    return {**fixed, "old_plus": (1.0 - cfg.beta) * v_old, "old_minus": (1.0 + cfg.beta) * v_old}


def group_loss_graph(graph: tg.GradGraph, theta: tg.FlatParams, inputs: dict[str, np.ndarray],
                     cfg: RunConfig):
    """One group's loss on graph over theta and step_inputs' arrays, each a
    declared input; the branches are implicit_policies' with their
    behavior terms as inputs. Returns (loss, policy term, KL term); with no
    row masked, the KL term is 0 and the loss the policy term."""
    c = {name: graph.input(name, value) for name, value in inputs.items() if name != "x"}
    v_theta = flowgen.mlp_forward(theta, inputs["x"], graph)
    v_plus = c["old_plus"] + cfg.beta * v_theta
    v_minus = c["old_minus"] - cfg.beta * v_theta
    pol = batch_policy_loss(v_plus, v_minus, c["x0"], c["w"], c["w_neg"])
    kl = selective_kl_loss(v_theta, c["v_ref"], c["m"], c["kl_scale"])
    return total_loss(pol, kl, cfg.lambda_kl), pol, kl


def build_group_loss(run: RunState, scored: ScoredGroup, cfg: RunConfig,
                     t: float, eps: np.ndarray):
    """Assemble one mini-batch loss graph. Returns (graph, loss node, info).

    Only theta lives on the graph; everything else enters as a declared
    input, built for this one-prompt group as prepare_epoch builds it for all.
    """
    fixed = epoch_loss_inputs(run.theta_ref, scored, [t], eps[None])[0]
    graph = tg.GradGraph()
    outputs = group_loss_graph(graph, run.theta, step_inputs(fixed, run.theta_old, cfg), cfg)
    values = [float(node.value) for node in outputs]
    info = {"policy_loss": values[1], "kl_loss": values[2],
            "masked": int(scored.mask.sum()) * scored.data.clips.shape[2],
            "graph_nodes": len(graph)}
    return graph, outputs[0], info


def optimize_group(run: RunState, fixed: dict[str, np.ndarray], cfg: RunConfig) -> dict:
    """One optimizer step on one prompt group, from its epoch_loss_inputs
    fixed, then an EMA tick if the optimizer's step count is a multiple of
    cfg.ema_interval. The loss reads fixed with theta_old's step_inputs, and
    runs the run's tape for its structure, recorded from group_loss_graph
    when first seen; each phase's wall time is added to run.timings."""
    lap = run.timings.lap
    since = time.perf_counter()
    values, finish = tg.loss_pass(
        run.tapes, (cfg.beta, cfg.lambda_kl), run.theta, step_inputs(fixed, run.theta_old, cfg),
        lambda graph, theta, inputs: group_loss_graph(graph, theta, inputs, cfg))
    since = lap("loss_forward", since)
    grads = finish(run.grads)
    since = lap("backward", since)
    info = {"policy_loss": values[1], "kl_loss": values[2]}
    info["grad_norm"] = tg.clip_global_norm(grads, cfg.max_grad_norm)
    since = lap("clip", since)
    run.optimizer.step(run.theta, grads)
    since = lap("adamw", since)
    if run.optimizer.t % cfg.ema_interval == 0:
        ema_update(run.theta_old, run.theta, EMA_GAMMA)
    lap("ema", since)
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


def prepare_epoch(run: RunState, data: GroupData, cfg: RunConfig,
                  schedule: flowgen.TimestepSchedule
                  ) -> tuple[ScoredGroup, list[dict[str, np.ndarray]]]:
    """The part of an epoch that no optimizer step changes, for all groups at
    once: (score_groups, each group's epoch_loss_inputs at theta_ref, which
    moves only at epoch end), timed as the judges and loss_inputs phases.
    A non-finite theta_ref row aborts the epoch, naming the row's prompt."""
    epoch, since = run.epoch, time.perf_counter()
    scored = score_groups(data, cfg, run.normalizer)
    since = run.timings.lap("judges", since)
    ts, eps = draw_noise(cfg, schedule, epoch, data)
    with abort_on_nonfinite(epoch, data.prompts, math.prod(data.clips.shape[1:3])):
        inputs = epoch_loss_inputs(run.theta_ref, scored, ts, eps)
    run.timings.lap("loss_inputs", since)
    return scored, inputs


def train_epoch(run: RunState, data: GroupData, cfg: RunConfig,
                schedule: flowgen.TimestepSchedule) -> runio.MetricsRecord:
    """One epoch on rolled-out groups, in prompt order (longtune.window_rollout
    makes them under run.theta_old for both modes): prepare_epoch,
    one optimize_group step per group, then the reference reset. theta_old
    ticks every cfg.ema_interval steps, so cfg.ema_interval =
    cfg.prompts_per_epoch ticks it once per epoch, after its last step.
    Returns the epoch's record, with window_start left for the caller;
    advances run.epoch once every group is optimized."""
    epoch = run.epoch
    scored, inputs = prepare_epoch(run, data, cfg, schedule)

    infos = []
    for prompt, fixed in zip(data.prompts, inputs):
        with abort_on_nonfinite(epoch, [prompt], len(fixed["x"])):
            infos.append(optimize_group(run, fixed, cfg))

    since = time.perf_counter()
    kl_epoch = float(np.mean([i["kl_loss"] for i in infos]))
    reset = maybe_reset_reference(epoch, run.last_reset_epoch, kl_epoch, cfg.tau_kl, cfg.k_max)
    if reset:
        run.theta_ref = tg.flatten(run.theta)
        run.last_reset_epoch = epoch
    run.timings.lap("ema", since)

    raw_means = scored.raw_scores.reshape(-1, rewardlab.N_MODELS).mean(axis=0)
    run.epoch += 1
    return runio.MetricsRecord(
        epoch=epoch,
        reward_vq=float(raw_means[rewardlab.VQ]),
        reward_mq=float(raw_means[rewardlab.MQ]),
        reward_ta=float(raw_means[rewardlab.TA]),
        composite=float(raw_means @ np.asarray(cfg.reward_weights)),
        policy_loss=float(np.mean([i["policy_loss"] for i in infos])),
        kl_loss=kl_epoch,
        mask_fraction=float(scored.mask.mean()),
        tau=float(scored.tau.mean()),
        grad_norm=float(np.mean([i["grad_norm"] for i in infos])),
        reset=reset,
    )
