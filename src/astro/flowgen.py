"""Few-step autoregressive clip generator on a toy trajectory task.

A "video" is a sequence of clips, each clip a (clip_len, frame_dim) stack of
frames. The ground-truth process moves on the unit circle in the first two
coordinates at a fixed angular step, with the starting angle set by the
prompt; all other coordinates are zero. A small tanh MLP predicts the clean
clip from a noised clip, a timestep feature, a fixed-size context summary and
the prompt embedding. Generation runs the shifted few-step schedule: predict
clean, renoise at the next level, repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from . import tensorgrad as tg
from .tensorgrad import NonFiniteError

RAW_TIMESTEPS = (1000.0, 750.0, 500.0, 250.0)
DEFAULT_SHIFT = 5.0
ANGULAR_STEP = 2.0 * math.pi / 16.0
RADIUS = 1.0
TIME_FEATURES = 4


class PretrainDivergence(RuntimeError):
    """Pretraining hit a non-finite loss; carries the step index and last good loss."""

    def __init__(self, step: int, last_loss: float):
        super().__init__(f"pretraining diverged at step {step} (last finite loss {last_loss:.6g})")
        self.step = step
        self.last_loss = last_loss


# --- prompts and ground truth ---


@dataclass(frozen=True, eq=False)
class Prompt:
    """Conditioning vector plus the trajectory phase it encodes."""

    pid: int
    vec: np.ndarray
    phase: float


def make_prompt(pid: int, rng: np.random.Generator, prompt_dim: int = 4) -> Prompt:
    """Unit-norm embedding whose first two coordinates carry the phase at fixed scale."""
    if prompt_dim < 2:
        raise ValueError("prompt_dim must be at least 2")
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    head = np.array([math.cos(phase), math.sin(phase)])
    if prompt_dim == 2:
        vec = head
    else:
        extra = rng.standard_normal(prompt_dim - 2)
        extra /= max(float(np.linalg.norm(extra)), 1e-12)
        vec = np.concatenate([head, extra]) / math.sqrt(2.0)
    return Prompt(pid=pid, vec=vec, phase=phase)


def target_frame(phase: float, frame_index: int, frame_dim: int) -> np.ndarray:
    out = np.zeros(frame_dim)
    angle = phase + frame_index * ANGULAR_STEP
    out[0] = RADIUS * math.cos(angle)
    out[1] = RADIUS * math.sin(angle)
    return out


def target_clip(phase: float, clip_index: int, clip_len: int, frame_dim: int) -> np.ndarray:
    start = clip_index * clip_len
    return np.stack([target_frame(phase, start + k, frame_dim) for k in range(clip_len)])


def manifold_distance(frame: np.ndarray) -> float:
    """L2 distance from a frame to the trajectory manifold (closed-form projection)."""
    radial = math.hypot(float(frame[0]), float(frame[1])) - RADIUS
    rest = float(np.dot(frame[2:], frame[2:]))
    return math.sqrt(radial * radial + rest)


def trajectory_context_summary(phase: float, clip_index: int, sink: int,
                               clip_len: int, frame_dim: int) -> np.ndarray:
    """Context summary the ground-truth history would produce before clip_index.

    Mirrors streamctx semantics (mean of the permanent sink frames, then the
    most recent frame) without needing a window object; a cross-module test
    pins the two to each other.
    """
    if clip_index == 0:
        return np.zeros(2 * frame_dim)
    seen = clip_index * clip_len
    sink_count = min(sink, seen)
    sink_mean = np.mean(
        [target_frame(phase, j, frame_dim) for j in range(sink_count)], axis=0)
    last = target_frame(phase, seen - 1, frame_dim)
    return np.concatenate([sink_mean, last])


# --- timestep schedule ---


def shift_timestep(t: float, shift: float) -> float:
    """Map a normalized timestep through the horizon-shift warp s*t / (1 + (s-1)*t)."""
    if shift <= 0:
        raise ValueError("shift must be positive")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"normalized timestep outside [0, 1]: {t}")
    return shift * t / (1.0 + (shift - 1.0) * t)


@dataclass(frozen=True)
class TimestepSchedule:
    """Decreasing noise levels in (0, 1], produced from raw steps plus a shift."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("schedule is empty")
        if any(not 0.0 < v <= 1.0 for v in self.values):
            raise ValueError(f"schedule values must lie in (0, 1]: {self.values}")
        if any(a <= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"schedule values must strictly decrease: {self.values}")

    def __len__(self):
        return len(self.values)


def make_schedule(raw_steps=RAW_TIMESTEPS, shift: float = DEFAULT_SHIFT) -> TimestepSchedule:
    raw = [float(r) for r in raw_steps]
    if any(r <= 0 for r in raw):
        raise ValueError("raw steps must be positive")
    top = raw[0]
    return TimestepSchedule(values=tuple(shift_timestep(r / top, shift) for r in raw))


def forward_path(x0: np.ndarray, eps: np.ndarray, t) -> np.ndarray:
    """Noising interpolation (1-t)*x0 + t*eps; t scalar or per-row for 2-D stacks."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t outside [0, 1]")
    if t.ndim == 1:
        if x0.ndim != 2 or t.shape[0] != x0.shape[0]:
            raise ValueError("per-row t needs a matching 2-D stack")
        t = t[:, None]
    return (1.0 - t) * x0 + t * eps


# --- clean-clip predictor ---


def net_input_dim(frame_dim: int, clip_len: int, prompt_dim: int) -> int:
    return clip_len * frame_dim + TIME_FEATURES + 2 * frame_dim + prompt_dim


def init_net(rng: np.random.Generator, frame_dim: int, clip_len: int,
             prompt_dim: int, hidden: int = 128) -> tg.FlatParams:
    """Two tanh hidden layers, linear head back to a flattened clip; flat parameters."""
    d_in = net_input_dim(frame_dim, clip_len, prompt_dim)
    d_out = clip_len * frame_dim
    def layer(fan_in, fan_out):
        return rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
    return tg.flatten({
        "w1": layer(d_in, hidden), "b1": np.zeros((1, hidden)),
        "w2": layer(hidden, hidden), "b2": np.zeros((1, hidden)),
        "w3": layer(hidden, d_out), "b3": np.zeros((1, d_out)),
    })


def time_features(t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    return np.stack([t, 1.0 - t, np.sin(math.pi * t), np.cos(math.pi * t)], axis=1)


def _rows(x, batch: int, width: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = np.broadcast_to(x, (batch, x.shape[0]))
    if x.shape != (batch, width):
        raise ValueError(f"{name} shape {x.shape}, expected ({batch}, {width})")
    return np.ascontiguousarray(x)


def assemble_input(xt_flat: np.ndarray, t, ctx_summary, prompt_vec) -> np.ndarray:
    """Stack [noised clip | time features | context summary | prompt] rows."""
    xt_flat = np.asarray(xt_flat, dtype=np.float64)
    if xt_flat.ndim != 2:
        raise ValueError("xt_flat must be (batch, clip_len*frame_dim)")
    batch = xt_flat.shape[0]
    t = np.asarray(t, dtype=np.float64)
    tf = time_features(np.broadcast_to(t, (batch,)) if t.ndim == 0 else t)
    ctx = np.asarray(ctx_summary, dtype=np.float64)
    ctx = _rows(ctx, batch, ctx.shape[-1], "ctx_summary")
    pv = np.asarray(prompt_vec, dtype=np.float64)
    pv = _rows(pv, batch, pv.shape[-1], "prompt_vec")
    return np.concatenate([xt_flat, tf, ctx, pv], axis=1)


def predict_clean_batch(params: dict[str, np.ndarray], xt_flat: np.ndarray, t,
                        ctx_summary, prompt_vec, graph: tg.GradGraph | None = None):
    """Predicted clean clips, flattened. With a graph, the result is a trainable Node."""
    return mlp_forward(params, assemble_input(xt_flat, t, ctx_summary, prompt_vec), graph)


def mlp_forward(params: dict[str, np.ndarray], x: np.ndarray,
                graph: tg.GradGraph | None = None):
    """The predictor on assembled input rows (see assemble_input).

    With a graph, the result is a trainable Node; without one, a
    NonFiniteError carries the first row whose prediction is not finite.
    """
    p, tanh = params, np.tanh
    if graph is not None:
        p, x, tanh = graph.parameters(params), graph.constant(x), tg.Node.tanh
    h1 = tanh(x @ p["w1"] + p["b1"])
    h2 = tanh(h1 @ p["w2"] + p["b2"])
    out = h2 @ p["w3"] + p["b3"]
    if graph is not None:
        return out
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteError(f"predictor produced non-finite values (first in row {row})",
                             row=row)
    return out


def sample_clips(params: dict[str, np.ndarray], ctx_rows, prompt_vec,
                 schedule: TimestepSchedule, streams) -> np.ndarray:
    """Few-step generation of N clips at once: draw noise, predict clean, renoise.

    Row i is conditioned on ctx_rows[i] and draws only from streams[i]:
    exactly len(schedule) draws (one init plus one per renoising), in the
    order a lone row would make them, so a row's clip does not depend on
    which other rows share the batch. Every schedule step is one (N, d)
    forward. Returns the final clean predictions, (N, clip_len, frame_dim).
    A NonFiniteError carries the first row whose prediction is not finite.
    """
    ctx_rows = np.asarray(ctx_rows, dtype=np.float64)
    n = len(streams)
    if ctx_rows.ndim != 2 or ctx_rows.shape[0] != n or ctx_rows.shape[1] % 2:
        raise ValueError(f"ctx_rows shape {ctx_rows.shape}, expected ({n}, 2*frame_dim)")
    frame_dim = ctx_rows.shape[1] // 2
    clip_shape = (params["b3"].shape[1] // frame_dim, frame_dim)

    def draw():
        return np.stack([s.standard_normal(clip_shape) for s in streams]).reshape(n, -1)

    x = draw()
    for k, t in enumerate(schedule.values):
        pred = predict_clean_batch(params, x, t, ctx_rows, prompt_vec)
        if k + 1 < len(schedule.values):
            x = forward_path(pred, draw(), schedule.values[k + 1])
    return pred.reshape(n, *clip_shape)


# --- base-model pretraining ---


@dataclass
class TrajectoryCorpus:
    """Clean clips with the context summary and prompt that condition them.

    The (prompt, clip index) tables of target clips and context summaries
    are built once, from target_clip and trajectory_context_summary, and
    batches gather from them.
    """

    prompts: list[Prompt]
    horizon: int
    sink: int
    clip_len: int
    frame_dim: int
    tables: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x0 = np.array([[target_clip(p.phase, n, self.clip_len, self.frame_dim).ravel()
                        for n in range(self.horizon)] for p in self.prompts])
        ctx = np.array([[trajectory_context_summary(
            p.phase, n, self.sink, self.clip_len, self.frame_dim)
            for n in range(self.horizon)] for p in self.prompts])
        pv = np.stack([p.vec for p in self.prompts])
        self.tables = (x0, ctx, pv)

    def sample_batch(self, rng: np.random.Generator, batch_size: int):
        """Returns (x0_flat, ctx_rows, prompt_rows) for a random batch.

        Each example draws its prompt index, then its clip index.
        """
        which = np.empty(batch_size, dtype=np.intp)
        clip = np.empty(batch_size, dtype=np.intp)
        for b in range(batch_size):
            which[b] = rng.integers(len(self.prompts))
            clip[b] = rng.integers(self.horizon)
        x0, ctx, pv = self.tables
        return x0[which, clip], ctx[which, clip], pv[which]


def make_corpus(seed: int, n_prompts: int = 16, horizon: int = 8, sink: int = 3,
                clip_len: int = 4, frame_dim: int = 8, prompt_dim: int = 4) -> TrajectoryCorpus:
    prompts = [
        make_prompt(pid, rngmod.substream(seed, rngmod.PROMPT_STREAM, pid), prompt_dim)
        for pid in range(n_prompts)
    ]
    return TrajectoryCorpus(prompts=prompts, horizon=horizon, sink=sink,
                            clip_len=clip_len, frame_dim=frame_dim)


def pretrain_base(corpus: TrajectoryCorpus, steps: int, rng: np.random.Generator, *,
                  schedule: TimestepSchedule | None = None, hidden: int = 128,
                  lr: float = 3e-3, batch_size: int = 16,
                  init: tg.FlatParams | None = None):
    """Regress the predictor onto clean clips under schedule-sampled noising.

    Returns (flat params, per-step losses); init, when given, is updated in
    place. steps=0 returns the initialization untouched. A non-finite loss
    aborts with PretrainDivergence.
    """
    schedule = schedule or make_schedule()
    prompt_dim = corpus.prompts[0].vec.shape[0]
    params = init if init is not None else init_net(
        rng, corpus.frame_dim, corpus.clip_len, prompt_dim, hidden)
    opt = tg.AdamW(lr=lr, weight_decay=0.0)
    levels = np.array(schedule.values)
    losses: list[float] = []
    for step in range(steps):
        x0, ctx, pv = corpus.sample_batch(rng, batch_size)
        t = levels[rng.integers(len(levels), size=batch_size)]
        eps = rng.standard_normal(x0.shape)
        xt = forward_path(x0, eps, t)
        graph = tg.GradGraph()
        try:
            pred = predict_clean_batch(params, xt, t, ctx, pv, graph)
            loss = (pred - graph.constant(x0)).square().mean()
            grads = tg.backward(graph, loss)
            opt.step(params, grads)
        except NonFiniteError as err:
            raise PretrainDivergence(step, losses[-1] if losses else math.nan) from err
        losses.append(float(loss.value))
    return params, losses


def evaluate_base(params: dict[str, np.ndarray], corpus: TrajectoryCorpus,
                  rng: np.random.Generator, n_samples: int = 256,
                  schedule: TimestepSchedule | None = None) -> float:
    """Held-out per-element MSE of clean-clip prediction, averaged over noise levels."""
    schedule = schedule or make_schedule()
    x0, ctx, pv = corpus.sample_batch(rng, n_samples)
    total = 0.0
    for t in schedule.values:
        eps = rng.standard_normal(x0.shape)
        pred = predict_clean_batch(params, forward_path(x0, eps, t), t, ctx, pv)
        total += float(np.mean((pred - x0) ** 2))
    return total / len(schedule.values)
