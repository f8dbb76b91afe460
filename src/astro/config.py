"""Run configuration: one flat, frozen record, strict validation, JSON in and out.

validate is the one place a hyperparameter's range is checked. Unknown keys
are rejected rather than ignored; a typo in a hyperparameter name should
fail loudly, not silently train the default.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

MODES = ("short", "long")
ADVANTAGE_SOURCES = ("composite", "primary")
NOISE_MODES = ("schedule", "fixed")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    mode: str = "short"

    # generator geometry
    frame_dim: int = 8
    clip_len: int = 4
    prompt_dim: int = 4
    hidden: int = 128

    # streaming context
    sink_size: int = 3

    # rollout structure
    group_size: int = 8
    prompts_per_epoch: int = 8
    epochs: int = 200
    total_clips: int = 8
    window_clips: int = 1

    # policy optimization
    beta: float = 1.0
    lambda_kl: float = 1e-4
    tau_kl: float = 0.05
    k_max: int = 20
    ema_interval: int = 1

    # rewards
    rho0: float = 0.2
    reward_weights: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    advantage_source: str = "composite"

    # noising
    noise_mode: str = "schedule"
    fixed_t: float = 0.7
    raw_timesteps: tuple = (1000.0, 750.0, 500.0, 250.0)

    # optimizer
    lr: float = 1e-5
    max_grad_norm: float = 1.0

    # base-model pretraining
    pretrain_steps: int = 5000

    def __post_init__(self):
        self.validate()
        object.__setattr__(self, "reward_weights", tuple(float(w) for w in self.reward_weights))
        object.__setattr__(self, "raw_timesteps", tuple(float(t) for t in self.raw_timesteps))

    def validate(self) -> None:
        def require(cond: bool, msg: str):
            if not cond:
                raise ValueError(f"invalid config: {msg}")

        def real(x) -> bool:  # abs(NaN) fails the bound, as does an int past float range
            return isinstance(x, (int, float)) and not isinstance(x, bool) \
                and abs(x) <= sys.float_info.max

        # Field types first, so the range checks below compare numbers. The
        # annotations are strings here (postponed evaluation).
        kinds = {"int": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
                 "float": (real, "a finite real number"),
                 "tuple": (lambda xs: isinstance(xs, (list, tuple)) and all(map(real, xs)),
                           "a list of finite real numbers")}
        for f in fields(self):
            if f.type in kinds:
                (ok, noun), value = kinds[f.type], getattr(self, f.name)
                require(ok(value), f"{f.name} must be {noun}, got {value!r}")

        require(self.seed >= 0, "seed must be nonnegative")
        require(self.mode in MODES, f"mode must be one of {MODES}")
        require(self.frame_dim >= 2, "frame_dim must be at least 2")
        require(self.clip_len >= 1, "clip_len must be at least 1")
        require(2 <= self.prompt_dim <= self.frame_dim,
                "prompt_dim must lie in [2, frame_dim]")
        require(self.hidden >= 1, "hidden must be positive")
        require(self.sink_size >= 0, "sink_size must be nonnegative")
        require(self.group_size >= 2, "group_size must be at least 2")
        require(self.prompts_per_epoch >= 1, "prompts_per_epoch must be positive")
        require(self.epochs >= 0, "epochs must be nonnegative")
        require(self.total_clips >= 1, "total_clips must be positive")
        require(1 <= self.window_clips <= self.total_clips,
                "window_clips must lie in [1, total_clips]")
        require(self.beta > 0, "beta must be positive")
        require(self.lambda_kl >= 0, "lambda_kl must be nonnegative")
        require(self.tau_kl > 0, "tau_kl must be positive")
        require(self.k_max >= 1, "k_max must be at least 1")
        require(self.ema_interval >= 1, "ema_interval must be positive")
        require(0.0 < self.rho0 <= 1.0, "rho0 must lie in (0, 1]")
        require(len(self.reward_weights) == 3, "reward_weights needs one weight per model")
        require(all(w >= 0 for w in self.reward_weights), "reward_weights must be nonnegative")
        require(abs(sum(self.reward_weights) - 1.0) <= 1e-9, "reward_weights must sum to 1")
        require(self.advantage_source in ADVANTAGE_SOURCES,
                f"advantage_source must be one of {ADVANTAGE_SOURCES}")
        require(self.noise_mode in NOISE_MODES, f"noise_mode must be one of {NOISE_MODES}")
        require(0.0 < self.fixed_t <= 1.0, "fixed_t must lie in (0, 1]")
        require(len(self.raw_timesteps) >= 1, "raw_timesteps is empty")
        require(all(t > 0 for t in self.raw_timesteps), "raw_timesteps must be positive")
        require(all(a > b for a, b in zip(self.raw_timesteps, self.raw_timesteps[1:])),
                "raw_timesteps must strictly decrease")
        require(self.lr > 0, "lr must be positive")
        require(self.max_grad_norm > 0, "max_grad_norm must be positive")
        require(self.pretrain_steps >= 0, "pretrain_steps must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"invalid config: unknown config keys: {unknown}")
        return cls(**data)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["reward_weights"] = list(self.reward_weights)
        out["raw_timesteps"] = list(self.raw_timesteps)
        return out


def load_config(path) -> RunConfig:
    """The RunConfig in a JSON file; a ValueError names a file that is not a JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: {err}") from err
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return RunConfig.from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
