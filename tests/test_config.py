"""Config record: strict validation, JSON round trips, unknown-key rejection."""

from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest

from astro.config import RunConfig, load_config, save_config


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.mode == "short"
    assert cfg.group_size == 8
    assert cfg.sink_size == 3
    assert sum(cfg.reward_weights) == pytest.approx(1.0)


def test_config_is_frozen_and_every_copy_is_validated():
    # validate is the one range check: a valid config cannot be made invalid
    # in place, and a changed copy is validated as a new one is.
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rho0 = 0.0
    assert cfg.rho0 == 0.2
    with pytest.raises(ValueError, match="invalid config: rho0"):
        dataclasses.replace(cfg, rho0=0.0)
    assert dataclasses.replace(cfg, rho0=0.5).rho0 == 0.5


def test_dict_roundtrip():
    cfg = RunConfig(seed=5, mode="long", beta=0.5, total_clips=12, window_clips=3)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_file_roundtrip(tmp_path):
    cfg = RunConfig(seed=9, lr=3e-4, reward_weights=(0.5, 0.25, 0.25))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # stored as plain JSON with lists for the tuples
    raw = json.loads(path.read_text())
    assert raw["reward_weights"] == [0.5, 0.25, 0.25]


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"seed": 0, "learning_rate": 1e-4})
    with pytest.raises(ValueError, match="group_sise"):
        RunConfig.from_dict({"group_sise": 8})
    with pytest.raises(ValueError, match=r"unknown config keys: \['ema_mode'\]"):
        RunConfig.from_dict({"ema_mode": "epoch", "ema_interval": 8})


# Fields that no config ever set to anything but its default, now defaults
# of the code that reads them, with those defaults.
DELETED_FIELDS = {"gamma": 0.9, "a_max": 5.0, "shift": 5.0, "adam_beta1": 0.9,
                  "adam_beta2": 0.999, "adam_eps": 1e-8, "weight_decay": 1e-4,
                  "pretrain_lr": 3e-3, "pretrain_batch": 16}


@pytest.mark.parametrize("name", sorted(DELETED_FIELDS))
def test_deleted_field_is_an_unknown_key(name):
    with pytest.raises(ValueError, match=rf"unknown config keys: \['{name}'\]$"):
        RunConfig.from_dict({name: DELETED_FIELDS[name]})


def test_config_file_naming_the_deleted_fields_is_refused(tmp_path):
    # A config.json as save_config wrote it while RunConfig had 35 fields.
    old = {**RunConfig().to_dict(), **DELETED_FIELDS}
    assert len(old) == 35
    path = tmp_path / "config.json"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    message = f"unknown config keys: {sorted(DELETED_FIELDS)}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        load_config(path)


def test_config_file_null_tuple_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"raw_timesteps": null}')
    with pytest.raises(ValueError, match="invalid config: raw_timesteps"):
        load_config(path)


def test_config_file_must_be_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_config(path)


def test_tuple_coercion():
    cfg = RunConfig.from_dict({"reward_weights": [0.2, 0.3, 0.5],
                               "raw_timesteps": [800, 400, 100]})
    assert cfg.reward_weights == (0.2, 0.3, 0.5)
    assert cfg.raw_timesteps == (800.0, 400.0, 100.0)


@pytest.mark.parametrize("field,value", [
    ("mode", "medium"),
    ("seed", -1),
    ("frame_dim", 1),
    ("prompt_dim", 12),          # exceeds frame_dim
    ("group_size", 1),
    ("window_clips", 99),        # exceeds total_clips
    ("beta", 0.0),
    ("lambda_kl", -1e-4),
    ("tau_kl", 0.0),
    # gamma, a_max, shift, adam_beta1, adam_eps, weight_decay and
    # pretrain_batch are fields no more (test_deleted_field_is_an_unknown_key);
    # their cases stay, so that the generated ids of later cases stay put.
    ("gamma", 1.0),
    # ema_mode="epoch" was ema_interval = prompts_per_epoch under another
    # name; a config that still names it fails as any unknown key does.
    ("ema_mode", "never"),
    ("ema_interval", 0),
    ("a_max", 0.0),
    ("rho0", 0.0),
    ("rho0", 1.5),
    ("reward_weights", (0.5, 0.5)),
    ("reward_weights", (0.7, 0.6, -0.3)),
    ("reward_weights", (0.5, 0.4, 0.4)),
    ("advantage_source", "mean"),
    ("noise_mode", "uniform"),
    ("fixed_t", 0.0),
    ("raw_timesteps", (500.0, 500.0)),
    ("raw_timesteps", ()),
    ("shift", 0.0),
    ("lr", 0.0),
    ("adam_beta1", 1.0),
    ("adam_eps", 0.0),
    ("weight_decay", -0.1),
    ("max_grad_norm", 0.0),
    ("pretrain_steps", -1),
    ("pretrain_batch", 0),
    # Types: a float in an integer field is truncated downstream (seed 1.5
    # trains as seed 1), and a string fails a range check with a TypeError.
    ("seed", 1.5),
    ("epochs", 2.0),
    ("epochs", "2"),
    ("group_size", True),
    ("pretrain_steps", None),
    ("lr", "1e-3"),
    ("beta", False),
    # Non-finite reals: inf trains until the first step overflows and is
    # not JSON in config.json; an int past float range is as bad.
    ("lr", float("inf")),
    ("beta", float("inf")),
    ("shift", float("nan")),
    ("tau_kl", float("inf")),
    pytest.param("max_grad_norm", 10 ** 400, id="max_grad_norm-past-float-range"),
    ("reward_weights", (float("inf"), 0.0, 0.0)),
    ("reward_weights", (float("nan"), 0.5, 0.5)),
    ("raw_timesteps", (float("inf"), 10.0)),
    # Tuple entries are real numbers, as scalar fields are: no strings or bools.
    ("reward_weights", ("0.5", "0.25", "0.25")),
    ("reward_weights", (True, False, False)),
    ("raw_timesteps", ["1000", "10"]),
    # Tuple fields are lists or tuples: a scalar or null is not iterable, and
    # a dict or a string would be read through its keys or characters.
    ("reward_weights", 0.5),
    ("raw_timesteps", None),
    ("raw_timesteps", {1000.0: 1, 500.0: 2}),
    ("reward_weights", {0.5: "a", 0.25: "b", 0.125: "c"}),
    ("sink_size", -1),
    ("window_clips", 0),
    # Lower bounds no function downstream of the config checks again.
    ("prompt_dim", 1),
    ("raw_timesteps", (1000.0, 0.0)),
])
def test_validation_rejects(field, value):
    with pytest.raises(ValueError, match="invalid config"):
        RunConfig.from_dict({field: value})


def test_numeric_fields_accept_numbers_of_their_kind(tmp_path):
    # An int is a real number and numpy's float64 is a float; both save as
    # JSON, which numpy's int64 does not.
    cfg = RunConfig(seed=3, lr=1, beta=np.float64(0.5))
    save_config(cfg, tmp_path / "config.json")
    assert load_config(tmp_path / "config.json") == cfg
    with pytest.raises(ValueError, match="seed must be an integer"):
        RunConfig(seed=np.int64(3))
