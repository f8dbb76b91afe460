"""End-to-end command-line runs on desk-scale configs."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import astro
from astro import cli, flowgen, longtune, nftcore, runio, streamctx, rng as arng
from astro import tensorgrad as tg
from astro.config import RunConfig, save_config
from test_tensorgrad import reference_backward


def tiny_config(**over):
    base = dict(
        seed=0, mode="short", frame_dim=4, clip_len=2, prompt_dim=4, hidden=16,
        group_size=4, prompts_per_epoch=2, epochs=2, total_clips=3, window_clips=1,
        lr=1e-3, pretrain_steps=40)
    base.update(over)
    return RunConfig(**base)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    save_config(cfg, path)
    return path


def test_train_end_to_end(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    out_dir = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "config.json").exists()
    records = runio.read_metrics(out_dir / "metrics.jsonl")
    assert [r["epoch"] for r in records] == [0, 1]
    assert (out_dir / "checkpoint.bin").exists()
    lines = capsys.readouterr().out
    assert "epoch" in lines and "checkpoint written" in lines


def test_same_seed_runs_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(d)])
        assert rc == 0
    assert (dirs[0] / "metrics.jsonl").read_bytes() == (dirs[1] / "metrics.jsonl").read_bytes()
    assert (dirs[0] / "checkpoint.bin").read_bytes() == (dirs[1] / "checkpoint.bin").read_bytes()


@pytest.mark.parametrize("mode", ["short", "long"])
def test_bulk_seeding_leaves_run_bytes_unchanged(tmp_path, monkeypatch, mode):
    # The vectorized substreams against one numpy SeedSequence per key, end
    # to end on the installed numpy.
    cfg = tiny_config(mode=mode, epochs=3, total_clips=4, window_clips=2)
    assert cli.run_training(cfg, tmp_path / "bulk")["status"] == "ok"
    monkeypatch.setattr(arng, "substreams", lambda keys: [arng.substream(*k) for k in keys])
    assert cli.run_training(cfg, tmp_path / "per_key")["status"] == "ok"
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert ((tmp_path / "bulk" / name).read_bytes()
                == (tmp_path / "per_key" / name).read_bytes()), name


@pytest.mark.parametrize("mode", ["short", "long"])
def test_lean_backward_leaves_run_bytes_unchanged(tmp_path, monkeypatch, mode):
    # backward against the whole-tape walk, for pretraining and every epoch.
    cfg = tiny_config(mode=mode, epochs=3, total_clips=4, window_clips=2)
    assert cli.run_training(cfg, tmp_path / "lean")["status"] == "ok"
    monkeypatch.setattr(tg, "backward", reference_backward)
    assert cli.run_training(cfg, tmp_path / "whole_tape")["status"] == "ok"
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert ((tmp_path / "lean" / name).read_bytes()
                == (tmp_path / "whole_tape" / name).read_bytes()), name


def window_list_rollout_prefix(theta_old, prompts, start_clip, cfg, schedule, epoch):
    """Reference prefix: one ContextWindow per prompt, each pushed on its own."""
    empty = streamctx.empty_context(cfg.sink_size, cfg.window_size, cfg.frame_dim)
    ctxs = [empty] * len(prompts)
    if start_clip == 0:
        return ctxs
    streams = arng.substreams([(cfg.seed, arng.PREFIX_STREAM, epoch, p.pid) for p in prompts])
    vecs = np.stack([p.vec for p in prompts])
    with nftcore.abort_on_nonfinite(epoch, prompts, 1):
        for _ in range(start_clip):
            summary = np.stack([ctx.summary() for ctx in ctxs])
            clips = flowgen.sample_clips(theta_old, summary, vecs, schedule, streams)
            ctxs = [streamctx.push_clip(ctx, clip) for ctx, clip in zip(ctxs, clips)]
    return ctxs


def window_list_group_rollout(params_old, ctxs, prompts, group_size, schedule, base_keys,
                              n_clips):
    """Reference window: one ContextWindow per candidate, each pushed on its own."""
    streams = arng.substreams([key + (i,) for key in base_keys for i in range(group_size)])
    vecs = np.repeat(np.stack([p.vec for p in prompts]), group_size, axis=0)
    summary = np.repeat(np.stack([ctx.summary() for ctx in ctxs]), group_size, axis=0)
    cand_ctxs = [ctx for ctx in ctxs for _ in range(group_size)]
    clips, summaries = [], []
    for k in range(n_clips):
        if k:
            cand_ctxs = [streamctx.push_clip(ctx, clip) for ctx, clip in zip(cand_ctxs, clips[-1])]
            summary = np.stack([ctx.summary() for ctx in cand_ctxs])
        summaries.append(summary)
        clips.append(flowgen.sample_clips(params_old, summary, vecs, schedule, streams))
    shape = (len(ctxs), group_size, n_clips)
    return (np.stack(clips, axis=1).reshape(*shape, *clips[0].shape[1:]),
            np.stack(summaries, axis=1).reshape(*shape, -1))


def test_batched_context_leaves_run_bytes_unchanged(tmp_path, monkeypatch):
    # The ContextBatch rollout against one ContextWindow per prompt and per
    # candidate, end to end. Clips of 2 frames fill the 3-frame sink over two
    # pushes, and a 2-frame rolling window evicts from the third frame on.
    cfg = tiny_config(mode="long", epochs=4, total_clips=6, window_clips=3, window_size=2)
    assert cli.run_training(cfg, tmp_path / "batch")["status"] == "ok"
    starts = [r["window_start"] for r in runio.read_metrics(tmp_path / "batch" / "metrics.jsonl")]
    assert max(starts) >= 2, starts
    monkeypatch.setattr(longtune, "rollout_prefix", window_list_rollout_prefix)
    monkeypatch.setattr(streamctx, "group_rollout", window_list_group_rollout)
    assert cli.run_training(cfg, tmp_path / "windows")["status"] == "ok"
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert ((tmp_path / "batch" / name).read_bytes()
                == (tmp_path / "windows" / name).read_bytes()), name


def test_module_entry_point_runs_without_warning():
    # The package resolves cli on first use, so running it as a module does
    # not find it imported already.
    env = dict(os.environ, PYTHONPATH=str(Path(astro.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "astro.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr
    assert callable(astro.cli.run_training)


@pytest.mark.parametrize("mode", ["short", "long"])
def test_abort_json_names_prompt_whose_rows_blew_up(tmp_path, monkeypatch, mode):
    real_build_world = cli.build_world

    def build_world(cfg):
        schedule, corpus, prompts = real_build_world(cfg)
        prompts[2] = dataclasses.replace(prompts[2], vec=np.full_like(prompts[2].vec, np.nan))
        return schedule, corpus, prompts

    monkeypatch.setattr(cli, "build_world", build_world)
    cfg = tiny_config(mode=mode, prompts_per_epoch=4, total_clips=4, window_clips=2)
    diag = cli.run_training(cfg, tmp_path)
    assert diag["status"] == "aborted"
    assert diag["prompt"] == 2
    assert json.loads((tmp_path / "abort.json").read_text())["prompt"] == 2


def test_long_mode_end_to_end(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(mode="long", total_clips=4,
                                                  window_clips=2))
    out_dir = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    records = runio.read_metrics(out_dir / "metrics.jsonl")
    assert len(records) == 2


def test_mode_and_seed_overrides(tmp_path, monkeypatch):
    captured = {}

    def fake_run(cfg, out_dir, resume=None, echo=None):
        captured["cfg"] = cfg
        captured["out"] = out_dir
        return {"status": "ok"}

    monkeypatch.setattr(cli, "run_training", fake_run)
    cfg_path = write_config(tmp_path, tiny_config())
    rc = cli.main(["train", "--config", str(cfg_path), "--mode", "long",
                   "--seed", "11", "--paper-scale", "--out", str(tmp_path / "x")])
    assert rc == 0
    assert captured["cfg"].mode == "long"
    assert captured["cfg"].seed == 11
    assert captured["cfg"].group_size == cli.PAPER_SCALE_GROUP == 24


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.LOG_DIR_ENV, str(tmp_path / "logs"))
    cfg = tiny_config(seed=3)
    out = cli.resolve_out_dir(cfg, None)
    assert out == tmp_path / "logs" / "seed3_short"
    # explicit --out always wins
    assert cli.resolve_out_dir(cfg, str(tmp_path / "elsewhere")) == tmp_path / "elsewhere"


def test_resume_continues_epoch_numbering(tmp_path):
    cfg = tiny_config(epochs=2)
    cfg_path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0

    longer = tiny_config(epochs=4)
    longer_path = write_config(tmp_path, longer, name="longer.json")
    rc = cli.main(["train", "--config", str(longer_path), "--out", str(out_dir),
                   "--resume", str(out_dir / "checkpoint.bin")])
    assert rc == 0
    records = runio.read_metrics(out_dir / "metrics.jsonl")
    assert [r["epoch"] for r in records] == [0, 1, 2, 3]
    _, meta = runio.load_checkpoint(out_dir / "checkpoint.bin")
    assert meta["epoch"] == 4


def test_zero_epochs_writes_checkpoint_only(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(epochs=0))
    out_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "checkpoint.bin").exists()
    assert not (out_dir / "metrics.jsonl").exists()


def test_verify_theory_command(capsys):
    rc = cli.main(["verify-theory", "--trials", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "optimal_velocity: PASS" in out
    assert "pinsker: PASS" in out
    assert "reward_lower_bound: PASS" in out


def test_export_metrics_command(tmp_path, capsys):
    log = tmp_path / "metrics.jsonl"
    for e in range(3):
        runio.log_metrics(log, runio.MetricsRecord(
            epoch=e, reward_vq=0.0, reward_mq=0.0, reward_ta=0.0, composite=0.1,
            policy_loss=0.2, kl_loss=0.0, mask_fraction=0.0, tau=None, rho=0.2,
            grad_norm=0.1, reset=False))
    out = tmp_path / "plot.csv"
    rc = cli.main(["export-metrics", "--log", str(log), "--out", str(out)])
    assert rc == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    assert len(out.read_text().strip().splitlines()) == 4


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_checkpoint_state_roundtrip(tmp_path):
    # pack -> save -> load -> unpack preserves every stateful component at
    # float32 precision: policy triple, optimizer moments, normalizer, risk.
    from astro import flowgen, nftcore, rewardlab
    from astro import rng as arng
    from astro import tensorgrad as tg

    cfg = tiny_config()
    rng = np.random.default_rng(0)
    base = flowgen.init_net(rng, cfg.frame_dim, cfg.clip_len, cfg.prompt_dim, cfg.hidden)
    policies = nftcore.PolicyTriple.from_base(base)
    optimizer = cli.make_optimizer(cfg)
    optimizer.step(policies.theta, tg.flatten({k: rng.standard_normal(v.shape) * 1e-3
                                               for k, v in policies.theta.items()}))
    state = nftcore.TrainState(epoch=5, last_reset_epoch=2, steps=17)
    normalizer = rewardlab.RewardNormalizer()
    normalizer.update(0, rng.standard_normal((8, 3)))
    risk = rewardlab.RiskState(rho0=cfg.rho0, rho=0.15)
    rewardlab.update_risk_ratio(risk, rng.standard_normal(4))

    arrays, extra = cli.pack_checkpoint(policies, optimizer, state, normalizer, risk)
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, arrays, seed=cfg.seed, epoch=state.epoch, extra=extra)
    loaded, meta = runio.load_checkpoint(path)
    p2, opt2, state2, norm2, risk2 = cli.unpack_checkpoint(loaded, meta, cfg)

    assert state2.epoch == 5 and state2.last_reset_epoch == 2 and state2.steps == 17
    assert opt2.t == optimizer.t
    assert risk2.rho == pytest.approx(0.15)
    assert len(risk2.buffer) == 1
    for k in policies.theta:
        assert np.allclose(p2.theta[k], policies.theta[k], atol=1e-6)
    assert norm2.count[0] == 8
    # Every policy and moment comes back as one flat buffer, and training
    # can take its next step from them.
    for params in (p2.theta, p2.theta_old, p2.theta_ref, opt2.m, opt2.v):
        assert isinstance(params, tg.FlatParams)
        assert all(np.shares_memory(params[k], params.flat) for k in params)
    assert list(opt2.m) == sorted(policies.theta)
    repacked, _ = cli.pack_checkpoint(p2, opt2, state2, norm2, risk2)
    assert list(repacked) == list(arrays)
    opt2.step(p2.theta, tg.flatten({k: np.full(v.shape, 1e-3) for k, v in p2.theta.items()}))
    assert opt2.t == optimizer.t + 1
    assert all(np.isfinite(p2.theta[k]).all() for k in p2.theta)
    nftcore.ema_update(p2.theta_old, p2.theta, cfg.gamma)
    assert not np.array_equal(p2.theta_old.flat, p2.theta_ref.flat)
