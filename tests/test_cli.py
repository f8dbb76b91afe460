"""End-to-end command-line runs on desk-scale configs."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import astro
from astro import cli, flowgen, longtune, nftcore, runio, streamctx, theoryx, rng as arng
from astro import tensorgrad as tg
from astro.config import RunConfig, save_config
from test_flowgen import per_step_noise
from test_runio import rewrite_manifest
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


def count_calls(monkeypatch, cls, name):
    """Count calls of cls.name from here on; returns the list it appends to."""
    calls, method = [], getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda *a: calls.append(1) or method(*a))
    return calls


@pytest.mark.parametrize("mode", ["short", "long"])
def test_lean_backward_leaves_run_bytes_unchanged(tmp_path, monkeypatch, mode):
    # The tape's backward against the whole-tape walk over a Node build, on
    # every step of pretraining and of every epoch.
    cfg = tiny_config(mode=mode, epochs=3, total_clips=4, window_clips=2)
    assert cli.run_training(cfg, tmp_path / "lean")["status"] == "ok"

    def node_pass(tapes, frozen, params, inputs, build):
        graph = tg.GradGraph()
        outputs = build(graph, params, inputs)
        return ([float(node.value) for node in outputs],
                lambda out: reference_backward(graph, outputs[0]))

    monkeypatch.setattr(tg, "loss_pass", node_pass)
    assert cli.run_training(cfg, tmp_path / "whole_tape")["status"] == "ok"
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert ((tmp_path / "lean" / name).read_bytes()
                == (tmp_path / "whole_tape" / name).read_bytes()), name


@pytest.mark.parametrize("mode", ["short", "long"])
def test_replayed_tapes_leave_run_bytes_unchanged(tmp_path, monkeypatch, mode):
    # Replayed tapes against a tape recorded afresh on every step, for
    # pretraining and every epoch. The production run builds one graph per
    # tape it records and replays every other step.
    cfg = tiny_config(mode=mode, epochs=3, total_clips=4, window_clips=2)
    graphs = count_calls(monkeypatch, tg.GradGraph, "__init__")
    recorded = count_calls(monkeypatch, tg.Tape, "__init__")
    replays = count_calls(monkeypatch, tg.Tape, "forward")
    assert cli.run_training(cfg, tmp_path / "replayed")["status"] == "ok"
    assert len(replays) > cfg.pretrain_steps
    assert len(graphs) == len(recorded) >= 1
    assert len(recorded) < len(replays)

    loss_pass = tg.loss_pass
    monkeypatch.setattr(tg, "loss_pass", lambda tapes, *args: loss_pass({}, *args))
    del graphs[:], recorded[:], replays[:]
    assert cli.run_training(cfg, tmp_path / "fresh")["status"] == "ok"
    assert len(graphs) == len(recorded) == len(replays) > cfg.pretrain_steps
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert ((tmp_path / "replayed" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name


def test_timings_log_every_phase_once_per_epoch(tmp_path):
    cfg = tiny_config(mode="long", epochs=3, total_clips=4, window_clips=2)
    assert cli.run_training(cfg, tmp_path)["status"] == "ok"
    rows = runio.read_metrics(tmp_path / "timings.jsonl")
    phases = ["prefix", "rollout", "judges", "loss_inputs", "loss_forward", "backward", "clip",
              "adamw", "ema", "total"]
    assert [row["epoch"] for row in rows] == [0, 1, 2]
    for row in rows:
        assert sorted(row) == sorted(["epoch", *phases])
        assert all(row[p] >= 0.0 for p in phases)
        assert sum(row[p] for p in phases[:-1]) <= row["total"]
    metrics = runio.read_metrics(tmp_path / "metrics.jsonl")
    assert all(set(row).isdisjoint(phases) for row in metrics)
    # A resumed run appends; a fresh one starts the file again.
    cli.run_training(tiny_config(mode="long", epochs=4, total_clips=4, window_clips=2),
                     tmp_path, resume=str(tmp_path / "checkpoint.bin"))
    assert [r["epoch"] for r in runio.read_metrics(tmp_path / "timings.jsonl")] == [0, 1, 2, 3]
    cli.run_training(cfg, tmp_path)
    assert [r["epoch"] for r in runio.read_metrics(tmp_path / "timings.jsonl")] == [0, 1, 2]


def window_list_rollout_prefix(theta_old, prompts, start_clip, cfg, schedule, epoch):
    """Reference prefix: one ContextWindow per prompt, each pushed on its own,
    with a 2-frame rolling window, and each stream drawn per schedule step."""
    empty = streamctx.empty_context(cfg.sink_size, 2, cfg.frame_dim)
    ctxs = [empty] * len(prompts)
    if start_clip == 0:
        return ctxs
    streams = arng.substreams([(cfg.seed, arng.PREFIX_STREAM, epoch, p.pid) for p in prompts])
    vecs = np.stack([p.vec for p in prompts])
    with nftcore.abort_on_nonfinite(epoch, prompts, 1):
        for _ in range(start_clip):
            summary = np.stack([ctx.summary() for ctx in ctxs])
            noise = per_step_noise(streams, schedule, (cfg.clip_len, cfg.frame_dim))
            clips = flowgen.sample_clips(theta_old, summary, vecs, schedule, noise)
            ctxs = [streamctx.push_clip(ctx, clip) for ctx, clip in zip(ctxs, clips)]
    return ctxs


def window_list_group_rollout(params_old, ctxs, prompts, group_size, schedule, base_keys,
                              n_clips):
    """Reference window: one ContextWindow per candidate, each pushed on its own,
    and each stream drawn per schedule step."""
    streams = arng.substreams([key + (i,) for key in base_keys for i in range(group_size)])
    vecs = np.repeat(np.stack([p.vec for p in prompts]), group_size, axis=0)
    summary = np.repeat(np.stack([ctx.summary() for ctx in ctxs]), group_size, axis=0)
    cand_ctxs = [ctx for ctx in ctxs for _ in range(group_size)]
    frame_dim = ctxs[0].frame_dim
    clip_shape = (params_old["b3"].shape[1] // frame_dim, frame_dim)
    clips, summaries = [], []
    for k in range(n_clips):
        if k:
            cand_ctxs = [streamctx.push_clip(ctx, clip) for ctx, clip in zip(cand_ctxs, clips[-1])]
            summary = np.stack([ctx.summary() for ctx in cand_ctxs])
        summaries.append(summary)
        noise = per_step_noise(streams, schedule, clip_shape)
        clips.append(flowgen.sample_clips(params_old, summary, vecs, schedule, noise))
    shape = (len(ctxs), group_size, n_clips)
    return (np.stack(clips, axis=1).reshape(*shape, *clips[0].shape[1:]),
            np.stack(summaries, axis=1).reshape(*shape, -1))


def test_batched_context_leaves_run_bytes_unchanged(tmp_path, monkeypatch):
    # The ContextBatch rollout against one ContextWindow per prompt and per
    # candidate, end to end. Clips of 2 frames fill the 3-frame sink over two
    # pushes, and the reference's 2-frame rolling window evicts from the
    # third frame on.
    cfg = tiny_config(mode="long", epochs=4, total_clips=6, window_clips=3)
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


def test_resume_drops_log_lines_from_the_checkpoint_epoch_on(tmp_path):
    # A resume from epoch 2 into a directory whose logs reach epoch 3 logs
    # epochs 0..3 once each, with the bytes a resume into the directory
    # that wrote the checkpoint gives. A final line cut off mid-append, as a
    # killed run leaves it, is dropped with them.
    early, late = tmp_path / "early", tmp_path / "late"
    assert cli.run_training(tiny_config(epochs=2), early)["status"] == "ok"
    assert cli.run_training(tiny_config(epochs=4), late)["status"] == "ok"
    for fname in ("metrics.jsonl", "timings.jsonl"):
        with open(late / fname, "a", encoding="utf-8") as fh:
            fh.write('{"epoch":4,"a"')
    for out_dir in (late, early):
        summary = cli.run_training(tiny_config(epochs=4), out_dir,
                                   resume=str(early / "checkpoint.bin"))
        assert summary["status"] == "ok"
        for fname in ("metrics.jsonl", "timings.jsonl"):
            assert [r["epoch"] for r in runio.read_metrics(out_dir / fname)] == [0, 1, 2, 3]
    assert (late / "metrics.jsonl").read_bytes() == (early / "metrics.jsonl").read_bytes()


def test_fresh_run_leaves_nothing_of_the_previous_run(tmp_path):
    # A fresh run that aborts leaves no checkpoint of an earlier run to be
    # resumed by mistake, and a fresh run that completes leaves no abort.json
    # of an earlier abort. A resume removes abort.json but keeps the
    # checkpoint, which may be the one it resumed from.
    out_dir, saved = tmp_path / "run", tmp_path / "saved.bin"
    assert cli.run_training(tiny_config(), out_dir)["status"] == "ok"
    saved.write_bytes((out_dir / "checkpoint.bin").read_bytes())
    assert cli.run_training(tiny_config(lr=1e300), out_dir)["status"] == "aborted"
    assert not (out_dir / "checkpoint.bin").exists()
    assert cli.run_training(tiny_config(), out_dir)["status"] == "ok"
    assert not (out_dir / "abort.json").exists()
    assert cli.run_training(tiny_config(lr=1e300), out_dir)["status"] == "aborted"
    summary = cli.run_training(tiny_config(epochs=3), out_dir, resume=str(saved))
    assert summary["status"] == "ok"
    assert not (out_dir / "abort.json").exists()
    assert [r["epoch"] for r in runio.read_metrics(out_dir / "metrics.jsonl")] == [2]


def test_interrupted_fresh_run_leaves_nothing_of_the_previous_run(tmp_path, monkeypatch):
    # A fresh run removes the previous run's logs and checkpoint before it
    # pretrains, so one interrupted there leaves only its own config, and no
    # earlier checkpoint beside it to be resumed by mistake.
    out_dir = tmp_path / "run"
    assert cli.run_training(tiny_config(), out_dir)["status"] == "ok"

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "pretrain_from_config", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.run_training(tiny_config(lr=2e-3), out_dir)
    assert sorted(path.name for path in out_dir.iterdir()) == ["config.json"]
    assert json.loads((out_dir / "config.json").read_text())["lr"] == 2e-3


def test_zero_epochs_writes_checkpoint_only(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(epochs=0))
    out_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "checkpoint.bin").exists()
    assert not (out_dir / "metrics.jsonl").exists()
    # Its checkpoint holds no moments (AdamW makes them at its first step),
    # and resuming it trains.
    arrays, meta = runio.load_checkpoint(out_dir / "checkpoint.bin")
    assert meta["extra"]["opt_t"] == 0 and not any(k.startswith("opt/") for k in arrays)
    more_path = write_config(tmp_path, tiny_config(epochs=1), name="more.json")
    assert cli.main(["train", "--config", str(more_path), "--out", str(out_dir),
                     "--resume", str(out_dir / "checkpoint.bin")]) == 0
    assert [r["epoch"] for r in runio.read_metrics(out_dir / "metrics.jsonl")] == [0]


def test_verify_theory_command(capsys):
    # One line per FAMILIES entry, built from its family's report alone: a
    # family added to FAMILIES gets its line with no edit to the command.
    assert cli.main(["verify-theory", "--trials", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = theoryx.verify_theory(trials=5)
    assert len(lines) == len(theoryx.FAMILIES) == len(report) - 1
    for line, name in zip(lines, theoryx.FAMILIES):
        fields = [k for k in report[name] if k != "passed"]
        assert line.startswith(f"{name}: PASS (") and line.endswith(")"), line
        assert [part.split(" ")[0] for part in line[line.index("(") + 1:-1].split(", ")] == fields
        assert f"trials {report[name]['trials']}" in line


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_theory_command_refuses_fewer_than_one_trial(capsys, trials):
    # A check family that ran no instance reports no pass.
    assert cli.main(["verify-theory", "--trials", trials]) != 0
    out, err = capsys.readouterr()
    assert "PASS" not in out and f"got {trials}" in err


def test_export_metrics_command(tmp_path, capsys):
    log = tmp_path / "metrics.jsonl"
    for e in range(3):
        runio.log_metrics(log, runio.MetricsRecord(
            epoch=e, reward_vq=0.0, reward_mq=0.0, reward_ta=0.0, composite=0.1,
            policy_loss=0.2, kl_loss=0.0, mask_fraction=0.0, tau=0.0, grad_norm=0.1,
            reset=False))
    out = tmp_path / "plot.csv"
    rc = cli.main(["export-metrics", "--log", str(log), "--out", str(out)])
    assert rc == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    assert len(out.read_text().strip().splitlines()) == 4


@pytest.mark.parametrize("edit,out_name,message", [
    pytest.param(lambda text: text + "not json\n", "plot.csv",
                 "metrics.jsonl: line 'not json' is not JSON", id="line-not-json"),
    pytest.param(lambda text: text.replace('"composite":0.1,', "", 1), "plot.csv",
                 "metrics.jsonl: record 1 lacks composite", id="missing-field"),
    pytest.param(lambda text: text, "absent/plot.csv", "No such file", id="out-in-missing-dir"),
])
def test_export_metrics_refuses_unusable_input_in_one_line(tmp_path, capsys, edit, out_name,
                                                           message):
    # One stderr line, exit 2, and no CSV, not even a header-only one.
    log, out = tmp_path / "metrics.jsonl", tmp_path / out_name
    for e in range(3):
        runio.log_metrics(log, runio.MetricsRecord(
            epoch=e, reward_vq=0.0, reward_mq=0.0, reward_ta=0.0, composite=0.1,
            policy_loss=0.2, kl_loss=0.0, mask_fraction=0.0, tau=0.0, grad_norm=0.1,
            reset=False))
    log.write_text(edit(log.read_text(encoding="utf-8")), encoding="utf-8")
    assert cli.main(["export-metrics", "--log", str(log), "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith("export-metrics: ") and err.count("\n") == 1 and message in err, err
    assert "Traceback" not in err and out_text == ""
    assert not out.exists()


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_checkpoint_state_roundtrip(tmp_path):
    # to_arrays -> save -> load -> from_arrays preserves every stateful
    # component at float32 precision: policy triple, optimizer moments,
    # counters, normalizer.
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    base = flowgen.init_net(rng, cfg.frame_dim, cfg.clip_len, cfg.prompt_dim, cfg.hidden)
    run = nftcore.RunState.fresh(cfg, base)
    optimizer = run.optimizer
    optimizer.step(run.theta, tg.flatten({k: rng.standard_normal(v.shape) * 1e-3
                                          for k, v in run.theta.items()}))
    run.epoch, run.last_reset_epoch = 5, 2
    run.normalizer.update_and_standardize([0], rng.standard_normal((1, 8, 3)))

    arrays, extra = run.to_arrays()
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, arrays, seed=cfg.seed, epoch=run.epoch, extra=extra)
    loaded, meta = runio.load_checkpoint(path)
    run2 = nftcore.RunState.from_arrays(loaded, meta, cfg)
    opt2 = run2.optimizer

    assert run2.epoch == 5 and run2.last_reset_epoch == 2
    assert opt2.t == optimizer.t
    for k in run.theta:
        assert np.allclose(run2.theta[k], run.theta[k], atol=1e-6)
    assert run2.normalizer.pids.tolist() == [0] and run2.normalizer.count.tolist() == [8.0]
    # Every policy and moment comes back as one flat buffer, and training
    # can take its next step from them.
    for params in (run2.theta, run2.theta_old, run2.theta_ref, opt2.m, opt2.v):
        assert isinstance(params, tg.FlatParams)
        assert all(np.shares_memory(params[k], params.flat) for k in params)
    assert list(opt2.m) == sorted(run.theta)
    repacked, _ = run2.to_arrays()
    assert list(repacked) == list(arrays)
    opt2.step(run2.theta, tg.flatten({k: np.full(v.shape, 1e-3) for k, v in run2.theta.items()}))
    assert opt2.t == optimizer.t + 1
    assert all(np.isfinite(run2.theta[k]).all() for k in run2.theta)
    nftcore.ema_update(run2.theta_old, run2.theta, nftcore.EMA_GAMMA)
    assert not np.array_equal(run2.theta_old.flat, run2.theta_ref.flat)


def test_resume_under_another_seed_is_refused(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(seed=0))
    out_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    config_before = (out_dir / "config.json").read_bytes()
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "5",
                     "--resume", str(out_dir / "checkpoint.bin")]) == 2
    assert re.fullmatch(r"train: checkpoint was written with seed 0.*seed 5.*\n",
                        capsys.readouterr().err)
    # Nothing of the first run was overwritten.
    assert (out_dir / "config.json").read_bytes() == config_before
    _, meta = runio.load_checkpoint(out_dir / "checkpoint.bin")
    assert meta["seed"] == 0


def test_resume_under_another_network_shape_is_refused(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(hidden=16))
    out_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    before = {p: p.read_bytes() for p in out_dir.iterdir()}
    wider_path = write_config(tmp_path, tiny_config(hidden=32, epochs=4), name="wider.json")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(wider_path), "--out", str(out_dir),
                     "--resume", str(out_dir / "checkpoint.bin")]) == 2
    assert re.fullmatch(r"train: checkpoint .*'w1' has shape \(24, 16\).*\(24, 32\).*\n",
                        capsys.readouterr().err)
    # Nothing under out_dir was written.
    assert {p: p.read_bytes() for p in out_dir.iterdir()} == before


TINY_CONFIG = json.dumps(tiny_config().to_dict())


@pytest.mark.parametrize("config_text,extra,message", [
    pytest.param(None, [], "No such file", id="missing-config"),
    pytest.param('{"seed": 0,', [], "Expecting", id="config-not-json"),
    pytest.param("[1]", [], "config.json: config file must hold a JSON object",
                 id="config-not-object"),
    pytest.param('{"lrr": 1}', [], "unknown config keys: ['lrr']", id="unknown-key"),
    pytest.param('{"group_size": 1}', [], "group_size must be at least 2", id="invalid-value"),
    pytest.param(TINY_CONFIG, ["--seed", "-1"], "seed must be nonnegative", id="negative-seed"),
    pytest.param(TINY_CONFIG, ["--resume", "{tmp}/absent.bin"], "No such file",
                 id="missing-checkpoint"),
    pytest.param(TINY_CONFIG, ["--resume", "{tmp}/config.json"], "not a checkpoint file",
                 id="refused-checkpoint"),
])
def test_train_refuses_unusable_input_in_one_line(tmp_path, capsys, config_text, extra,
                                                  message):
    # The refusal is a return, not an exception out of main: one stderr line,
    # exit 2, and no output directory.
    cfg_path, out_dir = tmp_path / "config.json", tmp_path / "run"
    if config_text is not None:
        cfg_path.write_text(config_text, encoding="utf-8")
    argv = ["train", "--config", str(cfg_path), "--out", str(out_dir)]
    assert cli.main(argv + [arg.format(tmp=tmp_path) for arg in extra]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("train: ") and err.count("\n") == 1 and message in err, err
    assert "Traceback" not in err and out == ""
    assert not out_dir.exists()


def test_train_names_the_config_file_that_is_not_json(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"seed": 0,', encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as decoder:
        json.loads('{"seed": 0,')
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"train: {cfg_path}: {decoder.value}\n"


def drop_moments(arrays, extra):
    return {k: a for k, a in arrays.items() if not k.startswith(("opt/m/", "opt/v/"))}, extra


def short_reference_row(arrays, extra):
    return dict(arrays, **{"theta_ref/w1": arrays["theta_ref/w1"][:-1]}), extra


def two_judge_normalizer(arrays, extra):
    return dict(arrays, **{k: arrays[k][:, :2] for k in ("norm/mean", "norm/m2")}), extra


def short_normalizer_row(arrays, extra):
    return dict(arrays, **{"norm/mean": arrays["norm/mean"][:-1]}), extra


def unordered_normalizer_pids(arrays, extra):
    return arrays, dict(extra, norm_pids=extra["norm_pids"][::-1])


def reset_past_epoch(arrays, extra):
    return arrays, dict(extra, last_reset_epoch=99)


def lacking(entry):
    """Damage that drops one entry: a norm/ array, or extra.<key> of the extra dict."""
    def damage(arrays, extra):
        return ({k: a for k, a in arrays.items() if k != entry},
                {k: v for k, v in extra.items() if f"extra.{k}" != entry})
    return damage


READ_ENTRIES = ("norm/count", "norm/mean", "norm/m2", "extra.opt_t", "extra.last_reset_epoch",
                "extra.norm_pids")


@pytest.mark.parametrize("damage, message", [
    (drop_moments, r"opt/m parameter 'w1' has shape None; the config implies \(24, 16\)"),
    (short_reference_row, r"theta_ref parameter 'w1' has shape \(23, 16\).*\(24, 16\)"),
    (two_judge_normalizer, r"norm/mean has shape \(2, 2\);.*imply \(2, 3\)"),
    (short_normalizer_row, r"norm/mean has shape \(1, 3\);.*imply \(2, 3\)"),
    (unordered_normalizer_pids, r"norm_pids \[1, 0\] are not ascending"),
    (reset_past_epoch, r"extra.last_reset_epoch 99 is past its epoch 1$"),
    *[(lacking(entry), f"checkpoint lacks {re.escape(entry)}$") for entry in READ_ENTRIES],
], ids=["no_moments", "short_reference", "two_judge_normalizer", "short_normalizer",
        "unordered_normalizer", "reset_past_epoch", *[f"lacks_{entry}" for entry in READ_ENTRIES]])
def test_resume_of_a_damaged_checkpoint_is_refused(tmp_path, damage, message):
    # Every buffer of the checkpoint is checked, not only theta: moments
    # missing after optimizer steps would be silently re-zeroed, and a
    # reference or a reward normalizer of the wrong shape, or with its
    # prompts out of order, would fail mid-epoch or misfile statistics; a
    # last reset past the checkpoint's epoch would hold off the staleness
    # reset until the run got there. An entry missing altogether is named,
    # not a bare KeyError.
    assert cli.run_training(tiny_config(epochs=1), tmp_path / "first")["status"] == "ok"
    arrays, meta = runio.load_checkpoint(tmp_path / "first" / "checkpoint.bin")
    assert meta["extra"]["opt_t"] == 2
    damaged = tmp_path / "damaged.bin"
    arrays, extra = damage(arrays, meta["extra"])
    runio.save_checkpoint(damaged, arrays, seed=meta["seed"], epoch=meta["epoch"], extra=extra)
    with pytest.raises(ValueError, match=message):
        cli.run_training(tiny_config(epochs=2), tmp_path / "resumed", resume=str(damaged))
    assert not (tmp_path / "resumed").exists()


MISTYPED = [("seed", None), ("seed", [0]), ("seed", 0.9), ("seed", "0"), ("seed", False),
            ("epoch", None), ("epoch", {}), ("epoch", 2.7), ("epoch", -3),
            ("extra", None), ("extra", []), ("extra.opt_t", 0.5), ("extra.opt_t", -1),
            ("extra.last_reset_epoch", 1.5), ("extra.last_reset_epoch", None),
            ("extra.norm_pids", None), ("extra.norm_pids", [0.5, 1]),
            ("extra.norm_pids", {"0": 1})]
# What each field must be, where it is not a non-negative integer.
MUST_BE = {"extra": "an object", "extra.norm_pids": "a list of non-negative integers"}


@pytest.mark.parametrize("field, value", MISTYPED, ids=[f"{f}={v!r}" for f, v in MISTYPED])
def test_resume_of_a_mistyped_checkpoint_manifest_is_refused(tmp_path, field, value):
    # A wrongly typed field is refused by name, never cast: int() would
    # resume seed 0.9 or "0" as seed 0 and epoch 2.7 at epoch 2, and epoch
    # -3 would make the resume's log truncation drop every line.
    cfg = tiny_config(epochs=2)
    base = flowgen.init_net(np.random.default_rng(0), cfg.frame_dim, cfg.clip_len,
                            cfg.prompt_dim, cfg.hidden)
    arrays, extra = nftcore.RunState.fresh(cfg, base).to_arrays()
    path = tmp_path / "checkpoint.bin"
    runio.save_checkpoint(path, arrays, seed=cfg.seed, epoch=1, extra=extra)

    def edit(manifest):
        owner = manifest["extra"] if field.startswith("extra.") else manifest
        owner[field.split(".")[-1]] = value
    rewrite_manifest(path, edit)
    must_be = MUST_BE.get(field, "a non-negative integer")
    with pytest.raises(ValueError, match=re.escape(f"{field} is {value!r}, not {must_be}")):
        cli.run_training(cfg, tmp_path / "resumed", resume=str(path))
    assert not (tmp_path / "resumed").exists()


def test_resume_under_another_group_size_completes(tmp_path):
    # Nothing a run carries across epochs has the group size in its shape.
    assert cli.run_training(tiny_config(group_size=4), tmp_path)["status"] == "ok"
    summary = cli.run_training(tiny_config(group_size=6, epochs=4), tmp_path,
                               resume=str(tmp_path / "checkpoint.bin"))
    assert summary["status"] == "ok"
    assert [r["epoch"] for r in runio.read_metrics(tmp_path / "metrics.jsonl")] == [0, 1, 2, 3]
    _, meta = runio.load_checkpoint(tmp_path / "checkpoint.bin")
    assert meta["epoch"] == 4


@pytest.mark.parametrize("prompts, counts", [(3, [16, 16, 8]), (1, [16, 8])], ids=["3", "1"])
def test_resume_under_another_prompt_count_completes(tmp_path, prompts, counts):
    # A 2-prompt checkpoint resumed with more prompts gives the new one fresh
    # reward statistics; with fewer, the unused prompt's row is carried on.
    # Each epoch adds group_size 4 to the count of each prompt it trains.
    assert cli.run_training(tiny_config(prompts_per_epoch=2), tmp_path)["status"] == "ok"
    summary = cli.run_training(tiny_config(prompts_per_epoch=prompts, epochs=4), tmp_path,
                               resume=str(tmp_path / "checkpoint.bin"))
    assert summary["status"] == "ok"
    arrays, meta = runio.load_checkpoint(tmp_path / "checkpoint.bin")
    assert meta["epoch"] == 4 and meta["extra"]["opt_t"] == 2 * 2 + 2 * prompts
    assert meta["extra"]["norm_pids"] == list(range(len(counts)))
    assert arrays["norm/count"].tolist() == counts


@pytest.mark.parametrize("mode", ["short", "long"])
def test_run_without_a_sink_completes(tmp_path, mode):
    # sink_size 0: every context summary's sink mean is zero, in the
    # pretraining targets and in the rollout alike.
    summary = cli.run_training(tiny_config(mode=mode, sink_size=0, total_clips=3,
                                           window_clips=2 if mode == "long" else 1), tmp_path)
    assert summary["status"] == "ok"
    assert len(runio.read_metrics(tmp_path / "metrics.jsonl")) == 2


def test_resume_ignores_risk_entries_of_older_checkpoints(tmp_path):
    # Older checkpoints also carry a "risk/buffer" array, the last batches
    # of rank disagreements, and "rho" and "steps" (a copy of opt_t) extras.
    # Resuming one trains exactly as resuming the same state without them.
    first = tmp_path / "first"
    assert cli.run_training(tiny_config(), first)["status"] == "ok"
    arrays, meta = runio.load_checkpoint(first / "checkpoint.bin")
    arrays["risk/buffer"] = np.random.default_rng(0).standard_normal((4, 4))
    older = tmp_path / "older.bin"
    runio.save_checkpoint(older, arrays, seed=meta["seed"], epoch=meta["epoch"],
                          extra=dict(meta["extra"], rho=0.2, steps=meta["extra"]["opt_t"]))
    for name, ckpt in (("plain", first / "checkpoint.bin"), ("older", older)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "metrics.jsonl").write_bytes((first / "metrics.jsonl").read_bytes())
        summary = cli.run_training(tiny_config(epochs=4), tmp_path / name, resume=str(ckpt))
        assert summary["status"] == "ok"
    for fname in ("metrics.jsonl", "checkpoint.bin"):
        assert ((tmp_path / "plain" / fname).read_bytes()
                == (tmp_path / "older" / fname).read_bytes()), fname


# sha256 of (metrics.jsonl, checkpoint.bin) from run_training at seed 0 with
# the benchmark's tuning. A change that means to move bits updates these and
# says why; any other change must leave them alone.
PINNED_TUNING = dict(seed=0, prompts_per_epoch=8, lr=3e-3, noise_mode="fixed",
                     fixed_t=5.0 / 6.0, group_size=8, pretrain_steps=200)
PINNED_RUNS = {
    "short": (dict(mode="short", epochs=6),
              "07683a007f866a850e6904d1c06e2765aebea5e703faba09edcbcce2b0e6f657",
              "1cf15e6ba8b15f37b0a3d587fb102a56d858f74179a7eb48204f53926fbdccec"),
    "long": (dict(mode="long", total_clips=8, window_clips=2, epochs=6),
             "0cf7c3311253002739435c0d274b887ddb988ee3e6be76c452f63bef6619b4fd",
             "7be1d0a452dd08474c29f8c334fd36afd6437ac960cf98e5e0957847ef1d2877"),
    "clip": (dict(mode="short", max_grad_norm=1e-3, epochs=4),
             "c961b5ef004ad1d34d22c0c1febd93c271cd30e65ad7383ac0cb62767fb10a9f",
             "9cdf4a2c6a1f296ef7453ef6b5754ac8056e097b0b55f5425c062f4434881e43"),
    # one EMA tick per epoch: ema_interval = prompts_per_epoch
    "ema_epoch": (dict(mode="short", ema_interval=8, epochs=4),
                  "0dbe972aabe23a6d86b713712808b0de7db31272a6c39e072c170a9ed07c2038",
                  "d7ff6979a0823e954ddd1ae5af7eebb1d16ca0ca50fd53da43aade14ff841801"),
    # the default noise levels, drawn per prompt from the schedule
    "schedule_noise": (dict(mode="short", noise_mode="schedule", epochs=4),
                       "c54060e4d973cac51d2d4cf9ff088e6417176748f384d5ecddf1c3964153eb02",
                       "2794af280fa07a15b61ba9e50fd8a30b9eb7585f2ec7844e605faf86712f8c08"),
}
# sha256 of the pretrained base's flat vector under PINNED_TUNING: the bits
# every pinned run starts from.
PINNED_BASE = "e03bdca5fb049fea67f75113190d979b6a5805d518b54e10b58c68b04121fcb5"
# The same for 400 pretraining steps: past step 356, where AdamW's bias
# correction of the first moment becomes exactly 1.0, at zero weight decay.
PINNED_BASE_400 = "62a572209a8b6da156e79342b4f5912bc7075b2b86a1067baafe2f42cabf7162"

# verify_theory(trials=20, seed=0), exactly: the families run in FAMILIES
# order on one stream, so a change to a family's draws or their order shows.
PINNED_THEORY = {
    "optimal_velocity": {"passed": True, "trials": 20,
                         "max_closed_vs_numeric": 2.0818574919534427e-09,
                         "max_mixture_residual": 1.679728361529715e-16,
                         "sign_predicate": True},
    "pinsker": {"passed": True, "trials": 1000},
    "reward_lower_bound": {"passed": True, "trials": 500,
                           "min_margin": 0.027387519273836952},
    "all_passed": True,
}


def numeric_environment() -> str:
    """numpy version, BLAS vendor and thread setting: what a digest depends on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict form
        vendor = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__}, BLAS {vendor}, OPENBLAS_NUM_THREADS={threads}"


def assert_pretrained_base_digest(steps: int, pinned: str) -> None:
    cfg = RunConfig(**{**PINNED_TUNING, "pretrain_steps": steps})
    schedule, corpus, _ = cli.build_world(cfg)
    base, _ = cli.pretrain_from_config(cfg, corpus, schedule)
    got = hashlib.sha256(base.flat.tobytes()).hexdigest()
    assert got == pinned, (f"pretrained base ({steps} steps): sha256 {got}, pinned {pinned} "
                           f"({numeric_environment()})")


def test_pretrained_base_matches_pinned_digest():
    assert_pretrained_base_digest(200, PINNED_BASE)


def test_pretrained_base_400_matches_pinned_digest():
    assert_pretrained_base_digest(400, PINNED_BASE_400)


def test_theory_report_matches_pinned_report():
    import scipy

    got = theoryx.verify_theory(trials=20, seed=0)
    assert got == PINNED_THEORY, (f"theory report {got}, pinned {PINNED_THEORY} "
                                  f"({numeric_environment()}, scipy {scipy.__version__})")


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_bytes_match_pinned_digests(tmp_path, name):
    over, metrics_digest, checkpoint_digest = PINNED_RUNS[name]
    summary = cli.run_training(RunConfig(**{**PINNED_TUNING, **over}), tmp_path)
    assert summary["status"] == "ok"
    if name == "long":
        starts = [r["window_start"] for r in runio.read_metrics(tmp_path / "metrics.jsonl")]
        assert starts == [3, 6, 5, 3, 2, 0]
    for fname, expected in (("metrics.jsonl", metrics_digest),
                            ("checkpoint.bin", checkpoint_digest)):
        got = hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        assert got == expected, (f"{name} {fname}: sha256 {got}, pinned {expected} "
                                 f"({numeric_environment()})")
