"""Command-line surface: train, verify-theory, export-metrics.

train pretrains the base generator (or resumes a checkpoint), runs the
configured number of epochs in short or long mode, appends one metrics line
per epoch, and writes a final checkpoint. verify-theory runs the numerical
guarantee checks. export-metrics flattens a metrics log to CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import flowgen, longtune, nftcore, rewardlab, runio, theoryx
from . import rng as rngmod
from . import tensorgrad as tg
from .config import RunConfig, load_config, save_config

LOG_DIR_ENV = "ASTRO_LOG_DIR"
PAPER_SCALE_GROUP = 24


def resolve_out_dir(cfg: RunConfig, out_arg: str | None) -> Path:
    """--out wins; otherwise ASTRO_LOG_DIR (default ./runs) plus a run name."""
    if out_arg:
        return Path(out_arg)
    root = Path(os.environ.get(LOG_DIR_ENV, "runs"))
    return root / f"seed{cfg.seed}_{cfg.mode}"


def build_world(cfg: RunConfig):
    """Schedule, pretraining corpus, and the prompt pool for one run."""
    schedule = flowgen.make_schedule(cfg.raw_timesteps, cfg.shift)
    corpus = flowgen.make_corpus(
        cfg.seed, n_prompts=max(16, cfg.prompts_per_epoch),
        horizon=max(cfg.total_clips, 8), sink=cfg.sink_size,
        clip_len=cfg.clip_len, frame_dim=cfg.frame_dim, prompt_dim=cfg.prompt_dim)
    prompts = corpus.prompts[: cfg.prompts_per_epoch]
    return schedule, corpus, prompts


def pretrain_from_config(cfg: RunConfig, corpus, schedule):
    stream = rngmod.substream(cfg.seed, rngmod.PRETRAIN_STREAM)
    return flowgen.pretrain_base(
        corpus, cfg.pretrain_steps, stream, schedule=schedule, hidden=cfg.hidden,
        lr=cfg.pretrain_lr, batch_size=cfg.pretrain_batch)


def make_optimizer(cfg: RunConfig) -> tg.AdamW:
    return tg.AdamW(lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                    eps=cfg.adam_eps, weight_decay=cfg.weight_decay)


def pack_checkpoint(policies: nftcore.PolicyTriple, optimizer: tg.AdamW,
                    state: nftcore.TrainState, normalizer: rewardlab.RewardNormalizer,
                    risk: rewardlab.RiskState):
    """(arrays, extra) for save_checkpoint; names are slash-scoped by component."""
    arrays: dict[str, np.ndarray] = {}
    for tag, params in (("theta", policies.theta), ("theta_old", policies.theta_old),
                        ("theta_ref", policies.theta_ref)):
        for k, v in params.items():
            arrays[f"{tag}/{k}"] = v
    opt = optimizer.state_dict()
    for k, v in opt["m"].items():
        arrays[f"opt/m/{k}"] = v
    for k, v in opt["v"].items():
        arrays[f"opt/v/{k}"] = v
    norm = normalizer.state_dict()
    arrays["norm/count"] = norm["count"]
    arrays["norm/mean"] = norm["mean"]
    arrays["norm/m2"] = norm["m2"]
    if risk.buffer:
        arrays["risk/buffer"] = np.stack(list(risk.buffer))
    extra = {
        "opt_t": optimizer.t,
        "steps": state.steps,
        "last_reset_epoch": state.last_reset_epoch,
        "rho": risk.rho,
        "norm_pids": [int(p) for p in norm["pids"]],
    }
    return arrays, extra


def unpack_checkpoint(arrays: dict, meta: dict, cfg: RunConfig):
    """Rebuild training state from checkpoint arrays; inverse of pack_checkpoint.

    Each policy and each optimizer moment comes back as one flat buffer.
    """
    def collect(prefix: str) -> tg.FlatParams:
        plen = len(prefix)
        return tg.flatten({k[plen:]: v for k, v in arrays.items() if k.startswith(prefix)})

    policies = nftcore.PolicyTriple(theta=collect("theta/"),
                                    theta_old=collect("theta_old/"),
                                    theta_ref=collect("theta_ref/"))
    optimizer = make_optimizer(cfg)
    extra = meta["extra"]
    optimizer.load_state_dict({"t": extra["opt_t"], "m": collect("opt/m/"),
                               "v": collect("opt/v/")})
    state = nftcore.TrainState(epoch=int(meta["epoch"]), steps=int(extra["steps"]),
                               last_reset_epoch=int(extra["last_reset_epoch"]))
    normalizer = rewardlab.RewardNormalizer()
    normalizer.load_state_dict({"pids": extra["norm_pids"], "count": arrays["norm/count"],
                                "mean": arrays["norm/mean"], "m2": arrays["norm/m2"]})
    risk = rewardlab.RiskState(rho0=cfg.rho0, rho=float(extra["rho"]))
    if "risk/buffer" in arrays:
        for row in arrays["risk/buffer"]:
            risk.buffer.append(np.array(row))
    return policies, optimizer, state, normalizer, risk


def run_training(cfg: RunConfig, out_dir: Path, resume: str | None = None,
                 echo=None) -> dict:
    """Full training run rooted at out_dir. Returns a status summary.

    A fresh run truncates any previous metrics log so identical seeds produce
    identical files; resuming appends and continues the epoch numbering from
    the checkpoint.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.json")
    schedule, corpus, prompts = build_world(cfg)
    metrics_path = out_dir / "metrics.jsonl"

    if resume:
        arrays, meta = runio.load_checkpoint(resume)
        policies, optimizer, state, normalizer, risk = unpack_checkpoint(arrays, meta, cfg)
        if echo:
            echo(f"resumed from {resume} at epoch {state.epoch}")
    else:
        base, _ = pretrain_from_config(cfg, corpus, schedule)
        policies = nftcore.PolicyTriple.from_base(base)
        optimizer = make_optimizer(cfg)
        state = nftcore.TrainState()
        normalizer = rewardlab.RewardNormalizer()
        risk = rewardlab.RiskState(rho0=cfg.rho0, rho=cfg.rho0)
        metrics_path.unlink(missing_ok=True)
        if echo:
            echo(f"pretrained base for {cfg.pretrain_steps} steps")

    while state.epoch < cfg.epochs:
        try:
            m = longtune.train_window_epoch(policies, prompts, state, cfg, schedule,
                                            normalizer, risk, optimizer)
        except nftcore.EpochAborted as err:
            diag = {"status": "aborted", "epoch": err.epoch, "prompt": err.pid,
                    "cause": str(err.cause)}
            (out_dir / "abort.json").write_text(json.dumps(diag, indent=2), encoding="utf-8")
            if echo:
                echo(f"aborted: {err}")
            return diag
        record = runio.MetricsRecord(
            **{f.name: m[f.name] for f in dataclasses.fields(runio.MetricsRecord)})
        runio.log_metrics(metrics_path, record)
        if echo:
            echo(f"epoch {record.epoch:4d}  composite {record.composite:+.4f}  "
                 f"policy {record.policy_loss:.4f}  kl {record.kl_loss:.6f}  "
                 f"mask {record.mask_fraction:.2f}  {record.wall_time:.2f}s")

    arrays, extra = pack_checkpoint(policies, optimizer, state, normalizer, risk)
    ckpt_path = out_dir / "checkpoint.bin"
    runio.save_checkpoint(ckpt_path, arrays, seed=cfg.seed, epoch=state.epoch, extra=extra)
    if echo:
        echo(f"checkpoint written to {ckpt_path}")
    return {"status": "ok", "epochs_run": state.epoch, "out_dir": str(out_dir),
            "checkpoint": str(ckpt_path), "metrics": str(metrics_path)}


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    data = cfg.to_dict()
    if args.mode:
        data["mode"] = args.mode
    if args.seed is not None:
        data["seed"] = args.seed
    if args.paper_scale:
        data["group_size"] = PAPER_SCALE_GROUP
    cfg = RunConfig.from_dict(data)
    out_dir = resolve_out_dir(cfg, args.out)
    summary = run_training(cfg, out_dir, resume=args.resume, echo=print)
    return 0 if summary["status"] == "ok" else 3


def _cmd_verify_theory(args) -> int:
    summary = theoryx.verify_theory(trials=args.trials, seed=args.seed)
    ov = summary["optimal_velocity"]
    print(f"optimal_velocity: {'PASS' if ov['passed'] else 'FAIL'} "
          f"(closed vs numeric {ov['max_closed_vs_numeric']:.2e}, "
          f"mixture residual {ov['max_mixture_residual']:.2e}, "
          f"signs {'ok' if ov['sign_predicate'] else 'BAD'}, {ov['trials']} instances)")
    pk = summary["pinsker"]
    print(f"pinsker: {'PASS' if pk['passed'] else 'FAIL'} ({pk['trials']} pairs)")
    lb = summary["reward_lower_bound"]
    print(f"reward_lower_bound: {'PASS' if lb['passed'] else 'FAIL'} "
          f"({lb['trials']} instances, min margin {lb['min_margin']:.4f})")
    return 0 if summary["all_passed"] else 1


def _cmd_export_metrics(args) -> int:
    rows = runio.export_plot_data(args.log, args.out)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="astro",
                                     description="streaming group-rollout policy tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="pretrain the base model and run tuning epochs")
    train.add_argument("--config", required=True, help="path to a JSON run config")
    train.add_argument("--mode", choices=["short", "long"], help="override config mode")
    train.add_argument("--seed", type=int, help="override config seed")
    train.add_argument("--paper-scale", action="store_true",
                       help=f"use the full group size ({PAPER_SCALE_GROUP})")
    train.add_argument("--out", help="output directory (default: $ASTRO_LOG_DIR/<run name>)")
    train.add_argument("--resume", help="checkpoint to continue from")
    train.set_defaults(func=_cmd_train)

    verify = sub.add_parser("verify-theory", help="run the numerical guarantee checks")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify_theory)

    export = sub.add_parser("export-metrics", help="flatten a metrics log to CSV")
    export.add_argument("--log", required=True, help="metrics.jsonl path")
    export.add_argument("--out", required=True, help="CSV output path")
    export.set_defaults(func=_cmd_export_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
