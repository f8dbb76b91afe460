"""Command-line surface: train, verify-theory, export-metrics.

train pretrains the base generator (or resumes a checkpoint), runs the
configured number of epochs in short or long mode, appends one metrics line
per epoch, and writes a final checkpoint. verify-theory runs the numerical
guarantee checks. export-metrics flattens a metrics log to CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import flowgen, longtune, nftcore, runio, theoryx
from . import rng as rngmod
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
    schedule = flowgen.make_schedule(cfg.raw_timesteps)
    corpus = flowgen.make_corpus(
        cfg.seed, n_prompts=max(16, cfg.prompts_per_epoch),
        horizon=max(cfg.total_clips, 8), sink=cfg.sink_size,
        clip_len=cfg.clip_len, frame_dim=cfg.frame_dim, prompt_dim=cfg.prompt_dim)
    prompts = corpus.prompts[: cfg.prompts_per_epoch]
    return schedule, corpus, prompts


def pretrain_from_config(cfg: RunConfig, corpus, schedule):
    stream = rngmod.substream(cfg.seed, rngmod.PRETRAIN_STREAM)
    return flowgen.pretrain_base(
        corpus, cfg.pretrain_steps, stream, schedule=schedule, hidden=cfg.hidden)


def run_training(cfg: RunConfig, out_dir: Path, resume: str | None = None,
                 echo=None) -> dict:
    """Full training run rooted at out_dir. Returns a status summary.

    Every run removes an earlier abort.json. A fresh run also removes a
    previous run's logs and checkpoint before it pretrains, so identical seeds
    produce identical files and an interrupted run leaves none of them beside
    its config; resuming drops the logs' lines from the checkpoint's epoch on,
    then appends and continues the epoch numbering from there.
    Each epoch's wall seconds per phase go to timings.jsonl, never to the
    metrics log.
    """
    out_dir = Path(out_dir)
    # A checkpoint is checked against cfg before anything under out_dir is written.
    run = nftcore.RunState.from_arrays(*runio.load_checkpoint(resume), cfg) if resume else None
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.json")
    schedule, corpus, prompts = build_world(cfg)
    metrics_path, timings_path = out_dir / "metrics.jsonl", out_dir / "timings.jsonl"
    ckpt_path, abort_path = out_dir / "checkpoint.bin", out_dir / "abort.json"
    abort_path.unlink(missing_ok=True)

    if run is None:
        for path in (metrics_path, timings_path, ckpt_path):
            path.unlink(missing_ok=True)
        # The base and its loss list are dropped once fresh has copied the base.
        run = nftcore.RunState.fresh(cfg, pretrain_from_config(cfg, corpus, schedule)[0])
        if echo:
            echo(f"pretrained base for {cfg.pretrain_steps} steps")
    else:
        for path in (metrics_path, timings_path):
            runio.drop_epochs_from(path, run.epoch)
        if echo:
            echo(f"resumed from {resume} at epoch {run.epoch}")

    while run.epoch < cfg.epochs:
        try:
            record = longtune.train_window_epoch(run, prompts, cfg, schedule)
        except nftcore.EpochAborted as err:
            diag = {"status": "aborted", "epoch": err.epoch, "prompt": err.pid,
                    "cause": str(err.cause)}
            abort_path.write_text(json.dumps(diag, indent=2), encoding="utf-8")
            if echo:
                echo(f"aborted: {err}")
            return diag
        runio.log_metrics(metrics_path, record)
        runio.append_line(timings_path, {"epoch": record.epoch, **run.timings})
        if echo:
            echo(f"epoch {record.epoch:4d}  composite {record.composite:+.4f}  "
                 f"policy {record.policy_loss:.4f}  kl {record.kl_loss:.6f}  "
                 f"mask {record.mask_fraction:.2f}  {run.timings['total']:.2f}s")

    arrays, extra = run.to_arrays()
    runio.save_checkpoint(ckpt_path, arrays, seed=cfg.seed, epoch=run.epoch,
                          extra=extra)
    if echo:
        echo(f"checkpoint written to {ckpt_path}")
    return {"status": "ok", "epochs_run": run.epoch, "out_dir": str(out_dir),
            "checkpoint": str(ckpt_path), "metrics": str(metrics_path)}


def _cmd_train(args) -> int:
    """Exit 0 on success and 3 on an aborted epoch."""
    data = load_config(args.config).to_dict()
    if args.mode:
        data["mode"] = args.mode
    if args.seed is not None:
        data["seed"] = args.seed
    if args.paper_scale:
        data["group_size"] = PAPER_SCALE_GROUP
    cfg = RunConfig.from_dict(data)
    summary = run_training(cfg, resolve_out_dir(cfg, args.out), resume=args.resume, echo=print)
    return 0 if summary["status"] == "ok" else 3


def _cmd_verify_theory(args) -> int:
    """One line per check family, with every field of its report."""
    report = theoryx.verify_theory(trials=args.trials, seed=args.seed)
    for name in theoryx.FAMILIES:
        fields = ", ".join(f"{k} {v:.3g}" if isinstance(v, float) else f"{k} {v}"
                           for k, v in report[name].items() if k != "passed")
        print(f"{name}: {'PASS' if report[name]['passed'] else 'FAIL'} ({fields})")
    return 0 if report["all_passed"] else 1


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
    """Run one subcommand; input it cannot use (a ValueError or OSError) ends
    it with exit 2 and one '<command>: <reason>' line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"{args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
