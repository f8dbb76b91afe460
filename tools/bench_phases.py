"""Per-phase wall time of one training epoch, before and after a change.

Run from the repository root, with a checkout of the commit to compare
against (made, for example, with `git archive <commit> | tar -x -C DIR`):

    OPENBLAS_NUM_THREADS=1 python3 tools/bench_phases.py --before DIR --pairs 10 --out BENCH.json

Every workload of benchmarks/run.py (its seed, tuning and config, or
--seed) is trained --repeats times (default 10) on each side, the sides
alternating, each run in a fresh process that imports astro from that
side's src/. A run reports, for each phase, the median over its epochs of
the phase's wall ms per epoch, the ms of one pretraining step (its
pretraining's wall time over its steps), and that step split into batch,
loss forward, backward and AdamW (each part's median over the steps of a
separate, timer-wrapped pretraining pass; see pretrain_split), the wall
seconds of `import astro, astro.cli` (import_s), the process's
ru_maxrss in MB after that import and after the training run, the minor
page faults (ru_minflt) the training run took, pretraining included, per
epoch (minflt_per_epoch), and the sha256 of the run's metrics.jsonl and
checkpoint.bin; each side lists the digests its runs made, one per file
when they agree. With --pairs N, each workload also gets N alternating pairs of
`benchmarks/run.py --seconds S`, one process per side, and the summary of
every end-to-end metric BENCHMARK.json bounds, of the wall-time
epoch_ms_p50 and run_s that the pair run records in its
.bench_out/<workload>-seed<n>-trace0/result.json, and of ref_ms, the ms
of the benchmark's reference pass (epoch_ms_p50 / epoch_ref_p50), in which
a move of the *_ref metrics that the yardstick itself made shows: each
side's median and quartiles and the pairs the change wins. The JSON holds
these per workload, seed and OPENBLAS_NUM_THREADS, with every run's values
and numpy, BLAS and thread settings, and a tier-1 run per side with
pytest's five slowest tests and the side's src/ line counts, in total and
per module (as `wc -l` counts them). An existing --out file is updated, so
a second call can add a held-out seed or another thread setting.

Phases come from the run's timings.jsonl. A checkout whose timers predate a
phase reads 0 for it: before the epoch's inputs were prepared in one pass
(loss_inputs), each group's noise draws, input assembly and reference
forward were part of loss_forward.

Compare phases at OPENBLAS_NUM_THREADS=1. At the default BLAS threads, the
medians of phases a change does not touch have moved by up to 30% between
sides on a 2-core host; at one thread and 10 repeats they held still.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("prefix", "rollout", "judges", "loss_inputs", "loss_forward", "backward", "clip",
          "adamw", "ema", "total")
# The parts of one pretraining step, timed per step over a separate pass of
# the workload's pretrain_steps, and at least SPLIT_STEPS: past step 356, so
# both of AdamW's bias-correction regimes are in it.
SPLIT_PARTS = ("batch", "loss_forward", "backward", "adamw")
SPLIT_STEPS = 400
# What a child run reports beside its phases, in its JSON line.
CHILD_COSTS = ("import_s", "maxrss_import_mb", "maxrss_run_mb", "pretrain_step_ms",
               "minflt_per_epoch")
# The run outputs whose sha256 a child run reports: which bytes each side made.
DIGESTED = ("metrics.jsonl", "checkpoint.bin")
# Wall-time end-to-end metrics summarized beside the gated ones: benchmarks/run.py
# bounds only their reference-unit forms, which move when the reference pass,
# ref_ms, does.
WALL_METRICS = ("epoch_ms_p50", "run_s", "ref_ms")


def load_benchmark():
    """benchmarks/run.py of this repository: its workloads, tuning and environment()."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "benchmarks" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(src: str, workload: str, seed: int) -> dict:
    """One training run of a workload on the astro in src: its import cost,
    peak memory, minor page faults per epoch, phase and pretraining medians,
    and the sha256 of each DIGESTED output."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    import astro
    from astro import cli
    import_s = time.perf_counter() - start
    maxrss_import_mb = maxrss_mb()
    if Path(astro.__file__).resolve().parent.parent != Path(src).resolve():
        raise ImportError(f"astro imported from {astro.__file__}, not from {src}")
    bench = load_benchmark()
    spec = bench.WORKLOADS[workload]
    cfg = astro.config.RunConfig(seed=seed, **bench.TUNING, **spec["config"])
    pretrain = cli.pretrain_from_config
    pretrain_s = []

    def timed_pretrain(*args, **kwargs):
        start = time.perf_counter()
        try:
            return pretrain(*args, **kwargs)
        finally:
            pretrain_s.append(time.perf_counter() - start)
    cli.pretrain_from_config = timed_pretrain
    with tempfile.TemporaryDirectory() as out:
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if cli.run_training(cfg, Path(out))["status"] != "ok":
            raise RuntimeError(f"{workload} run failed")
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
        maxrss_run_mb = maxrss_mb()
        timings = Path(out) / "timings.jsonl"
        rows = [json.loads(line) for line in timings.read_text().splitlines()]
        sha256 = {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
                  for name in DIGESTED}
    phases = {p: 1e3 * statistics.median(row.get(p, 0.0) for row in rows) for p in PHASES}
    return {"phases_ms": phases, "import_s": import_s, "maxrss_import_mb": maxrss_import_mb,
            "maxrss_run_mb": maxrss_run_mb,
            "pretrain_step_ms": 1e3 * pretrain_s[0] / cfg.pretrain_steps,
            "minflt_per_epoch": minflt / cfg.epochs,
            "pretrain_split_ms": pretrain_split(cfg), "sha256": sha256}


def pretrain_split(cfg) -> dict:
    """ms of each part of one pretraining step, the median over the steps of
    a separate pretraining pass of max(cfg.pretrain_steps, SPLIT_STEPS)
    steps whose calls are wrapped in timers: batch (from the previous step's
    end to the loss pass: the draws and the input rows), loss_forward
    (tensorgrad.loss_pass), backward (the pass's finish) and adamw
    (AdamW.step). The first step's batch also holds the initialization,
    which the median leaves out. It runs after the training run, so
    pretrain_step_ms is unwrapped."""
    from astro import cli
    from astro import tensorgrad as tg
    parts: dict[str, list[float]] = {part: [] for part in SPLIT_PARTS}
    loss_pass, step = tg.loss_pass, tg.AdamW.step
    last = [0.0]

    def timed_loss_pass(*args, **kwargs):
        start = time.perf_counter()
        parts["batch"].append(start - last[0])
        values, finish = loss_pass(*args, **kwargs)
        parts["loss_forward"].append(time.perf_counter() - start)

        def timed_finish(*out):  # out: the caller's gradient vector, where finish takes one
            start = time.perf_counter()
            grads = finish(*out)
            parts["backward"].append(time.perf_counter() - start)
            return grads
        return values, timed_finish

    def timed_step(self, *args):
        start = time.perf_counter()
        step(self, *args)
        last[0] = time.perf_counter()
        parts["adamw"].append(last[0] - start)

    tg.loss_pass, tg.AdamW.step = timed_loss_pass, timed_step
    try:
        split = dataclasses.replace(cfg, pretrain_steps=max(cfg.pretrain_steps, SPLIT_STEPS))
        schedule, corpus, _ = cli.build_world(split)
        last[0] = time.perf_counter()
        cli.pretrain_from_config(split, corpus, schedule)
    finally:
        tg.loss_pass, tg.AdamW.step = loss_pass, step
    return {part: 1e3 * statistics.median(times) for part, times in parts.items()}


def src_line_counts(checkout: Path) -> dict[str, int]:
    """Newlines (what `wc -l` counts) of each .py file under checkout/src,
    by its path relative to src/."""
    src = checkout / "src"
    return {path.relative_to(src).as_posix(): path.read_bytes().count(b"\n")
            for path in sorted(src.rglob("*.py"))}


def tier1(checkout: Path) -> dict:
    """One tier-1 run: pytest's summary line, its five slowest tests and the
    lines in src/, in total and per module."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--durations=5", "--continue-on-collection-errors"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    slowest = [line.strip() for line in lines if re.match(r"\s*[\d.]+s (call|setup)", line)]
    summary = next((line.strip("= ") for line in reversed(lines) if " in " in line), "")
    by_module = src_line_counts(checkout)
    return {"summary": summary, "durations_top5": slowest[:5],
            "src_lines": sum(by_module.values()), "src_lines_by_module": by_module,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def pair_summary(pairs: list[dict]) -> dict:
    """Per gated metric and wall metric: each side's median and quartiles, and
    the change's wins."""
    gated = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    better = {m["name"]: m["better"] for m in gated} | dict.fromkeys(WALL_METRICS, "lower")
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        before = [p["before"][name] for p in pairs]
        after = [p["after"][name] for p in pairs]
        out[name] = {
            "before_quartiles": statistics.quantiles(before, n=4),
            "after_quartiles": statistics.quantiles(after, n=4),
            "change_wins": sum((a - b) * sign > 0 for b, a in zip(before, after)),
            "pairs": len(pairs),
            "median_change_pct":
                100.0 * (statistics.median(after) / statistics.median(before) - 1.0),
        }
    return out


def run(cmd: list[str], cwd: Path) -> str:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {cwd} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, help="checkout of the commit to compare against")
    parser.add_argument("--repeats", type=int, default=10, help="phase runs per side")
    parser.add_argument("--pairs", type=int, default=0, help="benchmarks/run.py pairs")
    parser.add_argument("--seconds", type=float, default=20.0, help="--seconds of each pair run")
    parser.add_argument("--seed", type=int, help="seed of every run (default: the workload's)")
    parser.add_argument("--workloads", nargs="+", help="a subset of the workloads")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--no-tier1", action="store_true", help="skip the tier-1 runs")
    parser.add_argument("--child", nargs=3, metavar=("SRC", "WORKLOAD", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child[0], args.child[1], int(args.child[2]))))
        return 0
    if args.before is None or args.repeats < 0 or args.pairs < 0 or args.pairs == 1:
        parser.error("--before is required; --repeats >= 0 and --pairs 0 or >= 2")
    bench = load_benchmark()
    sides = {"before": args.before.resolve(), "after": ROOT}
    result = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {
        "script": "tools/bench_phases.py", "workloads": {}}
    result["unit"] = ("wall ms per epoch (phases); ms per step (pretrain_step_ms); s (import_s); "
                      "MB (maxrss_*_mb); minor page faults per epoch (minflt_per_epoch)")
    for name in args.workloads or bench.WORKLOADS:
        seed = bench.WORKLOADS[name]["seed"] if args.seed is None else args.seed
        threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
        entry = result["workloads"].setdefault(
            f"{name}@seed{seed}@OPENBLAS_NUM_THREADS={threads}", {})
        entry["environment"] = bench.environment()
        runs: dict[str, list] = {side: [] for side in sides}
        pairs: list[dict] = []
        for i in range(max(args.repeats, args.pairs)):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            pair = {}
            for side in order:
                if i < args.repeats:
                    runs[side].append(json.loads(run(
                        [sys.executable, __file__, "--child", str(sides[side] / "src"), name,
                         str(seed)], ROOT)))
                if i < args.pairs:
                    line = json.loads(run(
                        [sys.executable, "benchmarks/run.py", "--workload", name, "--seed",
                         str(seed), "--seconds", str(args.seconds)], sides[side]))
                    if not line["correct"] or line["failed"]:
                        raise RuntimeError(f"{side} {name} benchmark run failed: {line}")
                    saved = json.loads((sides[side] / ".bench_out" / f"{name}-seed{seed}-trace0"
                                        / "result.json").read_text(encoding="utf-8"))
                    wall = saved["end_to_end"]
                    wall["ref_ms"] = wall["epoch_ms_p50"] / wall["epoch_ref_p50"]
                    pair[side] = {k: v["value"] for k, v in line["metrics"].items()}
                    pair[side].update({k: wall[k] for k in WALL_METRICS})
            if pair:
                pairs.append(pair)
        if args.repeats:
            for side, side_runs in runs.items():
                entry[side] = {p: statistics.median(r["phases_ms"][p] for r in side_runs)
                               for p in PHASES}
                entry[side].update({cost: statistics.median(r[cost] for r in side_runs)
                                    for cost in CHILD_COSTS})
                entry[side]["pretrain_split_ms"] = {
                    part: statistics.median(r["pretrain_split_ms"][part] for r in side_runs)
                    for part in SPLIT_PARTS}
                entry[side]["sha256"] = {name: sorted({r["sha256"][name] for r in side_runs})
                                         for name in DIGESTED}
                entry[side + "_runs"] = side_runs
        if args.pairs:
            entry["benchmark_seconds"] = args.seconds
            entry["benchmark_pairs"] = pairs
            entry["benchmark_summary"] = pair_summary(pairs)
        print(name, seed, json.dumps({k: entry.get(k) for k in (*sides, "benchmark_summary")}),
              flush=True)
    if not args.no_tier1:
        result["tier1"] = {side: tier1(path) for side, path in sides.items()}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
