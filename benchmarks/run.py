"""Benchmark for astro training runs.

Run from the repository root:

    python3 benchmarks/run.py --workload short-g24 --seed 0 --seconds 40 --trace 0

Each workload is run in this one fresh process through the public training
entry point, ``astro.cli.run_training``, as a closed loop with one caller:
the next training run starts only after the previous one has returned, and
runs repeat until ``--seconds`` is used up (at least three runs). Every run
is checked: status ``ok``, a complete and finite ``metrics.jsonl``, a
checkpoint that reloads at the final epoch, and the same ``metrics.jsonl``
digest as every other run of the same seed.

With ``--trace 0`` the end-to-end metrics are measured with no tracing.
With ``--trace 1`` untraced and traced runs alternate; the traced runs give
the per-layer metrics (see layertrace.py) and the pair gives the tracing
overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (both in epochs) and ``metrics``.
Everything else, including the environment, lands in
``.bench_out/<workload>-seed<seed>-trace<0|1>/result.json``, next to the
spans of a traced run.

BLAS threading is left at the library default; the setting in effect is
recorded with every result. See README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import layertrace

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"

# The c06 tuning settings, shared by every workload.
TUNING = dict(prompts_per_epoch=8, lr=3e-3, noise_mode="fixed", fixed_t=5.0 / 6.0)

WORKLOADS = {
    "short-g24": dict(
        seed=0,
        config=dict(mode="short", group_size=24, pretrain_steps=200, epochs=60)),
    "long-w2": dict(
        seed=0,
        config=dict(mode="long", total_clips=8, window_clips=2, group_size=8,
                    pretrain_steps=200, epochs=120)),
    "pretrain-g8": dict(
        seed=1,
        config=dict(mode="short", group_size=8, pretrain_steps=2000, epochs=100)),
}

MIN_RUNS = 3
MIN_TRACE_PAIRS = 2

E2E_UNITS = {
    "setup_s": "s", "epoch_ms_p50": "ms", "epoch_ms_p90": "ms", "clips_per_s": "clips/s",
    "run_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "composite_gain": "composite",
    "epoch_ref_p50": "ref", "epoch_ref_p90": "ref", "clips_per_ref": "clips/ref",
    "run_ref": "ref",
}
# The end-to-end metrics BENCHMARK.json bounds. Times are bounded in
# reference units (see make_reference): in wall time, host drift alone spread
# them by 20-30% between runs. failed_frac is carried by the result's
# attempted/failed counts; composite_gain swings in sign across seeds on
# long-w2, so no bound on it could hold. All are still printed and recorded.
GATED = ("setup_s", "epoch_ref_p50", "epoch_ref_p90", "clips_per_ref", "run_ref",
         "peak_rss_mb")


def import_astro():
    """The astro package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import astro
    if Path(astro.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"astro imported from {astro.__file__}, not from {src}")
    return astro


# --- environment ---


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy actually loaded, or None if unknown."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas_info = "unknown"
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "missing"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_info,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


# --- one training run ---


def finite_numbers(record: dict) -> bool:
    return all(math.isfinite(v) for v in record.values()
               if isinstance(v, (int, float)) and not isinstance(v, bool))


def check_run(astro, cfg, out_dir: Path, summary) -> tuple[list[str], list[dict]]:
    """Problems with one run's outputs (empty when the run is correct), and
    the metrics records that parsed."""
    if summary is None:
        return ["run raised"], []
    problems, records = [], []
    if summary.get("status") != "ok":
        problems.append(f"status {summary.get('status')!r}")
    metrics_path = out_dir / "metrics.jsonl"
    lines = metrics_path.read_text(encoding="utf-8").splitlines() \
        if metrics_path.is_file() else []
    if len(lines) != cfg.epochs:
        problems.append(f"metrics.jsonl has {len(lines)} lines, expected {cfg.epochs}")
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"metrics line {i} is not JSON")
            continue
        records.append(record)
        if record.get("epoch") != i:
            problems.append(f"metrics line {i} has epoch {record.get('epoch')}")
        if not finite_numbers(record):
            problems.append(f"metrics line {i} has a non-finite number")
    try:
        arrays, meta = astro.runio.load_checkpoint(out_dir / "checkpoint.bin")
    except (OSError, ValueError, KeyError) as err:
        problems.append(f"checkpoint does not reload: {err!r}")
    else:
        if meta.get("epoch") != cfg.epochs:
            problems.append(f"checkpoint at epoch {meta.get('epoch')}, expected {cfg.epochs}")
        if not all(np.isfinite(a).all() for a in arrays.values()):
            problems.append("checkpoint holds non-finite values")
    return problems, records


def make_reference():
    """A fixed reference kernel; returns a function that times one pass of it.

    The kernel is 100 one-row forwards of a 3-layer tanh MLP the size of the
    generator's: the same mix of interpreter work and tiny BLAS calls that
    dominates a training epoch. It runs between epochs, outside every timed
    interval. The host's speed drifts by tens of percent over seconds to
    minutes (most likely other tenants on the CPU); dividing each epoch by the
    reference time measured beside it cancels that drift, while a change to
    the program, which cannot touch the kernel, shows in full.
    """
    rng = np.random.default_rng(0)
    w1, w2, w3 = (rng.standard_normal(shape) / math.sqrt(shape[0])
                  for shape in ((56, 128), (128, 128), (128, 32)))

    def reference() -> float:
        start = time.perf_counter()
        x = np.ones((1, 56))
        for _ in range(100):
            out = np.tanh(np.tanh(x @ w1) @ w2) @ w3
            x = np.concatenate([out, x[:, 32:]], axis=1) * 0.5
        return time.perf_counter() - start

    return reference


def train_once(astro, cfg, out_dir: Path, reference, tracer=None, run_id: int = 0) -> dict:
    """One run_training call: timings from the echo callbacks, then output checks.

    Each callback notes the time, then runs the reference kernel; the next
    interval is timed from when the callback returns, so no timing includes
    the kernel.
    """
    marks: list[tuple[float, float, float, str]] = []  # (now, resume, ref, message)

    def echo(message: str) -> None:
        now = time.perf_counter()
        ref = reference()
        marks.append((now, time.perf_counter(), ref, message))

    error = None
    start = time.perf_counter()
    try:
        with tracer.installed(run_id) if tracer else nullcontext():
            summary = astro.cli.run_training(cfg, out_dir, echo=echo)
    except Exception:  # noqa: BLE001 - any failure of the program is a failed run
        summary, error = None, traceback.format_exc()
    end = time.perf_counter()

    # Program time comes in intervals: up to the first callback, between
    # callbacks, and after the last one. Interval i ends at callback i and is
    # divided by the host's speed around it, the median of the five nearest
    # reference passes.
    wall = [b - a for a, b in zip([start] + [m[1] for m in marks],
                                  [m[0] for m in marks] + [end])]
    refs = [m[2] for m in marks]

    def local_ref(i: int) -> float:
        i = min(i, len(refs) - 1)
        return statistics.median(refs[max(0, i - 2):i + 3])

    norm = [w / local_ref(i) for i, w in enumerate(wall)] if refs else [0.0] * len(wall)
    epochs = [i for i in range(1, len(marks)) if marks[i][3].startswith("epoch")]
    problems, rows = check_run(astro, cfg, out_dir, summary)
    if error:
        problems.append(error)
    metrics_path = out_dir / "metrics.jsonl"
    digest = hashlib.sha256(metrics_path.read_bytes()).hexdigest() \
        if metrics_path.is_file() else None
    return {
        "setup_s": wall[0],
        "run_s": sum(wall),
        "run_ref": sum(norm),
        "epoch_s": [wall[i] for i in epochs],
        "epoch_ref": [norm[i] for i in epochs],
        "problems": problems,
        "digest": digest,
        "composite": [r["composite"] for r in rows if "composite" in r],
        "mask_fraction": [r["mask_fraction"] for r in rows if "mask_fraction" in r],
        "traced": tracer is not None,
    }


# --- one workload ---


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) >= 2 else 0.0


def end_to_end(runs: list[dict], cfg, attempted: int, failed: int) -> dict:
    """End-to-end metrics over the given (untraced) runs: the eight in wall
    time, then the host-normalized ones BENCHMARK.json bounds."""
    wall = [s for r in runs for s in r["epoch_s"]]
    norm = [s for r in runs for s in r["epoch_ref"]]
    clips = cfg.group_size * cfg.prompts_per_epoch * cfg.window_clips * len(wall)
    composite = runs[0]["composite"]
    tail = composite[-max(1, len(composite) // 10):]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "epoch_ms_p50": 1000.0 * statistics.median(wall) if wall else 0.0,
        "epoch_ms_p90": 1000.0 * p90(wall),
        "clips_per_s": clips / sum(wall) if wall else 0.0,
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / max(attempted, 1),
        "composite_gain": (statistics.fmean(tail) - composite[0]) if composite else 0.0,
        "epoch_ref_p50": statistics.median(norm) if norm else 0.0,
        "epoch_ref_p90": p90(norm),
        "clips_per_ref": clips / sum(norm) if norm else 0.0,
        "run_ref": statistics.median(r["run_ref"] for r in runs),
    }


def run_workload(astro, name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict:
    """Closed loop of training runs for one workload; returns the full result."""
    spec = WORKLOADS[name]
    cfg = astro.config.RunConfig(seed=seed, **TUNING, **spec["config"])
    tracer = layertrace.Tracer(astro) if trace else None
    reference = make_reference()

    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(train_once(astro, cfg, out_dir / "run", reference,
                               tracer if traced else None, run_id=len(runs)))
        if runs[-1]["problems"]:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["run_s"] for r in runs)
        enough = len(runs) >= (2 * MIN_TRACE_PAIRS if trace else MIN_RUNS)
        if enough and elapsed + typical > seconds and (not trace or len(runs) % 2 == 0):
            break

    attempted = cfg.epochs * len(runs)
    failed = cfg.epochs * sum(1 for r in runs if r["problems"])
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        # Same seed, different log: no run can be trusted to be the right one.
        runs[-1]["problems"].append(f"metrics.jsonl differs between runs: {sorted(digests)}")
        failed = attempted
    plain = [r for r in runs if not r["traced"]]
    result = {
        "workload": name,
        "seed": seed,
        "default_seed": spec["seed"],
        "trace": trace,
        "seconds": seconds,
        "load": "closed loop, one caller",
        "config": cfg.to_dict(),
        "environment": environment(),
        "runs": len(runs),
        "epoch_samples": sum(len(r["epoch_s"]) for r in plain),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in runs for p in r["problems"]],
        "metrics_sha256": sorted(d for d in digests if d),
        "end_to_end": end_to_end(plain, cfg, attempted, failed),
    }
    if trace:
        traced_runs = [r for r in runs if r["traced"]]
        layer, missing = layertrace.layer_metrics(
            tracer, epochs=sum(len(r["epoch_s"]) for r in traced_runs),
            pretrain_steps=cfg.pretrain_steps * len(traced_runs), runs=len(traced_runs),
            epoch_wall_s=sum(sum(r["epoch_s"]) for r in traced_runs))
        masks = [m for r in traced_runs for m in r["mask_fraction"]]
        layer["rewardlab.mask_fraction"] = statistics.fmean(masks) if masks else 0.0
        traced_s = [s for r in traced_runs for s in r["epoch_ref"]]
        plain_s = [s for r in plain for s in r["epoch_ref"]]
        layer["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(
            plain_s) - 1.0 if traced_s and plain_s else 0.0
        result["per_layer"] = layer
        result["missing"] = missing
        result["spans"] = len(tracer.spans)
        tracer.write(out_dir / "spans.jsonl.gz")
    return result


def report(result: dict, metric_names: dict[str, str]) -> None:
    """Human-readable lines; the JSON line printed after them is the result."""
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']} "
          f"(default {result['default_seed']})  runs {result['runs']}  "
          f"epoch samples {result['epoch_samples']}  load: {result['load']}")
    print(f"env: commit {env['git_commit'][:12]}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']}  "
          f"nproc {env['nproc']}  blas threads {env['blas_threads']}  {env['blas_env']}")
    print(f"metrics.jsonl sha256 {' '.join(result['metrics_sha256'])}")
    table = result.get("per_layer") or result["end_to_end"]
    for name, unit in metric_names.items():
        flag = "  (missing)" if name in result.get("missing", ()) else ""
        print(f"  {name:40s} {table[name]:14.6g} {unit}{flag}")
    for problem in result["problems"]:
        print(f"problem: {problem.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="run seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measurement time; at least three runs are made")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer run instead of end-to-end metrics")
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload]["seed"] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        astro = import_astro()
    except ImportError as err:
        print(f"cannot import astro from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    out_dir = OUT_ROOT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result = run_workload(astro, args.workload, seed, args.seconds, bool(args.trace), out_dir)
    shutil.rmtree(out_dir / "run", ignore_errors=True)
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    if args.trace:
        names = {k: unit for k, (unit, _) in layertrace.LAYER_METRICS.items()}
        values = result["per_layer"]
    else:
        names = {k: E2E_UNITS[k] for k in GATED}
        values = result["end_to_end"]
    report(result, E2E_UNITS if not args.trace else names)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
