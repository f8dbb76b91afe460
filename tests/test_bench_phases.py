"""tools/bench_phases.py's pair_summary, which every perf claim's summary
uses, its pretraining split and the output digests of a child run.

pair_summary is checked on synthetic pairs: which side a pair's win goes
to, in the direction BENCHMARK.json gives each metric, and the change of the
medians. tools/ is put on sys.path and the module is loaded with no
bytecode written next to it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

from astro import cli
from astro import tensorgrad as tg
from test_cli import tiny_config

ROOT = Path(__file__).resolve().parent.parent

# One value per pair and side, the same for every metric: pair 0 is a tie,
# pair 1 has the change lower, pairs 2 and 3 have it higher. The medians
# are 2.5 before and 3.0 after.
BEFORE = [1.0, 2.0, 3.0, 4.0]
AFTER = [1.0, 1.0, 5.0, 6.0]


@pytest.fixture
def bench_phases(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_phases")


@pytest.fixture
def summary(bench_phases):
    gated = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    names = [m["name"] for m in gated] + list(bench_phases.WALL_METRICS)
    pairs = [{"before": dict.fromkeys(names, b), "after": dict.fromkeys(names, a)}
             for b, a in zip(BEFORE, AFTER)]
    return bench_phases.pair_summary(pairs)


def test_a_tie_is_a_win_for_neither_side(summary):
    # Lower is better for epoch_ref_p50: the change wins pair 1 alone, and
    # the tie of pair 0 would make it 2.
    assert summary["epoch_ref_p50"]["change_wins"] == 1
    assert summary["epoch_ref_p50"]["pairs"] == 4


def test_clips_per_ref_is_higher_is_better(summary):
    # The change wins pairs 2 and 3 for clips_per_ref, and no lower-is-better metric does.
    assert summary["clips_per_ref"]["change_wins"] == 2
    assert all(s["change_wins"] == 1 for name, s in summary.items() if name != "clips_per_ref")


def test_median_change_pct_matches_the_medians(summary):
    for s in summary.values():
        assert s["median_change_pct"] == pytest.approx(100.0 * (3.0 / 2.5 - 1.0))


def test_pretrain_split_times_each_part_of_a_tiny_pretraining(bench_phases, monkeypatch):
    # Every part is timed on every step, through the wrapped loss pass, its
    # finish and AdamW.step, which are put back afterwards.
    monkeypatch.setattr(bench_phases, "SPLIT_STEPS", 5)
    loss_pass, step = tg.loss_pass, tg.AdamW.step
    split = bench_phases.pretrain_split(tiny_config(pretrain_steps=3))
    assert list(split) == list(bench_phases.SPLIT_PARTS)
    assert all(ms > 0.0 for ms in split.values())
    assert (tg.loss_pass, tg.AdamW.step) == (loss_pass, step)


def test_child_reports_the_digests_of_its_run_outputs(bench_phases, monkeypatch, tmp_path):
    # A child run of a tiny workload reports the sha256 of the metrics.jsonl
    # and checkpoint.bin that a plain run of the same config writes.
    cfg = tiny_config(pretrain_steps=3)
    workload = {"config": {k: v for k, v in dataclasses.asdict(cfg).items() if k != "seed"}}
    monkeypatch.setattr(bench_phases, "load_benchmark", lambda: types.SimpleNamespace(
        WORKLOADS={"tiny": workload}, TUNING={}))
    monkeypatch.setattr(bench_phases, "SPLIT_STEPS", 5)
    monkeypatch.setattr(cli, "pretrain_from_config", cli.pretrain_from_config)  # child wraps it
    report = bench_phases.child(str(ROOT / "src"), "tiny", cfg.seed)
    assert cli.run_training(cfg, tmp_path)["status"] == "ok"
    assert report["sha256"] == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                                for name in ("metrics.jsonl", "checkpoint.bin")}


def test_src_line_counts_are_wc_l_per_module(bench_phases, tmp_path):
    # Newlines per .py file under src/, nested packages included; a last
    # line without a newline is not counted, as `wc -l` does not count it.
    files = {"pkg/__init__.py": "", "pkg/a.py": "x = 1\ny = 2\n", "pkg/sub/b.py": "z = 3",
             "pkg/notes.txt": "not python\n", "top.py": "\n\n\n"}
    for name, text in files.items():
        (tmp_path / "src" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "src" / name).write_text(text, encoding="utf-8")
    assert bench_phases.src_line_counts(tmp_path) == {
        "pkg/__init__.py": 0, "pkg/a.py": 2, "pkg/sub/b.py": 0, "top.py": 3}
