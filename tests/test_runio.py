"""Metrics logs, checkpoints, and plot export."""

from __future__ import annotations

import json
import re
import struct

import numpy as np
import pytest

from astro import runio


def sample_record(epoch=0, **over):
    base = dict(
        epoch=epoch, reward_vq=-0.5, reward_mq=-0.01, reward_ta=0.9,
        composite=0.13, policy_loss=0.25, kl_loss=0.001, mask_fraction=0.125,
        tau=2.5, grad_norm=0.7, reset=False)
    base.update(over)
    return runio.MetricsRecord(**base)


def test_record_json_key_order():
    assert list(sample_record().to_json_dict()) == [
        "epoch", "reward_vq", "reward_mq", "reward_ta", "composite", "policy_loss",
        "kl_loss", "mask_fraction", "tau", "grad_norm", "reset", "window_start"]


def test_log_metrics_line_bytes(tmp_path):
    path = tmp_path / "metrics.jsonl"
    runio.log_metrics(path, sample_record())
    assert path.read_bytes() == (
        b'{"epoch":0,"reward_vq":-0.5,"reward_mq":-0.01,"reward_ta":0.9,"composite":0.13,'
        b'"policy_loss":0.25,"kl_loss":0.001,"mask_fraction":0.125,"tau":2.5,'
        b'"grad_norm":0.7,"reset":false,"window_start":0}\n')


def test_log_and_read_roundtrip(tmp_path):
    path = tmp_path / "metrics.jsonl"
    for e in range(3):
        runio.log_metrics(path, sample_record(epoch=e, tau=0.5 * e))
    records = runio.read_metrics(path)
    assert [r["epoch"] for r in records] == [0, 1, 2]
    assert [r["tau"] for r in records] == [0.0, 0.5, 1.0]
    assert path.read_text().count("\n") == 3


def test_same_records_give_identical_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        for e in range(4):
            runio.log_metrics(path, sample_record(epoch=e))
    assert a.read_bytes() == b.read_bytes()


def test_log_rejects_nan(tmp_path):
    path = tmp_path / "metrics.jsonl"
    with pytest.raises(ValueError):
        runio.log_metrics(path, sample_record(composite=float("nan")))


def test_export_plot_data(tmp_path):
    log = tmp_path / "metrics.jsonl"
    for e in range(5):
        runio.log_metrics(log, sample_record(epoch=e, composite=0.1 * e))
    out = tmp_path / "plot.csv"
    rows = runio.export_plot_data(log, out)
    assert rows == 5
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(runio.PLOT_COLUMNS)
    assert len(lines) == 6
    # numeric fidelity: csv floats parse back to the logged values exactly
    logged = runio.read_metrics(log)
    for line, rec in zip(lines[1:], logged):
        values = line.split(",")
        for col, val in zip(runio.PLOT_COLUMNS, values):
            assert float(val) == pytest.approx(rec[col], abs=1e-9)


def test_export_missing_log_writes_header_only(tmp_path):
    out = tmp_path / "plot.csv"
    rows = runio.export_plot_data(tmp_path / "absent.jsonl", out)
    assert rows == 0
    assert out.read_text().strip() == ",".join(runio.PLOT_COLUMNS)


def test_checkpoint_roundtrip_and_precision(tmp_path):
    path = tmp_path / "ck.bin"
    arrays = {
        "w1": np.array([[np.pi, -1.5], [2.0, 0.0]]),
        "b": np.arange(3.0),
    }
    runio.save_checkpoint(path, arrays, seed=7, epoch=42, extra={"steps": 84})
    loaded, meta = runio.load_checkpoint(path)
    assert meta["seed"] == 7
    assert meta["epoch"] == 42
    assert meta["extra"] == {"steps": 84}
    assert set(loaded) == {"w1", "b"}
    assert loaded["w1"].dtype == np.float64
    # stored at float32 precision: pi survives to ~1e-7, not 1e-16
    assert loaded["w1"][0, 0] == np.float32(np.pi)
    assert np.array_equal(loaded["b"], arrays["b"])


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {f"layer{i}": rng.standard_normal((4, 3)) for i in range(3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    runio.save_checkpoint(p1, arrays, seed=1, epoch=2, extra={"rho": 0.2})
    loaded, meta = runio.load_checkpoint(p1)
    runio.save_checkpoint(p2, loaded, seed=meta["seed"], epoch=meta["epoch"],
                          extra=meta["extra"])
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bytes_are_the_manifest_then_each_array_as_float32(tmp_path):
    # Built by hand: arrays in name order, each at the offset the sizes
    # before it give, a transposed view and an int array converted on the way.
    path = tmp_path / "ck.bin"
    w = np.arange(6.0).reshape(2, 3) / 7.0
    arrays = {"w": w.T, "b": np.arange(4), "a": np.float64(2.5)}
    runio.save_checkpoint(path, arrays, seed=3, epoch=5, extra={"opt_t": 9})
    manifest = {"arrays": [
        {"count": 1, "name": "a", "offset": 0, "shape": [1]},
        {"count": 4, "name": "b", "offset": 4, "shape": [4]},
        {"count": 6, "name": "w", "offset": 20, "shape": [3, 2]},
    ], "epoch": 5, "extra": {"opt_t": 9}, "format": 1, "seed": 3}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(np.array(a, dtype="<f4").tobytes()
                       for a in (np.float64(2.5), np.arange(4), w.T))
    assert path.read_bytes() == (runio.CHECKPOINT_MAGIC + struct.pack("<Q", len(blob))
                                 + blob + payload)


def rewrite_manifest(path, edit):
    """Rewrite a checkpoint's manifest through edit(manifest), keeping its payload."""
    blob = path.read_bytes()
    start = len(runio.CHECKPOINT_MAGIC) + 8
    (length,) = struct.unpack("<Q", blob[len(runio.CHECKPOINT_MAGIC):start])
    manifest = json.loads(blob[start:start + length])
    edit(manifest)
    new = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(runio.CHECKPOINT_MAGIC + struct.pack("<Q", len(new)) + new
                     + blob[start + length:])


@pytest.mark.parametrize("fmt", [2, 0, "1", None])
def test_checkpoint_of_another_format_is_refused(tmp_path, fmt):
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, {"w": np.ones((2, 2))}, seed=0, epoch=1)
    rewrite_manifest(path, lambda m: m.update(format=1))
    assert runio.load_checkpoint(path)[1]["epoch"] == 1

    def edit(manifest):
        del manifest["format"]
        if fmt is not None:
            manifest["format"] = fmt
    rewrite_manifest(path, edit)
    with pytest.raises(ValueError, match=f"checkpoint format {fmt!r} is not format 1"):
        runio.load_checkpoint(path)


@pytest.mark.parametrize("key", ["seed", "epoch", "extra", "arrays", "arrays[0].name",
                                 "arrays[0].shape", "arrays[0].offset", "arrays[0].count"])
def test_checkpoint_with_an_incomplete_manifest_is_refused(tmp_path, key):
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, {"w": np.ones((2, 2))}, seed=0, epoch=1)

    def edit(manifest):
        if key.startswith("arrays[0]."):
            del manifest["arrays"][0][key.split(".")[1]]
        else:
            del manifest[key]
    rewrite_manifest(path, edit)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint manifest lacks {key}:")):
        runio.load_checkpoint(path)


@pytest.mark.parametrize("arrays, message", [
    ([1], "lacks arrays[0].name, arrays[0].shape, arrays[0].offset, arrays[0].count:"),
    ({"w": {}}, "arrays is a JSON dict, not a list"),
    ([{"name": 3}], "arrays[0].name is 3, not a string"),
    ([{"shape": "x"}], "arrays[0].shape is 'x', not a list of non-negative integers"),
    ([{"shape": [-1, 4]}], "arrays[0].shape is [-1, 4], not a list of non-negative"),
    ([{"shape": [True, 4]}], "arrays[0].shape is [True, 4], not a list of non-negative"),
    ([{"offset": "0"}], "arrays[0].offset is '0', not a non-negative integer"),
    ([{"count": 4.0}], "arrays[0].count is 4.0, not a non-negative integer"),
])
def test_checkpoint_with_a_wrongly_typed_manifest_entry_is_refused(tmp_path, arrays, message):
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, {"w": np.ones((2, 2))}, seed=0, epoch=1)

    def edit(manifest):
        if isinstance(arrays, list) and isinstance(arrays[0], dict):
            manifest["arrays"][0].update(arrays[0])
        else:
            manifest["arrays"] = arrays
    rewrite_manifest(path, edit)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint manifest {message}")):
        runio.load_checkpoint(path)


def test_checkpoint_manifest_that_is_a_list_is_refused(tmp_path):
    path = tmp_path / "ck.bin"
    blob = json.dumps([{"format": 1}]).encode("utf-8")
    path.write_bytes(runio.CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ValueError, match="manifest is a JSON list, not an object"):
        runio.load_checkpoint(path)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a checkpoint"):
        runio.load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, {"w": np.ones((8, 8))}, seed=0, epoch=0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="truncated"):
        runio.load_checkpoint(path)


def test_checkpoint_cut_inside_its_manifest_length_raises_value_error(tmp_path):
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, {"w": np.ones(3)}, seed=0, epoch=0)
    blob = path.read_bytes()
    for cut in range(len(runio.CHECKPOINT_MAGIC), len(runio.CHECKPOINT_MAGIC) + 8):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="truncated inside its manifest length"):
            runio.load_checkpoint(path)


def test_checkpoint_refuses_trailing_payload_bytes(tmp_path):
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, {"w": np.ones((8, 8)), "b": np.zeros(3)}, seed=0, epoch=0)
    runio.load_checkpoint(path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 12)
    with pytest.raises(ValueError, match="12 bytes past its last array"):
        runio.load_checkpoint(path)


class FailingWrites:
    """A binary file whose writes fail after the first `allowed` of them."""

    def __init__(self, fh, allowed):
        self.fh, self.allowed = fh, allowed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.allowed == 0:
            raise OSError("disk full")
        self.allowed -= 1
        return self.fh.write(data)


@pytest.mark.parametrize("allowed", [0, 1, 3])
def test_checkpoint_write_that_fails_leaves_the_old_one(tmp_path, monkeypatch, allowed):
    path = tmp_path / "ck.bin"
    runio.save_checkpoint(path, {"w": np.ones((8, 8))}, seed=0, epoch=1)
    before = path.read_bytes()
    monkeypatch.setattr(runio, "open", lambda *a, **k: FailingWrites(open(*a, **k), allowed),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        runio.save_checkpoint(path, {"w": np.zeros((8, 8))}, seed=0, epoch=2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert runio.load_checkpoint(path)[1]["epoch"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]
    runio.save_checkpoint(path, {"w": np.zeros((8, 8))}, seed=0, epoch=2)
    assert runio.load_checkpoint(path)[1]["epoch"] == 2
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


def test_drop_epochs_from_keeps_earlier_lines_bytes(tmp_path):
    path = tmp_path / "metrics.jsonl"
    for e in (0, 1, 2, 3, 2, 3):
        runio.log_metrics(path, sample_record(epoch=e))
    lines = path.read_bytes().splitlines(keepends=True)
    runio.drop_epochs_from(path, 2)
    assert path.read_bytes() == b"".join(lines[:2])
    runio.drop_epochs_from(path, 5)
    assert path.read_bytes() == b"".join(lines[:2])
    runio.drop_epochs_from(path, 0)
    assert path.read_bytes() == b""
    runio.drop_epochs_from(tmp_path / "missing.jsonl", 0)
    assert not (tmp_path / "missing.jsonl").exists()


def test_torn_final_log_line_is_no_record(tmp_path):
    # An append cut off mid-write leaves a final line with no newline: it is
    # no record, and dropping epochs removes it. Torn anywhere else, a line
    # is still an error.
    path = tmp_path / "metrics.jsonl"
    for e in (0, 1):
        runio.log_metrics(path, sample_record(epoch=e))
    whole = path.read_bytes()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"epoch":2,"a"')
    assert [r["epoch"] for r in runio.read_metrics(path)] == [0, 1]
    runio.drop_epochs_from(path, 2)
    assert path.read_bytes() == whole
    lines = whole.splitlines(keepends=True)
    path.write_bytes(lines[0] + b'{"epoch":2,"a"\n' + lines[1])
    with pytest.raises(json.JSONDecodeError):
        runio.read_metrics(path)
    with pytest.raises(json.JSONDecodeError):
        runio.drop_epochs_from(path, 2)


def test_checkpoint_empty_arrays(tmp_path):
    path = tmp_path / "empty.bin"
    runio.save_checkpoint(path, {}, seed=0, epoch=0)
    loaded, meta = runio.load_checkpoint(path)
    assert loaded == {}
    assert meta["epoch"] == 0
    # Nothing may follow an empty manifest either.
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(ValueError, match="4 bytes past"):
        runio.load_checkpoint(path)
