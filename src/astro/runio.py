"""Run artifacts: JSONL metrics logs, binary checkpoints, CSV plot export.

Metrics files are deterministic for a fixed seed, so wall time stays out of
them, in timings.jsonl. Checkpoints are a JSON manifest (names, shapes, byte
offsets, seed, epoch) followed by raw little-endian float32 payload in one
file, and nothing after it; save -> load -> save is byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"ASTROCP1"

# Columns exported for plotting, in order.
PLOT_COLUMNS = ("epoch", "reward_vq", "reward_mq", "reward_ta", "composite",
                "policy_loss", "kl_loss", "mask_fraction")


@dataclass
class MetricsRecord:
    epoch: int
    reward_vq: float
    reward_mq: float
    reward_ta: float
    composite: float
    policy_loss: float
    kl_loss: float
    mask_fraction: float
    tau: float
    grad_norm: float
    reset: bool
    window_start: int = 0

    def to_json_dict(self) -> dict:
        """Every field in declaration order. No wall time is among them: the
        log must be byte-identical across same-seed runs, and timing is not."""
        return asdict(self)


def log_metrics(path, record: MetricsRecord) -> None:
    """Append one JSON line; one line per epoch."""
    append_line(path, record.to_json_dict())


def append_line(path, obj: dict) -> None:
    """Append obj as one compact JSON line."""
    line = json.dumps(obj, separators=(",", ":"), allow_nan=False)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


class PhaseTimes(dict):
    """Wall seconds per phase; lap(phase, since) adds now - since and returns now."""

    def lap(self, phase: str, since: float) -> float:
        now = time.perf_counter()
        self[phase] = self.get(phase, 0.0) + (now - since)
        return now


def complete_lines(text: str) -> list[str]:
    """A JSONL log's lines, without their newlines. A final line with no
    newline is an append cut off mid-write, so it is no record; a torn line
    anywhere else still fails to parse."""
    return text.split("\n")[:-1]


def drop_epochs_from(path, epoch: int) -> None:
    """Rewrite a JSONL log without its lines whose epoch is at or past epoch,
    and without a torn final line, keeping the other lines' bytes; a missing
    log is left missing."""
    path = Path(path)
    if not path.exists():
        return
    text = path.read_text(encoding="utf-8")
    kept = "".join(line + "\n" for line in complete_lines(text)
                   if line.strip() and json.loads(line)["epoch"] < epoch)
    if kept != text:
        path.write_text(kept, encoding="utf-8")


def read_metrics(path) -> list[dict]:
    """A JSONL log's records; a torn final line is none (complete_lines)."""
    text = Path(path).read_text(encoding="utf-8")
    return [json.loads(line) for line in complete_lines(text) if line.strip()]


def export_plot_data(log_path, out_path) -> int:
    """Flatten a metrics log to CSV for plotting. Returns the row count."""
    records = read_metrics(log_path) if Path(log_path).exists() else []
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PLOT_COLUMNS)
        for rec in records:
            writer.writerow([rec[col] for col in PLOT_COLUMNS])
    return len(records)


def save_checkpoint(path, arrays: dict[str, np.ndarray], seed: int, epoch: int,
                    extra: dict | None = None) -> None:
    """Manifest + float32 payload in one file.

    Arrays are stored sorted by name so offsets (and therefore bytes) are a
    pure function of content. The bytes go to a temporary file next to path,
    synced to disk, which then replaces path in one step: a write that fails
    leaves the previous checkpoint whole, and no temporary file behind.
    """
    stored = [(name, np.ascontiguousarray(arrays[name], dtype="<f4")) for name in sorted(arrays)]
    entries, offset = [], 0
    for name, arr in stored:
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": offset,
            "count": int(arr.size),
        })
        offset += arr.nbytes
    manifest = {
        "format": 1,
        "seed": int(seed),
        "epoch": int(epoch),
        "extra": extra or {},
        "arrays": entries,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, arr in stored:
                fh.write(arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Field checks, each (the check, what the field must be), and the checked
# fields of a checkpoint manifest and of each of its array entries.
SIZE = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
SIZES = (lambda v: isinstance(v, list) and all(map(SIZE[0], v)), "a list of non-negative integers")
MANIFEST_FIELDS = {"seed": SIZE, "epoch": SIZE,
                   "extra": (lambda v: isinstance(v, dict), "an object")}
ENTRY_FIELDS = {"name": (lambda v: isinstance(v, str), "a string"),
                "shape": SIZES, "offset": SIZE, "count": SIZE}


def wrong_fields(record: dict, checks: dict, at: str = "") -> list[str]:
    """'<at><field> is <value>, not <what>' for each field that fails its check."""
    return [f"{at}{k} is {record[k]!r}, not {what}" for k, (ok, what) in checks.items()
            if not ok(record[k])]


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (arrays as float64 at float32 precision, manifest metadata)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        length = fh.read(8)
        if len(length) != 8:
            raise ValueError(f"checkpoint truncated inside its manifest length: {path}")
        (blob_len,) = struct.unpack("<Q", length)
        manifest = json.loads(fh.read(blob_len).decode("utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError(f"checkpoint manifest is a JSON {type(manifest).__name__}, "
                             f"not an object: {path}")
        if manifest.get("format") != 1:
            raise ValueError(f"checkpoint format {manifest.get('format')!r} is not "
                             f"format 1, the only one this version reads: {path}")
        entries = manifest.get("arrays", [])
        if not isinstance(entries, list):
            raise ValueError(f"checkpoint manifest arrays is a JSON {type(entries).__name__}, "
                             f"not a list: {path}")
        missing = [k for k in ("seed", "epoch", "extra", "arrays") if k not in manifest]
        missing += [f"arrays[{i}].{k}" for i, entry in enumerate(entries)
                    for k in ENTRY_FIELDS if not isinstance(entry, dict) or k not in entry]
        if missing:
            raise ValueError(f"checkpoint manifest lacks {', '.join(missing)}: {path}")
        wrong = wrong_fields(manifest, MANIFEST_FIELDS)
        wrong += [w for i, entry in enumerate(entries)
                  for w in wrong_fields(entry, ENTRY_FIELDS, f"arrays[{i}].")]
        if wrong:
            raise ValueError(f"checkpoint manifest {'; '.join(wrong)}: {path}")
        payload = fh.read()
    arrays = {}
    for entry in manifest["arrays"]:
        start = entry["offset"]
        stop = start + 4 * entry["count"]
        flat = np.frombuffer(payload[start:stop], dtype="<f4")
        if flat.size != entry["count"]:
            raise ValueError(f"checkpoint payload truncated at array {entry['name']!r}")
        arrays[entry["name"]] = flat.astype(np.float64).reshape(entry["shape"])
    end = max((e["offset"] + 4 * e["count"] for e in manifest["arrays"]), default=0)
    if len(payload) > end:
        raise ValueError(f"checkpoint has {len(payload) - end} bytes past its last array")
    meta = {k: manifest[k] for k in ("seed", "epoch", "extra")}
    return arrays, meta
