"""The benchmark's layer tracer finds the functions it times by attribute path.

A traced function that is renamed, or turned into a method, drops out of
the trace without failing the benchmark: the tracer only counts it missing.
So every target path is resolved here. benchmarks/layertrace.py is loaded
read-only, with no bytecode written next to it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import astro

LAYERTRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "layertrace.py"

# Targets that already fail to resolve; no other target may join them.
KNOWN_MISSING = {"flowgen.sample_clip"}


def load_layertrace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    layertrace = load_layertrace(monkeypatch)
    tracer = layertrace.Tracer(astro)
    missing = {name for name, path in layertrace.TARGETS if tracer._resolve(path)[0] is None}
    assert missing <= KNOWN_MISSING, f"tracer targets no longer found: {sorted(missing)}"
