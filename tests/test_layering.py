"""Module layering: the astro modules import each other without a cycle,
every config field and function parameter is read by the program, and
training loads no scipy.

The epoch engine (nftcore) takes already rolled-out groups, which longtune
decodes and passes in, so nftcore must never import longtune; a cycle
anywhere would also make the import order of the package matter. A config
field that no module reads is a knob that changes nothing a run writes, and
a parameter its function never reads is an argument every caller passes for
nothing.
Importing scipy.optimize more than doubles a training process's peak memory
and loads a second OpenBLAS runtime, so only verify-theory's minimizer may.
"""

from __future__ import annotations

import ast
import dataclasses
import graphlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import astro
from astro import tensorgrad as tg
from astro.config import RunConfig

SRC = Path(astro.__file__).parent


def astro_imports(path: Path) -> set[str]:
    """Names of the astro modules a source file imports, wherever the import sits."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("astro."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("astro."))
    return found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: astro_imports(path) for path in sorted(SRC.glob("*.py"))
            if path.stem != "__init__"}


def test_import_graph_is_read():
    graph = import_graph()
    assert "nftcore" in graph["longtune"]
    assert "longtune" in graph["cli"]
    assert {"config", "rng"} <= graph["nftcore"]


def test_astro_modules_import_without_cycle():
    graph = import_graph()
    assert set().union(*graph.values()) <= set(graph)
    # static_order raises CycleError naming the modules of any cycle.
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("nftcore") < order.index("longtune")


def test_every_config_field_is_read_outside_config():
    read = set()
    for path in SRC.glob("*.py"):
        if path.stem == "config":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg")
    unread = [f.name for f in dataclasses.fields(RunConfig) if f.name not in read]
    assert not unread, f"RunConfig fields no module reads as cfg.<field>: {unread}"


def test_every_function_parameter_is_read_by_its_body():
    # The adjoint rules share one signature, (g, out, args, needs, kw), which
    # the tape calls them with; each reads only what its rule needs.
    adjoints = {("tensorgrad", rule.__code__.co_firstlineno)
                for _, rule, _ in tg.PRIMITIVES.values()}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)) \
                    or (path.stem, node.lineno) in adjoints:
                continue
            args = node.args
            declared = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                        args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.stem}.{getattr(node, 'name', '<lambda>')}({name})"
                       for name in declared if name not in read]
    assert not unread, f"parameters their function never reads: {unread}"


# Run in a fresh interpreter: this one has long since imported scipy through
# other test files.
TRAIN_WITHOUT_SCIPY = textwrap.dedent("""
    import sys, tempfile
    from pathlib import Path
    import numpy as np
    from astro import cli, theoryx
    from astro.config import RunConfig

    with tempfile.TemporaryDirectory() as out:
        for mode in ("short", "long"):
            cfg = RunConfig(seed=0, mode=mode, frame_dim=4, clip_len=2, prompt_dim=4,
                            hidden=16, group_size=4, prompts_per_epoch=2, epochs=2,
                            total_clips=3, window_clips=1, pretrain_steps=40)
            assert cli.run_training(cfg, Path(out) / mode)["status"] == "ok", mode
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, f"training loaded {len(loaded)} scipy modules: {loaded[:5]}"
    inst = theoryx.make_guidance_instance(np.random.default_rng(0), 0.5)
    gap = np.abs(theoryx.optimal_velocity_numeric(inst)
                 - theoryx.optimal_velocity_closed_form(inst)).max()
    assert gap <= 1e-6, gap
    assert "scipy.optimize" in sys.modules
""")


def test_training_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", TRAIN_WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
