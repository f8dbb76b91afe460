"""Online policy tuning for few-step autoregressive generators.

Modules: tensorgrad (autodiff + optimizer), flowgen (toy generator and
pretraining), streamctx (bounded streaming context), rewardlab (judges,
ranking, risk masking), nftcore (group-relative policy optimization),
longtune (streaming window tuning), theoryx (numerical guarantee checks),
config/runio/cli (run surface).
"""

import importlib

from . import (config, flowgen, longtune, nftcore, rewardlab, rng, runio, streamctx,
               tensorgrad, theoryx)

__version__ = "0.1.0"

__all__ = [
    "cli", "config", "flowgen", "longtune", "nftcore", "rewardlab", "rng",
    "runio", "streamctx", "tensorgrad", "theoryx", "__version__",
]


def __getattr__(name: str):
    # cli is imported on first use, so `python -m astro.cli` does not find
    # it already imported by the package and warn.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
