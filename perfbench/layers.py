"""Per-layer profile: self time and call counts charged to ``repro`` layers.

A layer is a group of ``repro`` modules (``LAYER_OF_MODULE``).  The
profile comes from ``cProfile``, which records each function's self time
and, per caller, the time spent in it on that caller's behalf.  Self time
of a function outside ``repro`` and this benchmark -- a C builtin, the
standard library, ``networkx`` -- is handed up to its callers in
proportion to that per-caller time, until it reaches a function that has
a layer.  What cannot be handed up (a function with no callers) is
reported as unattributed.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

#: Module -> layer.  A module not listed here but inside a listed package
#: takes the package's layer (see ``layer_of``).
LAYER_OF_MODULE = {
    "repro.simnet.kernel": "simnet.kernel",
    "repro.simnet.cpu": "simnet.cpu",
    "repro.simnet.nic": "simnet.nic",
    "repro.simnet": "simnet.network",
    "repro.broker.links": "broker.links",
    "repro.broker.route_cache": "broker.route_cache",
    "repro.broker.topic": "broker.topic",
    "repro.broker.client": "broker.client",
    "repro.broker.overload": "broker.overload",
    "repro.broker.reliable": "broker.reliable",
    "repro.broker": "broker.broker",
    "repro.util": "broker.client",
    "repro.obs": "obs",
    "repro.rtp": "rtp",
    "repro.bench": "bench",
    "perfbench": "bench",
}

LAYERS = tuple(sorted(set(LAYER_OF_MODULE.values())))

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")

Func = Tuple[str, int, str]  # pstats key: (filename, line, function name)


def module_of(filename: str) -> Optional[str]:
    """Dotted module name of a file under ``src/`` or this benchmark,
    or None for anything else."""
    path = os.path.abspath(filename)
    for base in (_SRC, _ROOT):
        if path.startswith(base + os.sep) and path.endswith(".py"):
            rel = path[len(base) + 1:-3].replace(os.sep, ".")
            if rel.endswith(".__init__"):
                rel = rel[: -len(".__init__")]
            if rel.startswith(("repro", "perfbench")):
                return rel
    return None


def layer_of(module: str) -> Optional[str]:
    """The layer of a module: its own entry, else its nearest package's."""
    name = module
    while name:
        layer = LAYER_OF_MODULE.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return None


class LayerProfile:
    """Self time per layer and call counts per (layer, function name),
    for one phase."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.func_calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.modules: set = set()
        self.unattributed_s = 0.0
        self.total_s = 0.0

    def add(self, profiler: cProfile.Profile) -> None:
        """Charge one profiler's statistics to layers."""
        stats = pstats.Stats(profiler).stats
        layer: Dict[Func, Optional[str]] = {}
        for func in stats:
            module = module_of(func[0])
            if module is not None:
                self.modules.add(module)
            layer[func] = layer_of(module) if module is not None else None
        pot: Dict[Func, float] = {}
        for func, (_cc, nc, tt, _ct, _callers) in stats.items():
            self.total_s += tt
            owner = layer[func]
            if owner is None:
                pot[func] = tt
            else:
                self.self_s[owner] += tt
                self.func_calls[(owner, func[2])] += nc
        # Hand foreign self time up the call graph.  Recursion inside
        # foreign code makes cycles; a bounded number of passes moves all
        # but a vanishing remainder, which counts as unattributed.
        for _ in range(64):
            moving = {f: t for f, t in pot.items() if t > 1e-9}
            if not moving:
                break
            pot = defaultdict(float)
            for func, amount in moving.items():
                callers = stats[func][4]
                # Caller edges are (calls, primitive calls, self time,
                # cumulative time); share by cumulative time.
                weights = {c: edge[3] for c, edge in callers.items()
                           if c in stats}
                total = sum(weights.values())
                if total <= 0.0:
                    counts = {c: edge[0] for c, edge in callers.items()
                              if c in stats}
                    weights, total = counts, sum(counts.values())
                if total <= 0:
                    self.unattributed_s += amount
                    continue
                for caller, weight in weights.items():
                    share = amount * weight / total
                    owner = layer[caller]
                    if owner is None:
                        pot[caller] += share
                    else:
                        self.self_s[owner] += share
        self.unattributed_s += sum(pot.values())


class PhaseProfiler:
    """One ``cProfile.Profile`` per phase, switched by ``hook(phase)``
    (``"setup"``, ``"run"``, ``"end"``)."""

    def __init__(self) -> None:
        self.profiles = {"setup": LayerProfile(), "run": LayerProfile()}
        self._active: Optional[Tuple[str, cProfile.Profile]] = None

    def hook(self, phase: str) -> None:
        if self._active is not None:
            name, profiler = self._active
            profiler.disable()
            self.profiles[name].add(profiler)
            self._active = None
        if phase in self.profiles:
            profiler = cProfile.Profile()
            self._active = (phase, profiler)
            profiler.enable()
