"""Per-layer tracing by rebinding entfate's public functions from outside.

``install`` wraps each traced function and rebinds every name in the
``entfate`` modules that refers to it, so calls made anywhere inside the
package go through the wrapper.  numpy's ``linalg.eigh``/``eigvalsh`` are
reached as ``np.linalg.*`` attributes, so each entfate module's ``np`` is
rebound to a shadow numpy whose ``linalg`` carries the wrappers.  Nothing
is patched at import time; ``Tracer.uninstall`` restores every binding.

Spans are aggregated in memory per (parent, name) edge.  A span's self
time is its duration minus the time covered by its traced children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

import numpy as np

# metric prefix -> (module, attribute) of the original function
TRACED = {
    "cli.main": ("entfate.cli", "main"),
    "fate.fate_statistics": ("entfate.fate", "fate_statistics"),
    "fate.detect_fate": ("entfate.fate", "detect_fate"),
    "dynamics.propagate": ("entfate.dynamics", "propagate"),
    "dynamics.evolve_state": ("entfate.dynamics", "evolve_state"),
    "dynamics.propagator_matrix": ("entfate.dynamics", "propagator_matrix"),
    "dynamics.apply_map": ("entfate.dynamics", "apply_map"),
    "dynamics.liouvillian_matrix": ("entfate.dynamics", "liouvillian_matrix"),
    "dynamics.solve_ivp": ("entfate.dynamics", "solve_ivp"),
    "dynamics.expm": ("entfate.dynamics", "expm"),
    "asymptotics.stationary_set_autonomous": ("entfate.asymptotics", "stationary_set_autonomous"),
    "asymptotics.asymptotic_set_nonautonomous": ("entfate.asymptotics", "asymptotic_set_nonautonomous"),
    "asymptotics.classify_theorem_class": ("entfate.asymptotics", "classify_theorem_class"),
    "geometry.min_pt_eigenvalue": ("entfate.geometry", "min_pt_eigenvalue"),
    "geometry.concurrence": ("entfate.geometry", "concurrence"),
    "geometry.classify_region": ("entfate.geometry", "classify_region"),
    "states.sample": ("entfate.states", "sample"),
    "states.new_state": ("entfate.states", "new_state"),
    "states.partial_transpose": ("entfate.states", "partial_transpose"),
    "linalg.eigh": ("numpy.linalg", "eigh"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
}

# extra counters read off a traced call's result
RESULT_COUNTERS = {"dynamics.solve_ivp": ("dynamics.solve_ivp.nfev", lambda r: int(r.nfev))}


def per_layer_names() -> list[str]:
    """Every per-layer count and self-time metric a traced run reports."""
    names = []
    for name in TRACED:
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [counter for counter, _ in RESULT_COUNTERS.values()]
    return names


class Tracer:
    def __init__(self):
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child_s]
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def reset(self) -> None:
        self.edges = {}
        self.counters = {}

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            rec = self.edges.get((parent, name))
            if rec is None:
                rec = self.edges[(parent, name)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            self.counters[counter[0]] = self.counters.get(counter[0], 0) + counter[1](result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Rebind every traced function in all loaded entfate modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        shadow_linalg = types.ModuleType(np.linalg.__name__)
        shadow_linalg.__dict__.update(np.linalg.__dict__)
        for name, (module, attr) in TRACED.items():
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, original)
            if module == "numpy.linalg":
                setattr(shadow_linalg, attr, wrapped)
            else:
                wrappers[id(original)] = wrapped
        shadow_np = types.ModuleType(np.__name__)
        shadow_np.__dict__.update(np.__dict__)
        shadow_np.linalg = shadow_linalg
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "entfate" or mod_name.startswith("entfate.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is np:
                    replacement = shadow_np
                else:
                    replacement = wrappers.get(id(value))
                    if replacement is None:
                        continue
                self._restore.append((mod, attr, value))
                setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore = []

    def table(self) -> dict[str, dict]:
        """Per-name totals: {name: {"calls": int, "self_s": float}}."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in TRACED}
        for (_, name), (calls, _, self_s) in self.edges.items():
            out[name]["calls"] += calls
            out[name]["self_s"] += self_s
        return out

    def edge_list(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": c, "total_s": tot, "self_s": slf}
            for (parent, name), (c, tot, slf) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1]
            )
        ]
