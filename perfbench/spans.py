"""In-memory spans around the package's layers, recorded from outside.

``Tracer.installed(instance)`` replaces each traced function by a wrapper in
every module namespace that binds it (the package ``__init__`` re-exports
most of them, and ``lss`` imports ``closest_stable_sign`` by name), and puts
every original back on exit. The harness installs the wrappers around one
traced solve at a time, so untraced solves and the independent checker's
own ``eigvals`` calls run on the originals.

A span is (name, start, end, parent, instance). Counters come from the
returned results and from ``IterationLimitError``, at the boundary where
the work happens; ``summary()`` turns spans and counters into the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# layer -> (module, traced public functions). Cheap helpers that run
# thousands of times per solve (validators, norms, row_optimize) are left
# out: wrapping them would cost more than the work they do.
LAYERS = {
    "core": ("metzstab.core", (
        "selected_leading_eigenpair", "dense_leading_eigenpair",
        "leading_eigenpair_with_fallback", "spectral_abscissa",
        "spectral_radius", "is_hurwitz_stable", "is_schur_stable")),
    "maxnorm": ("metzstab.maxnorm", ("closest_stable_max", "closest_unstable_max")),
    "infnorm": ("metzstab.infnorm", (
        "closest_stable_inf_hurwitz", "closest_stable_inf_schur",
        "closest_unstable_inf_hurwitz", "closest_unstable_inf_schur",
        "ball_row_minimizer")),
    "family": ("metzstab.family", (
        "selective_greedy", "optimize_with_irreducibility_patch",
        "frobenius_blocks")),
    "sign": ("metzstab.sign", (
        "closest_stable_sign", "sign_ball_minimize", "is_sign_stable")),
    "lss": ("metzstab.lss", (
        "stabilize_lss_by_signs", "stabilize_2d_lss", "hull_max_abscissa")),
    "linalg": ("numpy.linalg", ("solve", "inv", "eig", "eigvals")),
}

# The eigen entry points; core.eig_s is the time under the outermost one.
EIGEN = frozenset(f"core.{n}" for n in (
    "selected_leading_eigenpair", "dense_leading_eigenpair",
    "leading_eigenpair_with_fallback", "spectral_abscissa", "spectral_radius"))
POWER = "core.selected_leading_eigenpair"

PER_LAYER = (
    ("core.eig_calls", "count"), ("core.power_iters", "count"),
    ("core.stalls", "count"), ("core.stalled_iter_share", "ratio"),
    ("core.dense_calls", "count"), ("core.eig_s", "s"), ("core.eig_share", "ratio"),
    ("infnorm.calls", "count"), ("infnorm.outer_steps", "count"),
    ("infnorm.self_s", "s"),
    ("linalg.calls", "count"), ("linalg.s", "s"),
    ("maxnorm.calls", "count"), ("maxnorm.evals", "count"), ("maxnorm.self_s", "s"),
    ("family.greedy_calls", "count"), ("family.sweeps", "count"),
    ("family.block_splits", "count"), ("family.self_s", "s"),
    ("sign.ball_calls", "count"), ("sign.ball_sweeps", "count"), ("sign.self_s", "s"),
    ("lss.calls", "count"), ("lss.self_s", "s"),
    ("trace_overhead", "ratio"),
)


def _iterations(obj) -> int:
    return int(getattr(obj, "iterations", 0) or 0)


def _counts(name: str, out, exc, direct_eigen_calls) -> dict:
    """Counters of one finished span, from its result or its exception."""
    best = getattr(exc, "best", None)
    if name == POWER:
        if exc is None:
            return {"iters": _iterations(out)}
        return {"iters": _iterations(best), "stall": 1}
    if name in ("family.selective_greedy", "sign.sign_ball_minimize"):
        # One eigen request per sweep.
        if exc is None:
            return {"sweeps": _iterations(out)}
        if hasattr(exc, "trace"):  # the sweep budget ran out
            return {"sweeps": _iterations(best) if best is not None else len(exc.trace)}
        return {"sweeps": direct_eigen_calls()}  # a stall inside a sweep
    if name == "maxnorm.closest_stable_max":
        # Every abscissa or radius evaluation, also those of a call that stalls.
        return {"steps": direct_eigen_calls()}
    if name in ("infnorm.closest_stable_inf_hurwitz", "infnorm.closest_stable_inf_schur"):
        if exc is None:
            return {"steps": _iterations(out)}
        return {"steps": _iterations(best) if hasattr(best, "tau_star") else 0}
    return {}


class Tracer:
    """Span recorder; ``instance`` is the id of the solve being traced."""

    def __init__(self):
        self.instance = None
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.inst: list[int] = []
        self.counts: list[dict] = []
        self.layer_root: list[bool] = []
        self.eig_root: list[bool] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- recording ------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.start.append(time.perf_counter() - self._t0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self.instance)
        self.counts.append({})
        self.layer_root.append(self._depth.get(layer, 0) == 0)
        self.eig_root.append(name in EIGEN and self._depth.get("eig", 0) == 0)
        self._stack.append(idx)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        if name in EIGEN:
            self._depth["eig"] = self._depth.get("eig", 0) + 1
        return idx

    def _close(self, idx: int, layer: str, out, exc) -> None:
        self.end[idx] = time.perf_counter() - self._t0
        self._stack.pop()
        self._depth[layer] -= 1
        name = self.names[idx]
        if name in EIGEN:
            self._depth["eig"] -= 1

        def direct():
            return sum(1 for k in range(idx + 1, len(self.names))
                       if self.parent[k] == idx and self.names[k] in EIGEN)

        self.counts[idx] = _counts(name, out, exc, direct)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, layer, None, exc)
                raise
            tracer._close(idx, layer, out, None)
            return out

        return traced

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self, instance: int):
        """Wrap every traced function wherever the package binds it."""
        self.instance = instance
        try:
            namespaces = [m for n, m in sorted(sys.modules.items())
                          if m is not None and (n == "metzstab" or n.startswith("metzstab."))]
            namespaces.append(sys.modules["numpy.linalg"])
            for layer, (home, names) in LAYERS.items():
                module = sys.modules[home]
                for name in names:
                    original = getattr(module, name, None)
                    if original is None:
                        self.missing.add(f"{layer}.{name}")
                        continue
                    wrapper = self._wrap(layer, f"{layer}.{name}", original)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, attr, wrapper)
                                self._patched.append((ns, attr, original))
            yield self
        finally:
            for ns, attr, original in reversed(self._patched):
                setattr(ns, attr, original)
            self._patched.clear()
            self.instance = None

    # -- results --------------------------------------------------------

    def summary(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        n = len(self.names)
        child = [0.0] * n
        for k in range(n):
            if self.parent[k] >= 0:
                child[self.parent[k]] += self.end[k] - self.start[k]
        m = {name: 0.0 for name, _ in PER_LAYER}
        stalled_iters = 0
        for k, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            dur = self.end[k] - self.start[k]
            c = self.counts[k]
            if self.eig_root[k]:
                m["core.eig_s"] += dur
            if name == POWER:
                m["core.eig_calls"] += 1
                m["core.power_iters"] += c.get("iters", 0)
                m["core.stalls"] += c.get("stall", 0)
                stalled_iters += c.get("iters", 0) if c.get("stall") else 0
            elif name == "core.dense_leading_eigenpair":
                m["core.dense_calls"] += 1
            if layer == "linalg":
                m["linalg.calls"] += 1
                m["linalg.s"] += dur
            if layer in ("infnorm", "maxnorm", "family", "sign", "lss"):
                m[f"{layer}.self_s"] += dur - child[k]
            if layer == "infnorm":
                m["infnorm.calls"] += 1
                if self.layer_root[k]:
                    m["infnorm.outer_steps"] += c.get("steps", 0)
            elif layer == "maxnorm":
                m["maxnorm.calls"] += 1
                m["maxnorm.evals"] += c.get("steps", 0)
            elif name == "family.selective_greedy":
                m["family.greedy_calls"] += 1
                m["family.sweeps"] += c.get("sweeps", 0)
            elif name == "family.frobenius_blocks":
                m["family.block_splits"] += 1
            elif name == "sign.sign_ball_minimize":
                m["sign.ball_calls"] += 1
                m["sign.ball_sweeps"] += c.get("sweeps", 0)
            elif layer == "lss":
                m["lss.calls"] += 1
        power = m["core.power_iters"]
        m["core.stalled_iter_share"] = stalled_iters / power if power else 0.0
        m["core.eig_share"] = m["core.eig_s"] / traced_s if traced_s > 0 else 0.0
        m["trace_overhead"] = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
        return m

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, instance."""
        with open(path, "w") as fh:
            for k, name in enumerate(self.names):
                fh.write(json.dumps([name, round(self.start[k], 7), round(self.end[k], 7),
                                     self.parent[k], self.inst[k]]) + "\n")
