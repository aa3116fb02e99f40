"""Benchmark harness reproducing the iteration-count experiment shapes.

Runs the greedy family optimizers and the l-inf stabilizers on random
instances over a grid of (dimension, menu size) cells, reporting mean/max
iteration counts and the wall time of the solve alone (making the instance
is not timed). Timings are reported, never asserted. Trials are seeded
independently via SeedSequence spawning, so results are deterministic for a
given master seed.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

from . import core, family, gen, infnorm


def _make(op: str, dim: int, count: int, kind: str, density, rng):
    if op in ("family-max", "family-min"):
        return gen.generate_family(dim, count, kind=kind, density=density, rng=rng)
    if op == "stab-inf":
        return gen.generate_metzler(dim, unstable=True, rng=rng)
    a = np.abs(gen.generate_metzler(dim, rng=rng))
    rho = core.spectral_radius(a)
    if rho <= 1.0:
        a = a * ((1.0 + rng.uniform(0.5, 1.5)) / max(rho, 1e-6))
    return a


_SOLVE = {
    "family-max": lambda fam: family.optimize_with_irreducibility_patch(fam, "max"),
    "family-min": lambda fam: family.selective_greedy(fam, "min"),
    "stab-inf": infnorm.closest_stable_inf_hurwitz,
    "stab-schur": infnorm.closest_stable_inf_schur,
}
OPS = tuple(_SOLVE)


def _run_trial(op: str, dim: int, count: int, kind: str, density, seed_seq) -> tuple[int, float]:
    if op not in _SOLVE:
        raise ValueError(f"op must be one of {OPS}, got {op!r}")
    # Making the instance stays outside the timed region.
    instance = _make(op, dim, count, kind, density, np.random.default_rng(seed_seq))
    start = time.perf_counter()
    out = _SOLVE[op](instance)
    return out.iterations, time.perf_counter() - start


def run_bench(*, ops=("family-max",), dims=(25,), counts=(50,), kind: str = "full",
              density=None, trials: int = 10, seed: int = 0) -> list[dict]:
    """Run the benchmark grid; one result row per (op, dim, count) cell."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rows = []
    cell = 0
    for op in ops:
        for dim in dims:
            for count in counts:
                seqs = np.random.SeedSequence((seed, cell)).spawn(trials)
                cell += 1
                results = [_run_trial(op, dim, count, kind, density, s) for s in seqs]
                iters = np.array([r[0] for r in results], dtype=float)
                secs = np.array([r[1] for r in results])
                rows.append({
                    "op": op, "dim": dim, "count": count, "kind": kind,
                    "density_lo": density[0] if density else "",
                    "density_hi": density[1] if density else "",
                    "trials": trials,
                    "iterations_mean": float(iters.mean()),
                    "iterations_max": int(iters.max()),
                    "seconds_mean": float(secs.mean()),
                })
    return rows


def write_csv(rows: list[dict], stream) -> None:
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no results)\n"
    headers = ["op", "dim", "count", "kind", "trials", "iterations_mean",
               "iterations_max", "seconds_mean"]
    table = [headers] + [
        [f"{row[h]:.3g}" if isinstance(row[h], float) else str(row[h])
         for h in headers]
        for row in rows]
    widths = [max(len(line[k]) for line in table) for k in range(len(headers))]
    out = io.StringIO()
    for line in table:
        out.write("  ".join(cell.rjust(w) for cell, w in zip(line, widths)) + "\n")
    return out.getvalue()
