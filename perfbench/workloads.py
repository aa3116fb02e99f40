"""Seeded instance streams and the operation table of the three workloads.

Every instance is built from numpy alone, so the inputs do not move when
the package's own generators change. A run solves ``rounds`` rounds; a
round is the workload's fixed list of (operation, parameters) slots, so the
operation mix is the same in every run. Instance ``i`` of a run with seed
``s`` draws its entries from ``numpy.random.default_rng([STREAM, s, i])``.

The input property that moves cost most within a slot (the dimension for
``reducible-small``, the scale for ``linf-dense``, the gap between the two
largest diagonal entries for ``closest_stable_max``) comes from a stratified
draw ``u``: over the run's rounds each slot visits every one of ``rounds``
equal strata of U(0, 1) once, in a seeded order. Each ``u`` is still
U(0, 1), but every run covers the range evenly, so runs with different
seeds differ by their entries rather than by how many large-scale,
large-dimension or stalling draws they happened to get. Warm-up instances use their
own stream key, so they never coincide with a measured instance.

An operation is a maker ``make(rng, u, **params)`` that builds raw arrays,
``prepare(raw)`` that wraps them into the library's input types (untimed)
and ``solve(prepared)``, the one public call that is timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import check

STREAM, WARMUP_STREAM, STRATA_STREAM = 0, 1, 2


# -- generators (numpy only) ------------------------------------------------

def _dim(u: float, d_lo: int, d_hi: int) -> int:
    """Uniform integer in [d_lo, d_hi] from a U(0, 1) draw."""
    return d_lo + min(int(u * (d_hi - d_lo + 1)), d_hi - d_lo)


def make_sign(rng, u, d_lo: int, d_hi: int) -> dict:
    """Random unstable Metzler sign pattern, off-diagonal density 0.5."""
    d = _dim(u, d_lo, d_hi)
    while True:
        e = (rng.random((d, d)) < 0.5).astype(np.int8)
        e[np.arange(d), np.arange(d)] = rng.integers(-1, 2, size=d, dtype=np.int8)
        if check.abscissa(e.astype(float)) > 0.05:
            return {"entries": e}


def make_lss(rng, u, d_lo: int, d_hi: int, modes_lo: int, modes_hi: int) -> dict:
    """Switching system of sparse Metzler modes with negative diagonals.

    Like the sign slot, it is drawn again until the overlay of the modes'
    sign patterns is unstable, so every instance has something to cut.
    """
    d = _dim(u, d_lo, d_hi)
    count = int(rng.integers(modes_lo, modes_hi + 1))
    while True:
        modes = rng.uniform(0.0, 1.0, (count, d, d)) * (rng.random((count, d, d)) < 0.6)
        for m in modes:
            np.fill_diagonal(m, rng.uniform(-3.0, -0.2, d))
        overlay = np.sign(np.sign(modes).sum(axis=0))
        if check.abscissa(overlay) > 0.05:
            return {"modes": modes}


def make_family(rng, u, d_lo: int, d_hi: int, count: int, density: tuple) -> dict:
    """Product family with ``count`` rows per menu and sparse off-diagonals.

    Each row carries max(1, round(gamma*d)) off-diagonal entries U(0,1),
    gamma ~ U(density), and a diagonal U(-1,1).
    """
    d = _dim(u, d_lo, d_hi)
    lo, hi = density
    rows = np.zeros((d, count, d))
    for i in range(d):
        others = np.delete(np.arange(d), i)
        for r in range(count):
            nnz = min(max(1, round(rng.uniform(lo, hi) * d)), others.size)
            cols = rng.choice(others, size=nnz, replace=False)
            rows[i, r, cols] = rng.uniform(0.0, 1.0, size=nnz)
            rows[i, r, i] = rng.uniform(-1.0, 1.0)
    return {"rows": rows}


def make_unstable_metzler(rng, u, d: int) -> dict:
    """Dense Metzler matrix with eta = margin ~ U(0.1, 1), scaled by 10^U(-3,3).

    Off-diagonal U(0,1) and diagonal U(-1,1), shifted along the diagonal
    to put the abscissa at the margin (the construction the package's own
    ``generate_metzler(unstable=True)`` uses), then multiplied by the
    scale, because real inputs carry units.
    """
    a = rng.uniform(0.0, 1.0, size=(d, d))
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, size=d))
    a += (rng.uniform(0.1, 1.0) - check.abscissa(a)) * np.eye(d)
    return {"a": a * 10.0 ** (6.0 * u - 3.0)}


def make_clamp_input(rng, u, d: int) -> dict:
    """Unscaled ``make_unstable_metzler`` input with a stratified diagonal gap.

    At the top clamp breakpoint the iterate is diagonal, and the power method
    stalls there when the two largest diagonal entries are close. For d iid
    U(-1,1) entries that gap is 2*Beta(1, d), and given the gap the other
    d-1 entries are iid U(-1, 1-gap); drawing the gap's quantile from ``u``
    keeps that distribution while every run gets the same share of close
    gaps.
    """
    gap = 2.0 * (1.0 - (1.0 - u) ** (1.0 / d))
    diag = rng.uniform(-1.0, 1.0 - gap, size=d - 1)
    diag = np.insert(diag, rng.integers(d), diag.max() + gap)
    a = rng.uniform(0.0, 1.0, size=(d, d))
    np.fill_diagonal(a, diag)
    a += (rng.uniform(0.1, 1.0) - check.abscissa(a)) * np.eye(d)
    return {"a": a}


def make_unstable_nonneg(rng, u, d: int) -> dict:
    """Positive matrix whose spectral radius is 1 + 10^U(-3,1).

    The Schur level 1 is dimensionless, so units cannot rescale these
    inputs; the excess rho - 1 spans four decades instead, from inputs just
    past the boundary to ones ten times past it.
    """
    a = rng.uniform(0.1, 1.0, size=(d, d))
    return {"a": a * ((1.0 + 10.0 ** (4.0 * u - 3.0)) / check.radius(a))}


def make_stable_metzler(rng, u, d: int) -> dict:
    """Hurwitz-stable Metzler matrix by strict row diagonal dominance."""
    a = rng.uniform(0.0, 1.0, size=(d, d))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1) - rng.uniform(0.1, 1.0, size=d))
    return {"a": a}


def make_stable_nonneg(rng, u, d: int) -> dict:
    """Nonnegative matrix whose largest row sum (a bound on rho) is < 1."""
    a = rng.uniform(0.0, 1.0, size=(d, d))
    return {"a": a * (rng.uniform(0.5, 0.95) / float(a.sum(axis=1).max()))}


MAKERS = {
    "sign-stab": make_sign,
    "lss-stab-sign": make_lss,
    "family-max": make_family,
    "family-min": make_family,
    "stab-inf": make_unstable_metzler,
    "stab-schur": make_unstable_nonneg,
    "stab-schur-metzler": make_unstable_nonneg,
    "stab-max": make_clamp_input,
    "destab-inf": make_stable_metzler,
    "destab-schur": make_stable_nonneg,
    "destab-max": make_stable_metzler,
}


# -- operations --------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    prepare: Callable
    solve: Callable
    check: Callable


def build_ops(ms) -> dict[str, Op]:
    """Operation table over an imported ``metzstab`` package ``ms``."""
    def sign_of(raw):
        return ms.SignMatrix(raw["entries"])

    def system_of(raw):
        return ms.SwitchingSystem(tuple(raw["modes"]))

    def family_of(raw):
        return ms.ProductFamily(tuple(
            ms.UncertaintySet(i, rows) for i, rows in enumerate(raw["rows"])))

    def matrix(raw):
        return raw["a"]

    def public(name, **kwargs):
        # Looked up on every call, so a traced solve reaches the wrapper.
        return lambda arg: getattr(ms, name)(arg, **kwargs)

    return {
        "sign-stab": Op(sign_of, public("closest_stable_sign"), check.sign_stab),
        "lss-stab-sign": Op(system_of, public("stabilize_lss_by_signs"),
                            check.lss_stab_sign),
        "family-max": Op(family_of, public("optimize_with_irreducibility_patch"),
                         check.family),
        "family-min": Op(family_of, public("selective_greedy", direction="min"),
                         check.family),
        "stab-inf": Op(matrix, public("closest_stable_inf_hurwitz"), check.stab_inf),
        "stab-schur": Op(matrix, public("closest_stable_inf_schur"), check.stab_schur),
        "stab-schur-metzler": Op(
            matrix, public("closest_stable_inf_schur", allow_metzler=True),
            check.stab_schur_metzler),
        "stab-max": Op(matrix, public("closest_stable_max"), check.stab_max),
        "destab-inf": Op(matrix, public("closest_unstable_inf_hurwitz"),
                         check.destab_inf),
        "destab-schur": Op(matrix, public("closest_unstable_inf_schur"),
                           check.destab_schur),
        "destab-max": Op(matrix, public("closest_unstable_max"), check.destab_max),
    }


# One round per workload: (operation, generator parameters) slots, cycled.
_SMALL_FAMILY = {"d_lo": 20, "d_hi": 40, "count": 3, "density": (0.03, 0.08)}
_LARGE_FAMILY = {"d_lo": 500, "d_hi": 500, "count": 3, "density": (0.09, 0.15)}

ROUNDS: dict[str, tuple[tuple[str, dict], ...]] = {
    # Tiny reducible iterates, where the power method stalls; infnorm idle.
    "reducible-small": (
        ("sign-stab", {"d_lo": 3, "d_hi": 6}),
        ("lss-stab-sign", {"d_lo": 3, "d_hi": 5, "modes_lo": 2, "modes_hi": 3}),
        ("family-max", _SMALL_FAMILY),
        ("family-min", _SMALL_FAMILY),
    ),
    # Ball greedy, jump solves and eigen calls on dense, scaled iterates.
    "linf-dense": tuple(
        (op, {"d": d}) for d in (10, 25, 50, 100)
        for op in ("stab-inf", "stab-schur", "stab-schur-metzler")),
    # Few, large eigen calls (CSR and dense) and closed forms at d=600.
    "large-dim": (
        ("family-max", _LARGE_FAMILY),
        ("family-min", _LARGE_FAMILY),
        ("stab-max", {"d": 200}),
        ("stab-max", {"d": 300}),
        ("destab-inf", {"d": 600}),
        ("destab-schur", {"d": 600}),
        ("destab-max", {"d": 600}),
    ),
}


def instance(workload: str, seed: int, index: int, rounds: int,
             stream: int = STREAM) -> tuple[str, dict]:
    """(operation name, raw arrays) of one instance; deterministic in its key."""
    slots = ROUNDS[workload]
    slot = index % len(slots)
    op, params = slots[slot]
    order = np.random.default_rng([STRATA_STREAM, seed, rounds, slot]).permutation(rounds)
    rng = np.random.default_rng([stream, seed, index])
    u = (order[(index // len(slots)) % rounds] + rng.uniform()) / rounds
    return op, MAKERS[op](rng, u, **params)
