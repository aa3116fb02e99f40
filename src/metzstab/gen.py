"""Random product-family generation for experiments and benchmarks.

Kinds:
  full    - every off-diagonal entry U(0,1), diagonal U(-1,1)
  sparse  - per-row density gamma_i ~ U(lo, hi); each row carries
            max(1, round(gamma_i * d)) non-zeros including the diagonal
  nonneg  - every entry U(0,1) (for spectral-radius work)

Densities are fractions of d. Generation is deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from . import core
from .family import ProductFamily, UncertaintySet

KINDS = ("full", "sparse", "nonneg")
DEFAULT_SPARSE_DENSITY = (0.09, 0.15)


def _resolve_rng(seed, rng):
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def generate_uncertainty_rows(dim: int, count: int, row_index: int, *,
                              kind: str = "full", density=None,
                              rng: np.random.Generator) -> np.ndarray:
    """One row menu: ``count`` admissible rows for the given row index."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    dim, count = core._whole("dim", dim), core._whole("count", count)
    if not 0 <= row_index < dim:
        raise ValueError(f"row index {row_index} outside dimension {dim}")

    if kind == "nonneg":
        return rng.uniform(0.0, 1.0, size=(count, dim))

    if kind == "full":
        rows = rng.uniform(0.0, 1.0, size=(count, dim))
        rows[:, row_index] = rng.uniform(-1.0, 1.0, size=count)
        return rows

    lo, hi = density if density is not None else DEFAULT_SPARSE_DENSITY
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError(f"density bounds must satisfy 0 < lo <= hi <= 1, got ({lo}, {hi})")
    rows = np.zeros((count, dim))
    others = np.delete(np.arange(dim), row_index)
    for r in range(count):
        gamma = rng.uniform(lo, hi)
        nnz = max(1, round(gamma * dim))
        extra = min(nnz - 1, others.size)
        cols = rng.choice(others, size=extra, replace=False)
        rows[r, cols] = rng.uniform(0.0, 1.0, size=extra)
        rows[r, row_index] = rng.uniform(-1.0, 1.0)
    return rows


def generate_family(dim: int, count: int, *, kind: str = "full", density=None,
                    seed=None, rng: np.random.Generator | None = None) -> ProductFamily:
    """Random product family with ``count`` rows in every row menu."""
    dim, count = core._whole("dim", dim), core._whole("count", count)
    rng = _resolve_rng(seed, rng)
    sets = tuple(
        UncertaintySet(i, generate_uncertainty_rows(
            dim, count, i, kind=kind, density=density, rng=rng))
        for i in range(dim))
    return ProductFamily(sets)


def generate_metzler(dim: int, *, unstable: bool | None = None, seed=None,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Random dense Metzler matrix, optionally pushed (un)stable by a diagonal shift."""
    dim = core._whole("dim", dim)
    rng = _resolve_rng(seed, rng)
    a = rng.uniform(0.0, 1.0, size=(dim, dim))
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, size=dim))
    if unstable is None:
        return a
    eta = core.spectral_abscissa(a)
    margin = rng.uniform(0.1, 1.0)
    shift = (-eta + margin) if unstable else (-eta - margin)
    return a + shift * np.eye(dim)
