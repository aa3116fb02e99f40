"""Random instance builders shared by the module tests and acceptance suites."""

import numpy as np

from metzstab import gen
from metzstab.family import ProductFamily, UncertaintySet

import oracles

# One irreducible 70-node block, above core.DENSE_FALLBACK_DIM, so it keeps
# the full power budget: its power loop settles in 12 iterations, and under
# a budget of 3 or less the certified step serves it.
LARGE_BLOCK_70 = gen.generate_metzler(70, unstable=True, seed=1)


def weighted_cycles() -> list[np.ndarray]:
    """Directed cycles of 70, 100, 200 and 400 nodes, weights U(0.5, 1.5).

    Irreducible and above core.DENSE_FALLBACK_DIM; all eigenvalues of a cycle
    share one modulus, so the power method never converges on one.
    """
    rng = np.random.default_rng(0)
    return [np.roll(np.diag(rng.uniform(0.5, 1.5, d)), 1, axis=1)
            for d in (70, 100, 200, 400)]


def block_diagonal_family() -> ProductFamily:
    """Two decoupled 2x2 blocks: every member is reducible.

    The plain greedy's maximum, choices (0, 0, 0, 1), is flagged, and the
    Frobenius split maximizes its two blocks to (0, 0, 1, 1).
    """
    return ProductFamily((
        UncertaintySet(0, [[-1.0, 1.0, 0.0, 0.0], [-0.5, 0.2, 0.0, 0.0]]),
        UncertaintySet(1, [[2.0, -1.0, 0.0, 0.0]]),
        UncertaintySet(2, [[0.0, 0.0, -3.0, 1.0], [0.0, 0.0, -4.0, 2.0]]),
        UncertaintySet(3, [[0.0, 0.0, 1.0, -2.0], [0.0, 0.0, 2.5, -2.0]]),
    ))


def random_metzler(rng: np.random.Generator, d: int, *, scale: float = 1.0) -> np.ndarray:
    a = rng.uniform(0.0, scale, size=(d, d))
    np.fill_diagonal(a, rng.uniform(-2.0 * scale, scale, size=d))
    return a


def random_stable_metzler(rng: np.random.Generator, d: int) -> np.ndarray:
    return gen.generate_metzler(d, unstable=False, rng=rng)


def random_unstable_metzler(rng: np.random.Generator, d: int) -> np.ndarray:
    return gen.generate_metzler(d, unstable=True, rng=rng)


def random_unstable_nonneg(rng: np.random.Generator, d: int, *,
                           level: float = 1.0) -> np.ndarray:
    """Entrywise positive matrix scaled so its spectral radius exceeds level."""
    a = rng.uniform(0.1, 1.0, size=(d, d))
    factor = rng.uniform(1.2, 3.0)
    return a * (level * factor / oracles.radius(a))


def random_sign_entries(rng: np.random.Generator, d: int, *,
                        density: float = 0.5) -> np.ndarray:
    """Random Metzler sign pattern as an int8 array."""
    e = (rng.random((d, d)) < density).astype(np.int8)
    e[np.arange(d), np.arange(d)] = rng.integers(-1, 2, size=d, dtype=np.int8)
    return e


def random_unstable_sign(rng: np.random.Generator, d: int, *,
                         density: float = 0.5) -> np.ndarray:
    while True:
        e = random_sign_entries(rng, d, density=density)
        if oracles.abscissa(e.astype(float)) > 0.05:
            return e


# Inputs of the closed-form destabilizers' one-solve certificate: two kinds
# each destabilizer accepts and two it must reject.
CERTIFICATE_KINDS = ("stable", "reducible", "unstable", "singular")


def _certificate_base(rng: np.random.Generator, kind: str, d: int) -> np.ndarray:
    a = rng.uniform(0.0, 1.0, size=(d, d))
    if kind == "reducible":
        a[d // 2:, : d // 2] = 0.0  # block upper triangular, exact zeros
    return a


def hurwitz_certificate_input(kind: str, d: int, seed: int) -> np.ndarray:
    """Metzler matrix of one of ``CERTIFICATE_KINDS``.

    Every row sums to -m ("stable", "reducible") or +m ("unstable"), with
    m ~ U(0.1, 1) per row. "singular" is a stable matrix shifted onto its
    boundary: its last row is zero but for the diagonal entry -0.05, which
    is then its abscissa, and adding 0.05 I leaves that row exactly zero.
    """
    rng = np.random.default_rng([seed, d])
    a = _certificate_base(rng, kind, d)
    np.fill_diagonal(a, 0.0)
    margin = rng.uniform(0.1, 1.0, size=d) * (1.0 if kind == "unstable" else -1.0)
    np.fill_diagonal(a, margin - a.sum(axis=1))
    if kind == "singular":
        a[-1] = 0.0
        a[-1, -1] = -0.05
        a += 0.05 * np.eye(d)
    return a


def schur_certificate_input(kind: str, d: int, seed: int, *,
                            level: float = 1.0) -> np.ndarray:
    """Nonnegative matrix of one of ``CERTIFICATE_KINDS`` at a Schur level.

    Row sums are level * U(0.5, 0.95) ("stable", "reducible"), so rho <
    level, or level * U(1.05, 2) ("unstable"), so rho > level. "singular"
    is a stable matrix whose last row is zero but for the diagonal entry
    ``level``: rho = level, and level I - A has an exactly zero row.
    """
    rng = np.random.default_rng([seed, d])
    a = _certificate_base(rng, kind, d)
    lo, hi = (1.05, 2.0) if kind == "unstable" else (0.5, 0.95)
    a *= (level * rng.uniform(lo, hi, size=d) / a.sum(axis=1))[:, None]
    if kind == "singular":
        a[-1] = 0.0
        a[-1, -1] = level
    return a
