"""Linear switching systems with Metzler modes: hull checks and stabilization.

For positive systems in the plane, asymptotic stability under arbitrary
switching is equivalent to every matrix in the convex hull of the modes being
Hurwitz, so the worst hull point decides. The hull maximizer is located by a
simplex grid plus golden-section refinement (exactly a segment search for two
modes). Stabilization replaces unstable modes by their l-inf closest stable
matrices and distributes the worst hull point's l-inf repair over the active
modes as proportional off-diagonal cuts plus the common diagonal shift, which
reproduces the repaired hull point exactly and keeps every mode Metzler.

The sign route works for any dimension: overlay the modes' sign patterns,
find the closest weakly stable sign matrix, and delete each removed entry
from every mode containing it, so the overlay of the cut system is exactly
the stabilized pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, infnorm
from .errors import IterationLimitError, PreconditionError
from .sign import SignMatrix, closest_stable_sign, is_sign_stable, sign_pattern

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_ACTIVE_TOL = 1e-12
# Relative diagonal shift that pushes boundary results strictly inside, and
# the number of hull repair rounds of the planar stabilizer.
_MARGIN = 1e-4
_REPAIR_ROUNDS = 20
# Rounds of pairwise golden-section refinement after the grid scan.
_REFINE_ROUNDS = 2


@dataclass(frozen=True)
class SwitchingSystem:
    modes: tuple[np.ndarray, ...]

    def __post_init__(self):
        # Its own copies: validation hands float arrays back uncopied.
        modes = tuple(core.validate_metzler(m, f"mode {k}").copy()
                      for k, m in enumerate(self.modes))
        if not modes:
            raise ValueError("system needs at least one mode")
        d = modes[0].shape[0]
        for k, m in enumerate(modes):
            if m.shape[0] != d:
                raise ValueError(f"mode {k} has dimension {m.shape[0]}, expected {d}")
        object.__setattr__(self, "modes", modes)

    @property
    def dim(self) -> int:
        return self.modes[0].shape[0]

    @property
    def count(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class HullPoint:
    weights: np.ndarray
    matrix: np.ndarray
    abscissa: float


@dataclass(frozen=True)
class LSS2DResult:
    """The repaired system; ``iterations`` counts the hull repair rounds."""

    system: SwitchingSystem
    mode_taus: tuple[float, ...]
    iterations: int
    hull: HullPoint


@dataclass(frozen=True)
class LSSSignResult:
    system: SwitchingSystem
    union_sign: SignMatrix
    stable_sign: SignMatrix
    k_star: int
    mode_budgets: tuple[int, ...]
    abscissa: float
    acyclic: bool


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _default_resolution(n: int) -> int:
    return {1: 1, 2: 64, 3: 36, 4: 16, 5: 10}.get(n, 6)


def hull_max_abscissa(system: SwitchingSystem, *,
                      resolution: int | None = None) -> HullPoint:
    """Maximize the spectral abscissa over the convex hull of the modes.

    Scans a simplex grid of the given resolution, then refines the best
    weight vector by golden-section searches along mass transfers between
    mode pairs (plain golden-section on the segment for two modes). Returns
    the worst hull point found, evaluated again at its renormalized weights.
    """
    n = system.count
    stack = np.stack(system.modes)

    def combine(weights: np.ndarray) -> np.ndarray:
        return np.tensordot(weights, stack, axes=1)

    def eta(weights: np.ndarray) -> float:
        return core.selected_leading_eigenpair(combine(weights)).value

    r = core._whole("resolution", resolution if resolution is not None
                    else _default_resolution(n))
    best_w = None
    best_eta = -np.inf
    for comp in _compositions(r, n):
        w = np.array(comp, dtype=float) / r
        value = eta(w)
        if value > best_eta:
            best_eta, best_w = value, w

    w = best_w.copy()
    for _ in range(_REFINE_ROUNDS):
        for p in range(n):
            for q in range(p + 1, n):
                lo, hi = -w[p], w[q]
                if hi - lo <= 1e-14:
                    continue
                direction = np.zeros(n)
                direction[p], direction[q] = 1.0, -1.0

                def slide(t: float) -> float:
                    return eta(np.clip(w + t * direction, 0.0, 1.0))

                a, b = lo, hi
                c = b - _GOLDEN * (b - a)
                e = a + _GOLDEN * (b - a)
                fc, fe = slide(c), slide(e)
                for _ in range(40):
                    if fc >= fe:
                        b, e, fe = e, c, fc
                        c = b - _GOLDEN * (b - a)
                        fc = slide(c)
                    else:
                        a, c, fc = c, e, fe
                        e = a + _GOLDEN * (b - a)
                        fe = slide(e)
                t = c if fc >= fe else e
                value = max(fc, fe)
                if value > best_eta + 1e-15:
                    best_eta = value
                    w = np.clip(w + t * direction, 0.0, 1.0)
                    w = w / w.sum()

    matrix = combine(w)
    value = core.selected_leading_eigenpair(matrix).value
    return HullPoint(weights=w, matrix=matrix, abscissa=value)


def stabilize_2d_lss(system: SwitchingSystem, *,
                     resolution: int | None = None) -> LSS2DResult:
    """Stabilize a planar switching system under arbitrary switching.

    First replaces each unstable mode by its l-inf closest stable matrix
    (shifted down the diagonal by a small margin, ``_MARGIN``, so the result
    is strictly stable), then repairs remaining unstable hull points: the
    worst point's l-inf repair is distributed over the active modes as
    proportional off-diagonal cuts plus the common diagonal shift, and the
    hull is re-checked. Terminates when the hull maximum is strictly
    negative, and raises after ``_REPAIR_ROUNDS`` rounds; per-mode l-inf
    distances from the input modes are reported in ``mode_taus``.
    """
    if system.dim != 2:
        raise PreconditionError(
            f"hull stability decides switching stability only in dimension 2, "
            f"got dimension {system.dim}")
    d = system.dim
    eye = np.eye(d)
    diag = eye > 0.0
    modes = [m.copy() for m in system.modes]

    def strictify(a: np.ndarray) -> np.ndarray:
        # Boundary results (eta = 0) get pushed strictly inside.
        shift = _MARGIN * max(1.0, core.matrix_norm(a, core.NormKind.INF))
        return a - shift * eye

    for idx, mode in enumerate(modes):
        eta = core.selected_leading_eigenpair(mode).value
        if eta > infnorm.ZERO_TOL:
            modes[idx] = strictify(infnorm.closest_stable_inf_hurwitz(mode).matrix)
        elif eta > -core.STABILITY_TOL:
            modes[idx] = strictify(mode)

    def result(rounds: int, hp: HullPoint) -> LSS2DResult:
        taus = tuple(float(core.matrix_norm(m - orig, core.NormKind.INF))
                     for m, orig in zip(modes, system.modes))
        return LSS2DResult(system=SwitchingSystem(tuple(modes)), mode_taus=taus,
                           iterations=rounds, hull=hp)

    for outer in range(1, _REPAIR_ROUNDS + 1):
        hp = hull_max_abscissa(SwitchingSystem(tuple(modes)), resolution=resolution)
        if hp.abscissa < 0.0:
            return result(outer, hp)
        hull = hp.matrix
        if hp.abscissa > infnorm.ZERO_TOL:
            target = strictify(infnorm.closest_stable_inf_hurwitz(hull).matrix)
        else:
            target = strictify(hull)
        delta = target - hull
        # Off-diagonal entries that the repair lowers shrink by the share of
        # the hull entry it removes; the diagonal takes the shift as it is.
        cut = (hull > 0.0) & (delta < 0.0) & ~diag
        ratio = np.minimum(1.0, np.divide(-delta, hull, out=np.zeros((d, d)), where=cut))
        for idx in np.flatnonzero(hp.weights > _ACTIVE_TOL):
            mode = modes[idx]
            modes[idx] = np.where(diag, mode + delta,
                                  np.where(cut, mode * (1.0 - ratio), mode))
    raise IterationLimitError(
        f"hull repair did not converge in {_REPAIR_ROUNDS} rounds; worst weights "
        f"{np.array2string(hp.weights, precision=6)} with abscissa {hp.abscissa:.6g}",
        best=result(_REPAIR_ROUNDS, hp))


def stabilize_lss_by_signs(system: SwitchingSystem) -> LSSSignResult:
    """Stabilize a switching system structurally, by sign-pattern cuts.

    Overlays the modes' sign patterns, finds the closest weakly stable sign
    matrix to the overlay, and deletes every removed entry from every mode
    containing it (removing it from only some modes would leave the overlay
    unchanged). Works in any dimension; requires strictly negative diagonals
    in every mode. The result records the per-mode l-inf sign budgets, the
    overlay certificate's abscissa, and whether the cut pattern is acyclic
    (strongly sign-stable) rather than only weakly stable.
    """
    offenders = [k for k, m in enumerate(system.modes)
                 if float(np.diag(m).max()) >= 0.0]
    if offenders:
        raise PreconditionError(
            f"sign-route stabilization needs strictly negative diagonals; "
            f"offending modes: {offenders}")

    patterns = [sign_pattern(m) for m in system.modes]
    overlay = SignMatrix(np.sign(sum(p.realize() for p in patterns)).astype(np.int8))
    out = closest_stable_sign(overlay)

    removed = (overlay.entries == 1) & (out.sign_matrix.entries == 0)
    new_modes = []
    budgets = []
    for mode, pattern in zip(system.modes, patterns):
        cut = removed & (pattern.entries == 1)
        new_modes.append(np.where(cut, 0.0, mode))
        budgets.append(int(cut.sum(axis=1).max(initial=0)))

    rebuilt = np.sign(sum(sign_pattern(m).realize() for m in new_modes)).astype(np.int8)
    if not np.array_equal(rebuilt, out.sign_matrix.entries):
        raise AssertionError("overlay of cut modes does not match the stabilized pattern")

    return LSSSignResult(
        system=SwitchingSystem(tuple(new_modes)),
        union_sign=overlay, stable_sign=out.sign_matrix, k_star=out.k_star,
        mode_budgets=tuple(budgets), abscissa=out.abscissa,
        acyclic=is_sign_stable(out.sign_matrix))
