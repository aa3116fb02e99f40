"""Closest unstable / stable Metzler matrices in the max norm (largest entry).

Destabilization of a Hurwitz-stable A has the closed form tau* =
1 / sum(-A^{-1}) = 1 / sum(y) with y = -A^{-1} e, reached by the uniform
perturbation A + tau*ones; one solve gives y, and y > 0 certifies that A
is Hurwitz.
Stabilization of an unstable A searches over the clamp family
A(tau) = (A - tau*ones) clamped to keep off-diagonal entries nonnegative:
A(tau) is piecewise linear in tau with breakpoints at the distinct positive
entries of A, and eta(A(tau)) falls strictly, with slope at most -1, so one
pair of adjacent breakpoints brackets the stability boundary. False position
on the breakpoint grid finds that pair, and inside it the exact crossing
follows from the Perron root of core's level resolvent, as the l-inf jump's.
"""

from __future__ import annotations

import numpy as np

from . import core
from .errors import PreconditionError

ZERO_TOL = 1e-12


def _clamp(arr: np.ndarray, tau: float) -> np.ndarray:
    # clamp_shift of an already validated Metzler array.
    out = np.maximum(arr - tau, 0.0)
    np.fill_diagonal(out, np.diag(arr) - tau)
    return out


def clamp_shift(a, tau: float) -> np.ndarray:
    """Subtract a finite tau from every entry, clamping off-diagonal entries at zero."""
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    return _clamp(core.validate_metzler(a), tau)


def closest_unstable_max(a) -> core.DestabilizationResult:
    """Closest matrix with eta >= 0 in the max norm, for Hurwitz-stable Metzler A.

    Returns tau* = 1 / sum(y), y = -A^{-1} e, and X = A + tau* (added to
    every entry); eta(X) = 0. sum(y) is the entrywise l1 mass of A^{-1}, and
    a finite, entrywise positive y certifies that A is Hurwitz.
    """
    arr = core.validate_metzler(a)
    y = core.level_certificate(arr, 0.0)
    if y is None:
        raise PreconditionError("matrix must be strictly Hurwitz stable")
    tau = 1.0 / float(y.sum())
    return core.DestabilizationResult(tau_star=tau, matrix=arr + tau)


def closest_stable_max(a) -> core.StabilizationResult:
    """Closest Hurwitz-stable Metzler matrix in the max norm, for eta(A) > 0.

    Searches the breakpoint grid {0} U {distinct positive entries of A} for
    the sign change of eta(A(tau)) by false position (see the loop), then
    resolves the exact crossing inside the bracketing linear piece: with
    H = (A(tau1) - A(tau2)) / (tau2 - tau1), tau* = tau2 - 1 / rho(M) for
    the resolvent M = -A(tau2)^{-1} H. If the largest diagonal entry is also
    the largest entry overall, the boundary sits exactly there, at the top
    breakpoint. ``trace`` holds every (tau, eta) evaluated, the input's
    first; ``iterations`` counts the evaluations after the input's.
    """
    arr = core.validate_metzler(a)
    eta0 = core.spectral_abscissa(arr)
    if eta0 <= ZERO_TOL:
        raise PreconditionError(f"matrix is already stable or on the boundary (eta={eta0:.3e})")

    trace: list[tuple[float, float]] = [(0.0, eta0)]

    diag_max = float(np.diag(arr).max())
    grid = np.unique(arr[arr > 0.0])
    grid = np.concatenate(([0.0], grid))
    lo, hi = 0, len(grid) - 1

    def eta_at(tau: float):
        x = _clamp(arr, tau)
        value = core.spectral_abscissa(x)
        trace.append((tau, value))
        return x, value

    def result(tau: float, x: np.ndarray, value: float) -> core.StabilizationResult:
        return core.StabilizationResult(tau_star=tau, matrix=x, iterations=len(trace) - 1,
                                        abscissa=value, trace=tuple(trace))

    # All off-diagonal mass is clamped away at the top breakpoint, the
    # largest entry, so A(tau) there is diagonal and its abscissa is
    # diag_max - tau <= 0: a sign change exists on the grid, and when the
    # largest entry sits on the diagonal the boundary is exactly there.
    # Subtracting tau keeps the order of the diagonal entries, so this is
    # bitwise the value an eigen call on A(tau) returns; it counts as an
    # evaluation.
    eta_hi = diag_max - float(grid[hi])
    trace.append((float(grid[hi]), eta_hi))
    if abs(eta_hi) <= ZERO_TOL:
        return result(float(grid[hi]), _clamp(arr, float(grid[hi])), eta_hi)
    # False position on the bracket's ends, snapped to the grid strictly
    # inside the bracket. eta falls with slope at most -1, so the crossing
    # lies in [tau_hi + eta_hi, tau_lo + eta_lo], where the chord is clipped.
    # Illinois: an end kept twice in a row has its weight in the chord
    # halved, so the chord cannot stall against it. After as many steps as
    # bisection would take, ceil(log2(hi - lo)), the steps are index
    # midpoints, so no input takes more than twice bisection's steps.
    eta_lo, w_lo, w_hi = eta0, 1.0, 1.0
    moved = 0  # +1 after lo moved, -1 after hi moved
    budget = len(trace) + (hi - 1).bit_length()
    while hi - lo > 1:
        if len(trace) < budget:
            f_lo, f_hi = w_lo * eta_lo, w_hi * eta_hi
            chord = grid[lo] + f_lo * (grid[hi] - grid[lo]) / (f_lo - f_hi)
            chord = min(max(chord, grid[hi] + eta_hi), grid[lo] + eta_lo)
            mid = min(max(int(np.searchsorted(grid, chord)), lo + 1), hi - 1)
        else:
            mid = (lo + hi) // 2
        x, value = eta_at(float(grid[mid]))
        if abs(value) <= ZERO_TOL:
            return result(float(grid[mid]), x, value)
        if value > 0.0:
            if moved > 0:
                w_hi *= 0.5
            lo, eta_lo, w_lo, moved = mid, value, 1.0, 1
        else:
            if moved < 0:
                w_lo *= 0.5
            hi, eta_hi, w_hi, moved = mid, value, 1.0, -1

    tau1, tau2 = float(grid[lo]), float(grid[hi])
    a2 = _clamp(arr, tau2)
    h = (_clamp(arr, tau1) - a2) / (tau2 - tau1)
    m = core._level_resolvent(a2, 0.0, h)  # -A(tau2)^{-1} H
    if m is None:
        # A(tau2) is stable, so a singular one (to working precision) has eta
        # = 0: the breakpoint is the crossing, which the eigen value missed by
        # rounding. This eigen call does not count as an evaluation.
        return result(tau2, a2, core.spectral_abscissa(a2))
    # m >= 0 up to rounding, and rho > 0: -A(tau2)^{-1} has a positive diagonal, H >= I.
    rho = core.spectral_radius(np.maximum(m, 0.0))
    tau = tau2 - 1.0 / rho
    return result(tau, *eta_at(tau))
