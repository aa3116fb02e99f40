"""Closest unstable / stable matrices in the l-infinity norm (max row l1 mass).

Both regimes are one boundary form: for a Metzler A, lam(A) < level exactly
when (level I - A)^{-1} is nonnegative, and the Hurwitz problems are its
level-0 case. Destabilization has a closed form: the nearest boundary matrix
adds tau* = 1 / max_k y_k to one column, y = (level I - A)^{-1} e, from
core's one level resolvent; y > 0 is itself the certificate of stability
that the closed form requires.

Stabilization minimizes the abscissa (or radius) over the row-wise l1 ball
B_tau(A) by a selective greedy sweep whose row minimizers have a closed form:
sort the support of the leading eigenvector by weight, zero entries in that
order until the budget runs out. Each swept iterate gets one eigen call,
whose value decides whether the ball minimum is stable, on the boundary or
infeasible and whose vector drives the next sweep.
The input's pair, computed once for the precondition, starts every descent;
each ball after the first sweeps the input along the previous probe's final
vector (its own where that sweep moves nothing), so a probe near tau* that
one sweep makes stable costs one eigen call. The descent loop is shared with
the sign ball, and an iterate seen before ends it on the first least-value
iterate seen, so a sweep that flips between two minimizers settles. A sweep
records one pivot per swept row and the pivot's unclamped value, which fix
the formal matrix X = C - tau*R (R marks the pivots); from a stable ball
minimum the Perron root of the same resolvent, (level I - X)^{-1} R, gives
the exact boundary budget along that frozen structure, the outer search's
superlinear jump. The search starts at the radius of a closed-form boundary
matrix, A - (lam - level) I or A*level/rho. After an infeasible probe, or a
jump that fails or lands by tau_lo, it takes the secant through the last two
radii with an objective (value - level), bisecting where it leaves the
bracket.
"""

from __future__ import annotations

import numpy as np

from . import core
from .errors import IterationLimitError, PreconditionError

ZERO_TOL = 1e-8
_FP_RTOL = 1e-12
# Sweep budget of one greedy descent, in the l-inf ball or the sign ball.
_MAX_SWEEPS = 500
# Outer step budget of the stabilizers' tau search, one ball minimum a step.
_MAX_OUTER = 200


def _bump_column(arr: np.ndarray, level: float, failure: str) -> core.DestabilizationResult:
    # Column k, the argmax of y = (level I - A)^{-1} e, bumped by 1 / y_k
    # lands exactly on the boundary lam = level. A positive y is also the
    # certificate lam(A) < level that the closed form requires.
    y = core.level_certificate(arr, level)
    if y is None:
        raise PreconditionError(failure)
    k = int(np.argmax(y))
    tau = 1.0 / float(y[k])
    x = arr.copy()
    x[:, k] += tau
    return core.DestabilizationResult(tau_star=tau, matrix=x, column=k)


def closest_unstable_inf_hurwitz(a) -> core.DestabilizationResult:
    """Closest matrix with eta >= 0 in the l-inf norm, for Hurwitz-stable Metzler A.

    The optimum bumps a single column k (the argmax of y = -A^{-1} e) by
    tau* = 1 / y_k; eta of the result is exactly 0. One solve gives y, and a
    finite, entrywise positive y certifies that A is Hurwitz.
    """
    return _bump_column(core.validate_metzler(a), 0.0,
                        "matrix must be strictly Hurwitz stable")


def closest_unstable_inf_schur(a, *, level: float = 1.0) -> core.DestabilizationResult:
    """Closest matrix with rho >= level in the l-inf norm, for nonnegative A.

    Requires rho(A) < level, with ``level`` finite and positive; bumps
    column k, the argmax of y = (level*I - A)^{-1} e, by 1 / y_k, landing
    exactly on rho = level. One solve gives y, and a finite, entrywise
    positive y certifies rho(A) < level.
    """
    return _bump_column(core._schur_input(a, level), level,
                        f"matrix must satisfy rho(A) < {level}")


def _sorted_support(v: np.ndarray, sup: np.ndarray) -> np.ndarray:
    order = np.lexsort((sup, -v[sup]))  # weight descending, column ascending
    return sup[order]


def _minimize_rows(rows: np.ndarray, cols: np.ndarray, tau: float,
                   stop, clamp: bool):
    """Closed-form minimizers of several rows over their l1-ball slices.

    ``cols`` is the eigenvector support sorted by weight, shared by every row.
    Entries are zeroed in that order; row r's pivot is the first position
    where its cumulative mass exceeds tau, or ``stop[r]`` if that comes
    first. In the Hurwitz regime ``stop`` is the diagonal's position (the
    unbounded diagonal absorbs any leftover budget there) and the pivot keeps
    its mass minus tau; otherwise ``stop`` is the last position and the pivot
    is clamped at zero. Returns (x, pivots, formal), with ``formal`` each
    pivot's unclamped value, its cumulative mass minus tau. The sign ball's
    sweep uses the Schur form on sgn(M) + I. An empty ``cols`` changes nothing.
    """
    cums = np.take(rows, cols, axis=1)
    np.cumsum(cums, axis=1, out=cums)
    # First crossings (a Hurwitz row's cumsum is not monotone); none reads k.
    over = cums > tau
    cross = over.argmax(axis=1) if cols.size else 0
    li = np.minimum(np.where(over.any(axis=1), cross, cols.size), stop)
    pivots = cols[li]
    zero = np.zeros(rows.shape, bool)
    zero[:, cols] = np.arange(cols.size) < li[:, None]
    x = np.where(zero, 0.0, rows)
    at = np.arange(rows.shape[0])
    formal = cums[at, li] - tau
    x[at, pivots] = np.maximum(formal, 0.0) if clamp else formal
    return x, pivots, formal


def ball_row_minimizer(row, v, tau: float, row_index: int, *,
                       schur: bool = False) -> np.ndarray:
    """Minimize <x, v> over the row slice of the l1 ball of radius tau.

    The slice keeps off-diagonal entries nonnegative; the diagonal entry is
    unconstrained in the Hurwitz regime (``schur=False``) and floored at zero
    in the Schur regime. Entries outside the support of v are left at their
    original values (changing them cannot lower the objective). Inputs must
    be finite, with ``row_index`` an integer inside the row.
    """
    base = np.asarray(row, dtype=float).copy()
    w = np.asarray(v, dtype=float)
    if base.ndim != 1 or w.shape != base.shape:
        raise ValueError("row and v must be 1-D arrays of equal length")
    if not (np.isfinite(base).all() and np.isfinite(w).all() and 0.0 <= tau < np.inf):
        raise ValueError("row, v and tau must be finite, and tau nonnegative")
    if not isinstance(row_index, (int, np.integer)):
        raise ValueError(f"row_index must be an integer, got {row_index!r}")
    if not 0 <= row_index < base.size:
        raise ValueError(f"row_index must lie in [0, {base.size}), got {row_index}")
    if float(w.min()) < 0.0:
        raise ValueError("v must be entrywise nonnegative")
    cols = _sorted_support(w, np.flatnonzero(w > 0.0))
    if cols.size == 0:
        return base
    # A Hurwitz row whose diagonal is outside the support has no diagonal
    # stop, and then minimizes exactly like a Schur row.
    diag = np.flatnonzero(cols == row_index)
    free = not schur and diag.size > 0
    stop = diag[0] if free else cols.size - 1
    x, _, _ = _minimize_rows(base[None], cols, tau, stop, clamp=not free)
    return x[0]


def _sweep(base: np.ndarray, x: np.ndarray, v: np.ndarray, tau: float,
           schur: bool):
    # One sweep of the swept rows, the support v > 0 (the selected vector's
    # zeros are exact, so no threshold is needed). Returns the next
    # iterate and its record (rows, pivots, formal): each swept row's pivot
    # column and the pivot's unclamped value. That record is the frozen
    # structure X = C - tau R, with R marking each row's pivot: X equals the
    # output exactly in the Hurwitz regime, while the Schur regime clamps
    # its pivots at zero (rows whose whole support mass fits in the budget).
    cols = _sorted_support(v, np.flatnonzero(v > 0.0))
    # Row cols[p] has its diagonal at position p of cols.
    stop = cols.size - 1 if schur else np.arange(cols.size)
    rows_x, pivots, formal = _minimize_rows(base[cols], cols, tau, stop, clamp=schur)
    x_next = x.copy()
    x_next[cols] = rows_x
    return x_next, (cols, pivots, formal)


def _descend(x: np.ndarray, pair: core.EigenPair, step):
    """Selective greedy descent of the leading eigenvalue from ``x``.

    ``pair`` is the leading pair of ``x``. ``step(x, pair)`` returns the
    next iterate with a record of how it was made, or None where ``x`` is
    final. Each new iterate gets one eigen call. An iterate seen before
    proves a plateau that the steps cycle on, and then the first least-value
    iterate seen is returned. Returns (x, pair, record, values):
    the final iterate, its pair, its step's record (None for the start) and
    the value of every iterate in turn. Raises IterationLimitError after
    ``_MAX_SWEEPS`` steps.
    """
    record, values = None, [pair.value]
    # A repeat has the same value, which gates the (practically exact) hash.
    seen = {(pair.value, hash(x.tobytes()))}
    best = (x, pair, record)
    for _ in range(_MAX_SWEEPS):
        nxt = step(x, pair)
        if nxt is None:
            return x, pair, record, values
        x, record = nxt
        pair = core.selected_leading_eigenpair(x)
        values.append(pair.value)
        key = (pair.value, hash(x.tobytes()))
        if key in seen:
            return (*best, values)
        seen.add(key)
        if pair.value < best[1].value:
            best = (x, pair, record)
    raise IterationLimitError(
        f"greedy descent did not settle in {_MAX_SWEEPS} sweeps", best=best[0])


def _jump_candidate(x: np.ndarray, record, tau: float, level: float) -> float | None:
    # Root of (leading eigenvalue of X - t*R) = level in t, valid while the
    # sweep's structure is frozen; None signals the caller to bisect instead.
    # X is the sweep's output ``x`` with its pivots at their unclamped
    # values. R = S E_J^T for its k distinct pivot columns J, so the nonzero
    # spectrum of (level I - X)^{-1} R is that of the k x k matrix Y[J], for
    # the k-column solve Y = (level I - X)^{-1} S; level 0 is the Hurwitz case.
    rows, pivots, formal = record
    formal_x = x.copy()
    formal_x[rows, pivots] = formal
    cols, slot = np.unique(pivots, return_inverse=True)
    s = np.zeros((x.shape[0], cols.size))
    s[rows, slot] = 1.0
    y = core._level_resolvent(formal_x, level, s)
    if y is None:
        return None
    # Only a proposal, which the next ball minimum verifies: the largest real
    # eigenvalue of the small compression serves, without vector or certificate.
    lam = float(np.linalg.eigvals(np.maximum(y[cols], 0.0)).real.max())
    return tau - 1.0 / lam if lam > 0.0 else None


def _closest_stable_ball(base: np.ndarray, base_pair: core.EigenPair, schur: bool,
                         level: float) -> core.StabilizationResult:
    norm0 = core.matrix_norm(base, core.NormKind.INF)
    base_max = float(np.abs(base).max())
    # A closed-form boundary matrix bounds tau*: A * level/rho or A - (eta - level) I.
    excess = base_pair.value - level
    if schur:
        best = (norm0 * excess / base_pair.value, base * (level / base_pair.value), level)
    else:
        best = (excess, base - excess * np.eye(base.shape[0]), level)
    tau, tau_lo = best[0], 0.0
    known = [(0.0, excess)]  # (tau, value - level) for the secant; B_0(A) = {A}
    trace: list[tuple[float, float]] = []
    carried = base_pair.vector  # the last probe's final vector, first the input's

    def step(x, pair):
        # One sweep over the ball of the current tau, the base's first along
        # the carried vector. A strictly stable iterate ends the ball early,
        # and a fixed point along its own vector is its certified minimum; the
        # base is above level, so a stable iterate has a pivot record behind it.
        if pair.value < level - ZERO_TOL:
            return None
        for v in (carried, pair.vector) if x is base else (pair.vector,):
            x_next, record = _sweep(base, x, v, tau, schur)
            if float(np.abs(x_next - x).max()) > _FP_RTOL * max(1.0, base_max + tau):
                return x_next, record
        return None

    def result(tau, x, value, outer):
        return core.StabilizationResult(tau_star=tau, matrix=x, iterations=outer,
                                        abscissa=value, trace=tuple(trace))

    for outer in range(1, _MAX_OUTER + 1):
        x, pair, record, _ = _descend(base, base_pair, step)
        value, carried = pair.value, pair.vector
        trace.append((tau, value))
        if abs(value - level) <= ZERO_TOL:
            return result(tau, x, value, outer)
        if value < level:
            best = (tau, x, value)
        else:
            tau_lo = tau
        if value > 0.0 or not schur:  # a Schur value of 0 is a floor: no slope
            known.append((tau, value - level))
        width = best[0] - tau_lo
        if width <= 1e-12 * max(1.0, norm0):
            return result(*best, outer)
        tau = _jump_candidate(x, record, tau, level) if value < level else None
        if tau is None or tau <= tau_lo + 1e-3 * width:
            # The secant through the last two known radii, or the midpoint
            # where it leaves the bracket, kept 1e-3 of the width inside it.
            (t1, f1), (t2, f2) = known[-2:] if len(known) > 1 else known * 2
            t = t2 - f2 * (t2 - t1) / (f2 - f1) if f1 != f2 else tau_lo
            t = t if tau_lo < t < best[0] else tau_lo + 0.5 * width
            tau = min(max(t, tau_lo + 1e-3 * width), best[0] - 1e-3 * width)
    raise IterationLimitError(
        f"tau search did not converge in {_MAX_OUTER} outer iterations",
        best=result(*best, _MAX_OUTER))


def closest_stable_inf_hurwitz(a) -> core.StabilizationResult:
    """Closest Hurwitz-stable Metzler matrix in the l-inf norm, for eta(A) > 0.

    Alternates ball-greedy minimization with exact boundary jumps on the
    last sweep's frozen pivots, maintaining an (infeasible, feasible) bracket
    that starts as (0, eta(A)): A - eta(A) I is on the boundary. After an
    infeasible probe, or a jump that fails or lands at tau_lo, a secant step
    on (tau, eta) follows, and bisection where the secant leaves the bracket.
    Completion is accepted when the ball minimum satisfies |eta| <= ZERO_TOL.
    At most ``_MAX_OUTER`` (200) outer steps run, each one ball minimization;
    past them IterationLimitError carries the best stable result found.
    """
    arr = core.validate_metzler(a)
    base_pair = core.selected_leading_eigenpair(arr)
    if base_pair.value <= ZERO_TOL:
        raise PreconditionError(
            f"matrix is already stable or on the boundary (eta={base_pair.value:.3e})")
    return _closest_stable_ball(arr, base_pair, schur=False, level=0.0)


def closest_stable_inf_schur(a, *, allow_metzler: bool = False) -> core.StabilizationResult:
    """Closest matrix with rho <= 1 in the l-inf norm, for nonnegative A, rho(A) > 1.

    With ``allow_metzler=False`` the search stays inside the nonnegative
    matrices. With ``allow_metzler=True`` the constraint relaxes to Metzler
    matrices with spectral abscissa 1: the Hurwitz search, whose diagonal is
    unbounded, run at level 1 on A itself (the result's leading eigenvalue
    is then 1).
    """
    arr = core.validate_nonnegative(a)
    base_pair = core.selected_leading_eigenpair(arr)
    if base_pair.value <= 1.0 + ZERO_TOL:
        raise PreconditionError(
            f"matrix is already Schur stable or on the boundary (rho={base_pair.value:.6g})")
    return _closest_stable_ball(arr, base_pair, schur=not allow_metzler, level=1.0)
