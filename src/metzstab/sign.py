"""Sign-stability of Metzler sign matrices and closest stable sign patterns.

A sign matrix has entries in {-, 0, +}. For a Metzler sign pattern, strong
sign-stability (every realization Hurwitz) is equivalent to: all diagonal
entries are - and the directed graph of + off-diagonal entries is acyclic.
Weak sign-stability asks eta(sgn(M)) <= 0, where sgn(M) is the +-1/0/-1
realization; both are decidable from the realization's abscissa because it
majorizes every normalized realization row-wise.

Distances between sign matrices use the l-inf metric on realizations, which
counts unit reductions per row. Shifted by the identity, sgn(M) + I is
entrywise nonnegative (a + diagonal holds two units, a 0 diagonal one), and
the radius-k sign ball is the l-inf ball of radius k around it with every
entry floored at zero. Its row optimizer is therefore the l-inf ball's
closed-form row minimizer, which takes the k best unit gains, and the
abscissa-minimizing pattern is found by the same eigenvector-guided sweep
as the numeric modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, infnorm
from .errors import PreconditionError

# Relative width, in units of max(v), within which two gains count as tied.
_TIE_RTOL = 1e-12
# A ball sweep changes a row only when its score drops by more than this.
_IMPROVE_TOL = 1e-12


@dataclass(frozen=True)
class SignMatrix:
    """Square matrix over {-1, 0, +1} stored as int8."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"sign matrix must be square and nonempty, got {arr.shape}")
        if not np.isin(arr, (-1, 0, 1)).all():
            raise ValueError("sign matrix entries must be -1, 0 or +1")
        object.__setattr__(self, "entries", arr.astype(np.int8))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_metzler_pattern(self) -> bool:
        return core.offdiagonal_min(self.entries.astype(float)) >= 0.0

    def realize(self) -> np.ndarray:
        return self.entries.astype(float)


@dataclass(frozen=True)
class SignBallOutcome:
    """``trace`` holds one (sweep, abscissa) pair per iterate, sweep 0 being
    the start, and ``iterations`` counts these iterates."""

    sign_matrix: SignMatrix
    abscissa: float
    iterations: int
    eigenvector: np.ndarray
    trace: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class ClosestSignOutcome:
    """``trace`` holds one (k, ball minimum) pair per radius evaluated, in order."""

    sign_matrix: SignMatrix
    k_star: int
    abscissa: float
    trace: tuple[tuple[int, float], ...] = ()


def sign_pattern(a) -> SignMatrix:
    """Entrywise sign of a numeric matrix."""
    return SignMatrix(np.sign(core.as_square_matrix(a)).astype(np.int8))


def _require_metzler_pattern(m: SignMatrix) -> SignMatrix:
    if not m.is_metzler_pattern():
        raise PreconditionError("sign matrix must have a Metzler pattern (no - off-diagonal)")
    return m


def is_sign_stable(m: SignMatrix) -> bool:
    """Strong sign-stability test for a Metzler sign pattern.

    Decided combinatorially: all diagonal entries - and the + off-diagonal
    graph acyclic.
    """
    _require_metzler_pattern(m)
    e = m.entries
    # The + graph is acyclic exactly when every strong component is one node.
    return (int(np.diag(e).max()) < 0
            and len(core.strong_components(e > 0)) == m.dim)


def _ranked_support(v: np.ndarray) -> np.ndarray:
    # Columns with a positive gain, weight descending. A gain within
    # _TIE_RTOL * max(v) of the first gain of its run is tied with it
    # (eigensolver noise in the last ulps), and tied gains go higher column
    # first.
    sup = np.flatnonzero(v > 0.0)
    sup = sup[np.argsort(-v[sup], kind="stable")]
    tie = _TIE_RTOL * float(v.max())
    run, lead, runs = -1, np.inf, []
    for gain in v[sup]:
        if gain < lead - tie:
            run, lead = run + 1, gain
        runs.append(run)
    return sup[np.lexsort((-sup, runs))]


def sign_ball_minimize(m: SignMatrix, k: int) -> SignBallOutcome:
    """Minimize eta(sgn(X)) over sign matrices within l-inf distance k of M.

    Greedy sweeps guided by the selected leading eigenvector v of the current
    realization. A sweep's candidate rows are the l-inf ball's row minimizers
    on sgn(M) + I with budget k, which zero entries in the order of
    ``_ranked_support(v)``; a row changes only on strict score improvement,
    and a full no-change sweep certifies the minimum over the ball.
    Degenerate iterates can tie rows exactly, and eigensolver noise then
    flips them back and forth; the descent's revisit rule ends such a
    plateau with the best state seen (states in the ball are finite, so this
    always terminates).
    """
    _require_metzler_pattern(m)
    if k < 0:
        raise PreconditionError(f"ball radius must be nonnegative, got {k}")
    if k < np.inf and k % 1:
        raise PreconditionError(f"ball radius k must be a whole number, got {k}")
    return _sign_ball(m, k, core.selected_leading_eigenpair(m.realize()))


def _sign_ball(m: SignMatrix, k: int, pair: core.EigenPair) -> SignBallOutcome:
    # ``pair`` is the leading pair of sgn(M), where the descent starts.
    # Unit reductions of sgn(M) + I within l1 distance k, row by row.
    start = m.realize()
    eye = np.eye(m.dim)
    base = start + eye

    def step(x, pair):
        v = pair.vector
        cols = _ranked_support(v)
        rows, _, _ = infnorm._minimize_rows(base, cols, float(k), cols.size - 1,
                                            clamp=True)
        rows -= eye
        take = (x - rows) @ v > _IMPROVE_TOL
        if not take.any():
            return None
        return np.where(take[:, None], rows, x), None

    x, pair, _, values = infnorm._descend(start, pair, step, core.DEFAULT_TOL)
    return SignBallOutcome(
        sign_matrix=SignMatrix(x), abscissa=pair.value, iterations=len(values),
        eigenvector=pair.vector, trace=tuple(enumerate(values)))


def closest_stable_sign(m: SignMatrix) -> ClosestSignOutcome:
    """Smallest k whose radius-k sign ball around M contains a weakly stable pattern.

    Weakly stable means eta <= STABILITY_TOL. Integer bisection on k in
    [0, ||sgn(M)||_inf] is exact: each radius's descent ends at its ball's
    minimum, the balls are nested, so the minimized eta is nonincreasing in
    k, and at k = ||sgn(M)||_inf the ball holds a diagonal pattern with
    entries in {0, -1}, whose eta is <= 0.
    """
    _require_metzler_pattern(m)
    pair = core.selected_leading_eigenpair(m.realize())
    eta0 = pair.value
    if eta0 <= core.STABILITY_TOL:
        return ClosestSignOutcome(sign_matrix=m, k_star=0, abscissa=eta0,
                                  trace=((0, eta0),))

    # Bisection never probes a radius twice: ``balls`` holds every probe, in order.
    # Every ball starts along sgn(M)'s own pair: bisection jumps between radii, and
    # a first sweep along the last probe's vector raised the eigen calls of the
    # 40-round seed-7 and seed-11 reducible-small sign decks from 453 to 481.
    balls: dict[int, SignBallOutcome] = {}
    k_lo, k_hi = 0, int(core.matrix_norm(m.realize(), core.NormKind.INF))
    while k_hi - k_lo > 1:
        k = (k_lo + k_hi) // 2
        balls[k] = _sign_ball(m, k, pair)
        if balls[k].abscissa <= core.STABILITY_TOL:
            k_hi = k
        else:
            k_lo = k
    if k_hi not in balls:
        balls[k_hi] = _sign_ball(m, k_hi, pair)
    out = balls[k_hi]
    return ClosestSignOutcome(sign_matrix=out.sign_matrix, k_star=k_hi, abscissa=out.abscissa,
                              trace=tuple((k, b.abscissa) for k, b in balls.items()))
