"""Core primitives: Metzler validation, norms, leading eigenpairs, stability tests.

Everything downstream leans on two facts about Metzler matrices: adding h*I
translates the spectrum (so the leading eigenvalue can always be exposed to a
power method by shifting into the nonnegative cone), and for nonnegative
matrices the spectral radius is attained at a real leading eigenvalue with a
nonnegative eigenvector. Reducible matrices are split into their strongly
connected components first, so the power method only ever sees irreducible
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from .errors import IterationLimitError, PreconditionError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 20_000
STABILITY_TOL = 1e-9


class NormKind(str, Enum):
    MAX = "max"
    INF = "inf"
    ONE = "one"


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a validated square float array: nonempty, finite entries.

    A float64 ndarray comes back as itself, not a copy, so callers treat the
    result as read-only and copy before writing; a type that stores the
    array keeps its own copy.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def offdiagonal_min(a: np.ndarray) -> float:
    d = a.shape[0]
    if d == 1:
        return 0.0
    # Past the first entry, each run of d + 1 entries of the flat array holds
    # d off-diagonal entries and then a diagonal one: a strided view, no mask.
    return float(np.ravel(a)[1:].reshape(d - 1, d + 1)[:, :d].min())


def is_metzler(a) -> bool:
    return offdiagonal_min(as_square_matrix(a)) >= 0.0


def validate_metzler(a, name: str = "matrix") -> np.ndarray:
    arr = as_square_matrix(a, name)
    m = offdiagonal_min(arr)
    if m < 0.0:
        raise PreconditionError(f"{name} must be Metzler (off-diagonal >= 0), found {m}")
    return arr


def validate_nonnegative(a, name: str = "matrix") -> np.ndarray:
    arr = as_square_matrix(a, name)
    m = float(arr.min())
    if m < 0.0:
        raise PreconditionError(f"{name} must be entrywise nonnegative, found {m}")
    return arr


def metzlerize(a) -> np.ndarray:
    """Zero out negative off-diagonal entries, keeping the diagonal."""
    arr = as_square_matrix(a)
    out = np.maximum(arr, 0.0)
    np.fill_diagonal(out, np.diag(arr))
    return out


def matrix_norm(a, kind: NormKind | str = NormKind.INF) -> float:
    arr = as_square_matrix(a)
    kind = NormKind(kind)
    if kind is NormKind.MAX:
        return float(np.abs(arr).max())
    if kind is NormKind.INF:
        return float(np.abs(arr).sum(axis=1).max())
    return float(np.abs(arr).sum(axis=0).max())


def translation_shift(a) -> float:
    """Smallest h >= 0 such that A + h*I is entrywise nonnegative (A Metzler)."""
    arr = validate_metzler(a)
    return max(0.0, -float(np.diag(arr).min()))


# How an EigenPair was computed, from the cheapest method to the costliest;
# a reducible result reports the costliest method any of its blocks used.
METHODS = ("diagonal", "power", "certified", "bisect")


@dataclass(frozen=True)
class EigenPair:
    """Leading eigenvalue with its selected nonnegative eigenvector.

    The vector is l1-normalized. ``residual`` is ||A v - value v||_inf,
    reported for the matrix the pair was computed from. ``method`` is one of
    :data:`METHODS` and ``bracket`` is an interval (lo, hi) holding the
    leading eigenvalue; (-inf, inf) when nothing bounds it.
    """

    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    method: str = "power"
    bracket: tuple[float, float] = (-np.inf, np.inf)


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    sign_changes: int


@dataclass(frozen=True)
class DestabilizationResult:
    tau_star: float
    matrix: np.ndarray
    column: int | None = None


@dataclass(frozen=True)
class StabilizationResult:
    """``trace`` holds the (tau, value) probes in evaluation order; ``iterations``
    counts the l-inf solvers' outer steps or the max norm's evaluations."""

    tau_star: float
    matrix: np.ndarray
    iterations: int
    abscissa: float
    trace: tuple = ()


def power_iteration(a, *, max_iter: int = 100) -> PowerIterationResult:
    """Plain (unshifted) power method with a Rayleigh-quotient estimate.

    Starts from the uniform vector and works on arbitrary square matrices.
    It never raises on stagnation: the result carries ``converged`` (to
    ``DEFAULT_TOL``) plus the number of sign-pattern changes observed along
    the iterates. Convergence means the vector sequence settles; a dominant
    negative eigenvalue makes the Rayleigh value settle while the normalized
    iterate keeps flipping sign, and that counts as non-convergence here (it
    is the failure mode the translation removes).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    arr = as_square_matrix(a)
    x = np.ones(arr.shape[0])
    x = x / np.linalg.norm(x)

    lam = 0.0
    lam_prev = np.inf
    resid = np.inf
    sign_changes = 0
    pattern_prev = None
    it = 0
    for it in range(1, max_iter + 1):
        y = arr @ x
        lam = float(x @ y)  # Rayleigh quotient, x has unit 2-norm
        resid = float(np.abs(y - lam * x).max())
        scale = max(1.0, abs(lam))
        pattern = tuple(np.sign(np.where(np.abs(x) <= 1e-12, 0.0, x)).astype(int))
        settled = pattern_prev is not None and pattern == pattern_prev
        if not settled and pattern_prev is not None:
            sign_changes += 1
        pattern_prev = pattern
        if (settled and resid <= DEFAULT_TOL * scale
                and abs(lam - lam_prev) <= DEFAULT_TOL * scale):
            return PowerIterationResult(lam, x, it, resid, True, sign_changes)
        lam_prev = lam
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            # Iterate collapsed (nilpotent direction); report as non-converged.
            return PowerIterationResult(lam, x, it, resid, False, sign_changes)
        x = y / ny
    return PowerIterationResult(lam, x, it, resid, False, sign_changes)


# Irreducible blocks of at most this size get a short power budget and then
# the certified step; larger ones keep the full budget and raise when it runs
# out.
DENSE_FALLBACK_DIM = 64
# Power iterations a block of at most DENSE_FALLBACK_DIM nodes gets before
# the certified step takes over.
_POWER_BUDGET = 30
# From this iteration on, such a block leaves for the certified step once
# geometric decay at its residual's last ratio would miss the threshold.
_RATE_START = 4
# Rounding floor of the power method's residual, in units of eps times the
# shifted value: below it the residual of a converged iterate is noise.
_RESIDUAL_FLOOR_ULPS = 16
_EPS = float(np.finfo(float).eps)


def _reaches_all(pattern: np.ndarray) -> bool:
    # Breadth-first search from node 0 along the rows of ``pattern``.
    seen = np.zeros(pattern.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        new = pattern[frontier].any(axis=0) & ~seen
        seen |= new
        if seen.all():
            return True
        frontier = np.flatnonzero(new)
    return False


def _strong_labels(a):
    # (n_comp, labels, src, dst): csgraph's strong labels of the off-diagonal
    # pattern of ``a`` and the labels at the two ends of each edge, or None
    # when the pattern is one component (see strong_components).
    pattern = np.asarray(a) != 0
    d = pattern.shape[0]
    np.fill_diagonal(pattern, False)  # self-loops join no components
    if d == 1 or (pattern.any(axis=1).all() and pattern.any(axis=0).all()
                  and _reaches_all(pattern) and _reaches_all(pattern.T)):
        return None
    rows, cols = np.nonzero(pattern)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=d)))).astype(np.int32)
    # Float data and int32 indices, csgraph's own types: it copies any other.
    graph = sp.csr_matrix((np.ones(rows.size), cols.astype(np.int32), indptr), shape=(d, d))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    return n_comp, labels, labels[rows], labels[cols]


def _level_order(n_comp: int, src: np.ndarray, dst: np.ndarray) -> list[int]:
    # Labels placed level by level: next come the components whose targets
    # are all placed, ties by label.
    points = np.zeros((n_comp, n_comp), dtype=bool)
    points[src, dst] = True
    np.fill_diagonal(points, False)  # edges inside a component
    pending = points.sum(axis=1)
    order: list[int] = []
    ready = np.flatnonzero(pending == 0)
    while ready.size:
        order += ready.tolist()
        pending[ready] = -1  # placed: never zero again
        pending -= points[:, ready].sum(axis=1)
        ready = np.flatnonzero(pending == 0)
    return order


def _split(labels: np.ndarray) -> list[np.ndarray]:
    # The nodes of each label, ascending, in label order: one stable argsort.
    perm = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [perm[i:j] for i, j in zip([0] + ends[:-1], ends)]


def _components(a) -> tuple[np.ndarray, ...]:
    # The components of strong_components in csgraph's label order, which
    # places each after every component it points to. csgraph does not
    # document that, so one pass over the edges checks it, and the level
    # order serves when it fails. The eigen path needs no canonical order.
    cond = _strong_labels(a)
    if cond is None:
        return (np.arange(np.shape(a)[0]),)
    n_comp, labels, src, dst = cond
    blocks = _split(labels)
    if not (dst <= src).all():
        blocks = [blocks[c] for c in _level_order(n_comp, src, dst)]
    return tuple(blocks)


def strong_components(a) -> tuple[np.ndarray, ...]:
    """Strongly connected components of the off-diagonal pattern of ``a``.

    Node i points to node j when ``a[i, j]`` is nonzero and i != j. Each
    component is an ascending index array, and each comes after every
    component it points to, so a system in ``a`` can be solved component by
    component in the returned order. The order is canonical: level by level,
    the components whose targets are all placed come next, ties by the
    component's csgraph label. A pattern in which node 0 reaches every node
    and every node reaches node 0 is one component, proved by two
    breadth-first searches without building a graph; the searches are
    skipped when some node has no off-diagonal entry in its row or column.
    """
    cond = _strong_labels(a)
    if cond is None:
        return (np.arange(np.shape(a)[0]),)
    n_comp, labels, src, dst = cond
    blocks = _split(labels)
    return tuple(blocks[c] for c in _level_order(n_comp, src, dst))


# An overflow in the shift or a sum is an inf that ends the power loop, and
# the certified step raises PreconditionError on an inf bound: no warning.
@np.errstate(over="ignore")
def _perron_pair(block: np.ndarray, tol: float, max_iter: int) -> EigenPair:
    # Translative power method on an irreducible Metzler block: iterate
    # A + (h + 0.1m)I from the uniform vector, h making the block nonnegative
    # and m the largest entry of A + hI. The positive diagonal rules out
    # periodicity; a shift in the block's own units keeps the convergence
    # ratio independent of its scale (an absolute +1 gives about 0.99 on
    # entries near 1e-3).
    d = block.shape[0]
    certify = d <= DENSE_FALLBACK_DIM
    budget = min(max_iter, _POWER_BUDGET) if certify else max_iter
    diag = block.diagonal()
    h = max(0.0, -float(diag.min()))
    shift = h + 0.1 * max(float(block.max()), float(diag.max()) + h)
    shifted = block.copy()
    shifted.flat[:: d + 1] += shift

    x = np.full(d, 1.0 / d)
    lam = 0.0
    lam_prev = np.inf
    resid = resid_prev = np.inf
    floor = _RESIDUAL_FLOOR_ULPS * _EPS
    it = 0
    for it in range(1, budget + 1):
        y = shifted @ x
        lam = float(y.sum())  # x sums to one, so this is the Rayleigh value
        if not 0.0 < lam < np.inf:
            # Subnormal weights underflow the shift and the product: y / lam
            # would be no iterate, and every further one NaN.
            break
        resid = float(np.abs(y - lam * x).max())
        # Rounding keeps the residual near eps * lam, which exceeds tol once
        # lam passes about tol / (16 eps), some 280 at the default tol.
        stop = max(tol, floor * lam)
        if resid <= stop and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return EigenPair(lam - shift, x, it, resid, "power",
                             _collatz_wielandt(x, y, shift))
        if certify and it >= _RATE_START and (
                resid >= resid_prev or resid * (resid / resid_prev) ** (budget - it) > stop):
            break
        lam_prev, resid_prev = lam, resid
        x = y / lam
    if certify:
        return _certified_pair(block, tol, it)
    best = EigenPair(lam - shift, x, it, resid)
    raise IterationLimitError(
        f"power iteration on a {d}-node irreducible block did not reach "
        f"tol={tol} in {it} iterations (residual {resid:.3e})", best=best)


def _collatz_wielandt(x: np.ndarray, y: np.ndarray,
                      shift: float) -> tuple[float, float]:
    # For a nonnegative irreducible S and y = S x with x > 0, the Perron root
    # lies between the least and the largest ratio y_i / x_i. The pad covers
    # the rounding of the d-term sums in y and of the shift. An entry of x
    # that underflowed to zero leaves nothing proved.
    if not x.min() > 0.0:
        return -np.inf, np.inf
    ratios = y / x
    lo, hi = float(ratios.min()), float(ratios.max())
    pad = (x.size + 2) * _EPS * max(hi, shift)
    return lo - shift - pad, hi - shift + pad


def _certified_pair(block: np.ndarray, tol: float, iterations: int) -> EigenPair:
    # For a Metzler B, tI - B has a nonnegative inverse exactly when t
    # exceeds the leading eigenvalue lam (Berman & Plemmons, ch. 6), so a
    # positive solution of (tI - B) y = 1 proves lam < t and its absence
    # proves lam >= t. Two such tests around the dense value prove it to
    # within tol; if either fails, bisection on the same test finds lam.
    value = float(np.linalg.eigvals(block).real.max())
    width = tol * max(1.0, abs(value))
    lo, hi = value - width, value + width
    y = level_certificate(block, hi)
    y_lo = None if y is None else level_certificate(block, lo)
    method = "certified"
    if y is None or y_lo is not None:
        method = "bisect"
        if y is None:  # lam >= hi, and at most the largest row sum
            lo, hi = hi, float(block.sum(axis=1).max()) + width
            y, step = level_certificate(block, hi), width
            while y is None:  # only rounding fails above the row-sum bound
                if not np.isfinite(hi):
                    raise PreconditionError(f"the leading eigenvalue of a {block.shape[0]}"
                                            "-node block overflows")
                lo, hi, step = hi, hi + step, 2.0 * step
                y = level_certificate(block, hi)
        else:  # lam < lo, and at least the largest diagonal entry
            lo, hi, y = float(block.diagonal().max()), lo, y_lo
        # Halve down to rounding: the two ends are adjacent floats, or the
        # width is eps in the units of max(1, |lam|).
        while hi - lo > _EPS * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            y_mid = level_certificate(block, mid)
            if y_mid is None:
                lo = mid
            else:
                hi, y = mid, y_mid
        value = 0.5 * (lo + hi)
    v = y / y.sum()
    resid = float(np.abs(block @ v - value * v).max())
    return EigenPair(value, v, iterations, resid, method, (lo, hi))


def _left_perron(block: np.ndarray, value: float, u: np.ndarray) -> np.ndarray:
    # Left Perron vector w of an irreducible block, scaled so that w.u = 1:
    # the null vector of (value I - B)^T. The rank-one term u u^T makes the
    # system regular while u and w are positive.
    w = _level_resolvent(block.T - np.outer(u, u), value, u)
    if w is None or not w @ u > 0.0:
        # u u^T is out of the block's units (singular far from scale 1, zero near
        # underflow): w = u still gives an eigenvector, if not the selected one.
        w = u
    return w / (w @ u)


def _reducible_pair(arr: np.ndarray, blocks, tol: float, max_iter: int) -> EigenPair:
    # Solve (tI - A) x(t) = 1 for every node's pole order p and leading
    # coefficient c of x_i(t) ~ c (t - lam)^-p as t falls to lam, one order
    # at a time. The nodes of highest order carry the limit direction.
    d = arr.shape[0]
    # A single node's value is its exact diagonal entry, read off at once.
    values = arr.diagonal()[[nodes[0] for nodes in blocks]]
    lows, highs = values.copy(), values.copy()
    subs = {k: arr[nodes[:, None], nodes] for k, nodes in enumerate(blocks) if nodes.size > 1}
    pairs = {k: _perron_pair(sub, tol, max_iter) for k, sub in subs.items()}
    for k, pair in pairs.items():
        values[k], (lows[k], highs[k]) = pair.value, pair.bracket
    lam = float(values.max())  # the largest block bounds bracket it
    critical = lam - values <= tol * max(1.0, abs(lam))
    left = {k: _left_perron(subs[k], values[k], pairs[k].vector) for k in pairs if critical[k]}
    for k, w in left.items():
        # Two-sided Rayleigh quotient: its error, the product of the errors
        # of u and w, is well below the block value's; the bracket is proved.
        values[k] = min(max(w @ subs[k] @ pairs[k].vector, lows[k]), highs[k])
    lam = float(values[critical].max())

    # Pole orders from the pattern alone: a block's is the largest it points
    # to (its own nodes and later blocks read 0), plus one if critical. Nodes
    # keep key = 2 order + critical; every order >= 1 has a critical block.
    pattern = arr != 0.0
    node_key = np.zeros(d, dtype=np.intp)
    for k, nodes in enumerate(blocks):
        inflow = pattern[nodes].any(axis=0) if nodes.size > 1 else pattern[nodes[0]]
        order = node_key[inflow].max(initial=0) // 2 + critical[k]
        node_key[nodes] = 2 * order + critical[k]

    # The coefficients, order by order (see selected_leading_eigenpair), over
    # the nodes sorted by key, non-critical N before critical C, each in
    # reverse block order: (lam I - A)[N, N] is block upper triangular.
    nodes = np.concatenate(blocks[::-1])
    sort = np.argsort(node_key[nodes], kind="stable")
    nodes = nodes[sort]
    bounds = [0] + np.cumsum(np.bincount(node_key)).tolist()
    dense = {node_key[blocks[k][0]] for k in pairs if not critical[k]}  # N not triangular
    coef, one = np.zeros(d), 1.0  # one: the 1 of (tI - A) x = 1 in order 0's units
    for q in range(len(bounds) // 2):
        lo, mid, hi = bounds[2 * q: 2 * q + 3]
        if q:
            c_nodes, prev = nodes[mid:hi], nodes[bounds[2 * q - 2]:lo]
            coef[c_nodes] = arr[c_nodes[:, None], prev] @ coef[prev] + (one if q == 1 else 0.0)
            for k in [k for k in left if node_key[blocks[k][0]] == 2 * q + 1]:
                coef[blocks[k]] = (left[k] @ coef[blocks[k]]) * pairs[k].vector
            peak = coef[c_nodes].max()
            if not 2.0**-500 < peak < 2.0**500:
                coef[c_nodes] = np.ldexp(coef[c_nodes], -np.frexp(peak)[1])
        parts = [(lo, mid)] if mid > lo else []
        while parts:
            i, j = parts.pop()
            part, known = nodes[i:j], nodes[j:hi]
            rhs = (arr[part[:, None], known] @ coef[known] + (one if q == 0 else 0.0)
                   if known.size else np.full(j - i, one))
            m = -arr[part[:, None], part]
            m.flat[:: j - i + 1] += lam  # (lam I - A)[part, part]
            x, info = (lapack.dgesv if 2 * q in dense else lapack.dtrtrs)(m, rhs)[-2:]
            coef[part] = np.nan if info else x  # info: a pivot rounded to zero
            peak = np.nan if info else x.max()
            if not 2.0**-500 < peak < 2.0**500:
                peak = coef[nodes[i:hi]].max()  # the order so far
            if not 2.0**-500 < peak < 2.0**500:
                label = np.repeat(np.arange(len(blocks)), [b.size for b in blocks[::-1]])
                ends = i + 1 + np.flatnonzero(np.diff(label[sort[i:j]]))
                if ends.size:
                    cut = int(ends[ends.size // 2])
                    parts += [(i, cut), (cut, j)]
                    continue
                shift = -int(np.frexp(peak)[1])
                coef[nodes[i:hi]] = np.ldexp(coef[nodes[i:hi]], shift)
                one = np.ldexp(one, shift) if q == 0 else one
    coef[nodes[:bounds[-3]]] = 0.0  # all but the top order
    v = coef / coef.sum()
    resid = float(np.abs(arr @ v - lam * v).max())
    method = max(["diagonal"] + [pair.method for pair in pairs.values()], key=METHODS.index)
    return EigenPair(lam, v, sum(pair.iterations for pair in pairs.values()), resid,
                     method, (float(lows.max()), float(highs.max())))


def selected_leading_eigenpair(a, *, tol: float = DEFAULT_TOL,
                               max_iter: int = DEFAULT_MAX_ITER) -> EigenPair:
    """Leading eigenvalue of a Metzler matrix with its selected eigenvector.

    This is the package's one eigen entry point: every eigen call of the
    solvers, the spectral abscissa and radius, and the ``eig`` command come
    through it. The selected vector is the limit of the normalized
    (tI - A)^{-1} 1 as t falls to the leading eigenvalue lam, which is also
    where the power method from the uniform vector goes. An irreducible
    matrix runs the translative power method on A + (h + 0.1m)I, with h the
    shift that makes A nonnegative and m the largest entry of A + hI, so the
    shift scales with A and the convergence ratio does not depend on its
    units. A reducible one is split into its strongly connected components,
    each placed after every component it points to: lam is the largest block
    value (a single node's diagonal entry, or an irreducible block's power
    or certified value). A block is *critical* when lam minus its value is
    at most ``tol * max(1, |lam|)``; its value is then refined to w.Bu / w.u
    for its right and left Perron vectors u and w. The vector follows
    exactly from each node's pole order in (tI - A)^{-1} 1 at lam (the most
    critical blocks on a path from it) and leading coefficient, one order at
    a time: a critical block turns its inflow r from the order below into
    (w.r / w.u) u (r for a single node), and one solve of
    (lam I - A)[N, N] c = A[N, C] c_C (+ 1 at order 0) gives the order's
    other nodes N from its critical ones C. In reverse block order that
    matrix is block upper triangular (triangular for single nodes), so the
    LU pivots only inside a block and the substitution adds nonnegative
    terms. Each order has its own power-of-two scale; a solve whose peak
    leaves [2^-500, 2^500] is redone in two halves split at a block
    boundary, so long chains of large or small entries stay in range.

    ``tol`` is the power method's threshold on the relative change of the
    value and on the residual ||B v - value v||_inf, and the criticality
    threshold; the residual test is floored at 16 eps times the shifted
    value, the rounding level of the product. ``max_iter`` caps the power
    iterations of each irreducible block; a block above
    ``DENSE_FALLBACK_DIM`` (64) nodes spends all of them and then raises
    IterationLimitError carrying its best pair. A smaller block gets at most
    ``min(max_iter, 30)``, fewer when from the fourth on the residual at its
    last ratio would not meet the test in time, and then the *certified
    step*: lam is the largest real part from ``eigvals``, proved to
    ``tol * max(1, |lam|)`` by two M-matrix solves (for a Metzler B, tI - B
    has a nonnegative inverse exactly when t exceeds its leading
    eigenvalue), or, if either test fails, bisected on the same test down to
    rounding. The vector is the normalized (hi I - B)^{-1} 1 of the last
    solve at the upper end hi, the definition of the selected vector. A
    ``tol`` that is not positive or a ``max_iter`` below 1 raises ValueError,
    and a block value that overflows the float range PreconditionError.

    The result's ``method`` says how its value was found ("diagonal",
    "power", "certified" or "bisect"; for a reducible matrix the costliest
    one any block used), and ``bracket`` bounds the leading eigenvalue: the
    proved interval of a certified or bisected block, the Collatz-Wielandt
    ratios of the last power iterate, or the diagonal entry itself; a
    critical block's refined value stays inside it. ``iterations`` sums the
    power iterations of all blocks; ``residual`` is measured against A.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    arr = validate_metzler(a)
    blocks = _components(arr)
    if len(blocks) == 1 and arr.shape[0] > 1:
        return _perron_pair(arr, tol, max_iter)
    return _reducible_pair(arr, blocks, tol, max_iter)


def spectral_abscissa(a, *, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest real part of the spectrum of a Metzler matrix."""
    return selected_leading_eigenpair(a, tol=tol, max_iter=max_iter).value


def spectral_radius(a, *, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Spectral radius of a nonnegative matrix (its leading eigenvalue)."""
    arr = validate_nonnegative(a)
    return selected_leading_eigenpair(arr, tol=tol, max_iter=max_iter).value


_NEG_GUARD = 1e-7  # relative to the largest entry: see _level_resolvent


def _level_resolvent(a: np.ndarray, level: float, rhs: np.ndarray) -> np.ndarray | None:
    # (level I - A)^{-1} rhs, or None when level I - A is singular, the
    # solution is not finite or it has an entry below -_NEG_GUARD times its
    # largest one, which rounding alone gives at no scale. For a Metzler A
    # and rhs >= 0 the solution is nonnegative when lam(A) < level, as
    # (level I - A)^{-1} is then (Berman & Plemmons, ch. 6).
    m = -a  # level I - A, without the d x d identity
    m.flat[:: a.shape[0] + 1] += level
    try:
        y = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(y).all() or y.min() < -_NEG_GUARD * y.max():
        return None
    return y


def level_certificate(a: np.ndarray, level: float) -> np.ndarray | None:
    """y = (level*I - A)^{-1} 1 when it is finite and entrywise positive, else None.

    For a Metzler A, level*I - A has a nonnegative inverse, with row sums y,
    exactly when lam(A) < level (Berman & Plemmons, ch. 6): at level 0 a
    positive y certifies that A is Hurwitz, and for a nonnegative A that
    rho(A) < level. One LU solve, the package's one resolvent, gives the
    closed-form destabilizers their precondition and their answer.
    """
    y = _level_resolvent(a, level, np.ones(a.shape[0]))
    return y if y is not None and y.min() > 0.0 else None


def _schur_input(a, level: float) -> np.ndarray:
    # A Schur function's validated nonnegative input at a finite, positive level.
    arr = validate_nonnegative(a)
    if not (np.isfinite(level) and level > 0.0):
        raise PreconditionError(f"level must be finite and positive, got {level}")
    return arr


def is_hurwitz_stable(a) -> bool:
    """Hurwitz stability test for Metzler matrices: lam(A) < 0.

    A Metzler A is Hurwitz iff -A y = 1 has an entrywise positive solution
    y (then -A^{-1} is nonnegative and y is its row sums).
    """
    return level_certificate(validate_metzler(a), 0.0) is not None


def is_schur_stable(a, *, level: float = 1.0) -> bool:
    """Schur stability test for nonnegative matrices: rho(A) < level.

    Checks that (level*I - A) y = 1 has an entrywise positive solution y,
    which holds iff level*I - A has a nonnegative inverse. ``level`` must
    be finite and positive.
    """
    return level_certificate(_schur_input(a, level), level) is not None

