"""Independent reference computations used to check the package's algorithms.

Nothing in this module calls the package. Eigenvalues come from numpy's QR
solver, row minimization from scipy's HiGHS LP, and optima over finite
families from brute-force enumeration, so agreement with the package is
evidence rather than tautology. The one exception takes the package's eigen
functions as arguments: ``clamp_grid_bisection`` fixes a search rule, not
the values it searches.
"""

import itertools

import numpy as np
from scipy.optimize import linprog

_CHUNK = 4096


def abscissa(a) -> float:
    return float(np.linalg.eigvals(a).real.max())


def radius(a) -> float:
    return float(np.abs(np.linalg.eigvals(a)).max())


def abscissa_stack(stack: np.ndarray) -> np.ndarray:
    """Spectral abscissa of each matrix in an (n, d, d) stack."""
    return np.linalg.eigvals(stack).real.max(axis=1)


def family_vertex_optimum(row_menus, direction: str):
    """Exhaustive scan of every row-choice combination.

    ``row_menus`` is a list of (m_i, d) arrays. Returns (value, choices).
    """
    counts = [menu.shape[0] for menu in row_menus]
    d = len(row_menus)
    best_val = None
    best_choice = None
    combos = itertools.product(*[range(c) for c in counts])
    while True:
        batch = list(itertools.islice(combos, _CHUNK))
        if not batch:
            break
        stack = np.empty((len(batch), d, d))
        for n, combo in enumerate(batch):
            for i, c in enumerate(combo):
                stack[n, i] = row_menus[i][c]
        values = abscissa_stack(stack)
        k = int(values.argmax() if direction == "max" else values.argmin())
        better = best_val is None or (
            values[k] > best_val if direction == "max" else values[k] < best_val)
        if better:
            best_val = float(values[k])
            best_choice = batch[k]
    return best_val, best_choice


def lp_row_minimum(row, v, tau: float, row_index: int, *, schur: bool = False) -> float:
    """Minimum of <x, v> over one row's slice of the l-inf ball, via HiGHS.

    The slice keeps x Metzler (x >= 0 off the diagonal, plus x >= 0
    everywhere for schur), bounded above by the row, within l1 budget tau.
    Entries outside the support of v never affect the objective and are left
    at their row values, mirroring how the budget constraint treats them.
    """
    row = np.asarray(row, dtype=float)
    v = np.asarray(v, dtype=float)
    sup = np.flatnonzero(v > 0.0)
    if sup.size == 0:
        return 0.0
    c = v[sup]
    # sum of reductions over the support <= tau, i.e. -sum(x) <= tau - sum(row)
    a_ub = -np.ones((1, sup.size))
    b_ub = np.array([tau - row[sup].sum()])
    bounds = []
    for j in sup:
        lo = 0.0
        if j == row_index and not schur:
            lo = None
        bounds.append((lo, row[j]))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, f"LP solver failed with status {res.status}"
    return float(res.fun)


def clamp_eta(a: np.ndarray, tau: float) -> float:
    """Abscissa of the matrix with every entry lowered by tau, floored at 0
    off the diagonal."""
    x = a - tau
    d = a.shape[0]
    off = ~np.eye(d, dtype=bool)
    x[off] = np.maximum(x[off], 0.0)
    return abscissa(x)


def clamp_tau_root(a: np.ndarray, *, iters: int = 200) -> float:
    """Bisection for the unique root of tau -> clamp_eta(a, tau).

    The map is strictly decreasing with slope at most -1 wherever it is
    differentiable, so a sign change brackets exactly one root.
    """
    lo = 0.0
    hi = float(a.max())
    assert clamp_eta(a, lo) > 0.0, "matrix must be unstable"
    assert clamp_eta(a, hi) <= 1e-13, "upper bracket must be stable"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if clamp_eta(a, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clamp_grid_bisection(a: np.ndarray, abscissa_of, radius_of,
                         zero_tol: float = 1e-12):
    """Index bisection over the clamp breakpoints: (tau*, matrix, evaluations).

    The search rule ``closest_stable_max`` used before its false position:
    halve the bracket of grid indices {0} U {distinct positive entries} on
    the sign of eta, return a breakpoint whose |eta| <= ``zero_tol``, else
    resolve the adjacent bracket by the closed-form crossing. The eigen
    functions come in as arguments, so a test can hand it the package's
    and compare the search rules alone, bit for bit.
    """
    def clamp(tau):
        x = np.maximum(a - tau, 0.0)
        np.fill_diagonal(x, np.diag(a) - tau)
        return x

    grid = np.concatenate(([0.0], np.unique(a[a > 0.0])))
    lo, hi = 0, len(grid) - 1
    evals = 1
    top = float(grid[hi])
    if abs(float(np.diag(a).max()) - top) <= zero_tol:
        return top, clamp(top), evals
    while hi - lo > 1:
        mid = (lo + hi) // 2
        evals += 1
        value = abscissa_of(clamp(float(grid[mid])))
        if abs(value) <= zero_tol:
            return float(grid[mid]), clamp(float(grid[mid])), evals
        if value > 0.0:
            lo = mid
        else:
            hi = mid
    tau1, tau2 = float(grid[lo]), float(grid[hi])
    a2 = clamp(tau2)
    h = (clamp(tau1) - a2) / (tau2 - tau1)
    try:
        m = -np.linalg.solve(a2, h)
    except np.linalg.LinAlgError:
        return tau2, a2, evals
    tau = tau2 - 1.0 / radius_of(np.maximum(m, 0.0))
    return tau, clamp(tau), evals + 1


def _sign_row_options(orig_row: np.ndarray, i: int, k: int):
    # Admissible variants of one row of a Metzler sign pattern within l1
    # distance k, moves in both directions included on purpose: the oracle
    # must not assume that minimization never raises an entry.
    d = orig_row.shape[0]
    ranges = []
    for j in range(d):
        ranges.append((-1, 0, 1) if j == i else (0, 1))
    options = []
    for cand in itertools.product(*ranges):
        if sum(abs(c - o) for c, o in zip(cand, orig_row)) <= k:
            options.append(cand)
    return options


def sign_ball_minimum(entries: np.ndarray, k: int) -> float:
    """Exhaustive minimum of the abscissa over Metzler sign patterns within
    l-inf distance k. Feasible only for small dimensions."""
    entries = np.asarray(entries)
    d = entries.shape[0]
    per_row = [_sign_row_options(entries[i], i, k) for i in range(d)]
    best = np.inf
    combos = itertools.product(*per_row)
    while True:
        batch = list(itertools.islice(combos, _CHUNK))
        if not batch:
            break
        stack = np.array(batch, dtype=float)
        best = min(best, float(abscissa_stack(stack).min()))
    return best


def inf_ball_min_2d(a: np.ndarray, tau: float, *, steps: int = 160) -> float:
    """Grid minimum of the abscissa over Metzler matrices below a 2x2 matrix
    within l-inf distance tau.

    Lowering any entry of a Metzler matrix can only lower the abscissa, so
    the minimum spends the full row budget; what remains free is the split
    between the off-diagonal entry (floored at 0) and the diagonal.
    """
    assert a.shape == (2, 2)
    splits = []
    for i in range(2):
        j = 1 - i
        r_off = np.linspace(0.0, min(tau, max(a[i, j], 0.0)), steps)
        rows = np.repeat(a[i][None, :], steps, axis=0)
        rows[:, j] -= r_off
        rows[:, i] -= tau - r_off
        splits.append(rows)
    stack = np.empty((steps * steps, 2, 2))
    stack[:, 0, :] = np.repeat(splits[0], steps, axis=0)
    stack[:, 1, :] = np.tile(splits[1], (steps, 1))
    return float(abscissa_stack(stack).min())
