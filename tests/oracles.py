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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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


def _leading_eigvec(b: np.ndarray) -> tuple[float, np.ndarray]:
    values, vectors = np.linalg.eig(b)
    k = int(values.real.argmax())
    v = np.abs(vectors[:, k].real)
    return float(values[k].real), v / v.sum()


def selected_vector_by_components(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Selected eigenvector of a reducible Metzler matrix, component by component.

    The limit of the normalized (tI - A)^{-1} 1 as t falls to the leading
    eigenvalue lam, by the per-component substitution: csgraph's strong
    components, each visited after every component it points to, carry the
    pole order p and leading coefficient c of their entries. A critical
    component (value within ``tol * max(1, |lam|)`` of lam) turns its order-p
    inflow r into (w.r) u at order p + 1, for its right and left Perron
    vectors u and w with w.u = 1 (numpy's ``eig``); any other component B
    solves (lam I - B) c = r at order p. No scaling guards the float range,
    so entries must keep every coefficient within it.
    """
    pattern = a != 0
    np.fill_diagonal(pattern, False)
    count, labels = connected_components(csr_matrix(pattern.astype(float)),
                                         directed=True, connection="strong")
    comps = [np.flatnonzero(labels == k) for k in range(count)]
    pairs = [_leading_eigvec(a[np.ix_(c, c)]) for c in comps]
    values = np.array([value for value, _ in pairs])
    lam = float(values.max())
    critical = lam - values <= tol * max(1.0, abs(lam))
    lam = float(values[critical].max())
    placed: list[int] = []

    def place(k):  # depth first: every component it points to goes first
        if k not in placed:
            for j in set(labels[pattern[comps[k]].any(axis=0)]) - {k}:
                place(j)
            placed.append(k)

    for k in range(count):
        place(k)
    order = np.full(a.shape[0], -1)
    coef = np.zeros(a.shape[0])
    for k in placed:
        nodes = comps[k]
        inflow = a[nodes].copy()
        inflow[:, nodes] = 0.0
        feeds = inflow.any(axis=0)
        p = int(order[feeds].max(initial=0))
        top = feeds & (order == p)
        r = inflow[:, top] @ coef[top] + (1.0 if p == 0 else 0.0)
        if critical[k]:
            u = pairs[k][1]
            w = _leading_eigvec(a[np.ix_(nodes, nodes)].T)[1]
            p, c = p + 1, (w @ r) / (w @ u) * u
        else:
            c = np.linalg.solve(lam * np.eye(nodes.size) - a[np.ix_(nodes, nodes)], r)
        order[nodes], coef[nodes] = p, c
    v = np.where(order == order.max(), coef, 0.0)
    return v / v.sum()
