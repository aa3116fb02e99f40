"""Exact selected eigenpair of a small Metzler matrix, computed with sympy.

The selected eigenvector is the limit, as t falls to the leading eigenvalue
lam, of the l1-normalized resolvent direction (tI - A)^{-1} 1. The entries
are taken as exact rationals, lam is the largest real root of the
characteristic polynomial, and every component of the normalized direction
is a rational function of t whose one-sided limit sympy takes exactly.
Only the final conversion to floats rounds.
"""

import mpmath
import numpy as np
import sympy

_T = sympy.Symbol("t")


def selected_pair(a) -> tuple[float, np.ndarray]:
    """(lam, selected l1-normalized eigenvector) of the Metzler matrix a."""
    arr = np.asarray(a, dtype=float)
    d = arr.shape[0]
    m = sympy.Matrix(d, d, [sympy.Rational(x) for x in arr.flat])
    shifted = _T * sympy.eye(d) - m
    lam = max(sympy.Poly(shifted.det(method="berkowitz"), _T).real_roots())
    # (tI - A)^{-1} 1 = adj(tI - A) 1 / det(tI - A); the determinant cancels
    # from the normalized direction.
    parts = [sympy.Poly(e, _T)
             for e in shifted.adjugate(method="berkowitz") * sympy.ones(d, 1)]
    total = sum(parts[1:], parts[0])
    limits = []
    for part in parts:
        num, den = part.cancel(total, include=True)
        limits.append(sympy.limit(num.as_expr() / den.as_expr(), _T, lam, "+"))
    return float(sympy.N(lam, 30)), np.array([float(sympy.N(x, 30)) for x in limits])


def perron_pair(a, digits: int = 40) -> tuple[float, np.ndarray]:
    """(lam, l1-normalized Perron vector) of an irreducible Metzler matrix a.

    lam is the largest real root of the exact characteristic polynomial, far
    cheaper than :func:`selected_pair` once d passes about 6. The vector
    spans the kernel of lam I - A, one-dimensional for an irreducible A: it
    is solved in ``digits``-digit arithmetic with the last row's equation
    replaced by sum(v) = 1, so only the final conversion to floats rounds at
    double precision.
    """
    arr = np.asarray(a, dtype=float)
    d = arr.shape[0]
    m = sympy.Matrix(d, d, [sympy.Rational(x) for x in arr.flat])
    lam = max(sympy.Poly(m.charpoly(_T).as_expr(), _T).real_roots())
    with mpmath.workdps(digits):
        lam_mp = mpmath.mpf(str(sympy.N(lam, digits + 10)))
        # mpmath takes each float entry exactly.
        system = lam_mp * mpmath.eye(d) - mpmath.matrix(arr.tolist())
        rhs = mpmath.zeros(d, 1)
        for j in range(d):
            system[d - 1, j] = 1
        rhs[d - 1] = 1
        v = mpmath.lu_solve(system, rhs)
        vector = np.array([float(v[i]) for i in range(d)])
    return float(sympy.N(lam, 30)), vector
