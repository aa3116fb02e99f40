"""Independent checker for every operation's result.

It uses ``numpy.linalg.eigvals`` and plain array arithmetic, never the
package's eigen code, and scale-relative tolerances:

* ``EIG_RTOL`` bounds an eigenvalue disagreement relative to the matrix's
  l-inf norm. It sits well above LAPACK's backward error and leaves room
  for the square-root accuracy of a defective leading eigenvalue, which
  reducible iterates have.
* ``DIST_RTOL`` bounds the gap between a reported ``tau_star`` and the
  measured distance of the returned matrix from the input; the distance is
  a sum of at most d entries, so rounding stays far below it.

Each check returns ``None`` when the result holds and a one-line reason
otherwise.
"""

from __future__ import annotations

import numpy as np

EIG_RTOL = 1e-6
DIST_RTOL = 1e-9


def abscissa(a: np.ndarray) -> float:
    return float(np.linalg.eigvals(a).real.max())


def radius(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(a)).max())


def _inf_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max())


def _offdiag_min(a: np.ndarray) -> float:
    return float(a[~np.eye(a.shape[0], dtype=bool)].min(initial=0.0))


def _matrix_of(res, a: np.ndarray):
    x = getattr(res, "matrix", None)
    if not isinstance(x, np.ndarray) or x.shape != a.shape:
        return None, "no matrix of the input's shape"
    if not np.isfinite(x).all():
        return None, "matrix has non-finite entries"
    return x, None


def _near(got: float, want: float, scale: float, rtol: float, what: str):
    if abs(got - want) > rtol * scale:
        return f"{what} {got:.12g} != {want:.12g} (scale {scale:.3g})"
    return None


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def _stabilized(raw, res, *, norm: str, cone: str, level: float, spectral):
    """Cone membership, boundary value, reported value and distance = tau*."""
    a = raw["a"]
    x, reason = _matrix_of(res, a)
    if reason:
        return reason
    scale = max(_inf_norm(a), level)
    if cone == "metzler" and _offdiag_min(x) < 0.0:
        return f"not Metzler (off-diagonal min {_offdiag_min(x):.3g})"
    if cone == "nonneg" and float(x.min()) < 0.0:
        return f"not nonnegative (min {float(x.min()):.3g})"
    value = spectral(x)
    diff = x - a
    dist = _inf_norm(diff) if norm == "inf" else float(np.abs(diff).max())
    tau = float(res.tau_star)
    return _first(
        _near(value, level, scale, EIG_RTOL, "boundary value"),
        _near(float(res.abscissa), value, scale, EIG_RTOL, "reported value"),
        _near(dist, tau, max(scale, abs(tau)), DIST_RTOL, f"{norm}-distance vs tau_star"))


def stab_inf(raw, res):
    return _stabilized(raw, res, norm="inf", cone="metzler", level=0.0,
                       spectral=abscissa)


def stab_schur(raw, res):
    return _stabilized(raw, res, norm="inf", cone="nonneg", level=1.0,
                       spectral=radius)


def stab_schur_metzler(raw, res):
    return _stabilized(raw, res, norm="inf", cone="metzler", level=1.0,
                       spectral=abscissa)


def stab_max(raw, res):
    reason = _stabilized(raw, res, norm="max", cone="metzler", level=0.0,
                         spectral=abscissa)
    if reason:
        return reason
    a, tau = raw["a"], float(res.tau_star)
    clamp = np.maximum(a - tau, 0.0)
    np.fill_diagonal(clamp, np.diag(a) - tau)
    if not np.allclose(res.matrix, clamp, rtol=0.0, atol=DIST_RTOL * _inf_norm(a)):
        return "matrix is not the clamp of the input at tau_star"
    return None


def _destabilized(raw, res, *, level: float, spectral, column: bool):
    """Boundary value and the exact perturbation: one column, or uniform."""
    a = raw["a"]
    x, reason = _matrix_of(res, a)
    if reason:
        return reason
    tau = float(res.tau_star)
    if not tau > 0.0:
        return f"tau_star {tau!r} is not positive"
    want = a.copy()
    if column:
        k = res.column
        if not isinstance(k, int) or not 0 <= k < a.shape[0]:
            return f"column {k!r} out of range"
        want[:, k] += tau
    else:
        want += tau
    scale = max(_inf_norm(a), level)
    if not np.allclose(x, want, rtol=0.0, atol=DIST_RTOL * max(scale, tau)):
        return "matrix is not the input plus the reported tau_star perturbation"
    return _near(spectral(x), level, scale, EIG_RTOL, "boundary value")


def destab_inf(raw, res):
    return _destabilized(raw, res, level=0.0, spectral=abscissa, column=True)


def destab_schur(raw, res):
    return _destabilized(raw, res, level=1.0, spectral=radius, column=True)


def destab_max(raw, res):
    return _destabilized(raw, res, level=0.0, spectral=abscissa, column=False)


def family(raw, res):
    """Every row comes from its menu, and the reported abscissa is right."""
    rows = raw["rows"]
    d, count = rows.shape[0], rows.shape[1]
    choices = tuple(getattr(res, "row_choices", ()))
    if len(choices) != d or not all(0 <= c < count for c in choices):
        return f"row choices {choices!r} do not index the menus"
    want = rows[np.arange(d), list(choices)]
    if not np.array_equal(res.matrix, want):
        return "matrix rows are not the chosen menu rows"
    return _near(float(res.abscissa), abscissa(want), max(_inf_norm(want), 1.0),
                 EIG_RTOL, "reported abscissa")


def _sign_ball(orig: np.ndarray, new: np.ndarray, k: int, tol_scale: float,
               reported: float):
    """new lies in the radius-k reduction ball of orig and has eta <= 0."""
    if new.shape != orig.shape:
        return "sign matrix has the wrong shape"
    if (new > orig).any():
        return "sign matrix raises an entry"
    if _offdiag_min(new.astype(float)) < 0.0:
        return "sign matrix is not a Metzler pattern"
    dist = int((orig.astype(int) - new.astype(int)).sum(axis=1).max())
    if dist > k:
        return f"sign distance {dist} exceeds k_star {k}"
    eta = abscissa(new.astype(float))
    if eta > EIG_RTOL * tol_scale:
        return f"stabilized pattern has eta {eta:.3g} > 0"
    return _near(reported, eta, tol_scale, EIG_RTOL, "reported abscissa")


def sign_stab(raw, res):
    orig = raw["entries"]
    new = res.sign_matrix.entries
    return _sign_ball(orig, new, int(res.k_star),
                      max(_inf_norm(orig.astype(float)), 1.0), float(res.abscissa))


def lss_stab_sign(raw, res):
    """Overlay, per-mode cuts, rebuilt overlay, ball membership and eta <= 0."""
    modes = raw["modes"]
    overlay = np.sign(np.sign(modes).sum(axis=0)).astype(np.int8)
    if not np.array_equal(res.union_sign.entries, overlay):
        return "union sign is not the overlay of the modes"
    stable = res.stable_sign.entries
    removed = (overlay == 1) & (stable == 0)
    got = np.stack(res.system.modes)
    if got.shape != modes.shape:
        return "cut system has the wrong shape"
    want = np.where(removed & (modes > 0.0), 0.0, modes)
    if not np.array_equal(got, want):
        return "cut modes differ from the overlay removals"
    if not np.array_equal(np.sign(np.sign(got).sum(axis=0)), stable):
        return "overlay of the cut modes is not the stabilized pattern"
    return _sign_ball(overlay, stable, int(res.k_star),
                      max(_inf_norm(overlay.astype(float)), 1.0), float(res.abscissa))
