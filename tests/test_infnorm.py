import functools
import warnings

import numpy as np
import pytest

from metzstab import cli, core, formats, infnorm
from metzstab.errors import PreconditionError
from metzstab.infnorm import (
    ZERO_TOL,
    ball_row_minimizer,
    closest_stable_inf_hurwitz,
    closest_stable_inf_schur,
    closest_unstable_inf_hurwitz,
    closest_unstable_inf_schur,
)

import goldens
import helpers
import oracles


def bisect_column_root(a, k, *, iters=100):
    # root of tau -> eta(A + tau * e e_k^T), increasing in tau
    d = a.shape[0]
    bump = np.zeros((d, d))
    bump[:, k] = 1.0
    lo, hi = 0.0, 1.0
    while oracles.abscissa(a + hi * bump) < 0.0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if oracles.abscissa(a + mid * bump) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_destabilize_worked_example():
    out = closest_unstable_inf_hurwitz(goldens.STABLE_5)
    np.testing.assert_allclose(
        np.linalg.solve(goldens.STABLE_5, -np.ones(5)), goldens.STABLE_5_RESOLVENT,
        atol=1e-12)
    assert out.tau_star == pytest.approx(goldens.STABLE_5_TAU, abs=1e-12)
    assert out.column == goldens.STABLE_5_COLUMN
    want = goldens.STABLE_5.copy()
    want[:, goldens.STABLE_5_COLUMN] += goldens.STABLE_5_TAU
    np.testing.assert_allclose(out.matrix, want, atol=1e-12)
    assert oracles.abscissa(out.matrix) == pytest.approx(0.0, abs=1e-10)


def test_destabilize_scalar():
    out = closest_unstable_inf_hurwitz([[-3.5]])
    assert out.tau_star == pytest.approx(3.5, abs=1e-12)


def test_destabilize_rejects_unstable_input():
    with pytest.raises(PreconditionError):
        closest_unstable_inf_hurwitz(goldens.UNSTABLE_5)


def test_destabilization_is_optimal_across_columns():
    """The returned tau is the smallest single-column bump that reaches the
    boundary, checked per column with an independent bisection."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = helpers.random_stable_metzler(rng, 4)
        out = closest_unstable_inf_hurwitz(a)
        roots = [bisect_column_root(a, k) for k in range(4)]
        assert out.tau_star == pytest.approx(min(roots), abs=1e-8)
        assert int(np.argmin(roots)) == out.column
        assert oracles.abscissa(out.matrix) == pytest.approx(0.0, abs=1e-8)


def test_schur_destabilize_zero_matrix():
    out = closest_unstable_inf_schur(np.zeros((2, 2)))
    assert out.tau_star == pytest.approx(1.0, abs=1e-12)
    assert oracles.radius(out.matrix) == pytest.approx(1.0, abs=1e-10)


def test_schur_destabilize_scalar():
    out = closest_unstable_inf_schur([[0.5]])
    assert out.tau_star == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(out.matrix, [[1.0]])


def test_schur_destabilize_hits_level():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.uniform(0.0, 1.0, (4, 4))
        a *= 0.8 / oracles.radius(a)
        level = 2.0
        out = closest_unstable_inf_schur(a, level=level)
        assert oracles.radius(out.matrix) == pytest.approx(level, abs=1e-8)
        assert core.matrix_norm(out.matrix - a, "inf") == pytest.approx(
            out.tau_star, abs=1e-12)
    with pytest.raises(PreconditionError):
        closest_unstable_inf_schur(a * 10.0)


def test_row_minimizer_zero_budget_is_identity():
    row = np.array([1.0, 2.0, 3.0])
    v = np.array([0.2, 0.5, 0.3])
    np.testing.assert_array_equal(ball_row_minimizer(row, v, 0.0, 0), row)


def test_row_minimizer_single_support_entry():
    row = np.array([4.0, 2.0, -1.0])
    v = np.array([0.0, 1.0, 0.0])
    out = ball_row_minimizer(row, v, 1.5, 2)
    np.testing.assert_allclose(out, [4.0, 0.5, -1.0])


def test_row_minimizer_diagonal_takes_leftover_budget():
    # support exhausted before the budget: the diagonal absorbs the rest
    row = np.array([1.0, 1.0])
    v = np.array([0.2, 0.8])
    out = ball_row_minimizer(row, v, 5.0, 0)
    assert out[1] == 0.0
    assert out[0] == pytest.approx(-3.0)


def test_row_minimizer_input_validation():
    with pytest.raises(ValueError):
        ball_row_minimizer([1.0, 2.0], [0.5, 0.5], -1.0, 0)
    with pytest.raises(ValueError):
        ball_row_minimizer([1.0, 2.0], [0.5, -0.5], 1.0, 0)
    row, v = [1.0, 2.0, 3.0], [0.5, 0.3, 0.2]
    for tau in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ball_row_minimizer(row, v, tau, 0)
    with pytest.raises(ValueError):
        ball_row_minimizer(row, [0.5, np.nan, 0.2], 1.0, 0)
    with pytest.raises(ValueError):
        ball_row_minimizer([1.0, np.inf, 3.0], v, 1.0, 0)
    for row_index in (7, -1, 0.5):
        with pytest.raises(ValueError):
            ball_row_minimizer(row, v, 1.0, row_index)


def test_row_minimizer_matches_lp():
    rng = np.random.default_rng(23)
    for trial in range(60):
        d = int(rng.integers(2, 7))
        i = int(rng.integers(0, d))
        row = rng.uniform(0.0, 2.0, d)
        row[i] = rng.uniform(-2.0, 2.0)
        v = rng.uniform(0.0, 1.0, d)
        v[rng.random(d) < 0.3] = 0.0
        schur = bool(trial % 2)
        if schur:
            row = np.abs(row)
        tau = float(rng.uniform(0.0, 1.2) * max(row.sum(), 1.0))
        got = ball_row_minimizer(row, v, tau, i, schur=schur)
        want = oracles.lp_row_minimum(row, v, tau, i, schur=schur)
        assert float(got @ v) == pytest.approx(want, abs=1e-9)
        # feasibility of the closed form
        assert float(np.abs(got - row).sum()) <= tau + 1e-9
        off = np.delete(got, i)
        if off.size:
            assert float(off.min()) >= -1e-12


def test_stabilize_worked_example():
    out = closest_stable_inf_hurwitz(goldens.UNSTABLE_5)
    assert out.tau_star == pytest.approx(goldens.UNSTABLE_5_TAU, abs=1e-6)
    np.testing.assert_allclose(out.matrix, goldens.UNSTABLE_5_STABILIZED, atol=1e-6)


def test_stabilize_scalar():
    out = closest_stable_inf_hurwitz([[2.5]])
    assert out.tau_star == pytest.approx(2.5, abs=1e-9)
    assert out.matrix[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_stabilize_rejects_stable_input():
    with pytest.raises(PreconditionError):
        closest_stable_inf_hurwitz(goldens.STABLE_5)


def test_stabilized_matrix_is_feasible_and_on_boundary():
    rng = np.random.default_rng(47)
    for _ in range(15):
        a = helpers.random_unstable_metzler(rng, 5)
        out = closest_stable_inf_hurwitz(a)
        x = out.matrix
        assert core.is_metzler(x)
        assert float((x - a).max()) <= 1e-10
        assert core.matrix_norm(x - a, "inf") == pytest.approx(out.tau_star, rel=1e-9)
        assert abs(out.abscissa) <= ZERO_TOL
        assert oracles.abscissa(x) == pytest.approx(0.0, abs=1e-6)


def test_stabilize_a_large_cycle_on_which_the_power_method_stalls():
    # A 100-node weighted cycle minus 0.9 I, on which the power loop stalls:
    # the certified step answers its eigen calls.
    a = helpers.weighted_cycles()[1] - 0.9 * np.eye(100)
    out = closest_stable_inf_hurwitz(a)
    x = out.matrix
    assert core.is_metzler(x)
    assert float((x - a).max()) <= 0.0
    assert core.matrix_norm(x - a, "inf") == pytest.approx(out.tau_star, rel=1e-9)
    assert abs(out.abscissa) <= ZERO_TOL
    assert oracles.abscissa(x) == pytest.approx(0.0, abs=1e-9)


def test_stabilize_settles_when_the_sweep_flips_between_two_minima():
    # At tau* = (1 + sqrt 5) / 2 the ball holds two iterates with eta = 0
    # that a sweep can alternate between. The secant search reaches tau*
    # without revisiting either; the two tests below cover the revisit rule.
    a = goldens.SIGN_LATTICE.T
    out = closest_stable_inf_hurwitz(a)
    assert out.tau_star == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-9)
    assert core.is_metzler(out.matrix)
    assert core.matrix_norm(out.matrix - a, "inf") == pytest.approx(out.tau_star, rel=1e-9)
    assert abs(out.abscissa) <= ZERO_TOL


def test_descent_ends_on_the_first_of_two_alternating_minima(monkeypatch):
    # The step alternates between two iterates of equal value. The third
    # step repeats the first, which proves the plateau, so the descent
    # returns the first without exhausting its sweep budget.
    start, first, second = np.eye(2), np.diag([-1.0, 0.0]), np.diag([0.0, -1.0])
    start_pair = core.selected_leading_eigenpair(start)
    calls = []

    def counted(a, **kwargs):
        calls.append(a)
        return original(a, **kwargs)

    original = core.selected_leading_eigenpair
    monkeypatch.setattr(core, "selected_leading_eigenpair", counted)

    def step(x, pair):
        return (second, "second") if np.array_equal(x, first) else (first, "first")

    x, pair, record, values = infnorm._descend(start, start_pair, step)
    np.testing.assert_array_equal(x, first)
    assert (pair.value, record) == (0.0, "first")
    assert values == [1.0, 0.0, 0.0, 0.0]
    assert len(calls) == 3


def test_stabilize_ends_a_revisiting_ball_on_its_first_minimum(monkeypatch):
    # One ball of this input's tau search ends by the revisit rule.
    revisits = []

    def watched(x, pair, step):
        last = []

        def recorded(x, pair):
            last[:] = [step(x, pair)]
            return last[0]

        out = descend(x, pair, recorded)
        revisits.append(last[0] is not None)
        return out

    descend = infnorm._descend
    monkeypatch.setattr(infnorm, "_descend", watched)
    a = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 0.0],
                  [1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    out = closest_stable_inf_hurwitz(a)
    assert sum(revisits) == 1
    assert out.tau_star == pytest.approx(2.0, abs=1e-12)
    assert core.is_metzler(out.matrix)
    assert core.matrix_norm(out.matrix - a, "inf") == pytest.approx(out.tau_star, rel=1e-12)
    assert abs(out.abscissa) <= ZERO_TOL


def test_stabilize_matches_grid_search_2d():
    rng = np.random.default_rng(53)
    for _ in range(12):
        a = helpers.random_unstable_metzler(rng, 2)
        out = closest_stable_inf_hurwitz(a)
        # below tau* every matrix in the ball stays unstable
        assert oracles.inf_ball_min_2d(a, 0.95 * out.tau_star) > 0.0
        # a modestly larger ball contains stable points even on a grid
        assert oracles.inf_ball_min_2d(a, 1.10 * out.tau_star) < 0.0


def test_tau_probes_decrease_once_feasible():
    """Accepted stable radii shrink strictly toward tau*."""
    rng = np.random.default_rng(61)
    for _ in range(15):
        a = helpers.random_unstable_metzler(rng, 5)
        out = closest_stable_inf_hurwitz(a)
        accepted = [t for t, obj in out.trace if obj < -ZERO_TOL]
        assert all(b < a_ for a_, b in zip(accepted, accepted[1:]))
        assert out.tau_star <= min(accepted, default=out.tau_star) + 1e-12


@pytest.mark.parametrize("stabilize,make,bound", [
    (closest_stable_inf_hurwitz, helpers.random_unstable_metzler, oracles.abscissa),
    (closest_stable_inf_schur, helpers.random_unstable_nonneg,
     lambda a: np.abs(a).sum(axis=1).max() * (1.0 - 1.0 / oracles.radius(a))),
    (functools.partial(closest_stable_inf_schur, allow_metzler=True),
     helpers.random_unstable_nonneg, lambda a: oracles.radius(a) - 1.0),
], ids=["hurwitz", "schur", "schur-metzler"])
def test_tau_search_starts_at_a_closed_form_stable_radius(stabilize, make, bound):
    """The first probe is the distance to A - eta I, A / rho or A - (rho - 1) I."""
    rng = np.random.default_rng(71)
    for d in (1, 2, 5, 12, 30):
        a = make(rng, d)
        out = stabilize(a)
        assert out.trace[0][0] == pytest.approx(bound(a), rel=1e-9)
        assert out.tau_star <= out.trace[0][0]


@pytest.mark.parametrize("allow_metzler", [False, True], ids=["schur", "schur-metzler"])
def test_every_later_ball_starts_along_the_last_probes_vector(allow_metzler, monkeypatch):
    # The first ball's first sweep follows the input's own vector; every
    # later ball's follows the final vector of the probe before it.
    balls = []

    def watched(x, pair, step):
        balls.append([])
        out = descend(x, pair, step)
        balls[-1].append(out[1].vector)
        return out

    def recorded(base, x, v, tau, schur):
        balls[-1].append(v)
        return sweep(base, x, v, tau, schur)

    descend, sweep = infnorm._descend, infnorm._sweep
    monkeypatch.setattr(infnorm, "_descend", watched)
    monkeypatch.setattr(infnorm, "_sweep", recorded)
    for seed in range(3):
        balls.clear()
        a = helpers.random_unstable_nonneg(np.random.default_rng(seed), 25)
        closest_stable_inf_schur(a, allow_metzler=allow_metzler)
        assert len(balls) > 2
        np.testing.assert_array_equal(balls[0][0], core.selected_leading_eigenpair(a).vector)
        for before, ball in zip(balls, balls[1:]):
            np.testing.assert_array_equal(ball[0], before[-1])


def _cold_ball_value(base, tau, schur, level):
    # The ball minimum of a descent whose every sweep, the first included,
    # follows its own iterate's vector.
    still = infnorm._FP_RTOL * max(1.0, float(np.abs(base).max()) + tau)

    def step(x, pair):
        if pair.value < level - ZERO_TOL:
            return None
        x_next, record = infnorm._sweep(base, x, pair.vector, tau, schur)
        return None if float(np.abs(x_next - x).max()) <= still else (x_next, record)

    pair = core.selected_leading_eigenpair(base)
    return infnorm._descend(base, pair, step)[1].value


@pytest.mark.parametrize("stabilize,make,schur,level", [
    (closest_stable_inf_hurwitz, helpers.random_unstable_metzler, False, 0.0),
    (closest_stable_inf_schur, helpers.random_unstable_nonneg, True, 1.0),
    (functools.partial(closest_stable_inf_schur, allow_metzler=True),
     helpers.random_unstable_nonneg, False, 1.0),
], ids=["hurwitz", "schur", "schur-metzler"])
def test_warm_started_infeasible_probes_are_the_cold_ball_minima(stabilize, make, schur,
                                                                  level):
    # An infeasible probe certifies tau < tau*: its value is the ball's
    # minimum whichever vector the base's first sweep followed.
    rng = np.random.default_rng(83)
    checked = 0
    for d in (3, 5, 10, 25, 40) * 2:
        a = make(rng, d)
        for tau, value in stabilize(a).trace:
            if value > level + ZERO_TOL:
                assert _cold_ball_value(a, tau, schur, level) == pytest.approx(value, rel=1e-12)
                checked += 1
    assert checked > 4


def test_a_warm_sweep_that_moves_nothing_falls_back_to_the_inputs_vector():
    # At tau = 50 the sweep zeroes row 1, and the final vector e_0 of the
    # nilpotent [[0, 50], [0, 0]] has a support on which A is zero. Along it
    # a later ball's first sweep changes nothing, which proves no minimum:
    # the input's own vector then sweeps, and the search reaches the root of
    # (100 - t)(0.04 - t) = 1.
    a = np.array([[0.0, 100.0], [0.04, 0.0]])
    out = closest_stable_inf_schur(a)
    assert out.trace[0] == (pytest.approx(50.0), 0.0)
    assert out.tau_star == pytest.approx((100.04 - np.sqrt(100.04**2 - 12.0)) / 2.0, rel=1e-9)
    assert out.abscissa == pytest.approx(1.0, abs=ZERO_TOL)


def _formal_structure(x, record):
    # The frozen structure of a sweep's pivot record: R marks each swept
    # row's pivot (summed, so a repeated row shows), and X = C - tau R is
    # the output with its pivots at their unclamped values.
    rows, pivots, formal = record
    r = np.zeros_like(x)
    np.add.at(r, (rows, pivots), 1.0)
    formal_x = x.copy()
    formal_x[rows, pivots] = formal
    return formal_x, r


def test_sweep_output_matches_its_cr_decomposition():
    from metzstab.infnorm import _sweep

    rng = np.random.default_rng(67)
    for trial in range(25):
        d = 5
        a = helpers.random_unstable_metzler(rng, d)
        v = rng.uniform(0.0, 1.0, d)
        tau = float(rng.uniform(0.1, 1.0) * core.matrix_norm(a, "inf"))
        schur = bool(trial % 2)
        base = np.abs(a) if schur else a
        x, record = _sweep(base, base.copy(), v, tau, schur)
        formal, r = _formal_structure(x, record)
        sup = np.flatnonzero(v > 0.0)
        if schur:
            np.testing.assert_allclose(x[sup], np.maximum(formal, 0.0)[sup],
                                       atol=1e-12)
        else:
            np.testing.assert_allclose(x[sup], formal[sup], atol=1e-12)
        # each swept row uses exactly one pivot
        np.testing.assert_array_equal(r[sup].sum(axis=1), np.ones(sup.size))
        assert r.sum() == sup.size


def test_schur_stabilize_scalar():
    out = closest_stable_inf_schur([[2.0]])
    assert out.tau_star == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(out.matrix, [[1.0]], atol=1e-9)


def test_schur_stabilize_worked_example():
    out = closest_stable_inf_schur(goldens.SPIN_2)
    assert out.tau_star == pytest.approx(goldens.SPIN_2_SCHUR_TAU, abs=1e-6)
    np.testing.assert_allclose(out.matrix, goldens.SPIN_2_SCHUR_X, atol=1e-5)
    assert oracles.radius(out.matrix) == pytest.approx(1.0, abs=1e-6)


def test_schur_stabilize_metzler_relaxation():
    out = closest_stable_inf_schur(goldens.SPIN_2, allow_metzler=True)
    assert out.tau_star == pytest.approx(goldens.SPIN_2_METZLER_TAU, abs=1e-6)
    np.testing.assert_allclose(out.matrix, goldens.SPIN_2_METZLER_X, atol=1e-5)
    assert oracles.abscissa(out.matrix) == pytest.approx(1.0, abs=1e-6)


def test_metzler_relaxation_never_farther():
    rng = np.random.default_rng(71)
    for _ in range(10):
        a = helpers.random_unstable_nonneg(rng, 4)
        plain = closest_stable_inf_schur(a)
        relaxed = closest_stable_inf_schur(a, allow_metzler=True)
        assert relaxed.tau_star <= plain.tau_star + 1e-9
        assert float(np.abs(plain.matrix).min()) >= -1e-12


@pytest.mark.parametrize("case", range(21))
def test_metzler_relaxation_matches_the_hurwitz_search_of_a_minus_i(case):
    # The relaxation searches at level 1 on A; stabilizing A - I at level 0
    # and shifting back by I is the same problem.
    if case == 0:
        a = goldens.SPIN_2
    else:
        rng = np.random.default_rng(1900 + case)
        a = helpers.random_unstable_nonneg(rng, int(rng.integers(3, 26)))
    eye = np.eye(a.shape[0])
    relaxed = closest_stable_inf_schur(a, allow_metzler=True)
    shifted = closest_stable_inf_hurwitz(a - eye)
    assert relaxed.tau_star == pytest.approx(shifted.tau_star, rel=1e-10)
    scale = core.matrix_norm(a, core.NormKind.INF)
    np.testing.assert_allclose(relaxed.matrix, shifted.matrix + eye, rtol=0, atol=1e-10 * scale)


def test_schur_stabilize_rejects_stable_input():
    with pytest.raises(PreconditionError):
        closest_stable_inf_schur([[0.5]])


def _full_jump_reference(x, record, tau, schur, level):
    # tau - 1/rho, with rho the Perron root of the full d x d matrix
    # -X^{-1} R (or (level I - X)^{-1} R), X and R rebuilt from the sweep's
    # pivot record; None where that matrix has an entry below -_NEG_GUARD
    # times its largest or rho is not positive.
    from metzstab.core import _NEG_GUARD

    x, r = _formal_structure(x, record)
    d = x.shape[0]
    if schur:
        m = np.linalg.solve(level * np.eye(d) - x, r)
    else:
        m = -np.linalg.solve(x, r)
    if float(m.min()) < -_NEG_GUARD * float(m.max()):
        return None
    rho = float(np.linalg.eigvals(m).real.max())
    return tau - 1.0 / rho if rho > 0.0 else None


def test_jump_candidate_matches_the_full_resolvent():
    from metzstab.infnorm import _jump_candidate, _sweep

    rng = np.random.default_rng(73)
    seen = {(False, "1"): 0, (False, "d"): 0, (True, "1"): 0, (True, "d"): 0}
    compared = 0
    for trial in range(160):
        schur = bool(trial % 2)
        d = int(rng.integers(2, 8))
        if schur:
            base = rng.uniform(0.0, 1.0, (d, d)) * rng.uniform(0.2, 1.5) / d
        else:
            base = helpers.random_metzler(rng, d)
        v = rng.uniform(0.0, 1.0, d)
        if trial % 4 == 0:
            # One swept row, a single pivot: k = 1. A stable base keeps the
            # Hurwitz iterate stable, since the sweep only lowers that row.
            v = np.zeros(d)
            v[int(rng.integers(0, d))] = 1.0
            if not schur:
                base = helpers.random_stable_metzler(rng, d)
        row_mass = float(np.abs(base).sum(axis=1).max())
        tau = float(rng.choice([0.05, 0.5, 2.0, 8.0]) * row_mass)
        x, record = _sweep(base, base.copy(), v, tau, schur)
        level = 1.0 if schur else 0.0
        got = _jump_candidate(x, record, tau, level)
        want = _full_jump_reference(x, record, tau, schur, level)
        if want is None:
            assert got is None
            continue
        assert got == pytest.approx(want, rel=1e-10)
        compared += 1
        k = np.unique(record[1]).size
        if k == 1:
            seen[(schur, "1")] += 1
        if k == d:
            seen[(schur, "d")] += 1
    assert compared >= 40
    assert min(seen.values()) >= 1, seen


def test_jump_candidate_is_scale_equivariant():
    # Scaling the sweep and tau by a power of two s scales the candidate by
    # s exactly in theory; the Hurwitz cases of the full-resolvent test's
    # recipe must keep their None decision and their candidate / s.
    from metzstab.infnorm import _jump_candidate, _sweep

    rng = np.random.default_rng(5)
    compared = 0
    for _ in range(200):
        d = int(rng.integers(2, 8))
        base = helpers.random_metzler(rng, d)
        v = rng.uniform(0.0, 1.0, d)
        row_mass = float(np.abs(base).sum(axis=1).max())
        tau = float(rng.choice([0.05, 0.5, 2.0]) * row_mass)
        x, record = _sweep(base, base.copy(), v, tau, False)
        want = _jump_candidate(x, record, tau, 0.0)
        rows, pivots, formal = record
        for s in (2.0**-27, 2.0**27, 2.0**50):
            got = _jump_candidate(s * x, (rows, pivots, s * formal), s * tau, 0.0)
            assert (got is None) == (want is None), (s, want, got)
            if want is not None:
                assert got / s == pytest.approx(want, rel=1e-14, abs=0.0)
                compared += 1
    assert compared >= 300


def test_jump_candidate_rejects_a_negative_resolvent():
    from metzstab.infnorm import _jump_candidate

    both = np.arange(2)
    # X = C - R = diag(1, -1) is unstable: -X^{-1} has the entry -1, at
    # every scale.
    for s in (1.0, 2.0**-27, 2.0**27, 2.0**50):
        record = (both, both, s * np.array([1.0, -1.0]))
        assert _jump_candidate(s * np.diag([1.0, -1.0]), record, s, 0.0) is None
    # rho(X) = 2 > 1 for X = diag(2, -0.5), whose second pivot the Schur
    # output clamps at zero: (I - X)^{-1} has the entry -1.
    record = (both, both, np.array([2.0, -0.5]))
    assert _jump_candidate(np.diag([2.0, 0.0]), record, 1.0, 1.0) is None


def test_sweep_rows_match_the_row_minimizer():
    from metzstab.infnorm import _sorted_support, _sweep

    rng = np.random.default_rng(79)
    cases = {"tie": 0, "no_cross": 0, "clamped": 0}
    for trial in range(60):
        schur = bool(trial % 2)
        d = int(rng.integers(2, 8))
        base = helpers.random_metzler(rng, d)
        if schur:
            base = np.abs(base)
        x = helpers.random_metzler(rng, d)
        v = rng.uniform(0.0, 1.0, d)
        if trial % 3 == 0:  # ties in v, broken by column index
            v = rng.choice([0.0, 0.25, 0.5], d)
            v[0] = 0.5
        row_mass = float(np.abs(base).sum(axis=1).max())
        tau = float(rng.choice([0.1, 0.6, 3.0]) * row_mass)
        x_next, record = _sweep(base, x, v, tau, schur)
        cols = _sorted_support(v, np.flatnonzero(v > 0.0))
        np.testing.assert_array_equal(record[0], cols)
        formal_x, r = _formal_structure(x_next, record)
        cases["tie"] += np.unique(v[cols]).size < cols.size
        for i in range(d):
            if i not in cols:
                np.testing.assert_array_equal(x_next[i], x[i])
                np.testing.assert_array_equal(r[i], np.zeros(d))
                continue
            np.testing.assert_array_equal(
                x_next[i], ball_row_minimizer(base[i], v, tau, i, schur=schur))
            (pivot,) = np.flatnonzero(r[i])
            assert r[i, pivot] == 1.0
            # X keeps the output off the pivot, and the pivot's formal value
            # plus tau is its cumulative mass.
            np.testing.assert_array_equal(np.delete(formal_x[i], pivot),
                                          np.delete(x_next[i], pivot))
            p = int(np.flatnonzero(cols == pivot)[0])
            formal = formal_x[i, pivot]
            assert formal + tau == pytest.approx(base[i, cols[:p + 1]].sum(), abs=1e-12)
            assert x_next[i, pivot] == (max(formal, 0.0) if schur else formal)
            cases["no_cross"] += bool(base[i, cols].sum() <= tau)
            cases["clamped"] += bool(schur and formal < 0.0)
    assert min(cases.values()) >= 1, cases


SCHUR_LEVEL = 2.0


@pytest.mark.parametrize("d", [5, 50, 600])
@pytest.mark.parametrize("kind", helpers.CERTIFICATE_KINDS)
def test_destabilize_accepts_exactly_the_hurwitz_inputs(kind, d):
    # One solve of A y = -1 is both the precondition and the answer: the
    # destabilizer accepts exactly the inputs the inverse-based test accepts,
    # and its tau* and column are those of the inverse-based formula.
    a = helpers.hurwitz_certificate_input(kind, d, seed=501)
    stable = core.is_hurwitz_stable(a)
    assert stable == (kind in ("stable", "reducible"))
    if not stable:
        with pytest.raises(PreconditionError, match="Hurwitz"):
            closest_unstable_inf_hurwitz(a)
        return
    out = closest_unstable_inf_hurwitz(a)
    y = -np.linalg.inv(a).sum(axis=1)
    assert out.column == int(np.argmax(y))
    assert out.tau_star == pytest.approx(1.0 / y.max(), rel=1e-12)


@pytest.mark.parametrize("d", [5, 50, 600])
@pytest.mark.parametrize("kind", helpers.CERTIFICATE_KINDS)
def test_schur_destabilize_accepts_exactly_the_schur_inputs(kind, d):
    a = helpers.schur_certificate_input(kind, d, seed=502, level=SCHUR_LEVEL)
    stable = core.is_schur_stable(a, level=SCHUR_LEVEL)
    assert stable == (kind in ("stable", "reducible"))
    if not stable:
        with pytest.raises(PreconditionError, match="rho"):
            closest_unstable_inf_schur(a, level=SCHUR_LEVEL)
        return
    out = closest_unstable_inf_schur(a, level=SCHUR_LEVEL)
    y = np.linalg.inv(SCHUR_LEVEL * np.eye(d) - a).sum(axis=1)
    assert out.column == int(np.argmax(y))
    assert out.tau_star == pytest.approx(1.0 / y.max(), rel=1e-12)


@pytest.mark.parametrize("command,destabilize,a", [
    ("destab-inf", closest_unstable_inf_hurwitz, np.zeros((2, 2))),
    ("destab-inf", closest_unstable_inf_hurwitz,
     helpers.hurwitz_certificate_input("singular", 50, seed=503)),
    ("destab-schur", closest_unstable_inf_schur, np.eye(2)),
    ("destab-schur", closest_unstable_inf_schur,
     helpers.schur_certificate_input("singular", 50, seed=503)),
], ids=["hurwitz-zero", "hurwitz-boundary", "schur-identity", "schur-boundary"])
def test_destabilize_rejects_a_singular_input(command, destabilize, a, tmp_path, capsys):
    with pytest.raises(PreconditionError):  # not LinAlgError
        destabilize(a)
    path = tmp_path / "m.txt"
    path.write_text(formats.write_matrix(a))
    assert cli.main([command, str(path)]) == 2
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize("level", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_schur_functions_reject_a_level_that_is_not_finite_and_positive(level, tmp_path,
                                                                         capsys):
    a = np.array([[0.5, 0.1], [0.2, 0.3]])
    message = "level must be finite and positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(PreconditionError, match=message):
            core.is_schur_stable(a, level=level)
        with pytest.raises(PreconditionError, match=message):
            closest_unstable_inf_schur(a, level=level)
    path = tmp_path / "m.txt"
    path.write_text(formats.write_matrix(a))
    assert cli.main(["destab-schur", str(path), f"--level={level}"]) == 2
    assert message in capsys.readouterr().err
