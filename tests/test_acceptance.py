"""Acceptance gate: one test per release criterion.

Each criterion is a single test function so the verbose pytest report reads
as one pass/fail line per criterion. Tolerances are pinned here and nowhere
loosened; reference values live in goldens.py and the independent checkers
in oracles.py.
"""

import time

import numpy as np
import pytest

from metzstab import bench, core, family, infnorm, lss, maxnorm, sign

import goldens
import helpers
import oracles


def _timed(fn, repeats=1):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_1_destabilization_golden_and_speed():
    # the argmax component of -A^{-1}e is the third one (index 2), value 5/2
    res, seconds = _timed(
        lambda: infnorm.closest_unstable_inf_hurwitz(goldens.STABLE_5),
        repeats=200)
    assert res.column == goldens.STABLE_5_COLUMN
    assert 1.0 / res.tau_star == pytest.approx(goldens.STABLE_5_PEAK, abs=1e-9)
    assert res.tau_star == pytest.approx(goldens.STABLE_5_TAU, abs=1e-9)
    want = goldens.STABLE_5.copy()
    want[:, goldens.STABLE_5_COLUMN] += goldens.STABLE_5_TAU
    np.testing.assert_allclose(res.matrix, want, atol=1e-9)
    assert oracles.abscissa(res.matrix) == pytest.approx(0.0, abs=1e-8)
    assert seconds < 1e-3
    print(f"[criterion 1] PASS  tau*={res.tau_star:.12g}  best run {seconds * 1e6:.0f}us")


def test_criterion_2_stabilization_golden_and_speed():
    res, seconds = _timed(
        lambda: infnorm.closest_stable_inf_hurwitz(goldens.UNSTABLE_5))
    assert res.tau_star == pytest.approx(goldens.UNSTABLE_5_TAU, abs=1e-6)
    np.testing.assert_allclose(res.matrix, goldens.UNSTABLE_5_STABILIZED,
                               atol=1e-6)
    assert seconds < 1.0
    print(f"[criterion 2] PASS  tau*={res.tau_star:.9g}  run {seconds:.3f}s")


def test_criterion_3_schur_golden_both_cones():
    plain = infnorm.closest_stable_inf_schur(goldens.SPIN_2)
    assert plain.tau_star == pytest.approx(goldens.SPIN_2_SCHUR_TAU, abs=1e-3)
    np.testing.assert_allclose(plain.matrix, goldens.SPIN_2_SCHUR_X, atol=1e-3)
    relaxed = infnorm.closest_stable_inf_schur(goldens.SPIN_2, allow_metzler=True)
    assert relaxed.tau_star == pytest.approx(goldens.SPIN_2_METZLER_TAU, abs=1e-3)
    np.testing.assert_allclose(relaxed.matrix, goldens.SPIN_2_METZLER_X, atol=1e-3)
    print(f"[criterion 3] PASS  nonneg tau*={plain.tau_star:.6g}  "
          f"metzler tau*={relaxed.tau_star:.6g}")


def test_criterion_4_sign_and_switching_goldens():
    web = sign.closest_stable_sign(sign.SignMatrix(goldens.SIGN_WEB))
    assert web.k_star == goldens.SIGN_WEB_K
    assert oracles.abscissa(web.sign_matrix.realize()) == pytest.approx(
        goldens.SIGN_WEB_ETA, abs=1e-9)

    lattice = sign.closest_stable_sign(sign.SignMatrix(goldens.SIGN_LATTICE))
    assert lattice.k_star == goldens.SIGN_LATTICE_K
    assert oracles.abscissa(lattice.sign_matrix.realize()) == pytest.approx(
        goldens.SIGN_LATTICE_ETA, abs=1e-9)
    ball1 = sign.sign_ball_minimize(sign.SignMatrix(goldens.SIGN_LATTICE), 1)
    assert ball1.abscissa == pytest.approx(0.46, abs=1e-2)

    system = lss.SwitchingSystem(goldens.SWITCH_MODES)
    overlay = sign.sign_pattern(sum(m for m in system.modes))
    assert oracles.abscissa(overlay.realize()) == pytest.approx(1.303, abs=1e-3)
    out = lss.stabilize_lss_by_signs(system)
    assert out.k_star == goldens.SWITCH_K
    for got, want in zip(out.system.modes, goldens.SWITCH_CUT_MODES):
        np.testing.assert_array_equal(np.sign(got), np.sign(want))
    print(f"[criterion 4] PASS  k*_web={web.k_star}  k*_lattice={lattice.k_star}  "
          f"ball1 eta={ball1.abscissa:.4f}  k*_lss={out.k_star}")


def test_criterion_5_plain_power_oscillates_translated_converges():
    plain = core.power_iteration(goldens.OSCILLATING_3, max_iter=50)
    assert not plain.converged
    assert plain.sign_changes > 0
    shifted = core.selected_leading_eigenpair(goldens.OSCILLATING_3)
    assert shifted.residual <= 1e-12
    assert shifted.value == pytest.approx(goldens.OSCILLATING_3_ABSCISSA, abs=1e-10)
    print(f"[criterion 5] PASS  plain sign changes={plain.sign_changes}  "
          f"translated residual={shifted.residual:.2e}")


def test_criterion_6_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)

    # (a) greedy vs exhaustive vertex enumeration, both directions
    for _ in range(200):
        d = int(rng.integers(2, 7))
        sets = []
        for i in range(d):
            m = int(rng.integers(1, 5))
            rows = rng.uniform(0.05, 1.0, size=(m, d))
            rows[:, i] = rng.uniform(-3.0, 1.0, size=m)
            sets.append(family.UncertaintySet(i, rows))
        fam = family.ProductFamily(sets)
        menus = [np.asarray(s.rows) for s in sets]
        for direction in ("max", "min"):
            if direction == "max":
                got = family.optimize_with_irreducibility_patch(fam)
            else:
                got = family.selective_greedy(fam, "min")
            want, _ = oracles.family_vertex_optimum(menus, direction)
            assert got.abscissa == pytest.approx(want, abs=1e-8)

    # (b) row minimizer vs LP
    for trial in range(500):
        d = int(rng.integers(2, 8))
        i = int(rng.integers(d))
        row = rng.uniform(0.0, 2.0, d)
        schur = bool(trial % 2)
        if not schur:
            row[i] = rng.uniform(-3.0, 2.0)
        v = rng.uniform(0.0, 1.0, d) * (rng.random(d) < 0.8)
        tau = float(rng.uniform(0.0, 1.5) * (np.abs(row).sum() + 0.1))
        out = infnorm.ball_row_minimizer(row, v, tau, i, schur=schur)
        want = oracles.lp_row_minimum(row, v, tau, i, schur=schur)
        assert float(out @ v) == pytest.approx(want, abs=1e-9)

    # (c) max-norm stabilizer vs scalar bisection
    for _ in range(100):
        d = int(rng.integers(2, 7))
        a = helpers.random_unstable_metzler(rng, d)
        got = maxnorm.closest_stable_max(a)
        assert got.tau_star == pytest.approx(oracles.clamp_tau_root(a), abs=1e-8)

    # (d) sign ball minimizer vs exhaustive enumeration
    for _ in range(100):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        entries = helpers.random_unstable_sign(rng, d)
        got = sign.sign_ball_minimize(sign.SignMatrix(entries), k)
        assert got.abscissa == pytest.approx(
            oracles.sign_ball_minimum(entries, k), abs=1e-8)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"[criterion 6] PASS  oracle suite in {elapsed:.1f}s")


def test_criterion_7_iteration_shapes_at_desk_scale():
    full = bench.run_bench(ops=("family-max",), dims=(25, 100), counts=(50, 100),
                           kind="full", trials=10, seed=42)
    for row in full:
        assert row["iterations_mean"] <= 6.0, row
        assert row["seconds_mean"] * row["trials"] < 120.0, row
    sparse = bench.run_bench(ops=("family-min",), dims=(25,), counts=(50,),
                             kind="sparse", density=(0.09, 0.15), trials=10,
                             seed=42)
    for row in sparse:
        assert row["iterations_mean"] <= 12.0, row
        assert row["seconds_mean"] * row["trials"] < 120.0, row
    means = [f"{row['op']}/d{row['dim']}/N{row['count']}:{row['iterations_mean']:.1f}"
             for row in full + sparse]
    print("[criterion 7] PASS  " + "  ".join(means))


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(8)
    report = []

    # entrywise order implies abscissa order for Metzler matrices
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        a = helpers.random_metzler(rng, d)
        b = a + rng.uniform(0.0, 0.5, (d, d)) * (rng.random((d, d)) < 0.5)
        ea = core.selected_leading_eigenpair(a).value
        eb = core.selected_leading_eigenpair(b).value
        assert ea <= eb + 1e-9
    report.append("monotonicity")

    # minimal nonnegativity shift and the abscissa/radius translation identity
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        a = helpers.random_metzler(rng, d, scale=float(rng.uniform(0.5, 4.0)))
        h = core.translation_shift(a)
        shifted = a + h * np.eye(d)
        assert shifted.min() >= 0.0
        if h > 0.0:
            assert shifted.diagonal().min() == pytest.approx(0.0, abs=1e-12)
        assert oracles.radius(shifted) == pytest.approx(
            oracles.abscissa(a) + h, abs=1e-8)
    report.append("translation")

    # destabilization lands on the boundary and is sharp in its own column
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        a = helpers.random_stable_metzler(rng, d)
        res = infnorm.closest_unstable_inf_hurwitz(a)
        assert abs(oracles.abscissa(res.matrix)) <= 1e-8
        shy = a.copy()
        shy[:, res.column] += 0.99 * res.tau_star
        assert oracles.abscissa(shy) < 0.0
    report.append("destab sharpness")

    # accepted stable probes of the l-inf stabilizer shrink strictly
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        a = helpers.random_unstable_metzler(rng, d)
        out = infnorm.closest_stable_inf_hurwitz(a)
        accepted = [t for t, obj in out.trace if obj < -infnorm.ZERO_TOL]
        assert all(b < t for t, b in zip(accepted, accepted[1:]))
        assert out.tau_star <= min(accepted, default=out.tau_star) + 1e-12
    report.append("tau monotonicity")

    # a sweep agrees with its own C - tau R certificate on the support,
    # rebuilt from its pivot record
    from metzstab.infnorm import _sweep
    for trial in range(1000):
        d = int(rng.integers(2, 6))
        schur = bool(trial % 2)
        a = helpers.random_unstable_metzler(rng, d)
        base = np.abs(a) if schur else a
        v = rng.uniform(0.0, 1.0, d) * (rng.random(d) < 0.8)
        tau = float(rng.uniform(0.05, 1.0) * core.matrix_norm(base, "inf"))
        x, (rows, pivots, formal_pivots) = _sweep(base, base.copy(), v, tau, schur)
        r = np.zeros((d, d))
        np.add.at(r, (rows, pivots), 1.0)
        formal = x.copy()
        formal[rows, pivots] = formal_pivots
        sup = np.flatnonzero(v > 0.0)
        want = np.maximum(formal, 0.0) if schur else formal
        np.testing.assert_allclose(x[sup], want[sup], atol=1e-12)
        if sup.size:
            np.testing.assert_array_equal(r[sup].sum(axis=1), np.ones(sup.size))
        assert r.sum() == sup.size
    report.append("CR consistency")

    # graph route and spectral route agree on strict sign stability
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        m = sign.SignMatrix(helpers.random_sign_entries(rng, d))
        got = sign.is_sign_stable(m)
        assert got == (oracles.abscissa(m.realize()) < -1e-9)
    report.append("sign agreement")

    # greedy traces improve monotonically and never revisit a choice tuple
    for trial in range(1000):
        d = int(rng.integers(2, 5))
        sets = []
        for i in range(d):
            m = int(rng.integers(1, 4))
            rows = rng.uniform(0.05, 1.0, size=(m, d))
            rows[:, i] = rng.uniform(-3.0, 1.0, size=m)
            sets.append(family.UncertaintySet(i, rows))
        direction = "max" if trial % 2 else "min"
        out = family.selective_greedy(family.ProductFamily(sets), direction)
        choices, trace = zip(*out.trace)
        if direction == "max":
            assert all(b >= t - 1e-9 for t, b in zip(trace, trace[1:]))
        else:
            assert all(b <= t + 1e-9 for t, b in zip(trace, trace[1:]))
        assert len(set(choices)) == len(choices)
    report.append("family traces")

    # sign cuts: each mode loses exactly the overlay removals it carries
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        modes = []
        for _ in range(int(rng.integers(2, 4))):
            m = rng.uniform(0.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.6)
            np.fill_diagonal(m, rng.uniform(-3.0, -0.2, d))
            modes.append(m)
        out = lss.stabilize_lss_by_signs(lss.SwitchingSystem(tuple(modes)))
        overlay = sign.sign_pattern(sum(modes)).entries
        removed = (overlay == 1) & (out.stable_sign.entries == 0)
        for orig, cut, budget in zip(modes, out.system.modes, out.mode_budgets):
            np.testing.assert_array_equal(cut, np.where(removed, 0.0, orig))
            changed = (cut != orig)
            assert budget == int(changed.sum(axis=1).max(initial=0))
        rebuilt = sign.sign_pattern(sum(out.system.modes)).entries
        np.testing.assert_array_equal(rebuilt, out.stable_sign.entries)
        assert oracles.abscissa(out.stable_sign.realize()) <= 1e-9
    report.append("lss decomposition")

    print("[criterion 8] PASS  " + ", ".join(report) + "  (1000 instances each)")
