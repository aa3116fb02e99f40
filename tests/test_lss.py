import numpy as np
import pytest

from metzstab import core, infnorm, lss
from metzstab.errors import IterationLimitError, PreconditionError
from metzstab.lss import (
    LSS2DResult,
    SwitchingSystem,
    hull_max_abscissa,
    stabilize_2d_lss,
    stabilize_lss_by_signs,
)

import goldens
import oracles


def test_switching_system_validation():
    with pytest.raises(ValueError):
        SwitchingSystem(())
    with pytest.raises(ValueError):
        SwitchingSystem((np.eye(2) * -1.0, np.eye(3) * -1.0))
    with pytest.raises(PreconditionError):
        SwitchingSystem((np.array([[-1.0, -2.0], [0.0, -1.0]]),))


def test_hull_single_mode_is_the_mode_itself():
    a = np.array([[-2.0, 1.0], [0.5, -1.0]])
    hp = hull_max_abscissa(SwitchingSystem((a,)))
    np.testing.assert_allclose(hp.weights, [1.0])
    assert hp.abscissa == pytest.approx(oracles.abscissa(a), abs=1e-9)


def test_hull_of_equal_modes_is_flat():
    a = np.array([[-2.0, 1.0], [0.5, -1.0]])
    hp = hull_max_abscissa(SwitchingSystem((a, a, a)))
    assert hp.abscissa == pytest.approx(oracles.abscissa(a), abs=1e-8)


def test_hull_finds_unstable_midpoint():
    # both vertices have eta = -1; the hull peaks at the midpoint with
    # eta(0.5 A + 0.5 B) = -1 + 4 * sqrt(1/4) = 1
    a = np.array([[-1.0, 4.0], [0.0, -1.0]])
    b = np.array([[-1.0, 0.0], [4.0, -1.0]])
    hp = hull_max_abscissa(SwitchingSystem((a, b)))
    assert hp.abscissa == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(hp.weights, [0.5, 0.5], atol=1e-4)


def test_hull_refinement_rescues_coarse_grids():
    a = np.array([[-1.0, 4.0], [0.0, -1.0]])
    b = np.array([[-1.0, 0.0], [4.0, -1.0]])
    hp = hull_max_abscissa(SwitchingSystem((a, b)), resolution=2)
    assert hp.abscissa == pytest.approx(1.0, abs=1e-6)


def test_hull_weights_form_a_distribution():
    rng = np.random.default_rng(73)
    modes = tuple(core.metzlerize(rng.uniform(-1.0, 1.0, (3, 3))) for _ in range(3))
    hp = hull_max_abscissa(SwitchingSystem(modes))
    assert hp.weights.min() >= 0.0
    assert hp.weights.sum() == pytest.approx(1.0, abs=1e-12)
    combined = sum(w * m for w, m in zip(hp.weights, modes))
    np.testing.assert_allclose(hp.matrix, combined, atol=1e-12)
    # no convex combination on a fine independent grid beats the reported max
    alphas = np.linspace(0.0, 1.0, 41)
    for a1 in alphas:
        for a2 in alphas:
            if a1 + a2 > 1.0:
                continue
            m = a1 * modes[0] + a2 * modes[1] + (1 - a1 - a2) * modes[2]
            assert oracles.abscissa(m) <= hp.abscissa + 1e-4


def test_stabilize_2d_requires_planar_system():
    with pytest.raises(PreconditionError):
        stabilize_2d_lss(SwitchingSystem((np.eye(3) * -1.0,)))


def test_stabilize_2d_keeps_stable_systems_unchanged():
    a = np.array([[-2.0, 0.5], [0.5, -2.0]])
    b = np.array([[-1.0, 0.0], [0.0, -1.0]])
    out = stabilize_2d_lss(SwitchingSystem((a, b)))
    assert out.mode_taus == (0.0, 0.0)
    np.testing.assert_array_equal(out.system.modes[0], a)
    np.testing.assert_array_equal(out.system.modes[1], b)
    assert out.hull.abscissa < 0.0


def test_stabilize_2d_single_mode_reduces_to_matrix_stabilization():
    a = np.array([[1.0, 2.0], [3.0, -1.0]])
    direct = infnorm.closest_stable_inf_hurwitz(a)
    out = stabilize_2d_lss(SwitchingSystem((a,)))
    assert out.mode_taus[0] == pytest.approx(direct.tau_star, rel=1e-2)
    assert out.hull.abscissa < 0.0


def test_stabilize_2d_repairs_unstable_hull():
    a = np.array([[1.0, 2.0], [3.0, -1.0]])
    b = np.array([[-3.0, 4.0], [1.0, -2.0]])
    sys_in = SwitchingSystem((a, b))
    out = stabilize_2d_lss(sys_in)
    assert out.hull.abscissa < 0.0
    for got, orig in zip(out.system.modes, sys_in.modes):
        assert core.is_metzler(got)
        assert float((got - orig).max()) <= 1e-9
    # independent recheck of the repaired hull on a dense grid
    alphas = np.linspace(0.0, 1.0, 201)
    m0, m1 = out.system.modes
    etas = oracles.abscissa_stack(
        np.array([al * m0 + (1 - al) * m1 for al in alphas]))
    assert float(etas.max()) < 0.0
    # reported distances are the l-inf gaps actually realized
    for tau, got, orig in zip(out.mode_taus, out.system.modes, sys_in.modes):
        assert tau == pytest.approx(core.matrix_norm(got - orig, "inf"), abs=1e-12)


def test_stabilize_2d_repairs_the_hull_over_several_rounds():
    # Both modes are unstable; after their l-inf repair the hull is still
    # unstable (eta 0.27), and the second round's hull is stable.
    a = np.array([[-1.0, 2.0], [3.0, -1.0]])
    b = np.array([[0.0, 3.0], [1.0, -4.0]])
    sys_in = SwitchingSystem((a, b))
    out = stabilize_2d_lss(sys_in)
    assert out.iterations >= 2
    assert out.hull.abscissa < 0.0
    assert all(core.is_metzler(got) for got in out.system.modes)
    alphas = np.linspace(0.0, 1.0, 201)
    m0, m1 = out.system.modes
    etas = oracles.abscissa_stack(
        np.array([al * m0 + (1 - al) * m1 for al in alphas]))
    assert float(etas.max()) < 0.0
    for tau, got, orig in zip(out.mode_taus, out.system.modes, sys_in.modes):
        assert tau == pytest.approx(core.matrix_norm(got - orig, "inf"), abs=1e-12)


def test_stabilize_2d_pushes_a_hull_on_the_boundary_inside():
    # Both modes are Hurwitz, but the hull midpoint has abscissa exactly 0:
    # the repair shifts that boundary point inside rather than solving for
    # its closest stable matrix.
    sys_in = SwitchingSystem(([[-1.0, 2.0], [0.0, -1.0]], [[-1.0, 0.0], [2.0, -1.0]]))
    assert hull_max_abscissa(sys_in).abscissa == pytest.approx(0.0, abs=infnorm.ZERO_TOL)
    out = stabilize_2d_lss(sys_in)
    assert out.iterations == 2
    assert out.hull.abscissa == pytest.approx(-2.0e-4, rel=1e-9)
    np.testing.assert_allclose(out.hull.weights, [0.5, 0.5], atol=1e-12)
    assert all(core.is_metzler(got) for got in out.system.modes)
    alphas = np.linspace(0.0, 1.0, 201)
    m0, m1 = out.system.modes
    etas = oracles.abscissa_stack(
        np.array([al * m0 + (1 - al) * m1 for al in alphas]))
    assert float(etas.max()) < 0.0


def test_stabilize_2d_raises_after_its_repair_rounds(monkeypatch):
    # The system above needs two repair rounds; a budget of one runs out.
    a = np.array([[-1.0, 2.0], [3.0, -1.0]])
    b = np.array([[0.0, 3.0], [1.0, -4.0]])
    monkeypatch.setattr(lss, "_REPAIR_ROUNDS", 1)
    with pytest.raises(IterationLimitError, match="did not converge in 1 rounds") as err:
        stabilize_2d_lss(SwitchingSystem((a, b)))
    best = err.value.best
    assert isinstance(best, LSS2DResult)
    assert best.iterations == 1
    assert best.hull.abscissa >= 0.0


def test_sign_route_worked_example():
    out = stabilize_lss_by_signs(SwitchingSystem(goldens.SWITCH_MODES))
    np.testing.assert_array_equal(out.union_sign.entries, goldens.SWITCH_OVERLAY)
    np.testing.assert_array_equal(out.stable_sign.entries, goldens.SWITCH_STABLE_SIGN)
    assert out.k_star == goldens.SWITCH_K
    assert out.mode_budgets == goldens.SWITCH_BUDGETS
    for got, want in zip(out.system.modes, goldens.SWITCH_CUT_MODES):
        np.testing.assert_array_equal(got, want)
    assert out.abscissa <= core.STABILITY_TOL
    # the remaining two-cycle keeps the pattern weakly but not strongly stable
    assert not out.acyclic
    assert oracles.abscissa(goldens.SWITCH_OVERLAY.astype(float)) == pytest.approx(
        goldens.SWITCH_OVERLAY_ETA, abs=1e-9)


def test_sign_route_requires_negative_diagonals():
    bad = np.array([[0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(PreconditionError):
        stabilize_lss_by_signs(SwitchingSystem((bad,)))


def test_sign_route_stable_overlay_is_untouched():
    a = np.array([[-1.0, 0.7], [0.0, -2.0]])
    b = np.array([[-3.0, 0.0], [0.0, -1.0]])
    out = stabilize_lss_by_signs(SwitchingSystem((a, b)))
    assert out.k_star == 0
    assert out.mode_budgets == (0, 0)
    np.testing.assert_array_equal(out.system.modes[0], a)
    np.testing.assert_array_equal(out.system.modes[1], b)
    assert out.acyclic


def test_sign_route_cuts_only_owning_modes():
    carrier = np.array([
        [-1.0, 1.0, 0.0],
        [1.0, -1.0, 1.0],
        [0.0, 1.0, -1.0],
    ])
    bystander = -np.eye(3)
    out = stabilize_lss_by_signs(SwitchingSystem((carrier, bystander)))
    assert out.k_star == 1
    assert out.mode_budgets[1] == 0
    np.testing.assert_array_equal(out.system.modes[1], bystander)
    assert core.spectral_abscissa(out.stable_sign.realize()) <= core.STABILITY_TOL
    # decomposition exactness: the cut modes overlay to the stable pattern
    overlay = np.sign(sum(np.sign(m) for m in out.system.modes))
    np.testing.assert_array_equal(overlay, out.stable_sign.entries.astype(float))


def test_sign_route_budgets_bound_the_cut_distance():
    out = stabilize_lss_by_signs(SwitchingSystem(goldens.SWITCH_MODES))
    assert sum(out.mode_budgets) >= out.k_star
    for budget, got, orig in zip(out.mode_budgets, out.system.modes,
                                 goldens.SWITCH_MODES):
        diff = np.sign(orig) - np.sign(got)
        assert int(np.abs(diff).sum(axis=1).max()) <= budget


def test_a_mode_on_the_boundary_is_pushed_inside_before_the_hull_scan():
    # Mode 0 has eta exactly 0, within core.STABILITY_TOL of the boundary:
    # it is shifted by the margin before the first scan, whose worst point
    # is then strictly stable. Left on the boundary, it would cost a repair
    # round.
    boundary = np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert core.spectral_abscissa(boundary) == 0.0
    out = stabilize_2d_lss(SwitchingSystem((boundary, np.array([[-2.0, 0.5], [0.3, -1.0]]))))
    assert out.iterations == 1
    assert out.hull.abscissa < 0.0
    np.testing.assert_array_equal(out.system.modes[0], boundary - 2e-4 * np.eye(2))


def test_the_hull_repair_leaves_a_mode_off_the_worst_point_alone():
    # At resolution 1 the golden-section refinement leaves a weight of a
    # few 1e-15 on the stable mode 1 at the worst hull point. That mode
    # takes no part in the point, so the repair leaves it as it is.
    modes = (
        np.array([[-1.1, 0.0], [0.5, 0.1]]),
        np.array([[-1.3, 0.5], [0.2, -0.2]]),
        np.array([[-1.1, 0.0], [0.7, 0.2]]),
        np.array([[0.0, 0.8], [0.6, 0.2]]),
    )
    assert core.spectral_abscissa(modes[1]) < 0.0
    out = stabilize_2d_lss(SwitchingSystem(modes), resolution=1)
    assert out.hull.abscissa < 0.0
    assert out.mode_taus[1] == 0.0
    np.testing.assert_array_equal(out.system.modes[1], modes[1])


def test_the_hull_scan_reports_the_default_tolerance_weights():
    # The hull maximum of SWITCH_MODES is flat, so the eigen tolerance moves
    # the weights lss-check reports by about 1e-8, though not the abscissa:
    # this pins them at core.DEFAULT_TOL, the tolerance of every eigen call.
    hp = hull_max_abscissa(SwitchingSystem(goldens.SWITCH_MODES))
    np.testing.assert_allclose(hp.weights, [0.303640198649039, 0.0, 0.696359801350961],
                               rtol=1e-10, atol=0.0)
    assert hp.abscissa == pytest.approx(-0.6960045460986368, rel=1e-12)
